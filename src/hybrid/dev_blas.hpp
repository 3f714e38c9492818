// Device BLAS: asynchronous kernel launches on a stream.
//
// Counterparts of the cuBLAS calls the MAGMA Hessenberg path issues. Each
// call enqueues the kernel and returns immediately; all operand views are
// device-tagged (DMatrixView/DVectorView) and must reference device memory
// that stays alive until the stream drains. The kernels unwrap their
// operands with .in_task() on the worker thread, so a stale view (backing
// DeviceMatrix freed before the stream drained) is reported by fth::check.
#pragma once

#include "la/matrix.hpp"
#include "hybrid/stream.hpp"

namespace fth::hybrid {

void gemm_async(Stream& s, Trans ta, Trans tb, double alpha, DMatrixView<const double> a,
                DMatrixView<const double> b, double beta, DMatrixView<double> c);

void gemv_async(Stream& s, Trans trans, double alpha, DMatrixView<const double> a,
                DVectorView<const double> x, double beta, DVectorView<double> y);

void trmm_async(Stream& s, Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
                DMatrixView<const double> a, DMatrixView<double> b);

void axpy_async(Stream& s, double alpha, DVectorView<const double> x, DVectorView<double> y);

/// Apply the block reflector H = I − V·T·Vᵀ (or Hᵀ) from the left to C on
/// the device. `work` is device scratch of at least C.cols()×V.cols().
void larfb_left_async(Stream& s, Trans trans, DMatrixView<const double> v,
                      DMatrixView<const double> t, DMatrixView<double> c,
                      DMatrixView<double> work);

void symv_async(Stream& s, Uplo uplo, double alpha, DMatrixView<const double> a,
                DVectorView<const double> x, double beta, DVectorView<double> y);

void syr2k_async(Stream& s, Uplo uplo, Trans trans, double alpha, DMatrixView<const double> a,
                 DMatrixView<const double> b, double beta, DMatrixView<double> c);

}  // namespace fth::hybrid

#include "hybrid/dev_blas.hpp"

#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "lapack/reflectors.hpp"
#include "obs/trace.hpp"

namespace fth::hybrid {

void gemm_async(Stream& s, Trans ta, Trans tb, double alpha, DMatrixView<const double> a,
                DMatrixView<const double> b, double beta, DMatrixView<double> c) {
  s.enqueue("dev.gemm", FTH_TASK_EFFECTS(FTH_READS(a, b) FTH_WRITES(c)), [=] {
    obs::TraceSpan span("dev_blas", "gemm");
    blas::gemm(ta, tb, alpha, a.in_task(), b.in_task(), beta, c.in_task());
  });
}

void gemv_async(Stream& s, Trans trans, double alpha, DMatrixView<const double> a,
                DVectorView<const double> x, double beta, DVectorView<double> y) {
  s.enqueue("dev.gemv", FTH_TASK_EFFECTS(FTH_READS(a, x) FTH_WRITES(y)), [=] {
    obs::TraceSpan span("dev_blas", "gemv");
    blas::gemv(trans, alpha, a.in_task(), x.in_task(), beta, y.in_task());
  });
}

void trmm_async(Stream& s, Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
                DMatrixView<const double> a, DMatrixView<double> b) {
  s.enqueue("dev.trmm", FTH_TASK_EFFECTS(FTH_READS(a) FTH_WRITES(b)), [=] {
    obs::TraceSpan span("dev_blas", "trmm");
    blas::trmm(side, uplo, trans, diag, alpha, a.in_task(), b.in_task());
  });
}

void axpy_async(Stream& s, double alpha, DVectorView<const double> x, DVectorView<double> y) {
  s.enqueue("dev.axpy", FTH_TASK_EFFECTS(FTH_READS(x) FTH_WRITES(y)), [=] {
    obs::TraceSpan span("dev_blas", "axpy");
    blas::axpy(alpha, x.in_task(), y.in_task());
  });
}

void larfb_left_async(Stream& s, Trans trans, DMatrixView<const double> v,
                      DMatrixView<const double> t, DMatrixView<double> c,
                      DMatrixView<double> work) {
  s.enqueue("dev.larfb", FTH_TASK_EFFECTS(FTH_READS(v, t) FTH_WRITES(c, work)), [=] {
    obs::TraceSpan span("dev_blas", "larfb");
    lapack::larfb(trans, v.in_task(), t.in_task(), c.in_task(), work.in_task());
  });
}

void symv_async(Stream& s, Uplo uplo, double alpha, DMatrixView<const double> a,
                DVectorView<const double> x, double beta, DVectorView<double> y) {
  s.enqueue("dev.symv", FTH_TASK_EFFECTS(FTH_READS(a, x) FTH_WRITES(y)), [=] {
    obs::TraceSpan span("dev_blas", "symv");
    blas::symv(uplo, alpha, a.in_task(), x.in_task(), beta, y.in_task());
  });
}

void syr2k_async(Stream& s, Uplo uplo, Trans trans, double alpha, DMatrixView<const double> a,
                 DMatrixView<const double> b, double beta, DMatrixView<double> c) {
  s.enqueue("dev.syr2k", FTH_TASK_EFFECTS(FTH_READS(a, b) FTH_WRITES(c)), [=] {
    obs::TraceSpan span("dev_blas", "syr2k");
    blas::syr2k(uplo, trans, alpha, a.in_task(), b.in_task(), beta, c.in_task());
  });
}

}  // namespace fth::hybrid

// The code sums the FT drivers take on the host, inside a device window,
// against the device tasks they replaced, bit for bit: the encodes' codes
// (gehrd's grand total and sytrd's weighted SYMV included), the two-code
// drivers' operand and old-panel sums with the one code-update task they
// feed, and gebrd's one-pass check. Each device side is the task sequence
// the drivers once enqueued, on the drivers' operand shapes (gehrd's
// strided checksum row included). Registered twice: plainly, and under the
// ctest prefix "strictfp." with each test run twice in one process.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "ft/checksum.hpp"
#include "hybrid/dev_blas.hpp"
#include "hybrid/device.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/generate.hpp"

namespace fth::ft {
namespace {

using hybrid::copy_d2h;
using hybrid::copy_h2d;
using hybrid::DeviceMatrix;

const index_t kSizes[] = {37, 128, 200};
constexpr index_t kNb = 32;

::testing::AssertionResult same_bits(MatrixView<const double> x, MatrixView<const double> y) {
  if (x.rows() != y.rows() || x.cols() != y.cols())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t r = 0; r < x.rows(); ++r)
      if (std::bit_cast<std::uint64_t>(x(r, j)) != std::bit_cast<std::uint64_t>(y(r, j)))
        return ::testing::AssertionFailure()
               << "(" << r << ", " << j << "): " << x(r, j) << " vs " << y(r, j);
  return ::testing::AssertionSuccess();
}

Matrix<double> fetch(hybrid::Stream& s, DMatrixView<const double> d) {
  Matrix<double> h(d.rows(), d.cols());
  copy_d2h(s, d, h.view());
  return h;
}

/// ω_r = r + 1, the weighted code's weights.
Matrix<double> weights(index_t n) {
  Matrix<double> w(n, 1);
  for (index_t r = 0; r < n; ++r) w(r, 0) = static_cast<double>(r + 1);
  return w;
}

TEST(HostCodes, LineCodeEncodeIsTheDeviceEncode) {
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  for (const index_t n : kSizes) {
    SCOPED_TRACE(n);
    const Matrix<double> a = random_matrix(n, n, 500 + static_cast<std::uint64_t>(n));
    // Host, as ft_gehrd and ft_gebrd encode: both codes in one pass, then
    // gehrd's grand total over the column sums.
    Matrix<double> row(n, 1);
    Matrix<double> col(1, n + 1);
    fresh_line_sums(a.cview(), LineShape::full(), row.view().col(0),
                    col.view().row(0).sub(0, n));
    col(0, n) = blas::sum(VectorView<const double>(col.view().row(0).sub(0, n)));

    // Device, as they encoded: the extended matrix's row-sum and column-sum
    // tasks, then the grand-total task.
    DeviceMatrix<double> e(dev, n + 1, n + 1);
    copy_h2d(s, a.cview(), e.block(0, 0, n, n));
    sum_lines_async(s, e.block(0, 0, n, n), LineShape::full(), e.block(0, n, n, 1).col(0), {});
    auto ev = e.view();
    sum_lines_async(s, e.block(0, 0, n, n), LineShape::full(), {}, ev.row(n).sub(0, n));
    s.enqueue("test.corner", FTH_TASK_EFFECTS(FTH_WRITES(ev)), [ev, n] {
      auto eh = ev.in_task();
      eh(n, n) = blas::sum(VectorView<const double>(eh.row(n).sub(0, n)));
    });
    EXPECT_TRUE(same_bits(row.cview(), fetch(s, e.block(0, n, n, 1)).cview()));
    EXPECT_TRUE(same_bits(col.cview(), fetch(s, e.block(n, 0, 1, n + 1)).cview()));
  }
}

TEST(HostCodes, SymmetricEncodeIsTheDeviceEncode) {
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  for (const index_t n : kSizes) {
    SCOPED_TRACE(n);
    const Matrix<double> a = random_symmetric_matrix(n, 600 + static_cast<std::uint64_t>(n));
    const Matrix<double> omega = weights(n);
    // Host, as ft_sytrd encodes: the plain code by the symmetric line sum,
    // the weighted code by SYMV against ω.
    Matrix<double> codes(n, 2);
    sytrd_encode_codes(a.cview(), omega.cview().col(0), codes.view().col(0), codes.view().col(1));

    DeviceMatrix<double> d_a(dev, n, n);
    DeviceMatrix<double> d_w(dev, n, 1);
    DeviceMatrix<double> d_codes(dev, n, 2);
    copy_h2d(s, a.cview(), d_a.view());
    copy_h2d(s, omega.cview(), d_w.view());
    sum_lines_async(s, d_a.view(), LineShape::symmetric_lower(), d_codes.view().col(0), {});
    hybrid::symv_async(s, Uplo::Lower, 1.0, d_a.view(), d_w.view().col(0), 0.0,
                       d_codes.view().col(1));
    EXPECT_TRUE(same_bits(codes.cview(), fetch(s, d_codes.view()).cview()));
  }
}

/// One iteration's shapes: panel width ib at column i, tn trailing rows.
struct Shape {
  index_t n;
  index_t i;
  index_t ib;
  index_t tn;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  for (const index_t n : kSizes)
    for (index_t i = 0; n - i > kNb + 1; i += kNb) {
      const index_t ib = std::min(kNb, n - 1 - i);
      out.push_back({n, i, ib, n - i - ib});
    }
  return out;
}

TEST(HostCodes, SytrdCodeMaintenanceIsTheDeviceMaintenance) {
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  for (const Shape& sh : shapes()) {
    SCOPED_TRACE(::testing::Message() << "n=" << sh.n << " i=" << sh.i);
    const auto seed = static_cast<std::uint64_t>(7 * sh.n + sh.i);
    const Matrix<double> v2 = random_matrix(sh.tn, sh.ib, seed);
    const Matrix<double> w2 = random_matrix(sh.tn, sh.ib, seed + 1);
    const Matrix<double> panel = random_matrix(sh.tn, sh.ib, seed + 2);
    const Matrix<double> codes0 = random_matrix(sh.n, 2, seed + 3);
    const Matrix<double> omega = weights(sh.n);

    // Host sums, one upload, one code-update task: ft_sytrd's iteration.
    const index_t len = 4 * sh.ib + 2 * sh.tn;
    Matrix<double> sums(len, 1);
    sytrd_operand_sums(v2.cview(), w2.cview(), omega.cview().col(0).sub(sh.i + sh.ib, sh.tn),
                       sums.view().col(0));
    sytrd_panel_sums(panel.cview(), omega.cview().col(0).sub(sh.i, sh.ib), sums.view().col(0));
    DeviceMatrix<double> d_v2(dev, sh.tn, sh.ib);
    DeviceMatrix<double> d_w2(dev, sh.tn, sh.ib);
    DeviceMatrix<double> d_sums(dev, len, 1);
    DeviceMatrix<double> d_codes(dev, sh.n, 2);
    copy_h2d(s, v2.cview(), d_v2.view());
    copy_h2d(s, w2.cview(), d_w2.view());
    copy_h2d(s, sums.cview(), d_sums.view());
    copy_h2d(s, codes0.cview(), d_codes.view());
    {
      auto v = d_v2.view();
      auto w = d_w2.view();
      auto sv = d_sums.view().col(0);
      auto plain = d_codes.view().col(0).sub(sh.i + sh.ib, sh.tn);
      auto weighted = d_codes.view().col(1).sub(sh.i + sh.ib, sh.tn);
      s.enqueue("test.code_update",
                FTH_TASK_EFFECTS(FTH_READS(v, w, sv) FTH_WRITES(plain, weighted)),
                [v, w, sv, plain, weighted] {
        sytrd_code_update(v.in_task(), w.in_task(), sv.in_task(), plain.in_task(),
                          weighted.in_task());
      });
    }
    const Matrix<double> got = fetch(s, d_codes.view());

    // Device sums and updates, one task each, as ft_sytrd enqueued them.
    DeviceMatrix<double> d_panel(dev, sh.tn, sh.ib);
    DeviceMatrix<double> d_omega(dev, sh.n, 1);
    DeviceMatrix<double> d_s(dev, sh.ib, 4);
    DeviceMatrix<double> d_pc(dev, sh.tn, 2);
    copy_h2d(s, panel.cview(), d_panel.view());
    copy_h2d(s, omega.cview(), d_omega.view());
    copy_h2d(s, codes0.cview(), d_codes.view());
    auto v = d_v2.view();
    auto w = d_w2.view();
    auto wtail = d_omega.view().col(0).sub(sh.i + sh.ib, sh.tn);
    auto wpanel = d_omega.view().col(0).sub(sh.i, sh.ib);
    sum_lines_async(s, v, LineShape::full(), {}, d_s.view().col(0));
    sum_lines_async(s, w, LineShape::full(), {}, d_s.view().col(1));
    hybrid::gemv_async(s, Trans::Yes, 1.0, v, wtail, 0.0, d_s.view().col(2));
    hybrid::gemv_async(s, Trans::Yes, 1.0, w, wtail, 0.0, d_s.view().col(3));
    sum_lines_async(s, d_panel.view(), LineShape::full(), d_pc.view().col(0), {});
    hybrid::gemv_async(s, Trans::No, 1.0, d_panel.view(), wpanel, 0.0, d_pc.view().col(1));
    auto plain = d_codes.view().col(0).sub(sh.i + sh.ib, sh.tn);
    auto weighted = d_codes.view().col(1).sub(sh.i + sh.ib, sh.tn);
    hybrid::axpy_async(s, -1.0, d_pc.view().col(0), plain);
    hybrid::gemv_async(s, Trans::No, -1.0, v, d_s.view().col(1), 1.0, plain);
    hybrid::gemv_async(s, Trans::No, -1.0, w, d_s.view().col(0), 1.0, plain);
    hybrid::axpy_async(s, -1.0, d_pc.view().col(1), weighted);
    hybrid::gemv_async(s, Trans::No, -1.0, v, d_s.view().col(3), 1.0, weighted);
    hybrid::gemv_async(s, Trans::No, -1.0, w, d_s.view().col(2), 1.0, weighted);

    const Matrix<double> d_sums_got = fetch(s, d_s.view());
    const Matrix<double> d_pc_got = fetch(s, d_pc.view());
    for (index_t k = 0; k < 4; ++k)
      EXPECT_TRUE(same_bits(sums.cview().block(k * sh.ib, 0, sh.ib, 1),
                            d_sums_got.cview().block(0, k, sh.ib, 1)))
          << "operand sum " << k;
    for (index_t k = 0; k < 2; ++k)
      EXPECT_TRUE(same_bits(sums.cview().block(4 * sh.ib + k * sh.tn, 0, sh.tn, 1),
                            d_pc_got.cview().block(0, k, sh.tn, 1)))
          << "old-panel sum " << k;
    EXPECT_TRUE(same_bits(got.cview(), fetch(s, d_codes.view()).cview())) << "updated codes";
  }
}

TEST(HostCodes, GebrdCodeMaintenanceIsTheDeviceMaintenance) {
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  for (const Shape& sh : shapes()) {
    SCOPED_TRACE(::testing::Message() << "n=" << sh.n << " i=" << sh.i);
    const auto seed = static_cast<std::uint64_t>(11 * sh.n + sh.i);
    const Matrix<double> v2 = random_matrix(sh.tn, sh.ib, seed);
    const Matrix<double> y2 = random_matrix(sh.tn, sh.ib, seed + 1);
    const Matrix<double> x2 = random_matrix(sh.tn, sh.ib, seed + 2);
    const Matrix<double> u2 = random_matrix(sh.ib, sh.tn, seed + 3);
    const Matrix<double> col_panel = random_matrix(sh.tn, sh.ib, seed + 4);
    const Matrix<double> row_panel = random_matrix(sh.ib, sh.tn, seed + 5);
    const Matrix<double> codes0 = random_matrix(sh.n, 2, seed + 6);

    const index_t len = 4 * sh.ib + 2 * sh.tn;
    Matrix<double> sums(len, 1);
    gebrd_operand_sums(y2.cview(), u2.cview(), v2.cview(), x2.cview(), sums.view().col(0));
    gebrd_panel_sums(col_panel.cview(), row_panel.cview(), sums.view().col(0));
    DeviceMatrix<double> d_v2(dev, sh.tn, sh.ib);
    DeviceMatrix<double> d_y2(dev, sh.tn, sh.ib);
    DeviceMatrix<double> d_x2(dev, sh.tn, sh.ib);
    DeviceMatrix<double> d_u2(dev, sh.ib, sh.tn);
    DeviceMatrix<double> d_sums(dev, len, 1);
    DeviceMatrix<double> d_codes(dev, sh.n, 2);
    copy_h2d(s, v2.cview(), d_v2.view());
    copy_h2d(s, y2.cview(), d_y2.view());
    copy_h2d(s, x2.cview(), d_x2.view());
    copy_h2d(s, u2.cview(), d_u2.view());
    copy_h2d(s, sums.cview(), d_sums.view());
    copy_h2d(s, codes0.cview(), d_codes.view());
    auto v = d_v2.view();
    auto y = d_y2.view();
    auto x = d_x2.view();
    auto u = d_u2.view();
    auto row_code = d_codes.view().col(0).sub(sh.i + sh.ib, sh.tn);
    auto col_code = d_codes.view().col(1).sub(sh.i + sh.ib, sh.tn);
    {
      auto sv = d_sums.view().col(0);
      s.enqueue("test.code_update",
                FTH_TASK_EFFECTS(FTH_READS(v, y, x, u, sv) FTH_WRITES(row_code, col_code)),
                [v, y, x, u, sv, row_code, col_code] {
        gebrd_code_update(v.in_task(), y.in_task(), x.in_task(), u.in_task(), sv.in_task(),
                          row_code.in_task(), col_code.in_task());
      });
    }
    const Matrix<double> got = fetch(s, d_codes.view());

    // Device sums and updates, one task each, as ft_gebrd enqueued them.
    DeviceMatrix<double> d_cp(dev, sh.tn, sh.ib);
    DeviceMatrix<double> d_rp(dev, sh.ib, sh.tn);
    DeviceMatrix<double> d_s(dev, sh.ib, 4);
    DeviceMatrix<double> d_pc(dev, sh.tn, 2);
    copy_h2d(s, col_panel.cview(), d_cp.view());
    copy_h2d(s, row_panel.cview(), d_rp.view());
    copy_h2d(s, codes0.cview(), d_codes.view());
    const LineShape full = LineShape::full();
    sum_lines_async(s, y, full, {}, d_s.view().col(0));
    sum_lines_async(s, u, full, d_s.view().col(1), {});
    sum_lines_async(s, v, full, {}, d_s.view().col(2));
    sum_lines_async(s, x, full, {}, d_s.view().col(3));
    sum_lines_async(s, d_cp.view(), full, d_pc.view().col(0), {});
    sum_lines_async(s, d_rp.view(), full, {}, d_pc.view().col(1));
    hybrid::axpy_async(s, -1.0, d_pc.view().col(0), row_code);
    hybrid::gemv_async(s, Trans::No, -1.0, v, d_s.view().col(0), 1.0, row_code);
    hybrid::gemv_async(s, Trans::No, -1.0, x, d_s.view().col(1), 1.0, row_code);
    hybrid::axpy_async(s, -1.0, d_pc.view().col(1), col_code);
    hybrid::gemv_async(s, Trans::No, -1.0, y, d_s.view().col(2), 1.0, col_code);
    hybrid::gemv_async(s, Trans::Yes, -1.0, u, d_s.view().col(3), 1.0, col_code);

    const Matrix<double> d_sums_got = fetch(s, d_s.view());
    const Matrix<double> d_pc_got = fetch(s, d_pc.view());
    for (index_t k = 0; k < 4; ++k)
      EXPECT_TRUE(same_bits(sums.cview().block(k * sh.ib, 0, sh.ib, 1),
                            d_sums_got.cview().block(0, k, sh.ib, 1)))
          << "operand sum " << k;
    for (index_t k = 0; k < 2; ++k)
      EXPECT_TRUE(same_bits(sums.cview().block(4 * sh.ib + k * sh.tn, 0, sh.tn, 1),
                            d_pc_got.cview().block(0, k, sh.tn, 1)))
          << "old-panel sum " << k;
    EXPECT_TRUE(same_bits(got.cview(), fetch(s, d_codes.view()).cview())) << "updated codes";
  }
}

TEST(HostCodes, GebrdOnePassCheckIsTheTwoPassCheck) {
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  for (const index_t n : kSizes) {
    for (const index_t i2 : {index_t{0}, kNb, n - kNb - 2}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " i2=" << i2);
      const index_t tn = n - i2;
      const Matrix<double> a = random_matrix(n, n, 700 + static_cast<std::uint64_t>(n + i2));
      DeviceMatrix<double> d_a(dev, n, n);
      DeviceMatrix<double> one(dev, n, 2);
      DeviceMatrix<double> two(dev, n, 2);
      copy_h2d(s, a.cview(), d_a.view());
      auto trailing = d_a.block(i2, i2, tn, tn);
      sum_lines_async(s, trailing, LineShape::full(), one.view().col(0).sub(0, tn),
                      one.view().col(1).sub(0, tn));
      sum_lines_async(s, trailing, LineShape::full(), two.view().col(0).sub(0, tn), {});
      sum_lines_async(s, trailing, LineShape::full(), {}, two.view().col(1).sub(0, tn));
      EXPECT_TRUE(same_bits(fetch(s, one.block(0, 0, tn, 2)).cview(),
                            fetch(s, two.block(0, 0, tn, 2)).cview()));
    }
  }
}

}  // namespace
}  // namespace fth::ft

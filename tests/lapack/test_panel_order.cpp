// Panel provider contract (DESIGN.md §7): a provider launches the big
// trailing-matrix product and returns a waiter; the panel loops may run
// only work that does not read the product between the two calls.
//
// Each test drives one panel template with a provider that fills the
// product with quiet NaN at launch and writes the true product only inside
// its waiter — the worst a device provider can look before its d2h lands.
// A loop that read the product before the waiter would carry a NaN into
// its outputs; one that never called the waiter would keep it. The outputs
// must equal the host routine's (whose waiter is ready) bit for bit, and
// every waiter must run exactly once per column, before the next launch.
//
// The tree is built with -ffp-contract=off (root CMakeLists.txt), so this
// TU's instantiation of each template and the library's host routine round
// identically.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "la/blas2.hpp"
#include "la/generate.hpp"
#include "lapack/gebrd.hpp"
#include "lapack/gebrd_impl.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/lahr2_impl.hpp"
#include "lapack/sytrd.hpp"
#include "lapack/sytrd_impl.hpp"

namespace fth {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

VectorView<double> vview(std::vector<double>& v) {
  return VectorView<double>(v.data(), static_cast<index_t>(v.size()));
}

bool same_bits(const Matrix<double>& x, const Matrix<double>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i)
      if (std::memcmp(&x(i, j), &y(i, j), sizeof(double)) != 0) return false;
  return true;
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// Counts one provider's launches and waits and checks the pairing: no
/// launch while an earlier waiter is still pending, no wait without a
/// launch.
struct WaitLedger {
  int launches = 0;
  int waits = 0;
  bool interleaved = true;

  void launch() {
    if (launches != waits) interleaved = false;
    ++launches;
  }
  void wait() {
    if (waits + 1 != launches) interleaved = false;
    ++waits;
  }
};

void fill_nan(VectorView<double> v) {
  for (index_t r = 0; r < v.size(); ++r) v[r] = kNaN;
}

struct PanelCase {
  index_t n;
  index_t k;
  index_t nb;
};

// n − k − nb ≥ 1 for every case; nb = 1 has no independent products.
const PanelCase kCases[] = {{12, 0, 1}, {37, 0, 8}, {37, 5, 8}, {64, 17, 16}};

TEST(PanelOrder, Lahr2ReadsYOnlyAfterItsWaiter) {
  for (const auto& c : kCases) {
    const Matrix<double> a0 = random_matrix(c.n, c.n, 9100 + static_cast<std::uint64_t>(c.n));
    Matrix<double> a_ref(a0.cview()), t_ref(c.nb, c.nb), y_ref(c.n, c.nb);
    std::vector<double> tau_ref(static_cast<std::size_t>(c.nb));
    lapack::lahr2(a_ref.view(), c.k, c.nb, t_ref.view(), y_ref.view(), vview(tau_ref));

    Matrix<double> a(a0.cview()), t(c.nb, c.nb), y(c.n, c.nb);
    std::vector<double> tau(static_cast<std::size_t>(c.nb));
    WaitLedger ledger;
    auto av = a.view();
    const index_t n = c.n, k = c.k;
    lapack::detail::lahr2_panel(
        av, k, c.nb, t.view(), y.view(), vview(tau),
        [&](index_t j, VectorView<const double> vj, VectorView<double> y_col) {
          ledger.launch();
          fill_nan(y_col);
          return [&, j, vj, y_col] {
            ledger.wait();
            const index_t cj = k + j;
            blas::gemv(Trans::No, 1.0,
                       MatrixView<const double>(av.block(k + 1, cj + 1, n - k - 1, n - cj - 1)),
                       vj, 0.0, y_col);
          };
        });

    SCOPED_TRACE(::testing::Message() << "n=" << c.n << " k=" << c.k << " nb=" << c.nb);
    EXPECT_EQ(ledger.launches, c.nb);
    EXPECT_EQ(ledger.waits, c.nb);
    EXPECT_TRUE(ledger.interleaved);
    EXPECT_TRUE(same_bits(a, a_ref));
    EXPECT_TRUE(same_bits(t, t_ref));
    EXPECT_TRUE(same_bits(tau, tau_ref));
    // lapack::lahr2 also forms Y's top rows 0..k after the panel; the
    // template owns rows k+1..n−1.
    Matrix<double> y_low(y.cview().block(k + 1, 0, n - k - 1, c.nb));
    Matrix<double> y_low_ref(y_ref.cview().block(k + 1, 0, n - k - 1, c.nb));
    EXPECT_TRUE(same_bits(y_low, y_low_ref));
  }
}

TEST(PanelOrder, LatrdReadsWOnlyAfterItsWaiter) {
  for (const auto& c : kCases) {
    const Matrix<double> a0 = random_symmetric_matrix(c.n, 9200 + static_cast<std::uint64_t>(c.n));
    Matrix<double> a_ref(a0.cview()), w_ref(c.n, c.nb);
    std::vector<double> e_ref(static_cast<std::size_t>(c.nb)), tau_ref(e_ref.size());
    lapack::latrd(a_ref.view(), c.k, c.nb, vview(e_ref), vview(tau_ref), w_ref.view());

    Matrix<double> a(a0.cview()), w(c.n, c.nb);
    std::vector<double> e(e_ref.size()), tau(e_ref.size());
    WaitLedger ledger;
    auto av = a.view();
    const index_t n = c.n, k = c.k;
    lapack::detail::latrd_panel(
        av, k, c.nb, vview(e), vview(tau), w.view(),
        [&](index_t j, VectorView<const double> vj, VectorView<double> w_col) {
          ledger.launch();
          fill_nan(w_col);
          return [&, j, vj, w_col] {
            ledger.wait();
            const index_t cj = k + j;
            blas::symv(Uplo::Lower, 1.0,
                       MatrixView<const double>(av.block(cj + 1, cj + 1, n - cj - 1, n - cj - 1)),
                       vj, 0.0, w_col);
          };
        });

    SCOPED_TRACE(::testing::Message() << "n=" << c.n << " k=" << c.k << " nb=" << c.nb);
    EXPECT_EQ(ledger.launches, c.nb);
    EXPECT_EQ(ledger.waits, c.nb);
    EXPECT_TRUE(ledger.interleaved);
    EXPECT_TRUE(same_bits(a, a_ref));
    EXPECT_TRUE(same_bits(w, w_ref));
    EXPECT_TRUE(same_bits(e, e_ref));
    EXPECT_TRUE(same_bits(tau, tau_ref));
  }
}

TEST(PanelOrder, LabrdReadsYAndXOnlyAfterTheirWaiters) {
  for (const auto& c : kCases) {
    const Matrix<double> a0 = random_matrix(c.n, c.n, 9300 + static_cast<std::uint64_t>(c.n));
    const auto nbs = static_cast<std::size_t>(c.nb);
    Matrix<double> a_ref(a0.cview()), x_ref(c.n, c.nb), y_ref(c.n, c.nb);
    std::vector<double> d_ref(nbs), e_ref(nbs), tq_ref(nbs), tp_ref(nbs);
    lapack::labrd(a_ref.view(), c.k, c.nb, vview(d_ref), vview(e_ref), vview(tq_ref),
                  vview(tp_ref), x_ref.view(), y_ref.view());

    Matrix<double> a(a0.cview()), x(c.n, c.nb), y(c.n, c.nb);
    std::vector<double> d(nbs), e(nbs), tq(nbs), tp(nbs);
    WaitLedger ledger_y, ledger_x;
    auto av = a.view();
    const index_t n = c.n, k = c.k;
    lapack::detail::labrd_panel(
        av, k, c.nb, vview(d), vview(e), vview(tq), vview(tp), x.view(), y.view(),
        [&](index_t j, VectorView<const double> v, VectorView<double> ycol) {
          ledger_y.launch();
          fill_nan(ycol);
          return [&, j, v, ycol] {
            ledger_y.wait();
            const index_t cj = k + j;
            blas::gemv(Trans::Yes, 1.0,
                       MatrixView<const double>(av.block(cj, cj + 1, n - cj, n - cj - 1)), v,
                       0.0, ycol);
          };
        },
        [&](index_t j, VectorView<const double> u, VectorView<double> xcol) {
          ledger_x.launch();
          fill_nan(xcol);
          return [&, j, u, xcol] {
            ledger_x.wait();
            const index_t cj = k + j;
            blas::gemv(Trans::No, 1.0,
                       MatrixView<const double>(av.block(cj + 1, cj + 1, n - cj - 1, n - cj - 1)),
                       u, 0.0, xcol);
          };
        });

    SCOPED_TRACE(::testing::Message() << "n=" << c.n << " k=" << c.k << " nb=" << c.nb);
    EXPECT_EQ(ledger_y.launches, c.nb);
    EXPECT_EQ(ledger_y.waits, c.nb);
    EXPECT_EQ(ledger_x.launches, c.nb);
    EXPECT_EQ(ledger_x.waits, c.nb);
    EXPECT_TRUE(ledger_y.interleaved && ledger_x.interleaved);
    EXPECT_TRUE(same_bits(a, a_ref));
    EXPECT_TRUE(same_bits(x, x_ref));
    EXPECT_TRUE(same_bits(y, y_ref));
    EXPECT_TRUE(same_bits(d, d_ref) && same_bits(e, e_ref));
    EXPECT_TRUE(same_bits(tq, tq_ref) && same_bits(tp, tp_ref));
  }
}

}  // namespace
}  // namespace fth

// The diskless checkpoint's host half (ft::Checkpoint, src/ft/ladder.hpp),
// in the two layouts the drivers give it: gehrd's one panel with a 1 × ib
// checksum-row pre-image, and gebrd's column and row panels with two n × 1
// codes (sytrd's is gebrd's with one data block). The transfers are
// checkpoint.inc's; here the host fills the code copies and the readback
// as the save's d2h and raw readback would.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "ft/ladder.hpp"
#include "hybrid/device.hpp"

namespace fth::ft {
namespace {

constexpr Wording kWording{"checkpoint_test", "gap", /*counts_nonfinite=*/false};
constexpr index_t kN = 37;  // no multiple of the seal's eight lanes
constexpr index_t kNb = 8;

enum class Layout { OnePanel, TwoPanels };

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

double flip(double x, int bit) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ (std::uint64_t{1} << bit));
}

/// Entries of one magnitude band, so no strike drowns in rounding.
void fill(MatrixView<double> m, Rng& rng) {
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t r = 0; r < m.rows(); ++r)
      m(r, j) = (rng.below(2) == 0 ? 1.0 : -1.0) * (0.5 + 0.5 * rng.uniform());
}

/// One iteration (i, ib) of a driver's checkpoint, over a host matrix `a`
/// and geometry-only device matrices.
struct Fixture {
  Fixture(Layout layout, index_t i, index_t ib)
      : d_a(dev, kN + 1, kN + 1, "test.d_a"),
        d_codes(dev, kN, 2, "test.d_codes"),
        ckpt(layout == Layout::OnePanel
                 ? Checkpoint({{kN, kNb, 1.0, kN + 1.0}}, {{1, kNb, kN + 1.0, kN + 1.0}})
                 : Checkpoint({{kN, kNb, 1.0, kN}, {kNb, kN, kN + 7.0, kN + 7.0}},
                              {{kN, 1, 1.0, 0.0}, {kN, 1, kN + 1.0, 0.0}})),
        ladder(kWording, rep, nullptr, 0, 1.0, 1) {
    Rng rng(900 + static_cast<std::uint64_t>(i));
    fill(a.view(), rng);
    const index_t tn = kN - i - ib;
    if (layout == Layout::OnePanel) {
      ckpt.at = {{d_a.block(0, i, kN, ib)}, {a.block(0, i, kN, ib)}, {d_a.block(kN, i, 1, ib)}};
    } else {
      ckpt.at = {{d_a.block(i, i, kN - i, ib), d_a.block(i, i + ib, ib, tn)},
                 {a.block(i, i, kN - i, ib), a.block(i, i + ib, ib, tn)},
                 {d_codes.block(0, 0, kN, 1), d_codes.block(0, 1, kN, 1)}};
    }
    for (index_t k = 0; k < ckpt.code_blocks(); ++k) fill(ckpt.code(k), rng);
    index_t col = 0;
    for (index_t k = 0; k < ckpt.code_blocks(); ++k) {
      const MatrixView<double> code = ckpt.code(k);
      fth::copy<double>(code, ckpt.readback().block(0, col, code.rows(), code.cols()));
      col += code.cols();
    }
    saved = Matrix<double>(a.cview());
  }

  /// The save: the first column before the panel, then the panel's first
  /// larfg rewrites it, then the rest in the product window.
  void save() {
    ckpt.store_first();
    fth::fill(ckpt.at.host[0].block(0, 0, ckpt.at.host[0].rows(), 1), 3.0);
    ckpt.seal(ladder, 0);
  }

  /// Every element of every block: `data` selects the data copies.
  template <class Fn>
  void each_element(bool data, Fn&& fn) {
    for (index_t k = 0; k < (data ? ckpt.data_blocks() : ckpt.code_blocks()); ++k) {
      const MatrixView<double> m = data ? ckpt.data(k) : ckpt.code(k);
      for (index_t j = 0; j < m.cols(); ++j)
        for (index_t r = 0; r < m.rows(); ++r) fn(m(r, j));
    }
  }

  hybrid::Device dev;
  hybrid::DeviceMatrix<double> d_a;
  hybrid::DeviceMatrix<double> d_codes;
  Matrix<double> a{kN, kN};
  Matrix<double> saved;  ///< `a` before the save
  Checkpoint ckpt;
  FtReport rep;
  RecoveryLadder ladder;
};

constexpr Layout kLayouts[] = {Layout::OnePanel, Layout::TwoPanels};

TEST(Checkpoint, AnExponentStrikeOnAnyElementOfAnyBlockFailsTheVerify) {
  for (const Layout layout : kLayouts) {
    Fixture f(layout, 5, kNb);
    f.save();
    ASSERT_TRUE(f.ckpt.data_intact());
    ASSERT_TRUE(f.ckpt.codes_intact());
    for (const bool data : {true, false}) {
      int struck = 0;
      f.each_element(data, [&](double& x) {
        const double keep = x;
        for (int bit = 52; bit < 63; ++bit) {
          x = flip(keep, bit);
          EXPECT_FALSE(data ? f.ckpt.data_intact() : f.ckpt.codes_intact())
              << (data ? "data" : "code") << " bit " << bit << " of " << keep;
          EXPECT_TRUE(data ? f.ckpt.codes_intact() : f.ckpt.data_intact())
              << "a strike breaks only its own kind's seal";
        }
        x = keep;
        ++struck;
      });
      EXPECT_GT(struck, 0);
      EXPECT_TRUE(f.ckpt.data_intact() && f.ckpt.codes_intact());
    }
  }
}

TEST(Checkpoint, ARederivedCopyReseals) {
  for (const Layout layout : kLayouts) {
    Fixture f(layout, 0, kNb);
    f.save();
    // Struck, then re-derived with other contents (the device's data, a
    // code re-derived from the restored data): the old seal fails, the
    // reseal holds and guards the new contents as the first did.
    f.ckpt.data(0)(2, 1) = flip(f.ckpt.data(0)(2, 1), 60);
    f.ckpt.code(0)(0, 0) = flip(f.ckpt.code(0)(0, 0), 55);
    ASSERT_FALSE(f.ckpt.data_intact());
    ASSERT_FALSE(f.ckpt.codes_intact());
    f.each_element(true, [](double& x) { x *= 0.75; });
    f.each_element(false, [](double& x) { x += 1.0; });
    EXPECT_FALSE(f.ckpt.data_intact());
    EXPECT_FALSE(f.ckpt.codes_intact());
    f.ckpt.reseal_data();
    f.ckpt.reseal_codes();
    EXPECT_TRUE(f.ckpt.data_intact());
    EXPECT_TRUE(f.ckpt.codes_intact());
    f.ckpt.code(f.ckpt.code_blocks() - 1)(0, 0) += 1.0;
    EXPECT_FALSE(f.ckpt.codes_intact());
  }
}

TEST(Checkpoint, SavingTheFirstColumnThenTheRestSealsAsOneFullCopy) {
  for (const Layout layout : kLayouts) {
    for (const index_t ib : {index_t{1}, index_t{3}, kNb}) {
      Fixture f(layout, 4, ib);
      f.save();
      // The copy holds the pre-panel image, the first column included
      // although the panel rewrote it before the rest was copied...
      for (index_t k = 0; k < f.ckpt.data_blocks(); ++k) {
        const MatrixView<double> copy = f.ckpt.data(k);
        const MatrixView<const double> host = f.ckpt.at.host[k];
        const index_t r0 = host.data() - f.a.data();  // the block's place in `a`
        for (index_t j = 0; j < copy.cols(); ++j)
          for (index_t r = 0; r < copy.rows(); ++r)
            ASSERT_TRUE(same_bits(copy(r, j), f.saved.data()[r0 + r + j * kN]))
                << r << "," << j;
      }
      // ...and the seal taken while copying has the bits of a seal of the
      // whole stored copy at once.
      EXPECT_TRUE(f.ckpt.data_intact());
    }
  }
}

TEST(Checkpoint, RestoreWritesBackExactlyWhatWasSaved) {
  for (const Layout layout : kLayouts) {
    Fixture f(layout, 6, kNb);
    f.save();
    const Matrix<double> outside(f.a.cview());
    for (index_t k = 0; k < f.ckpt.data_blocks(); ++k)
      fth::fill(f.ckpt.at.host[k], std::numeric_limits<double>::quiet_NaN());
    f.ckpt.restore();
    for (index_t j = 0; j < kN; ++j) {
      for (index_t r = 0; r < kN; ++r) {
        bool inside = false;
        for (index_t k = 0; k < f.ckpt.data_blocks(); ++k) {
          const MatrixView<const double> h = f.ckpt.at.host[k];
          const index_t off = h.data() - f.a.data();
          const index_t r0 = off % kN;
          const index_t c0 = off / kN;
          inside = inside || (r >= r0 && r < r0 + h.rows() && j >= c0 && j < c0 + h.cols());
        }
        // Inside a block: the pre-panel image; outside: untouched.
        ASSERT_TRUE(same_bits(f.a(r, j), inside ? f.saved(r, j) : outside(r, j)))
            << r << "," << j;
      }
    }
  }
}

TEST(Checkpoint, TheSealReplacesACodeCopyThatDisagreesWithItsReadback) {
  for (const Layout layout : kLayouts) {
    Fixture f(layout, 2, kNb);
    const double ref = f.ckpt.readback()(0, 0);
    f.ckpt.code(0)(0, 0) = flip(ref, 62);  // a transfer strike on the code d2h
    f.save();
    EXPECT_TRUE(same_bits(f.ckpt.code(0)(0, 0), ref));
    EXPECT_EQ(f.rep.ckpt_rederivations, 1);
    EXPECT_TRUE(f.ckpt.codes_intact());
  }
}

}  // namespace
}  // namespace fth::ft

#include "ft/ftqr_post.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "ft/checksum.hpp"
#include "la/norms.hpp"
#include "lapack/geqrf.hpp"
#include "lapack/reflectors.hpp"

namespace fth::ft {

void ftqr_post(MatrixView<double> a, VectorView<double> tau,
               const std::vector<QrFault>& faults, FtQrReport* report, index_t nb) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  FTH_CHECK(m >= n, "ftqr_post: m >= n required");
  FTH_CHECK(tau.size() >= n, "ftqr_post: tau too short");

  FtQrReport local;
  FtQrReport& rep = report != nullptr ? *report : local;
  rep = {};

  const double fro = norm_fro(MatrixView<const double>(a));
  rep.threshold = default_threshold(fro, std::max(m, n));

  // Encode: two checksum columns ride along ([A | A·e | A·ω]).
  Matrix<double> enc(m, n + 2);
  copy(MatrixView<const double>(a), enc.block(0, 0, m, n));
  for (index_t r = 0; r < m; ++r) {
    double se = 0.0, sw = 0.0;
    for (index_t c = 0; c < n; ++c) {
      se += a(r, c);
      sw += a(r, c) * static_cast<double>(c + 1);
    }
    enc(r, n) = se;
    enc(r, n + 1) = sw;
  }

  // Blocked QR over the data columns only; every block reflector is also
  // applied to the carried checksum columns (they are just trailing
  // columns of the encoded matrix). Faults strike at panel boundaries.
  Matrix<double> t(nb, nb);
  Matrix<double> work(std::max(m, n + 2), nb);
  index_t i = 0;
  index_t boundary = 0;
  auto ev = enc.view();
  while (i < n) {
    const index_t ib = std::min(nb, n - i);
    lapack::geqr2(ev.block(i, i, m - i, ib), tau.sub(i, ib));
    if (i + ib < n + 2) {
      // Materialize the panel's reflectors and sweep the trailing columns
      // (data + carried checksums) in one block application.
      Matrix<double> v(m - i, ib);
      for (index_t j = 0; j < ib; ++j) {
        v(j, j) = 1.0;
        for (index_t r = j + 1; r < m - i; ++r) v(r, j) = enc(i + r, i + j);
      }
      lapack::larft(v.cview(), tau.sub(i, ib), t.view());
      lapack::larfb(Trans::Yes, v.cview(), t.cview(),
                    ev.block(i, i + ib, m - i, n + 2 - i - ib), work.view());
    }
    i += ib;
    ++boundary;
    for (const QrFault& f : faults) {
      if (f.boundary == boundary) ev(f.row, f.col) += f.delta;
    }
  }

  // Copy the factored data columns back to the caller's matrix.
  copy(MatrixView<const double>(enc.block(0, 0, m, n)), a);

  // ---- The single post-processing pass. ---------------------------------
  // d  = carried_e − R·e,  d_w = carried_w − R·ω  (R rows only exist for
  // r ≤ c, but the carried columns have all m rows — the part below row n
  // must be ~0 for a clean run).
  rep.r = lapack::extract_r(MatrixView<const double>(a));
  std::vector<double> d(static_cast<std::size_t>(m), 0.0);
  std::vector<double> dw(static_cast<std::size_t>(m), 0.0);
  for (index_t r = 0; r < m; ++r) {
    double se = 0.0, sw = 0.0;
    for (index_t c = r; c < n; ++c) {  // upper-triangular R
      se += rep.r(r, c);
      sw += rep.r(r, c) * static_cast<double>(c + 1);
    }
    d[static_cast<std::size_t>(r)] = enc(r, n) - se;
    dw[static_cast<std::size_t>(r)] = enc(r, n + 1) - sw;
    rep.gap = std::max(rep.gap, std::abs(d[static_cast<std::size_t>(r)]));
  }
  if (rep.gap <= rep.threshold) return;  // clean

  rep.fault_detected = true;
  // One corrupted column ⇒ d_w = ω_q·d elementwise; a consistent ratio
  // identifies q. Inconsistent ratios mean the two-code reach is exceeded.
  double ratio = 0.0;
  bool have_ratio = false;
  for (index_t r = 0; r < m; ++r) {
    if (std::abs(d[static_cast<std::size_t>(r)]) <= rep.threshold) continue;
    const double rr = dw[static_cast<std::size_t>(r)] / d[static_cast<std::size_t>(r)];
    if (!have_ratio) {
      ratio = rr;
      have_ratio = true;
    } else if (std::abs(rr - ratio) > 0.25) {
      rep.failure =
          "post-processing ABFT: inconsistent column ratios — more than one corrupted "
          "column, beyond the two-code correction capacity (the limitation the paper's "
          "on-line scheme removes)";
      return;
    }
  }
  const index_t q = static_cast<index_t>(std::llround(ratio)) - 1;
  if (q < 0 || q >= n || std::abs(ratio - static_cast<double>(q + 1)) > 0.25) {
    rep.failure = "post-processing ABFT: ratio does not identify a column";
    return;
  }
  // Repair: R(:, q) += d. The correction may have components below the
  // diagonal (the corrupted-data Q is not exactly the clean-data Q); they
  // are kept in the dense corrected R so that Q·R reconstructs A exactly.
  for (index_t r = 0; r < m; ++r) rep.r(r, q) += d[static_cast<std::size_t>(r)];
  rep.corrected = true;
  rep.corrected_column = q;
}

}  // namespace fth::ft

#include "ft/locate.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace fth::ft {

namespace {

/// Count (up to 2) perfect matchings between row and column deltas where
/// matched pairs agree within tol; records the first matching found.
///
/// k ≤ 8 is enforced by the caller, so the k! enumeration is cheap; the
/// early exit at 2 keeps the worst case tiny anyway.
int count_matchings(const std::vector<double>& rd, const std::vector<double>& cd, double tol,
                    std::vector<index_t>& first_match) {
  const std::size_t k = rd.size();
  std::vector<index_t> perm(k);
  std::iota(perm.begin(), perm.end(), 0);
  int found = 0;
  do {
    bool ok = true;
    for (std::size_t r = 0; r < k && ok; ++r) {
      const double diff = std::abs(rd[r] - cd[static_cast<std::size_t>(perm[r])]);
      ok = diff <= tol;
    }
    if (ok) {
      if (found == 0) first_match = perm;
      if (++found >= 2) return found;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return found;
}

}  // namespace

namespace {

/// Indices (into d.rows / d.cols) whose delta is non-finite.
std::vector<std::size_t> nonfinite_indices(const std::vector<double>& deltas) {
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < deltas.size(); ++t)
    if (!std::isfinite(deltas[t])) out.push_back(t);
  return out;
}

}  // namespace

LocateResult locate(const Discrepancy& d, const FreshSums& fresh, double tol) {
  LocateResult out;
  if (d.clean()) return out;

  // Non-finite deltas first: NaN/Inf poisons magnitude matching, but it is
  // also self-locating — every line the damage touches flags non-finite.
  // Damage confined to one row or one column is reconstructible element by
  // element from the orthogonal code; anything wider has lost both codes.
  const std::vector<std::size_t> nf_rows = nonfinite_indices(d.row_delta);
  const std::vector<std::size_t> nf_cols = nonfinite_indices(d.col_delta);
  if (!nf_rows.empty() || !nf_cols.empty()) {
    if (!nf_rows.empty() && nf_cols.empty()) {
      // Data rows are clean (no column flagged non-finite) → the checksum
      // column storage itself went non-finite; the fresh row sums are the
      // correct replacements.
      for (const std::size_t t : nf_rows) {
        const double f = fresh.row[static_cast<std::size_t>(d.rows[t])];
        if (!std::isfinite(f))
          throw recovery_error(
              "non-finite checksum-column entry with non-finite fresh row sum");
        out.chk_col_errors.push_back({d.rows[t], f});
      }
      return out;
    }
    if (!nf_cols.empty() && nf_rows.empty()) {
      for (const std::size_t t : nf_cols) {
        const double f = fresh.col[static_cast<std::size_t>(d.cols[t])];
        if (!std::isfinite(f))
          throw recovery_error(
              "non-finite checksum-row entry with non-finite fresh column sum");
        out.chk_row_errors.push_back({d.cols[t], f});
      }
      return out;
    }
    if (nf_cols.size() == 1) {
      // All non-finite damage confined to one column (the typical shape of
      // a NaN/Inf strike propagated by a block update): one damaged element
      // per flagged row, each recoverable from its row code.
      const index_t c = d.cols[nf_cols.front()];
      for (const std::size_t t : nf_rows)
        out.reconstructions.push_back({d.rows[t], c, /*use_row_code=*/true});
      return out;
    }
    if (nf_rows.size() == 1) {
      const index_t r = d.rows[nf_rows.front()];
      for (const std::size_t t : nf_cols)
        out.reconstructions.push_back({r, d.cols[t], /*use_row_code=*/false});
      return out;
    }
    std::ostringstream os;
    os << "unrecoverable non-finite contamination: " << nf_rows.size()
       << " rows x " << nf_cols.size()
       << " columns poisoned (both codes lost, reconstruction impossible)";
    throw recovery_error(os.str());
  }

  // Only rows mismatch → the checksum column itself was corrupted.
  if (d.cols.empty()) {
    for (std::size_t t = 0; t < d.rows.size(); ++t) {
      out.chk_col_errors.push_back(
          {d.rows[t], fresh.row[static_cast<std::size_t>(d.rows[t])]});
    }
    return out;
  }
  // Only columns mismatch → the checksum row was corrupted.
  if (d.rows.empty()) {
    for (std::size_t t = 0; t < d.cols.size(); ++t) {
      out.chk_row_errors.push_back(
          {d.cols[t], fresh.col[static_cast<std::size_t>(d.cols[t])]});
    }
    return out;
  }

  if (d.rows.size() != d.cols.size()) {
    // Line-confined pattern: k errors in a single column flag k rows (one
    // delta each) and one column (the summed delta), or transposed. Each
    // element's own line delta is its exact correction, so this stays
    // within the code distance as long as the sums agree.
    if (d.cols.size() == 1 || d.rows.size() == 1) {
      const bool by_rows = d.cols.size() == 1;
      const auto& line_deltas = by_rows ? d.row_delta : d.col_delta;
      const double total = by_rows ? d.col_delta.front() : d.row_delta.front();
      double sum = 0.0;
      double scale = 1.0;
      for (const double v : line_deltas) {
        sum += v;
        scale = std::max(scale, std::abs(v));
      }
      const double line_tol =
          static_cast<double>(line_deltas.size() + 1) * tol + 1e-9 * scale;
      if (std::abs(sum - total) <= line_tol) {
        for (std::size_t t = 0; t < line_deltas.size(); ++t) {
          if (by_rows)
            out.data_errors.push_back({d.rows[t], d.cols.front(), d.row_delta[t]});
          else
            out.data_errors.push_back({d.rows.front(), d.cols[t], d.col_delta[t]});
        }
        return out;
      }
    }
    std::ostringstream os;
    os << "unrecoverable error pattern: " << d.rows.size() << " mismatched rows vs "
       << d.cols.size() << " mismatched columns (errors sharing a row or column "
          "exceed the one-error-per-line code distance)";
    throw recovery_error(os.str());
  }
  if (d.rows.size() > 8) {
    throw recovery_error("unrecoverable error pattern: more than 8 simultaneous errors");
  }

  // The matching tolerance must dominate the per-line tolerance that
  // produced the discrepancy lists; matched deltas each carry up to `tol`
  // of noise.
  const double match_tol =
      2.0 * tol +
      1e-9 * std::max({std::abs(d.row_delta.front()), std::abs(d.col_delta.front()), 1.0});

  std::vector<index_t> match;
  const int matchings = count_matchings(d.row_delta, d.col_delta, match_tol, match);
  if (matchings == 0) {
    throw recovery_error(
        "unrecoverable error pattern: row and column checksum deltas cannot be paired "
        "(multiple errors in one row or column)");
  }
  if (matchings > 1) {
    throw recovery_error(
        "ambiguous error pattern: the error positions form a rectangle with matching "
        "magnitudes (paper Section I: such patterns are not correctable)");
  }

  for (std::size_t t = 0; t < d.rows.size(); ++t) {
    out.data_errors.push_back({d.rows[t], d.cols[static_cast<std::size_t>(match[t])],
                               d.row_delta[t]});
  }
  return out;
}

LocateResult locate(const LineSums& s, double tol) {
  return locate(compare_checksums(s.fresh, s.row_code, s.col_code, tol), s.fresh, tol);
}

LocateResult locate_weighted(const LineSums& s, double tol) {
  const std::vector<double>& fresh_e = s.fresh.row;
  const std::vector<double>& fresh_w = s.fresh.col;
  const std::size_t n = fresh_e.size();
  const double wtol = tol * static_cast<double>(n);
  LocateResult out;

  // Rollback cannot cancel NaN/Inf. A non-finite stored element (p, q)
  // poisons exactly the fresh plain sums of rows p and q (the SYMV reads it
  // for both): rebuild it from the plain code; the repair's next pass
  // matches whatever else is left.
  std::vector<index_t> nf_rows;
  for (std::size_t r = 0; r < n; ++r)
    if (!std::isfinite(fresh_e[r])) nf_rows.push_back(static_cast<index_t>(r));
  if (!nf_rows.empty()) {
    if (nf_rows.size() > 2) {
      throw recovery_error(
          "ft_sytrd: non-finite contamination spans more than one stored element");
    }
    // p == q: a diagonal element.
    out.reconstructions.push_back({nf_rows.back(), nf_rows.front(), /*use_row_code=*/true});
    return out;
  }

  // Non-finite code storage with a finite fresh sum: re-encode the entry,
  // and match the rest against the rewritten codes.
  std::vector<double> chke = s.row_code;
  std::vector<double> chkw = s.col_code;
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = static_cast<index_t>(r);
    if (!std::isfinite(chke[r]) && std::isfinite(fresh_e[r])) {
      chke[r] = fresh_e[r];
      out.chk_col_errors.push_back({row, fresh_e[r]});
    }
    if (!std::isfinite(chkw[r]) && std::isfinite(fresh_w[r])) {
      chkw[r] = fresh_w[r];
      out.chk_row_errors.push_back({row, fresh_w[r]});
    }
  }

  struct Flag {
    index_t row;
    double de, dw;
  };
  std::vector<Flag> flags;
  for (std::size_t r = 0; r < n; ++r) {
    const double de = fresh_e[r] - chke[r];
    const double dw = fresh_w[r] - chkw[r];
    if (!std::isfinite(de) || !std::isfinite(dw)) {
      throw recovery_error("ft_sytrd: non-finite discrepancy survived reconstruction");
    }
    if (std::abs(de) > tol || std::abs(dw) > wtol) flags.push_back({static_cast<index_t>(r), de, dw});
  }
  if (flags.size() > 16) {
    throw recovery_error("ft_sytrd: too many simultaneous discrepancies to resolve");
  }

  std::vector<bool> consumed(flags.size(), false);
  for (std::size_t t = 0; t < flags.size(); ++t) {
    if (consumed[t]) continue;
    const Flag& f = flags[t];
    const auto r = static_cast<std::size_t>(f.row);
    if (std::abs(f.de) <= tol) {
      // Weighted-only discrepancy: the weighted code entry itself is corrupt.
      out.chk_row_errors.push_back({f.row, fresh_w[r]});
      continue;
    }
    // Column from the two-code ratio: ω_q = Δw/Δe ⇒ q = ratio − 1.
    const double qf = f.dw / f.de - 1.0;
    const index_t q = static_cast<index_t>(std::llround(qf));
    if (q < 0 || q >= static_cast<index_t>(n) || std::abs(qf - static_cast<double>(q)) > 0.25) {
      // No consistent column: with Δw within its tolerance the plain code
      // entry itself is corrupt.
      if (std::abs(f.dw) <= wtol) {
        out.chk_col_errors.push_back({f.row, fresh_e[r]});
        continue;
      }
      throw recovery_error("ft_sytrd: discrepancy ratio does not identify a column — "
                           "errors may share a row");
    }
    // The stored element sits in the lower triangle.
    out.data_errors.push_back({std::max(f.row, q), std::min(f.row, q), f.de});
    // An off-diagonal error flags its partner row too; consume it.
    if (q != f.row) {
      for (std::size_t u = t + 1; u < flags.size(); ++u) {
        if (flags[u].row == q &&
            std::abs(flags[u].de - f.de) <= 2.0 * tol + 1e-9 * std::abs(f.de)) {
          consumed[u] = true;
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace fth::ft

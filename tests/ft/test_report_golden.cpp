// Report golden: a fixed set of faulted runs of all three FT drivers,
// dumped field by field and compared against tests/ft/report_golden.txt.
//
// Covered: boundary-mode campaigns over areas 1-3, in-flight campaigns over
// all eight soak classes, and one direct max_retries = 0 faulted run per
// driver (an Unrecoverable outcome). Each run dumps every non-timing
// FtReport field (doubles as %.17g), the structured outcome, every FtEvent
// with its error coordinates, and the ft.* counter deltas it moved.
//
// The test links a copy of the library built with -ffp-contract=off (see
// tests/CMakeLists.txt), so the dumped bits depend on the source semantics
// alone, not on where the compiler chose to fuse multiply-adds. The dump
// opens with a fingerprint of the host LAPACK path; when it matches the
// golden's the comparison is byte-exact, otherwise (a platform whose libm
// or arithmetic differs) every floating-point literal is masked and only
// the discrete skeleton (counts, statuses, boundaries, coordinates, counter
// deltas) is compared.
//
// Regenerate (only when a change is MEANT to alter a report):
//   FTH_REPORT_GOLDEN_OUT=tests/ft/report_golden.txt ./ft_test_report_golden
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "ft/ft_gebrd.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "la/generate.hpp"
#include "lapack/gehrd.hpp"
#include "obs/metrics.hpp"
#include "test_utils.hpp"

namespace fth::ft {
namespace {

using fault::Algorithm;
using test::vec;

constexpr index_t kN = 80;
constexpr index_t kNb = 16;

/// A double as %.17g behind a `~` marker (the masking pass keys on it).
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "~%.17g", v);
  return buf;
}

std::string fp_fingerprint() {
  Matrix<double> a = random_matrix(48, 48, 7);
  std::vector<double> tau(47);
  lapack::gehrd(a.view(), vec(tau), {.nb = 8, .nx = 8});
  double s = 0.0;
  for (index_t c = 0; c < a.cols(); ++c)
    for (index_t r = 0; r < a.rows(); ++r) s += a(r, c) * static_cast<double>(r + 2 * c + 1);
  for (double t : tau) s += t;
  return "fp-profile " + num(s) + "\n";
}

void dump_report(std::ostream& os, const FtReport& r) {
  os << "  report detections=" << r.detections << " rollbacks=" << r.rollbacks
     << " data_corrections=" << r.data_corrections
     << " checksum_corrections=" << r.checksum_corrections
     << " q_corrections=" << r.q_corrections << " reconstructions=" << r.reconstructions
     << " ckpt_rederivations=" << r.ckpt_rederivations << " panel_aborts=" << r.panel_aborts
     << " final_sweep_ran=" << r.final_sweep_ran
     << " final_sweep_corrections=" << r.final_sweep_corrections
     << " threshold=" << num(r.threshold) << " max_fault_free_gap=" << num(r.max_fault_free_gap)
     << "\n";
  const RecoveryOutcome& o = r.outcome;
  os << "  outcome status=" << to_string(o.status) << " reason=" << to_string(o.reason)
     << " boundary=" << o.boundary << " attempts=" << o.attempts << " gap=" << num(o.gap)
     << " threshold=" << num(o.threshold) << " detail=[" << o.detail << "]\n";
  for (const FtEvent& ev : r.events) {
    os << "  event boundary=" << ev.boundary << " gap=" << num(ev.gap)
       << " data=" << ev.data_corrections << " checksum=" << ev.checksum_corrections
       << " reconstructions=" << ev.reconstructions << " checkpoint_only=" << ev.checkpoint_only
       << " panel_poisoned=" << ev.panel_poisoned << "\n";
    for (const LocatedError& e : ev.errors)
      os << "    error row=" << e.row << " col=" << e.col << " delta=" << num(e.delta) << "\n";
  }
}

void dump_deltas(std::ostream& os, const obs::Registry::CounterValues& deltas) {
  for (const auto& [name, delta] : deltas)
    if (name.rfind("ft.", 0) == 0) os << "  counter " << name << " +" << delta << "\n";
}

void dump_campaign(std::ostream& os, const char* label, const fault::CampaignConfig& cfg) {
  const fault::CampaignResult res = fault::run_campaign(cfg);
  int k = 0;
  for (const fault::TrialOutcome& t : res.trials) {
    os << "trial " << to_string(cfg.algorithm) << " " << label << " #" << k++;
    if (cfg.in_flight) os << " class=" << to_string(t.fault_class);
    os << " recovered=" << t.recovered << " correct=" << t.result_correct
       << " err=" << num(t.max_error_vs_clean) << " failure=[" << t.failure << "]\n";
    for (const auto& f : t.injected)
      os << "  injected boundary=" << f.boundary << " row=" << f.row << " col=" << f.col
         << " delta=" << num(f.delta) << " area=" << to_string(f.area) << "\n";
    for (const auto& f : t.in_flight_fired)
      os << "  fired when=" << to_string(f.when) << " surface=" << to_string(f.surface)
         << " kind=" << to_string(f.kind) << " row=" << f.row << " col=" << f.col
         << " bit=" << f.bit << " trigger=" << f.trigger_index << "\n";
    dump_report(os, t.report);
    dump_deltas(os, t.metric_deltas);
  }
}

/// One faulted run with max_retries = 0: the first detection abandons.
template <class Run>
void dump_unrecoverable(std::ostream& os, Algorithm alg, Run&& run) {
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  spec.boundary = 2;
  fault::Injector inj(spec);
  FtReport rep;
  const auto before = obs::Registry::global().counter_values();
  std::string failure;
  try {
    run(&inj, &rep);
  } catch (const recovery_error& e) {
    failure = e.what();
  }
  os << "direct " << to_string(alg) << " max_retries=0 failure=[" << failure << "]\n";
  dump_report(os, rep);
  const auto after = obs::Registry::global().counter_values();
  dump_deltas(os, obs::Registry::counter_delta(after, before));
}

std::string dump_all() {
  std::ostringstream os;
  os << fp_fingerprint();
  for (Algorithm alg : {Algorithm::Gehrd, Algorithm::Sytrd, Algorithm::Gebrd}) {
    for (fault::Area area :
         {fault::Area::UpperTrailing, fault::Area::LowerTrailing, fault::Area::QPanel}) {
      fault::CampaignConfig cfg;
      cfg.algorithm = alg;
      cfg.n = kN;
      cfg.nb = kNb;
      cfg.trials = 2;
      cfg.area = area;
      cfg.seed = 1200 + static_cast<std::uint64_t>(area);
      dump_campaign(os, ("boundary-" + to_string(area)).c_str(), cfg);
    }
    fault::CampaignConfig soak;
    soak.algorithm = alg;
    soak.n = kN;
    soak.nb = kNb;
    soak.trials = 8;  // one pass over the eight-class mix
    soak.in_flight = true;
    soak.seed = 1212;
    dump_campaign(os, "inflight", soak);
  }

  hybrid::Device dev;
  const Matrix<double> g0 = random_matrix(kN, kN, 91);
  const Matrix<double> s0 = random_symmetric_matrix(kN, 92);
  std::vector<double> d(kN), e(kN - 1), tau(kN - 1), tauq(kN);
  dump_unrecoverable(os, Algorithm::Gehrd, [&](fault::Injector* inj, FtReport* rep) {
    Matrix<double> a(g0.cview());
    ft_gehrd(dev, a.view(), vec(tau), {.nb = kNb, .max_retries = 0}, inj, rep);
  });
  dump_unrecoverable(os, Algorithm::Sytrd, [&](fault::Injector* inj, FtReport* rep) {
    Matrix<double> a(s0.cview());
    ft_sytrd(dev, a.view(), vec(d), vec(e), vec(tau),
             {.nb = kNb, .max_retries = 0}, inj, rep);
  });
  dump_unrecoverable(os, Algorithm::Gebrd, [&](fault::Injector* inj, FtReport* rep) {
    Matrix<double> a(g0.cview());
    ft_gebrd(dev, a.view(), vec(d), vec(e), vec(tauq), vec(tau),
             {.nb = kNb, .max_retries = 0}, inj, rep);
  });
  return os.str();
}

/// Replace every floating-point literal with `#`: the `~`-marked dump
/// values, and the %g-formatted numbers inside outcome/failure text.
std::string mask_floats(const std::string& s) {
  static const std::regex kFloat(
      R"(~[^ \]]*|[-+]?(\d+\.\d*|\.\d+)([eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+|-?\b(nan|inf)\b)");
  return std::regex_replace(s, kFloat, "#");
}

std::string first_line(const std::string& s) { return s.substr(0, s.find('\n')); }

TEST(ReportGolden, AllThreeDriversMatchTheCommittedReports) {
  const std::string got = dump_all();
  if (const char* out = std::getenv("FTH_REPORT_GOLDEN_OUT")) {
    std::ofstream(out, std::ios::binary) << got;
    GTEST_SKIP() << "wrote " << out;
  }
  const std::string golden = std::string(FTH_REPO_ROOT) + "/tests/ft/report_golden.txt";
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing tests/ft/report_golden.txt";
  std::stringstream want;
  want << in.rdbuf();
  const bool exact = first_line(got) == first_line(want.str());
  const std::string a = exact ? got : mask_floats(got);
  const std::string b = exact ? want.str() : mask_floats(want.str());

  std::istringstream ga(a);
  std::istringstream gb(b);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(ga, la));
    const bool more_b = static_cast<bool>(std::getline(gb, lb));
    if (!more_a && !more_b) break;
    ASSERT_EQ(more_a, more_b) << "report count differs at line " << line;
    ASSERT_EQ(la, lb) << "first difference at golden line " << line
                      << (exact ? " (byte-exact mode)" : " (floats masked: other FP profile)");
  }
}

}  // namespace
}  // namespace fth::ft

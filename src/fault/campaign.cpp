#include "fault/campaign.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ft/ft_gebrd.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "ft/pool_gehrd.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lapack/gehrd.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace fth::fault {

std::string to_string(Algorithm a) {
  switch (a) {
    case Algorithm::Gehrd: return "ft_gehrd";
    case Algorithm::Sytrd: return "ft_sytrd";
    case Algorithm::Gebrd: return "ft_gebrd";
  }
  return "?";
}

std::string to_string(SoakClass c) {
  switch (c) {
    case SoakClass::BoundaryDelta: return "boundary-delta";
    case SoakClass::InFlightBitFlip: return "inflight-bitflip";
    case SoakClass::InFlightNaN: return "inflight-nan";
    case SoakClass::InFlightInf: return "inflight-inf";
    case SoakClass::ChecksumStrike: return "checksum-strike";
    case SoakClass::TransferStrike: return "transfer-strike";
    case SoakClass::CheckpointStrike: return "checkpoint-strike";
    case SoakClass::DuringRecovery: return "during-recovery";
  }
  return "?";
}

namespace {

/// Uniform adapter: run one FT factorization, return the factored matrix.
Matrix<double> run_algorithm(hybrid::Device& dev, Algorithm alg, const Matrix<double>& a0,
                             index_t nb, Injector* inj, FaultPlane* plane,
                             ft::FtReport* rep) {
  const index_t n = a0.rows();
  Matrix<double> a(a0.cview());
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)));
  std::vector<double> tau(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)));
  std::vector<double> tauq(static_cast<std::size_t>(n));
  switch (alg) {
    case Algorithm::Gehrd: {
      ft::FtOptions o;
      o.nb = nb;
      o.fault_plane = plane;
      ft::ft_gehrd(dev, a.view(), VectorView<double>(tau.data(), n - 1), o, inj, rep);
      break;
    }
    case Algorithm::Sytrd: {
      ft::FtSytrdOptions o;
      o.nb = nb;
      o.fault_plane = plane;
      ft::ft_sytrd(dev, a.view(), VectorView<double>(d.data(), n),
                   VectorView<double>(e.data(), n - 1), VectorView<double>(tau.data(), n - 1),
                   o, inj, rep);
      break;
    }
    case Algorithm::Gebrd: {
      ft::FtGebrdOptions o;
      o.nb = nb;
      o.fault_plane = plane;
      ft::ft_gebrd(dev, a.view(), VectorView<double>(d.data(), n),
                   VectorView<double>(e.data(), n - 1), VectorView<double>(tauq.data(), n),
                   VectorView<double>(tau.data(), n - 1), o, inj, rep);
      break;
    }
  }
  return a;
}

constexpr SoakClass kDefaultMix[] = {
    SoakClass::InFlightBitFlip, SoakClass::InFlightNaN,    SoakClass::InFlightInf,
    SoakClass::ChecksumStrike,  SoakClass::TransferStrike, SoakClass::CheckpointStrike,
    SoakClass::DuringRecovery,  SoakClass::BoundaryDelta,
};

/// Everything a soak trial arms: in-flight faults plus (for the paired
/// classes) boundary faults that force the struck state to be consumed.
struct SoakSetup {
  std::vector<InFlightFault> armed;
  std::vector<FaultSpec> boundary;
};

SoakSetup plan_soak(SoakClass cls, const CampaignConfig& cfg, const TriggerCounts& counts,
                    double threshold, index_t boundaries, Rng& rng) {
  SoakSetup s;
  // Bit flips must perturb the struck element past the detection threshold,
  // or the campaign's 100%-detection assertion would be defeated by a
  // low-mantissa flip on a near-zero element.
  const double min_impact = std::max(1e-6, 100.0 * threshold);
  // Draw strike times from the leading 3/4 of the clean run's task count:
  // the tail covers the final phase, where a strike can land after the last
  // full comparison has already read the data.
  const auto draw_task = [&]() -> std::uint64_t {
    return 1 + rng.below(std::max<std::uint64_t>(1, counts.tasks * 3 / 4));
  };
  // Paired boundary faults are pinned to the lower-trailing area: they exist
  // to force an online detection + rollback (consuming the struck checkpoint
  // or opening the recovery bracket), and only trailing faults guarantee one
  // — a Q-panel or finished-region fault is corrected at the end instead.
  const auto boundary_fault = [&](index_t b, Area area) {
    FaultSpec spec;
    spec.area = area;
    spec.boundary = b;
    // Vary magnitude per fault so simultaneous errors stay distinguishable.
    spec.magnitude = cfg.magnitude * (1.0 + rng.uniform());
    return spec;
  };
  const auto random_boundary = [&]() -> index_t {
    return 1 + static_cast<index_t>(rng.below(
                   static_cast<std::uint64_t>(std::max<index_t>(boundaries - 1, 1))));
  };
  const int k = std::max(1, cfg.faults_per_trial);

  switch (cls) {
    case SoakClass::BoundaryDelta:
      for (int f = 0; f < k; ++f)
        s.boundary.push_back(boundary_fault(random_boundary(), cfg.area));
      break;
    case SoakClass::InFlightBitFlip:
      // Multi-fault soak: faults_per_trial independent flips, kinds rotated.
      for (int f = 0; f < k; ++f) {
        constexpr FaultKind kinds[] = {FaultKind::MantissaFlip, FaultKind::ExponentFlip,
                                       FaultKind::SignFlip};
        InFlightFault a;
        a.when = When::StreamTask;
        a.surface = Surface::TrailingMatrix;
        a.kind = kinds[f % 3];
        a.countdown = draw_task();
        a.min_impact = min_impact;
        s.armed.push_back(a);
      }
      break;
    case SoakClass::InFlightNaN:
    case SoakClass::InFlightInf: {
      // One non-finite strike: independent NaNs in unrelated rows AND
      // columns would exceed the codes' reconstruction capability by
      // design (that failure mode is the escalation tests' job).
      InFlightFault a;
      a.when = When::StreamTask;
      a.surface = Surface::TrailingMatrix;
      a.kind = cls == SoakClass::InFlightNaN ? FaultKind::QuietNaN : FaultKind::Infinity;
      a.countdown = draw_task();
      s.armed.push_back(a);
      break;
    }
    case SoakClass::ChecksumStrike: {
      InFlightFault a;
      a.when = When::StreamTask;
      a.surface = rng.below(2) == 0 ? Surface::ChecksumCol : Surface::ChecksumRow;
      a.kind = FaultKind::ExponentFlip;
      a.countdown = draw_task();
      a.min_impact = min_impact;
      s.armed.push_back(a);
      break;
    }
    case SoakClass::TransferStrike: {
      // Eligible transfers land only inside the protected domain (checksum
      // re-encode h2d, checkpoint-save d2h); which directions exist depends
      // on the driver, so consult the clean run's counts.
      InFlightFault a;
      a.kind = FaultKind::ExponentFlip;
      a.min_impact = min_impact;
      if (counts.d2h > 0 && (counts.h2d == 0 || rng.below(2) == 0)) {
        a.when = When::TransferD2H;
        a.countdown = 1 + rng.below(counts.d2h);
      } else if (counts.h2d > 0) {
        a.when = When::TransferH2D;
        a.countdown = 1 + rng.below(counts.h2d);
      } else {
        a.when = When::StreamTask;  // driver ships nothing eligible: fall back
        a.surface = Surface::ChecksumCol;
        a.countdown = draw_task();
      }
      s.armed.push_back(a);
      break;
    }
    case SoakClass::CheckpointStrike: {
      // The checkpoint is dead storage unless a rollback reads it, so pair
      // the strike with a boundary fault at every boundary: whichever
      // iteration the strike lands in, that iteration's recovery consumes
      // the corrupted buffer and must re-derive it.
      InFlightFault a;
      a.when = When::StreamTask;
      a.surface = Surface::Checkpoint;
      a.kind = FaultKind::ExponentFlip;
      a.countdown = draw_task();
      a.min_impact = min_impact;
      s.armed.push_back(a);
      for (index_t b = 1; b <= std::max<index_t>(boundaries - 1, 1); ++b)
        s.boundary.push_back(boundary_fault(b, Area::LowerTrailing));
      break;
    }
    case SoakClass::DuringRecovery: {
      // A boundary fault forces a recovery; the armed fault only counts
      // triggers inside the recovery bracket, so it strikes mid-redo and a
      // second detect/rollback round must absorb it.
      s.boundary.push_back(boundary_fault(random_boundary(), Area::LowerTrailing));
      InFlightFault a;
      a.when = When::DuringRecovery;
      a.surface = Surface::TrailingMatrix;
      a.kind = rng.below(2) == 0 ? FaultKind::ExponentFlip : FaultKind::QuietNaN;
      a.countdown = 1 + rng.below(8);
      a.min_impact = min_impact;
      s.armed.push_back(a);
      break;
    }
  }
  return s;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& cfg) {
  FTH_CHECK(cfg.n >= 4, "campaign: matrix too small");
  FTH_CHECK(cfg.trials >= 1 && cfg.faults_per_trial >= 0, "campaign: bad configuration");

  CampaignResult result;
  hybrid::Device dev;
  Rng seeder(cfg.seed);
  const std::vector<SoakClass> mix =
      !cfg.classes.empty()
          ? cfg.classes
          : std::vector<SoakClass>(std::begin(kDefaultMix), std::end(kDefaultMix));

  for (int trial = 0; trial < cfg.trials; ++trial) {
    const std::uint64_t mseed = seeder.next();
    const std::uint64_t fseed = seeder.next();
    Matrix<double> a0 = cfg.algorithm == Algorithm::Sytrd
                            ? random_symmetric_matrix(cfg.n, mseed)
                            : random_matrix(cfg.n, cfg.n, mseed);

    // Fault-free reference run. In soak mode a plane with nothing armed
    // rides along as a pure trigger counter, giving the eligible-trigger
    // totals the countdown draws are scaled by.
    ft::FtReport clean_rep;
    FaultPlane counter(fseed);
    Matrix<double> clean = run_algorithm(dev, cfg.algorithm, a0, cfg.nb, nullptr,
                                         cfg.in_flight ? &counter : nullptr, &clean_rep);

    // Faulty run.
    TrialOutcome out;
    const index_t boundaries = ft::ft_total_boundaries(cfg.n, cfg.nb);
    Rng frng(fseed);
    std::vector<FaultSpec> specs;
    FaultPlane plane(fseed ^ 0xF1DE0ULL);
    bool use_plane = false;
    if (cfg.in_flight) {
      out.fault_class = mix[static_cast<std::size_t>(trial) % mix.size()];
      const SoakSetup setup = plan_soak(out.fault_class, cfg, counter.trigger_counts(),
                                        clean_rep.threshold, boundaries, frng);
      specs = setup.boundary;
      for (const auto& a : setup.armed) plane.arm(a);
      use_plane = !setup.armed.empty();
    } else {
      for (int f = 0; f < cfg.faults_per_trial; ++f) {
        FaultSpec spec;
        spec.area = cfg.area;
        spec.boundary =
            1 + static_cast<index_t>(frng.below(
                    static_cast<std::uint64_t>(std::max<index_t>(boundaries - 1, 1))));
        // Vary magnitude per fault so simultaneous errors stay distinguishable.
        spec.magnitude = cfg.magnitude * (1.0 + frng.uniform());
        specs.push_back(spec);
      }
    }
    Injector inj(specs, fseed ^ 0x51CA5EULL);

    ft::FtReport rep;
    const obs::Registry::CounterValues counters_before =
        obs::Registry::global().counter_values();
    // Every faulty run is its own journal run, so a capsule's journal slice
    // holds exactly this trial's records (the clean reference is excluded).
    out.run_id = obs::journal_new_run();
    try {
      Matrix<double> faulty =
          run_algorithm(dev, cfg.algorithm, a0, cfg.nb, specs.empty() ? nullptr : &inj,
                        use_plane ? &plane : nullptr, &rep);
      out.recovered = true;
      out.max_error_vs_clean = max_abs_diff(faulty.cview(), clean.cview());
    } catch (const recovery_error& e) {
      out.failure = e.what();
      if (obs::incident_enabled()) {
        obs::IncidentReport inc = obs::incident_for_run(out.run_id, counters_before);
        inc.trigger = "recovery_error";
        inc.who = to_string(cfg.algorithm);
        inc.boundary = e.boundary();
        inc.outcome.status = "failed";
        inc.outcome.reason = ft::to_string(rep.outcome.reason);
        inc.outcome.detail = e.what();
        inc.outcome.attempts = e.attempts();
        if (use_plane) inc.strikes_json = strikes_json(plane);
        const std::string path = obs::write_incident(inc);
        if (!path.empty()) out.incidents.push_back(path);
      }
    }
    out.metric_deltas =
        obs::Registry::counter_delta(obs::Registry::global().counter_values(), counters_before);
    out.injected = inj.history();
    out.in_flight_fired = plane.fired();
    out.detections = rep.detections;
    out.corrections = rep.data_corrections + rep.checksum_corrections + rep.q_corrections +
                      rep.final_sweep_corrections;
    out.outcome = rep.outcome;
    out.report = rep;
    // "Detected" means any FT mechanism saw the fault: the per-iteration
    // comparison, the checkpoint integrity check, non-finite reconstruction,
    // the final sweep, or the Q/P verification.
    out.detected = rep.detections > 0 || rep.ckpt_rederivations > 0 ||
                   rep.reconstructions > 0 || rep.panel_aborts > 0 ||
                   rep.final_sweep_corrections > 0 || rep.q_corrections > 0;

    if (out.detected) ++result.detected_count;
    if (out.outcome.status == ft::RecoveryStatus::Unrecoverable) ++result.aborted_count;
    if (!use_plane || plane.all_fired()) ++result.fired_count;
    if (out.recovered) {
      const double tol = 1e-8 * std::max(1.0, norm_max(a0.cview()));
      out.result_correct = out.max_error_vs_clean <= tol;
      if (out.result_correct) ++result.correct_count;
      ++result.recovered_count;
      result.worst_error_vs_clean =
          std::max(result.worst_error_vs_clean, out.max_error_vs_clean);
    }
    result.trials.push_back(std::move(out));
  }
  return result;
}

DeviceLossSoakResult run_device_loss_soak(const DeviceLossSoakConfig& cfg) {
  FTH_CHECK(cfg.n >= 4, "device-loss soak: matrix too small");
  FTH_CHECK(cfg.devices >= 2, "device-loss soak: need a redundancy group (D >= 2)");
  FTH_CHECK(cfg.trials >= 1, "device-loss soak: bad configuration");

  DeviceLossSoakResult result;
  Rng seeder(cfg.seed);
  const std::vector<LossKind> mix =
      !cfg.kinds.empty()
          ? cfg.kinds
          : std::vector<LossKind>{LossKind::SilentStall, LossKind::PoisonOutput,
                                  LossKind::HardDeath};

  for (int trial = 0; trial < cfg.trials; ++trial) {
    const std::uint64_t mseed = seeder.next();
    const std::uint64_t fseed = seeder.next();
    const Matrix<double> a0 = random_matrix(cfg.n, cfg.n, mseed);

    // Fault-free reference factorization (host algorithm, the ground truth
    // every pool geometry already matches in the clean tests).
    Matrix<double> clean(a0.cview());
    std::vector<double> tau_c(static_cast<std::size_t>(cfg.n - 1));
    lapack::gehrd(clean.view(),
                  VectorView<double>(tau_c.data(), static_cast<index_t>(tau_c.size())),
                  {.nb = cfg.nb, .nx = cfg.nb});

    // Clean pool run with an idle plane counting each member's post-encode
    // tasks — the schedule the countdown draw lands inside.
    ft::PoolGehrdOptions opt{.nb = cfg.nb, .timeout_ms = cfg.timeout_ms};
    FaultPlane counter(fseed);
    {
      hybrid::DevicePool pool({.devices = cfg.devices});
      Matrix<double> warm(a0.cview());
      std::vector<double> tau(static_cast<std::size_t>(cfg.n - 1));
      ft::PoolGehrdOptions copt = opt;
      copt.plane = &counter;
      ft::pool_gehrd(pool, warm.view(),
                     VectorView<double>(tau.data(), static_cast<index_t>(tau.size())), copt);
    }

    DeviceLossTrial out;
    Rng frng(fseed);
    out.kind = mix[static_cast<std::size_t>(trial) % mix.size()];
    out.device = static_cast<int>(frng.below(static_cast<std::uint64_t>(cfg.devices)));
    // Land strictly inside the member's real schedule: the faulty run
    // tracks the clean one task-for-task until the strike, so any
    // countdown <= 90% of the clean count is guaranteed to fire.
    const std::uint64_t tasks = counter.pool_task_count(out.device);
    const std::uint64_t hi = std::max<std::uint64_t>(1, tasks * 9 / 10);
    out.countdown = 1 + frng.below(hi);

    FaultPlane plane(fseed ^ 0xDEADULL);
    plane.arm_device_loss({.kind = out.kind, .device = out.device, .countdown = out.countdown});

    hybrid::DevicePool pool({.devices = cfg.devices});
    Matrix<double> faulty(a0.cview());
    std::vector<double> tau(static_cast<std::size_t>(cfg.n - 1));
    ft::PoolGehrdOptions fopt = opt;
    fopt.plane = &plane;
    try {
      ft::pool_gehrd(pool, faulty.view(),
                     VectorView<double>(tau.data(), static_cast<index_t>(tau.size())), fopt,
                     &out.report);
      out.recovered = true;
      out.max_error_vs_clean = max_abs_diff(faulty.cview(), clean.cview());
    } catch (const recovery_error& e) {
      out.failure = e.what();
    }
    out.fired = !plane.fired_losses().empty();

    if (out.fired) ++result.fired_count;
    if (out.recovered) {
      ++result.recovered_count;
      // Same bar as the element-fault soak: recovery must leave no
      // fault-shaped error behind, only reassociation roundoff.
      const double tol = 1e-8 * std::max(1.0, norm_max(a0.cview()));
      out.result_correct = out.max_error_vs_clean <= tol;
      if (out.result_correct) ++result.correct_count;
      result.worst_error_vs_clean =
          std::max(result.worst_error_vs_clean, out.max_error_vs_clean);
    }
    result.trials.push_back(std::move(out));
  }
  return result;
}

}  // namespace fth::fault

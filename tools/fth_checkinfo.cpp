// fth_checkinfo — reports whether the fth::check access/race checker (and
// its declared-effect conformance layer) is compiled into this build, and
// which obs sinks the environment arms. run_benches.sh uses it to assert
// both layers are compiled OUT of the Release tree the benches run in (the
// zero-overhead guarantee of check/hooks.hpp and check/effects.hpp) and
// every obs sink is disarmed; CI uses it to assert the layers are compiled
// IN for the Debug + FTH_CHECK=1 job.
//
//   fth_checkinfo             prints key=value lines, exits 0
//   fth_checkinfo --expect-off  exits 1 if the checker or the effects
//                               layer is compiled in, or if an event-log
//                               sink is armed (the journal, which incidents
//                               arm, is one of them)
//   fth_checkinfo --expect-on   exits 1 if either is compiled out
#include <cstdio>
#include <cstring>

#include "check/access.hpp"
#include "check/effects.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  // FTH_TRACE, FTH_FLIGHT and FTH_DAG, armed exactly as a bench would.
  fth::obs::trace_init_from_env();
  fth::obs::journal_init_from_env();    // FTH_JOURNAL
  fth::obs::incident_init_from_env();   // FTH_INCIDENT (also arms the journal)
  const bool in = fth::check::compiled_in();
  const bool eff_in = fth::check::effects_compiled_in();
  // One mask covers every reader of the event log: trace file, flight
  // ring, profiler, DAG and journal (obs/trace.hpp).
  const unsigned sinks = fth::obs::log_sinks();
  std::printf("checker_compiled_in=%d\n", in ? 1 : 0);
  std::printf("checker_active=%d\n", fth::check::active() ? 1 : 0);
  std::printf("effects_compiled_in=%d\n", eff_in ? 1 : 0);
  std::printf("effects_active=%d\n", fth::check::effects_active() ? 1 : 0);
  std::printf("log_sinks=%u\n", sinks);
  std::printf("incident_enabled=%d\n", fth::obs::incident_enabled() ? 1 : 0);
#ifdef NDEBUG
  std::printf("build_ndebug=1\n");
#else
  std::printf("build_ndebug=0\n");
#endif
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--expect-off") == 0 && (in || eff_in || sinks != 0)) {
      if (sinks != 0) {
        std::fprintf(stderr,
                     "fth_checkinfo: the event log has armed sinks (log_sinks=%u: "
                     "1 FTH_TRACE, 2 FTH_FLIGHT, 4 profile, 8 FTH_DAG, "
                     "16 FTH_JOURNAL or FTH_INCIDENT) but --expect-off was given "
                     "(Release bench numbers must run with the log on its "
                     "one-relaxed-load off path)\n",
                     sinks);
        return 1;
      }
      std::fprintf(stderr,
                   "fth_checkinfo: %s compiled in but --expect-off was given "
                   "(Release benches must run checker-free)\n",
                   in ? "checker is" : "effects layer is");
      return 1;
    }
    if (std::strcmp(argv[i], "--expect-on") == 0 && (!in || !eff_in)) {
      std::fprintf(stderr,
                   "fth_checkinfo: %s compiled out but --expect-on was given "
                   "(the checked CI job would be vacuous)\n",
                   !in ? "checker is" : "effects layer is");
      return 1;
    }
  }
  return 0;
}

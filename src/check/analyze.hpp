#pragma once
// fth::analyze — declared-effect static dataflow analysis of the
// transfer/Event discipline (DESIGN.md §11).
//
// The runtime checker (check/access.hpp, §10) catches a missing
// happens-before edge when the offending path *executes*. This pass
// proves the same rules from the source text alone, before anything
// runs. v2 (DESIGN.md §11.3) is a two-layer analysis:
//
//  (a) Interprocedural function summaries: a first pass over the TU
//      computes, per function, a symbolic summary of its stream
//      side-effects (enqueues + declared footprints, transfers started
//      and retired, Events recorded/waited, synchronize calls, and the
//      transfers still live at exit, keyed by buffer root and stream).
//      Call sites splice the callee's summary into the caller's
//      timeline with argument-to-parameter root substitution, so
//      pipeline-stage helpers stay fully analyzed instead of skipped.
//  (b) Loop-carried happens-before: loop bodies are walked twice (a
//      fixpoint over two symbolic iterations), carrying the
//      live-transfer set and recorded-Event bindings across the
//      back-edge — a transfer left in flight at the bottom of
//      iteration i correctly races an unsynchronized host touch at
//      the top of iteration i+1, and a cross-iteration Event wait
//      retires it. This replaces the v1 soundness assumption that
//      every driver loop body is self-synchronizing, which the
//      lookahead pipeline (ROADMAP item 1) deliberately breaks.
//
// Rules (finding `rule` strings; full table in DESIGN.md §11.4):
//   transfer-race    host code touches the host side of an in-flight
//                    async transfer with no dominating Event wait /
//                    synchronize(). Mirrors the runtime checker's U2
//                    rule: a live d2h races ANY host mention of the
//                    buffer; a live h2d races host WRITES only.
//   loop-carried-race the cross-iteration form: the racing transfer
//                    was enqueued in the PREVIOUS symbolic iteration
//                    and crossed the loop back-edge still in flight.
//                    Reported against both ends — the racing line
//                    anchors the finding, the message names the
//                    back-edge source (the transfer's enqueue line).
//   stream-not-idle  hybrid::host_view() reached while enqueued work
//                    may still be in flight (no dominating sync edge).
//   in-task-context  .in_task() spelled outside an enqueued stream
//                    task lambda — host code must never unwrap.
//   undeclared-task  Stream::enqueue in src/hybrid/ or src/ft/ whose
//                    argument list carries no FTH_TASK_EFFECTS(...)
//                    declaration (src/hybrid/stream.hpp's label-only
//                    forwarder is the one sanctioned hatch).
//   chkrow-reencode  h2d into the gehrd checksum row d_e_.block(n_,..)
//                    from anything other than the freshly re-encoded
//                    new_chkrow_ or the rollback checkpoint
//                    ckpt_chkrow_ (the §7 gotcha, made structural).
//   cross-stream-race a task whose FTH_TASK_EFFECTS footprint covers
//                    the host side of a transfer still in flight on a
//                    DIFFERENT stream, with no wait_event edge carrying
//                    the producer's Event marker into the consumer's
//                    queue (the multi-device form of U2, DESIGN.md §13).
//   unbounded-pool-wait a plain Event::wait() on an Event recorded on
//                    a DevicePool member's stream. Pool members can be
//                    lost (DESIGN.md §13); a plain wait() hangs forever
//                    on a lost device — the health-checked
//                    wait_for(timeout) is mandatory. (The CLAUDE.md
//                    lost-device gotcha, made structural.)
//   stale-checksum-write a stream task whose declared FTH_WRITES
//                    covers FT-protected checksum storage (a `d_*chk*`
//                    device root) with no dominating re-encode of that
//                    root — an h2d refresh from host truth or an
//                    *encode* call — since the last checksum
//                    comparison (*verify* call). Such a write makes
//                    the maintained code drift from what the next
//                    verify compares: the gehrd chkrow-reencode
//                    discipline, generalized to the sytrd/gebrd/pool
//                    drivers' checksum storage.
//   missing-fragment a quoted `#include "<path>.inc"` whose text the
//                    fragment loader cannot supply (or that includes
//                    itself). Fragments are analyzed only as part of the
//                    TUs that include them, so an unreadable one would
//                    silently drop its code out of the proof.
//
// Quoted `.inc` includes are expanded in place, exactly as the
// preprocessor does (headers are not): shared FT driver code lives in
// such fragments, and the compiler and the analyzer read the same text.
// Every token keeps its file of origin, so a finding, a "line N"
// reference and an expect marker inside a fragment name the fragment
// (`src/ft/<x>.inc:<line>`) from every TU that includes it.
//
// Event::wait_for counts as wait(): the timeout path has no edge, but
// every driver throws on it, so the straight-line continuation is
// ordered. Conditionally executed stream operations are summarized as
// the may-union (branch bodies are walked as straight-line code): a
// may-enqueued transfer is treated as live, which is the conservative
// direction for the race rules.
//
// v3 adds the performance plane (DESIGN.md §11.5) — the dual of the
// race rules, computed from the same symbolic state but advisory by
// default (Options::perf; findings carry perf = true and never gate):
//   redundant-wait   an Event::wait()/wait_for() whose recorded marker
//                    is already host-ordered on EVERY path reaching it
//                    (a dominating synchronize/sync-copy/earlier wait
//                    retired through the marker): the edge retires
//                    nothing and only costs a handshake.
//   coarse-synchronize a full Stream::synchronize() that blocks the
//                    host on more device work than any host-visible
//                    obligation requires: no live transfer at all, the
//                    newest live transfer's ticket strictly below the
//                    stream tail (a record()/wait() pair at that ticket
//                    is the narrower edge), or a tail h2d whose source
//                    the host never rewrites before the next device op
//                    (retirement can be deferred). A host_view in the
//                    same brace scope justifies the barrier (that is
//                    the drain-before-unwrap discipline), as does a
//                    host touch of a live d2h destination (fetch-join).
//   false-serialization two back-to-back tasks on one stream whose
//                    declared FTH_TASK_EFFECTS footprints are disjoint
//                    (no root shared with a write on either side): FIFO
//                    order is pure serialization; a second stream (or
//                    pool member) could overlap them.
//   over-wide-effects a declared FTH_READS/FTH_WRITES root the task
//                    lambda never mentions: the phantom footprint
//                    manufactures cross-stream edges and blocks the
//                    overlap the false-serialization rule looks for.
//   dead-transfer    a d2h whose host destination is overwritten by the
//                    next d2h without any host read in between, or an
//                    h2d whose device destination is overwritten by the
//                    next h2d with no device op in between.
// A `// fth-perf: expect <rule>` comment on (or up to three lines
// above) the flagged line marks the finding as expected — the checked
// exemplars in examples/ — which the CLI reports but never promotes to
// an error, keeping the perf-plane golden count meaningful.
//
// Whole-tree gate: tools/fth_analyze.cpp, wired as the analyze.repo
// ctest (and analyze.perf, which bounds the two-pass engine's cost).
// Unlike the §10 checker this pass has no runtime hooks and is
// compiled into every build type.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fth::check::analyze {

struct Finding {
  std::string file;          ///< repo-relative path
  int line = 0;              ///< 1-based
  std::string rule;          ///< see header comment
  std::string message;       ///< what is wrong, runtime-checker flavoured
  std::string missing_edge;  ///< correctness: the edge that would fix it;
                             ///< perf plane: the fix-it suggestion
  bool perf = false;         ///< performance-plane (advisory) finding
  bool expected = false;     ///< matched a `// fth-perf: expect` marker
  std::vector<std::string> tasks;  ///< false-serialization: the task pair
};

/// Aggregate counters, mostly for the golden "the analyzer actually saw
/// the tree" assertions in tests/check/test_analyze.cpp. Summaries
/// accumulate callee stream operations once per call site (on top of
/// the callee's own once-per-definition count), so helper-factored
/// pipelines no longer vanish from the counts; the second symbolic
/// loop iteration is never counted.
struct Stats {
  std::size_t functions = 0;
  std::size_t enqueues = 0;   ///< explicit Stream::enqueue calls
  std::size_t transfers = 0;  ///< copy_{h2d,d2h}[_async] calls
  std::size_t records = 0;    ///< Event = stream.record() bindings
  std::size_t waits = 0;      ///< wait/ready/wait_for() on recorded Events
  std::size_t syncs = 0;      ///< synchronize() calls
  std::size_t calls = 0;      ///< call sites spliced via a function summary
  void accumulate(const Stats& o) {
    functions += o.functions;
    enqueues += o.enqueues;
    transfers += o.transfers;
    records += o.records;
    waits += o.waits;
    syncs += o.syncs;
    calls += o.calls;
  }
};

/// True for the sources the discipline applies to: C++ files under the
/// hybrid runtime, the FT drivers, and the user-facing surfaces.
bool in_scope(const std::string& rel_path);

/// Supplies the text of a quoted `.inc` include by repo-relative path.
/// Returns false when no such fragment exists.
using FragmentLoader = std::function<bool(const std::string& rel_path, std::string& text)>;

/// Per-run switches. The default-constructed value reproduces the v2
/// correctness gate exactly (the perf plane is never even computed), so
/// `--perf` cannot perturb the analyze.repo output.
struct Options {
  bool perf = false;  ///< also compute the §11.5 performance plane
};

/// Analyze one translation unit's text with its `.inc` fragments
/// expanded. `fragments` reads them, tried first beside the including
/// file, then under the include root `src/` — the preprocessor's
/// quoted-include search; an empty loader reads none, so every fragment
/// is missing. `rel_path` selects per-layer rule scoping (and is stamped
/// into findings outside fragments); out-of-scope paths yield no
/// findings. Pure function of its arguments — the seeded regression
/// tests run it on mutated in-memory copies of the real drivers and
/// fragments.
std::vector<Finding> analyze_source(const std::string& rel_path, const std::string& content,
                                    Stats* stats = nullptr, const Options& opts = {},
                                    const FragmentLoader& fragments = {});

/// The canonical key=value serialization of the whole-tree stats, the
/// format `fth_analyze --stats-out` writes and the golden test
/// (tests/check/analyze_golden.txt) compares against.
std::string stats_lines(const Stats& stats, std::size_t files);

/// "file:line: [rule] message" + an indented `required:` edge line, the
/// same shape tools/fth_lint.cpp prints.
std::string format(const Finding& finding);

/// SARIF 2.1.0 document for `findings`: one run, the full §11.4 rule
/// table in tool.driver.rules, one result per finding with the
/// `required:` edge folded into the message. fth_analyze --sarif emits
/// this so CI renders findings as inline annotations; the text format
/// stays byte-identical.
std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace fth::check::analyze

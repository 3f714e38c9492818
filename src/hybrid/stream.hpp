// Execution stream: an in-order FIFO of tasks run by a worker thread.
//
// This mirrors the CUDA stream model the MAGMA hybrid algorithms are built
// on: work is enqueued asynchronously, executes in order on the device,
// and the host synchronizes explicitly via synchronize() or events. The
// fault-tolerant Hessenberg driver relies on this to overlap host-side
// checksum work with device-side trailing-matrix updates exactly as the
// paper's Algorithm 3 does.
//
// Every task carries a label and a monotonically increasing ticket; both
// feed fth::check (see check/access.hpp): the worker runs each task inside
// a check::TaskScope (so device-view unwraps via .in_task() validate), and
// Event::wait / Event::ready() / synchronize() report the happens-before
// edges the host observes, which is what retires in-flight transfers in
// the race detector.
//
// The device is separate silicon: on Linux, when the constructing thread
// may run on at least 2 CPUs, the worker takes that CPU set minus the CPU
// the constructor runs on. Handoffs between host and device spin, then
// park (CUDA's cudaDeviceScheduleAuto): synchronize(), Event::wait() and
// the idle worker poll a lock-free copy of their wait condition for up to
// kSpinBudget before they block on a condition variable. A waiter parks at
// once when the other side last ran on its own CPU, or when live stream
// workers + 1 exceed the CPUs the stream may use: polling there only keeps
// the thread it waits for off the core. Other platforms always park.
//
// The queue itself is lock-free for the worker and allocation-free for
// the tasks (DESIGN.md §2): producers build each task's captures in place
// in a cache-line-aligned slot of a chain of fixed-size blocks under a
// producer-only mutex and publish it by storing `posted_`; the worker pops
// without a lock and retires by storing `executed_`. A sleeper announces
// itself in a flag or count before its last check under `m_`, and the
// other side takes `m_` to notify only when it sees one.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <source_location>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/effects.hpp"
#include "common/error.hpp"

namespace fth::hybrid {

class Device;

namespace detail {
/// Where each side of a stream's handoff last ran; shared by the stream and
/// every Event it records, so a late waiter never reads a dead stream.
struct Handoff;
}  // namespace detail

/// A host-visible marker of a point in a stream's task sequence.
class Event {
 public:
  Event() = default;

  /// True once every task enqueued before the recording has finished.
  /// Observing true from a host thread is a happens-before edge: it
  /// retires transfers enqueued at or before the recording ticket.
  [[nodiscard]] bool ready() const;

  /// Block the calling thread until ready(). The (defaulted) call site
  /// names the wait in traces, the profiler, and the DAG recorder's
  /// blocking-edge attribution.
  void wait(std::source_location loc = std::source_location::current()) const;

  /// Bounded wait: returns true once ready() (recording the same
  /// happens-before edge as wait()), false on timeout — in which case NO
  /// edge is recorded and in-flight transfers stay live. The device-loss
  /// detection protocol (DESIGN.md §13) is built on this: a false return
  /// is the health-check timeout that declares a device lost.
  [[nodiscard]] bool wait_for(
      std::chrono::nanoseconds timeout,
      std::source_location loc = std::source_location::current()) const;

 private:
  friend class Stream;
  struct State {
    std::mutex m;
    std::condition_variable cv;
    std::atomic<bool> done{false};  ///< set by the marker task; polled without `m`
    std::atomic<int> sleepers{0};   ///< waiters parked (or parking) on `cv`
    std::shared_ptr<const detail::Handoff> handoff;  ///< recording stream's
    const void* stream = nullptr;     ///< recording stream (checker identity)
    std::uint64_t ticket = 0;         ///< ticket of the recording marker task
    std::uint64_t stream_obs_id = 0;  ///< recording stream's DAG identity
  };

  /// wait() and wait_for(): spin, then park until ready() or `deadline`.
  [[nodiscard]] bool block(std::optional<std::chrono::steady_clock::time_point> deadline,
                           std::source_location loc) const;

  std::shared_ptr<State> state_;
};

/// In-order asynchronous work queue executed by a dedicated worker thread.
class Stream {
 public:
  /// `device` (may be null) is used for transfer statistics / cost model.
  explicit Stream(Device* device = nullptr);
  ~Stream();

  /// How long a waiter polls before it parks. The longest wait that recurs
  /// on every panel column is the n = 512 column round trip, ~75–100 µs on
  /// a 4-vCPU Xeon VM; 1 ms covers it ten times over, so per-column
  /// handoffs resolve while polling. A wait longer than the budget (a whole
  /// trailing update) then pays one park/wake pair, whose 10–15 µs is about
  /// 1% of it, so a longer budget would buy nothing but burnt cycles.
  static constexpr std::chrono::microseconds kSpinBudget{1000};

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Bytes of captures a task keeps inside its queue slot; a larger
  /// capture goes to the heap. The largest the drivers enqueue are
  /// ft.y_chk (`this`, four 32-byte views, three index_t) and
  /// ft.reverse_update (four views, four index_t) in ft_gehrd.cpp: 160 B.
  /// With the slot's three pointers that fills three 64-byte cache lines.
  static constexpr std::size_t kInlineBytes = 160;

  /// Slots per queue block. Blocks chain, so enqueue never waits for the
  /// worker. The deepest backlog a driver builds is 19 tasks (fthbench's
  /// `hybrid.peak_queue_depth.ft` on sytrd-n384 and gebrd-n384); a 32-slot
  /// block (6 KB in Release) holds it, so a reduction cycles through two
  /// blocks and allocates none after the first.
  static constexpr std::size_t kBlockTasks = 32;

  /// Enqueue a task; returns its ticket immediately. Tasks run strictly
  /// in order. `label` must be a static or interned string; it names the
  /// task in checker reports and traces.
  template <class F>
  std::uint64_t enqueue(const char* label, F&& task) {
    return post(label, nullptr, std::forward<F>(task));
  }
  template <class F>
  std::uint64_t enqueue(F&& task) {
    return post("task", nullptr, std::forward<F>(task));
  }

  /// Enqueue with a declared effect set (check/effects.hpp): the
  /// FTH_TASK_EFFECTS declaration travels with the task and is installed
  /// in its TaskScope, so FTH_CHECK_EFFECTS=1 runs validate every device
  /// unwrap against it. tools/fth_analyze requires this overload for every
  /// enqueue in src/hybrid/ and src/ft/ (rule `undeclared-task`).
  template <class F>
  std::uint64_t enqueue(const char* label, const check::TaskEffects& effects, F&& task) {
    return post(label, &effects, std::forward<F>(task));
  }

  /// Block until every task enqueued before the call has completed.
  /// Rethrows the first exception thrown by any task since the last
  /// synchronize(). The (defaulted) call site names the wait in
  /// traces/profiles and in the DAG recorder's blocking-edge attribution.
  void synchronize(std::source_location loc = std::source_location::current());

  /// Record an event at the current tail of the queue.
  [[nodiscard]] Event record();

  /// Make this stream wait (asynchronously) until `e` is ready before
  /// running subsequently enqueued tasks.
  void wait_event(const Event& e);

  /// True when no task is queued or executing. (A snapshot: another thread
  /// may enqueue immediately after. The hybrid drivers are single-host-
  /// threaded, so the gate hybrid::host_view builds on this is sound.)
  [[nodiscard]] bool idle() const;

  /// Ticket of the most recently enqueued task (0 if none yet).
  [[nodiscard]] std::uint64_t tail_ticket() const;

  /// Device this stream belongs to (may be null for a free-standing stream).
  [[nodiscard]] Device* device() const noexcept { return device_; }

  /// Process-unique stream identity for the DAG recorder. Stable across the
  /// stream's life and never reused (unlike `this`, which the allocator may
  /// recycle across sequentially constructed Devices).
  [[nodiscard]] std::uint64_t obs_id() const noexcept { return obs_id_; }

  /// Number of tasks executed over the stream's lifetime.
  [[nodiscard]] std::uint64_t tasks_executed() const;

  /// Deepest backlog observed (tasks queued + the one executing) since
  /// construction or the last reset_peak_queue_depth(). A proxy for how
  /// far ahead of the device the host got — the overlap the hybrid
  /// algorithms live on.
  [[nodiscard]] std::uint64_t peak_queue_depth() const;
  void reset_peak_queue_depth();

  /// Declare the simulated device behind this stream dead (hard-death
  /// strike, or quarantine after loss detection). Queued and future tasks
  /// are discarded without running — except "event_record" markers, which
  /// still complete so host Event waits on a dead stream return instead of
  /// hanging (doom semantics, like a real runtime erroring-out pending
  /// events). The task currently executing finishes; the worker thread
  /// stays alive to drain the queue and the destructor joins as usual.
  void kill();

  /// True once kill() ran. Fault-plane stall hooks poll this so a blocked
  /// silent-stall unwinds when the driver quarantines the device.
  [[nodiscard]] bool killed() const;

  /// Install a hook invoked on the worker thread after each task finishes
  /// (argument: the task's lifetime index). Because it runs between tasks,
  /// the hook may touch device memory without racing the task sequence —
  /// the fault plane uses this to land in-flight corruptions. Pass nullptr
  /// to clear. A hook that throws is treated like a failing task.
  void set_task_hook(std::function<void(std::uint64_t)> hook);

 private:
  static constexpr std::size_t kCacheLine = 64;

  /// One queued task: its captures built in place (or a pointer to them on
  /// the heap), how to run and destroy them, and its label. Written by one
  /// producer before `posted_` publishes it, read by the worker after.
  struct alignas(kCacheLine) Slot {
    alignas(std::max_align_t) unsigned char captures[kInlineBytes];
    void (*run)(void*);
    void (*drop)(void*);  ///< null when the captures need no destructor
    const char* label;
#if FTH_CHECK_ENABLED
    check::TaskEffects effects;  ///< declared set; meaningful iff has_effects
    bool has_effects;
#endif

    template <class Fn, class F>
    void emplace(F&& f) {
      if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(captures)) Fn(std::forward<F>(f));
        run = [](void* p) { (*static_cast<Fn*>(p))(); };
        drop = std::is_trivially_destructible_v<Fn>
                   ? nullptr
                   : +[](void* p) { static_cast<Fn*>(p)->~Fn(); };
      } else {
        ::new (static_cast<void*>(captures)) Fn*(new Fn(std::forward<F>(f)));
        run = [](void* p) { (**static_cast<Fn**>(p))(); };
        drop = [](void* p) { delete *static_cast<Fn**>(p); };
      }
    }
  };
  static_assert(FTH_CHECK_ENABLED || sizeof(Slot) == 3 * kCacheLine);
  struct Block;

  template <class F>
  std::uint64_t post(const char* label, const check::TaskEffects* effects, F&& task) {
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, std::nullptr_t>) {
      FTH_CHECK(false, "stream task must be callable");
      return 0;
    } else {
      if constexpr (std::is_pointer_v<Fn> || std::is_same_v<Fn, std::function<void()>>)
        FTH_CHECK(task != nullptr, "stream task must be callable");
      static_assert(std::is_invocable_v<Fn&>, "a stream task is called with no arguments");
      using Ref = std::remove_reference_t<F>;  // may be const; restored below
      void* erased = const_cast<std::remove_const_t<Ref>*>(std::addressof(task));
      return publish(label, effects, erased, [](Slot& slot, void* f) {
        slot.emplace<Fn>(std::forward<F>(*static_cast<Ref*>(f)));
      });
    }
  }
  /// Reserve the next slot, let `build` construct the task in it, log the
  /// enqueue and publish. If `build` throws, nothing is published.
  std::uint64_t publish(const char* label, const check::TaskEffects* effects, void* task,
                        void (*build)(Slot&, void*));
  void worker_loop(Block* first);
  /// Run (or, on a dead stream, discard) the task in `slot` and destroy
  /// its captures.
  void run_task(Slot& slot, std::uint64_t ticket, bool dead, int dev_ordinal);
  void note_error(std::exception_ptr e);

  Device* device_;
  const std::uint64_t obs_id_;  // initialized before worker_ starts
  std::shared_ptr<detail::Handoff> handoff_;

  // Parking, the hook and the first error; the worker takes m_ only to park,
  // to run an installed hook, or to record a throw.
  mutable std::mutex m_;
  std::condition_variable cv_worker_;
  std::condition_variable cv_idle_;
  std::function<void(std::uint64_t)> task_hook_;
  std::exception_ptr pending_error_;

  // Producer side, under enq_m_: the tail block and the block store.
  alignas(kCacheLine) mutable std::mutex enq_m_;
  Block* tail_ = nullptr;
  std::size_t tail_used_ = 0;  ///< slots of tail_ filled
  Block* spare_ = nullptr;     ///< recycled blocks the producers own
  std::vector<std::unique_ptr<Block>> blocks_;  ///< every block ever made

  alignas(kCacheLine) std::atomic<std::uint64_t> posted_{0};  ///< newest published ticket

  // Worker side. Tickets retire in order, so executed_ is also the newest
  // retired ticket.
  alignas(kCacheLine) std::atomic<std::uint64_t> executed_{0};  ///< tasks finished so far
  std::atomic<Block*> freed_{nullptr};  ///< blocks the worker has left
  std::atomic<std::uint64_t> peak_depth_{0};  ///< deepest backlog before a retire

  // Read on every task, written rarely.
  alignas(kCacheLine) std::atomic<bool> stop_{false};
  std::atomic<bool> dead_{false};        ///< kill() ran; see doom semantics above
  std::atomic<bool> has_hook_{false};    ///< task_hook_ is set
  std::atomic<bool> worker_parked_{false};
  std::atomic<int> idle_sleepers_{0};    ///< synchronize() callers parked on cv_idle_
  std::thread worker_;
};

}  // namespace fth::hybrid

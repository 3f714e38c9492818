#include "hybrid/stream.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "check/access.hpp"
#include "hybrid/device.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace fth::hybrid {

namespace detail {
struct Handoff {
  explicit Handoff(int allowed) : cpus(allowed) {}
  const int cpus;                   ///< CPUs the constructing thread could use
  std::atomic<int> host_cpu{-1};    ///< where the host last enqueued or waited
  std::atomic<int> worker_cpu{-1};  ///< where the worker last picked up work
};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// DAG identities are never reused, unlike `this` pointers (see obs_id()).
std::atomic<std::uint64_t> g_next_stream_obs_id{1};

/// Stream workers alive in the process (the oversubscription guard).
std::atomic<int> g_live_workers{0};

int current_cpu() noexcept {
#ifdef __linux__
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Record the CPU this side runs on. Written only when it moved: the two
/// sides' entries share a cache line, and a store on every task would
/// bounce it between their cores.
void note_cpu(std::atomic<int>& where) noexcept {
  const int cpu = current_cpu();
  if (where.load(std::memory_order_relaxed) != cpu) where.store(cpu, std::memory_order_relaxed);
}

/// The worker's CPU set, taken on the constructing thread: every CPU that
/// thread may use except the one it is on. `separate` is false (and the
/// worker keeps the inherited set) below 2 CPUs or off Linux.
struct Placement {
  int cpus = 1;  ///< CPUs the constructing thread may run on
#ifdef __linux__
  cpu_set_t worker{};
  bool separate = false;
#endif
};

Placement place_worker() {
  Placement p;
#ifdef __linux__
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return p;
  p.cpus = CPU_COUNT(&allowed);
  const int here = sched_getcpu();
  if (p.cpus < 2 || here < 0 || !CPU_ISSET(here, &allowed)) return p;
  p.worker = allowed;
  CPU_CLR(here, &p.worker);
  p.separate = true;
#endif
  return p;
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// The spin half of spin-then-park: poll `ready` for up to `budget` and
/// report whether it held. Gives up at once (false) when the side being
/// waited for last ran on this CPU (or has not run yet), or when the
/// workers plus one host thread outnumber the CPUs: the poll would only
/// keep that side off the core. Polls never touch the mutexes, so callers
/// park afterwards on the same predicate under the lock; a true result
/// makes that park a no-op.
template <class Ready>
bool spin(const detail::Handoff& h, const std::atomic<int>& other_cpu,
          std::chrono::nanoseconds budget, Ready ready) {
  if (ready()) return true;
  if (g_live_workers.load(std::memory_order_relaxed) + 1 > h.cpus) return false;
  const int here = current_cpu();
  const int there = other_cpu.load(std::memory_order_relaxed);
  if (here < 0 || there < 0 || here == there) return false;
  constexpr int kPollsPerClockRead = 32;
  const Clock::time_point deadline = Clock::now() + budget;
  for (;;) {
    for (int k = 0; k < kPollsPerClockRead; ++k) {
      if (ready()) return true;
      cpu_relax();
    }
    if (Clock::now() >= deadline) return ready();
  }
}

/// The wake half of the park handshake. A sleeper announces itself in
/// `sleepers` under `m` before its last check of the wait condition, and
/// the waker stores the condition before it reads `sleepers` (all seq_cst),
/// so at least one of the two sees the other. A waker that saw a sleeper
/// re-checks under `m`: once `m` is held the sleeper is waiting on its
/// condition variable or gone. The caller notifies after this unlocks, so
/// the woken thread does not block on `m`.
template <class T>
bool still_asleep(std::mutex& m, const std::atomic<T>& sleepers) {
  std::lock_guard lock(m);
  return sleepers.load(std::memory_order_relaxed) != T{};
}

/// Always-on split of blocking host waits by the path that ended them.
void count_wait(bool spun) {
  static obs::Counter& spun_waits = obs::counter_metric("stream.wait.spun");
  static obs::Counter& parked_waits = obs::counter_metric("stream.wait.parked");
  (spun ? spun_waits : parked_waits).add();
}

/// Report the happens-before edge an observed-complete event implies.
/// From a host thread it is a host-ordering (retires in-flight transfers
/// up to the recording ticket); from a stream worker (wait_event task) it
/// is a cross-stream edge that resolves once the host orders the waiter.
void note_event_observed(const void* stream, std::uint64_t ticket) {
  if (stream == nullptr) return;
  if (check::in_task_context())
    check::on_cross_stream_wait(check::current_stream(), check::current_ticket(),
                                stream, ticket);
  else
    check::on_host_ordered(stream, ticket);
}

}  // namespace

bool Event::ready() const {
  if (!state_) return true;  // default-constructed event is trivially ready
  const bool done = state_->done.load(std::memory_order_acquire);
  if (done) note_event_observed(state_->stream, state_->ticket);
  return done;
}

void Event::wait(std::source_location loc) const { (void)block(std::nullopt, loc); }

bool Event::wait_for(std::chrono::nanoseconds timeout, std::source_location loc) const {
  return block(Clock::now() + timeout, loc);
}

bool Event::block(std::optional<Clock::time_point> deadline, std::source_location loc) const {
  if (!state_) return true;
  State& st = *state_;
  bool done = st.done.load(std::memory_order_acquire);
  {
    // The poll sits inside the wait record, so the profiler and the DAG
    // count it as blocked time, not work; the record's call site
    // ("event_wait@file:line") attributes it.
    obs::WaitRecord wait("event_wait", loc, st.stream_obs_id, st.ticket);
    if (!done) {
      std::chrono::nanoseconds budget = Stream::kSpinBudget;
      if (deadline) {
        const std::chrono::nanoseconds left = *deadline - Clock::now();
        budget = std::min(budget, left);
      }
      done = spin(*st.handoff, st.handoff->worker_cpu, budget,
                  [&] { return st.done.load(std::memory_order_acquire); });
      count_wait(done);
    }
    if (!done) {
      // Announce the sleeper before the last check; the marker task reads
      // the count after setting done (both seq_cst), so one of the two sees
      // the other.
      std::unique_lock lock(st.m);
      st.sleepers.fetch_add(1, std::memory_order_seq_cst);
      const auto marked = [&] { return st.done.load(std::memory_order_seq_cst); };
      if (deadline) {
        done = st.cv.wait_until(lock, *deadline, marked);
      } else {
        st.cv.wait(lock, marked);
        done = true;
      }
      st.sleepers.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // A timed-out wait observed nothing: no happens-before edge, transfers
  // covered by this event stay in flight (the race detector stays sound
  // when the caller takes the loss-detection branch).
  if (done) note_event_observed(st.stream, st.ticket);
  return done;
}

struct Stream::Block {
  Slot slots[kBlockTasks];
  /// The block after this one in ticket order (set by the producer before
  /// it publishes that block's first ticket), or the next free block.
  Block* next = nullptr;
};

Stream::Stream(Device* device)
    : device_(device),
      obs_id_(g_next_stream_obs_id.fetch_add(1, std::memory_order_relaxed)) {
  const Placement p = place_worker();
  handoff_ = std::make_shared<detail::Handoff>(p.cpus);
  blocks_.push_back(std::make_unique<Block>());
  tail_ = blocks_.back().get();
  worker_ = std::thread([this, first = tail_] { worker_loop(first); });
#ifdef __linux__
  // Set from here, not by the worker, so a worker queued behind the
  // constructing thread on its CPU is moved off before that thread polls.
  // Best effort: if the set is refused the worker shares the host's CPUs
  // and the co-location guard in spin() keeps the handoff parking.
  if (p.separate)
    (void)pthread_setaffinity_np(worker_.native_handle(), sizeof p.worker, &p.worker);
#endif
  g_live_workers.fetch_add(1, std::memory_order_relaxed);
}

Stream::~Stream() {
  {
    std::lock_guard lock(m_);
    stop_.store(true, std::memory_order_release);
  }
  cv_worker_.notify_all();
  worker_.join();
  g_live_workers.fetch_sub(1, std::memory_order_relaxed);
  // Joining the drained worker is a host-side ordering of the whole stream.
  check::on_stream_destroyed(this, posted_.load(std::memory_order_relaxed));
}

std::uint64_t Stream::publish(const char* label, const check::TaskEffects* effects,
                              void* task, void (*build)(Slot&, void*)) {
  note_cpu(handoff_->host_cpu);
  if (label == nullptr) label = "task";
  std::uint64_t ticket = 0;
  {
    std::lock_guard lock(enq_m_);
    if (tail_used_ == kBlockTasks) {
      // Chain a block rather than wait for the worker: a stalled or killed
      // worker must never turn enqueue into a wait.
      if (spare_ == nullptr) spare_ = freed_.exchange(nullptr, std::memory_order_acquire);
      Block* b = spare_;
      if (b != nullptr) {
        spare_ = b->next;
        b->next = nullptr;
      } else {
        blocks_.push_back(std::make_unique<Block>());
        b = blocks_.back().get();
      }
      tail_->next = b;
      tail_ = b;
      tail_used_ = 0;
    }
    Slot& slot = tail_->slots[tail_used_];
    build(slot, task);
    slot.label = label;
#if FTH_CHECK_ENABLED
    slot.has_effects = effects != nullptr;
    if (effects != nullptr) slot.effects = *effects;
#else
    (void)effects;  // declarations evaporate in Release (empty TaskEffects)
#endif
    ++tail_used_;
    ticket = posted_.load(std::memory_order_relaxed) + 1;
    // Logged while the task is still invisible: the worker may start it as
    // soon as posted_ moves, and the DAG needs enqueue ≤ task begin. Only
    // traced runs read the worker's line for the depth; the peak is the
    // worker's to record (see worker_loop).
    if (obs::trace_enabled())
      obs::detail::log_enqueue(
          obs_id_, ticket, label,
          static_cast<double>(ticket - executed_.load(std::memory_order_relaxed)));
    posted_.store(ticket, std::memory_order_seq_cst);
  }
  // The worker set worker_parked_ before its last look at posted_ (both
  // seq_cst), so either it saw this ticket or this load sees it parked.
  if (worker_parked_.load(std::memory_order_seq_cst) && still_asleep(m_, worker_parked_))
    cv_worker_.notify_one();
  return ticket;
}

void Stream::synchronize(std::source_location loc) {
  note_cpu(handoff_->host_cpu);
  // The wait's cause is the newest ticket at entry. Logged even when the
  // queue is already drained — a zero-duration Wait node keeps the DAG's
  // node counts deterministic.
  const std::uint64_t tail = posted_.load(std::memory_order_acquire);
  if (obs::WaitRecord wait("synchronize", loc, obs_id_, tail);
      executed_.load(std::memory_order_acquire) < tail) {
    // Poll inside the wait record (see Event::block); then park with the
    // same announce-then-check handshake as the Event.
    const bool spun = spin(*handoff_, handoff_->worker_cpu, kSpinBudget, [&] {
      return executed_.load(std::memory_order_acquire) >= tail;
    });
    count_wait(spun);
    if (!spun) {
      std::unique_lock lock(m_);
      idle_sleepers_.fetch_add(1, std::memory_order_seq_cst);
      cv_idle_.wait(lock, [&] { return executed_.load(std::memory_order_seq_cst) >= tail; });
      idle_sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  check::on_host_ordered(this, tail);
  std::lock_guard lock(m_);
  if (pending_error_) {
    const std::exception_ptr e = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

Event Stream::record() {
  Event e;
  e.state_ = std::make_shared<Event::State>();
  auto state = e.state_;
  state->handoff = handoff_;
  // Pure marker: touches no matrix memory, so it declares the empty set.
  const std::uint64_t ticket = enqueue("event_record", FTH_TASK_EFFECTS(), [state] {
    state->done.store(true, std::memory_order_seq_cst);
    if (state->sleepers.load(std::memory_order_seq_cst) != 0 &&
        still_asleep(state->m, state->sleepers))
      state->cv.notify_all();
  });
  // Nobody else can observe the Event before record() returns, so filling
  // in the checker identity after the enqueue is race-free (the marker
  // task itself never reads these fields).
  state->stream = this;
  state->ticket = ticket;
  state->stream_obs_id = obs_id_;
  return e;
}

void Stream::wait_event(const Event& e) {
  // Not labeled "event_wait": that name means a *host* wait to the profiler;
  // the worker stalling on a cross-stream event is device-busy time.
  enqueue("dev.wait_event", FTH_TASK_EFFECTS(), [e] { e.wait(); });
}

bool Stream::idle() const {
  const std::uint64_t posted = posted_.load(std::memory_order_acquire);
  return executed_.load(std::memory_order_acquire) == posted;
}

std::uint64_t Stream::tail_ticket() const { return posted_.load(std::memory_order_acquire); }

std::uint64_t Stream::tasks_executed() const {
  return executed_.load(std::memory_order_acquire);
}

std::uint64_t Stream::peak_queue_depth() const {
  // The worker records the backlog before each retire; what is queued now
  // has not met a retire yet.
  const std::uint64_t executed = executed_.load(std::memory_order_acquire);
  const std::uint64_t queued = posted_.load(std::memory_order_acquire) - executed;
  return std::max(peak_depth_.load(std::memory_order_relaxed), queued);
}

void Stream::reset_peak_queue_depth() {
  // Meant for an idle stream (the drivers reset before their first task):
  // a retire under way could record its backlog after this store.
  const std::uint64_t executed = executed_.load(std::memory_order_acquire);
  peak_depth_.store(posted_.load(std::memory_order_acquire) - executed,
                    std::memory_order_relaxed);
}

void Stream::set_task_hook(std::function<void(std::uint64_t)> hook) {
  std::lock_guard lock(m_);
  task_hook_ = std::move(hook);
  has_hook_.store(static_cast<bool>(task_hook_), std::memory_order_release);
}

void Stream::kill() { dead_.store(true, std::memory_order_release); }

bool Stream::killed() const { return dead_.load(std::memory_order_acquire); }

void Stream::note_error(std::exception_ptr e) {
  std::lock_guard lock(m_);
  // Keep only the first error; later tasks still run (matching the
  // "stream keeps executing" semantics of real runtimes).
  if (!pending_error_) pending_error_ = std::move(e);
}

void Stream::run_task(Slot& slot, std::uint64_t ticket, bool dead, int dev_ordinal) {
  // A killed stream discards work instead of running it, but still
  // completes event_record markers so host waits observe doom instead of
  // hanging (see kill()).
  const bool run = !dead || std::strcmp(slot.label, "event_record") == 0;
  if (run) {
    try {
      obs::TaskRecord record(obs_id_, ticket, slot.label);
#if FTH_CHECK_ENABLED
      check::TaskScope scope(this, slot.label, ticket,
                             slot.has_effects ? &slot.effects : nullptr, dev_ordinal);
#else
      check::TaskScope scope(this, slot.label, ticket, nullptr, dev_ordinal);
#endif
      slot.run(slot.captures);
    } catch (...) {
      note_error(std::current_exception());
    }
  } else if (obs::trace_enabled()) {
    obs::detail::log_discard(obs_id_, ticket, slot.label);
  }
  if (slot.drop != nullptr) slot.drop(slot.captures);
}

void Stream::worker_loop(Block* block) {
  obs::set_thread_name("device-stream");
  const int dev_ordinal = device_ != nullptr ? device_->ordinal() : -1;
  obs::profile_detail::set_device_ordinal(dev_ordinal);
  std::size_t used = 0;  // slots of `block` already run
  for (std::uint64_t ticket = 1;; ++ticket) {
    note_cpu(handoff_->worker_cpu);
    const auto has_work = [&] { return posted_.load(std::memory_order_acquire) >= ticket; };
    while (!has_work()) {
      // Idle: poll for work, then park. stop_ is part of the condition so
      // the destructor never waits out a budget; it is read before
      // posted_, so a stopping stream still drains what was published.
      const auto stop_or_work = [&] {
        return stop_.load(std::memory_order_acquire) || has_work();
      };
      if (!spin(*handoff_, handoff_->host_cpu, kSpinBudget, stop_or_work)) {
        std::unique_lock lock(m_);
        worker_parked_.store(true, std::memory_order_seq_cst);
        cv_worker_.wait(lock, [&] {
          return stop_.load(std::memory_order_seq_cst) ||
                 posted_.load(std::memory_order_seq_cst) >= ticket;
        });
        worker_parked_.store(false, std::memory_order_relaxed);
      }
      if (stop_.load(std::memory_order_acquire) && !has_work()) return;
    }
    if (used == kBlockTasks) {
      // The producer linked the next block before publishing this ticket.
      Block* spent = block;
      block = block->next;
      used = 0;
      spent->next = freed_.load(std::memory_order_relaxed);
      while (!freed_.compare_exchange_weak(spent->next, spent, std::memory_order_release,
                                           std::memory_order_relaxed)) {
      }
    }
    const bool dead = dead_.load(std::memory_order_acquire);
    run_task(block->slots[used++], ticket, dead, dev_ordinal);
    if (has_hook_.load(std::memory_order_acquire) && !dead) {
      std::function<void(std::uint64_t)> hook;
      {
        std::lock_guard lock(m_);
        hook = task_hook_;
      }
      // Invoked between tasks, so the hook owns the device memory for the
      // duration of the call — same discipline as a task body.
      if (hook) {
        try {
          check::TaskScope scope(this, "task_hook", ticket, nullptr, dev_ordinal);
          hook(ticket - 1);
        } catch (...) {
          note_error(std::current_exception());
        }
      }
    }
    // The backlog only shrinks at a retire, so the deepest it has been
    // since the last one is what is queued now, this task included.
    const std::uint64_t depth = posted_.load(std::memory_order_relaxed) - (ticket - 1);
    if (depth > peak_depth_.load(std::memory_order_relaxed))
      peak_depth_.store(depth, std::memory_order_relaxed);
    executed_.store(ticket, std::memory_order_seq_cst);
    obs::counter("stream.queue_depth", static_cast<double>(depth - 1));
    // A parked synchronize() announced itself before its last check (both
    // seq_cst): either it saw this ticket or this load sees it.
    if (idle_sleepers_.load(std::memory_order_seq_cst) != 0 && still_asleep(m_, idle_sleepers_))
      cv_idle_.notify_all();
  }
}

}  // namespace fth::hybrid

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
#include "obs/dag.hpp"
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
  // Per-site span name ("event_wait@file:line") when any sink is live: the
  // profiler splits its wait phases by site, and the DAG recorder needs the
  // site for blocking-edge attribution.
  const char* site = obs::trace_enabled()
                         ? obs::site_label("event_wait", loc.file_name(),
                                           static_cast<unsigned>(loc.line()))
                         : nullptr;
  obs::dag::detail::on_wait_begin("event_wait", site != nullptr ? site : "",
                                  st.stream_obs_id, st.ticket);
  bool done = st.done.load(std::memory_order_acquire);
  {
    // The poll sits inside the span and the DAG wait so the profiler and
    // the recorder count it as blocked host time, not host work.
    obs::TraceSpan span("stream", site != nullptr ? site : "event_wait");
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
      std::unique_lock lock(st.m);
      const auto marked = [&] { return st.done.load(std::memory_order_relaxed); };
      if (deadline) {
        done = st.cv.wait_until(lock, *deadline, marked);
      } else {
        st.cv.wait(lock, marked);
        done = true;
      }
    }
  }
  obs::dag::detail::on_wait_end();
  // A timed-out wait observed nothing: no happens-before edge, transfers
  // covered by this event stay in flight (the race detector stays sound
  // when the caller takes the loss-detection branch).
  if (done) note_event_observed(st.stream, st.ticket);
  return done;
}

Stream::Stream(Device* device)
    : device_(device),
      obs_id_(g_next_stream_obs_id.fetch_add(1, std::memory_order_relaxed)) {
  const Placement p = place_worker();
  handoff_ = std::make_shared<detail::Handoff>(p.cpus);
  worker_ = std::thread([this] { worker_loop(); });
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

std::uint64_t Stream::enqueue(const char* label, std::function<void()> task) {
  Task t;
  t.fn = std::move(task);
  t.label = label != nullptr ? label : "task";
  return enqueue_task(std::move(t));
}

std::uint64_t Stream::enqueue(const char* label, check::TaskEffects effects,
                              std::function<void()> task) {
  Task t;
  t.fn = std::move(task);
  t.label = label != nullptr ? label : "task";
#if FTH_CHECK_ENABLED
  t.effects = effects;
  t.has_effects = true;
#else
  (void)effects;  // declarations evaporate in Release (empty TaskEffects)
#endif
  return enqueue_task(std::move(t));
}

std::uint64_t Stream::enqueue_task(Task&& t) {
  FTH_CHECK(t.fn != nullptr, "stream task must be callable");
  handoff_->host_cpu.store(current_cpu(), std::memory_order_relaxed);
  std::uint64_t ticket = 0;
  {
    std::lock_guard lock(m_);
    ticket = posted_.load(std::memory_order_relaxed) + 1;
    t.ticket = ticket;
    // Recorded while the task is still invisible: a polling worker starts
    // it as soon as m_ drops, and the DAG needs enqueue ≤ task begin.
    obs::dag::detail::on_enqueue(obs_id_, ticket, t.label);
    queue_.push_back(std::move(t));
    posted_.store(ticket, std::memory_order_release);
    const std::uint64_t depth = queue_.size() + (busy_ ? 1 : 0);
    if (depth > peak_depth_) peak_depth_ = depth;
    obs::counter("stream.queue_depth", static_cast<double>(depth));
  }
  cv_worker_.notify_one();
  return ticket;
}

void Stream::synchronize(std::source_location loc) {
  const char* site = obs::trace_enabled()
                         ? obs::site_label("synchronize", loc.file_name(),
                                           static_cast<unsigned>(loc.line()))
                         : nullptr;
  handoff_->host_cpu.store(current_cpu(), std::memory_order_relaxed);
  std::uint64_t tail = 0;
  {
    std::unique_lock lock(m_);
    // The wait's cause is the newest ticket at entry (same value on exit:
    // the hybrid drivers are single-host-threaded). Recorded even when the
    // queue is already drained — a zero-duration Wait node keeps the DAG's
    // node counts deterministic.
    tail = posted_.load(std::memory_order_relaxed);
    obs::dag::detail::on_wait_begin("synchronize", site != nullptr ? site : "", obs_id_, tail);
    if (!queue_.empty() || busy_) {
      // Poll inside the span and the DAG wait (see Event::block), unlocked
      // so the worker can retire tasks; then park on the full predicate.
      obs::TraceSpan span("stream", site != nullptr ? site : "synchronize");
      lock.unlock();
      count_wait(spin(*handoff_, handoff_->worker_cpu, kSpinBudget,
                      [&] { return executed_.load(std::memory_order_acquire) >= tail; }));
      lock.lock();
      cv_idle_.wait(lock, [&] { return queue_.empty() && !busy_; });
    }
    obs::dag::detail::on_wait_end();
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
    {
      std::lock_guard lock(state->m);
      state->done.store(true, std::memory_order_release);
    }
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
  std::lock_guard lock(m_);
  return queue_.empty() && !busy_;
}

std::uint64_t Stream::tail_ticket() const { return posted_.load(std::memory_order_acquire); }

std::uint64_t Stream::tasks_executed() const {
  return executed_.load(std::memory_order_acquire);
}

std::uint64_t Stream::peak_queue_depth() const {
  std::lock_guard lock(m_);
  return peak_depth_;
}

void Stream::reset_peak_queue_depth() {
  std::lock_guard lock(m_);
  peak_depth_ = queue_.size() + (busy_ ? 1 : 0);
}

void Stream::set_task_hook(std::function<void(std::uint64_t)> hook) {
  std::lock_guard lock(m_);
  task_hook_ = std::move(hook);
}

void Stream::kill() {
  {
    std::lock_guard lock(m_);
    if (dead_) return;
    dead_ = true;
  }
  cv_worker_.notify_all();
}

bool Stream::killed() const {
  std::lock_guard lock(m_);
  return dead_;
}

void Stream::worker_loop() {
  obs::set_thread_name("device-stream");
  const int dev_ordinal = device_ != nullptr ? device_->ordinal() : -1;
  obs::profile_detail::set_device_ordinal(dev_ordinal);
  for (;;) {
    handoff_->worker_cpu.store(current_cpu(), std::memory_order_relaxed);
    // Idle: poll for work before parking. stop_ is part of the condition so
    // the destructor never waits out a budget.
    (void)spin(*handoff_, handoff_->host_cpu, kSpinBudget, [&] {
      return stop_.load(std::memory_order_acquire) ||
             posted_.load(std::memory_order_acquire) >
                 executed_.load(std::memory_order_relaxed);
    });
    Task task;
    bool dead = false;
    {
      std::unique_lock lock(m_);
      cv_worker_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stop_.load(std::memory_order_relaxed)) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
      dead = dead_;
    }
    // A killed stream discards work instead of running it, but still
    // completes event_record markers so host waits observe doom instead of
    // hanging (see kill()).
    const bool run_task = !dead || std::strcmp(task.label, "event_record") == 0;
    obs::dag::detail::on_task_begin(obs_id_, task.ticket, task.label);
    if (run_task) {
      try {
        obs::TraceSpan span("stream", task.label);
#if FTH_CHECK_ENABLED
        check::TaskScope scope(this, task.label, task.ticket,
                               task.has_effects ? &task.effects : nullptr,
                               dev_ordinal);
#else
        check::TaskScope scope(this, task.label, task.ticket, nullptr, dev_ordinal);
#endif
        task.fn();
      } catch (...) {
        std::lock_guard lock(m_);
        // Keep only the first error; later tasks still run (matching the
        // "stream keeps executing" semantics of real runtimes).
        if (!pending_error_) pending_error_ = std::current_exception();
      }
    }
    obs::dag::detail::on_task_end(obs_id_, task.ticket);
    std::function<void(std::uint64_t)> hook;
    std::uint64_t task_index;
    {
      std::lock_guard lock(m_);
      hook = task_hook_;
      task_index = executed_.load(std::memory_order_relaxed);
    }
    if (hook && !dead) {
      // Invoked between tasks, so the hook owns the device memory for the
      // duration of the call — same discipline as a task body.
      try {
        check::TaskScope scope(this, "task_hook", task.ticket, nullptr, dev_ordinal);
        hook(task_index);
      } catch (...) {
        std::lock_guard lock(m_);
        if (!pending_error_) pending_error_ = std::current_exception();
      }
    }
    bool drained = false;
    {
      std::lock_guard lock(m_);
      busy_ = false;
      executed_.fetch_add(1, std::memory_order_release);
      obs::counter("stream.queue_depth", static_cast<double>(queue_.size()));
      drained = queue_.empty();
    }
    // Notified after unlocking, so a woken host does not block on m_.
    if (drained) cv_idle_.notify_all();
  }
}

}  // namespace fth::hybrid

// Stream/event semantics: FIFO ordering, synchronization, exceptions,
// cross-stream dependencies, the lock-free queue (concurrent producers,
// chained blocks, in-place captures), and the host/device handoff: the
// worker's own core, spin-then-park, its guards and the park handshake.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#include <time.h>
#endif

#include "common/error.hpp"
#include "hybrid/stream.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace fth::hybrid {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kBudgetS = std::chrono::duration<double>(Stream::kSpinBudget).count();

std::uint64_t spun_waits() { return obs::counter_metric("stream.wait.spun").value(); }
std::uint64_t parked_waits() { return obs::counter_metric("stream.wait.parked").value(); }

/// Aborts the process when its scope outlives `limit`: a lost wake-up hangs
/// a wait that has no timeout, and the abort turns that into a failure.
class Watchdog {
 public:
  Watchdog(std::chrono::seconds limit, const char* what)
      : thread_([this, limit, what] {
          std::unique_lock lock(m_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: %s did not finish in %lld s\n", what,
                         static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(m_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

TEST(Stream, ExecutesTasksInOrder) {
  // Also with the worker held inside a gate task while three blocks' worth
  // of tasks queue up behind it: blocks chain, so enqueue never waits for
  // the worker. A bounded ring would deadlock here.
  constexpr int kTasks = 3 * static_cast<int>(Stream::kBlockTasks);
  for (const bool gated : {false, true}) {
    Stream s;
    std::atomic<bool> open{!gated};
    s.enqueue("gate", [&open] {
      while (!open.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    std::vector<int> order;
    {
      const Watchdog dog(std::chrono::seconds(60), "enqueue behind a held worker");
      for (int i = 0; i < kTasks; ++i) {
        s.enqueue([&order, i] { order.push_back(i); });
      }
    }
    const auto backlog = static_cast<std::uint64_t>(kTasks) + 1;  // the gate too
    if (gated) EXPECT_EQ(s.peak_queue_depth(), backlog);
    open = true;
    s.synchronize();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks)) << "gated " << gated;
    for (int i = 0; i < kTasks; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(s.tasks_executed(), backlog);
    if (gated) EXPECT_EQ(s.peak_queue_depth(), backlog) << "the peak outlives the drain";
    s.reset_peak_queue_depth();
    EXPECT_EQ(s.peak_queue_depth(), 0u);
  }
}

TEST(Stream, SynchronizeWaitsForCompletion) {
  Stream s;
  std::atomic<bool> done{false};
  s.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done = true;
  });
  s.synchronize();
  EXPECT_TRUE(done.load());
}

TEST(Stream, SynchronizeRethrowsFirstTaskError) {
  Stream s;
  s.enqueue([] { throw std::runtime_error("first"); });
  s.enqueue([] { throw std::runtime_error("second"); });
  try {
    s.synchronize();
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // Error is cleared; subsequent synchronizes succeed.
  s.enqueue([] {});
  EXPECT_NO_THROW(s.synchronize());
}

TEST(Stream, TasksAfterErrorStillRun) {
  Stream s;
  std::atomic<bool> later_ran{false};
  s.enqueue([] { throw std::logic_error("boom"); });
  s.enqueue([&] { later_ran = true; });
  EXPECT_THROW(s.synchronize(), std::logic_error);
  EXPECT_TRUE(later_ran.load());
}

TEST(Stream, NullTaskRejected) {
  Stream s;
  EXPECT_THROW(s.enqueue(nullptr), fth::precondition_error);
}

TEST(Event, DefaultEventIsReady) {
  Event e;
  EXPECT_TRUE(e.ready());
  e.wait();  // must not block
}

TEST(Event, RecordsCompletionPoint) {
  Stream s;
  std::atomic<int> stage{0};
  s.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    stage = 1;
  });
  Event e = s.record();
  EXPECT_FALSE(e.ready());  // the sleeping task is still ahead of the marker
  e.wait();
  EXPECT_EQ(stage.load(), 1);
  EXPECT_TRUE(e.ready());
}

TEST(Event, CrossStreamDependency) {
  Stream producer;
  Stream consumer;
  std::atomic<int> value{0};
  producer.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    value = 42;
  });
  Event ready = producer.record();
  consumer.wait_event(ready);
  int seen = -1;
  consumer.enqueue([&] { seen = value.load(); });
  consumer.synchronize();
  EXPECT_EQ(seen, 42);
}

TEST(Stream, HostOverlapsWithStreamWork) {
  // The FT driver's pattern: enqueue device work, do host work, then wait
  // on an event — host work must not be serialized behind the stream.
  Stream s;
  std::atomic<bool> device_running{false};
  std::atomic<bool> host_saw_device_running{false};
  s.enqueue([&] {
    device_running = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    device_running = false;
  });
  Event e = s.record();
  // Host-side "overlapped" work.
  for (int spin = 0; spin < 1000 && !device_running.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (device_running.load()) host_saw_device_running = true;
  e.wait();
  EXPECT_TRUE(host_saw_device_running.load());
}

TEST(Stream, DestructorDrainsCleanly) {
  std::atomic<int> count{0};
  {
    Stream s;
    for (int i = 0; i < 10; ++i) s.enqueue([&] { ++count; });
    s.synchronize();
  }  // destructor joins
  EXPECT_EQ(count.load(), 10);
}

TEST(Stream, ManySmallTasksStress) {
  // One host thread, then four sharing the stream. The worker runs every
  // task exactly once and in ticket order, so each producer's tasks keep
  // their order and the tickets are unique: 1..N, each once. The shared
  // case repeats: without the producer lock, one round in three lost tasks.
  constexpr int kTasks = 10000;  // per producer
  for (const int producers : {1, 4, 4, 4, 4, 4}) {
    Stream s;
    std::vector<std::vector<std::uint64_t>> tickets(
        static_cast<std::size_t>(producers), std::vector<std::uint64_t>(kTasks));
    std::vector<std::pair<int, int>> ran;  // (producer, sequence), on the worker
    ran.reserve(static_cast<std::size_t>(producers * kTasks));
    std::atomic<bool> go{false};  // start the producers together
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&s, &tickets, &ran, &go, p] {
        while (!go.load()) std::this_thread::yield();
        for (int k = 0; k < kTasks; ++k)
          tickets[static_cast<std::size_t>(p)][static_cast<std::size_t>(k)] =
              s.enqueue("push", [&ran, p, k] { ran.emplace_back(p, k); });
      });
    }
    go = true;
    for (std::thread& t : threads) t.join();
    s.synchronize();
    ASSERT_EQ(ran.size(), static_cast<std::size_t>(producers * kTasks));
    std::vector<int> next(static_cast<std::size_t>(producers), 0);
    std::uint64_t last = 0;
    for (const auto& [p, k] : ran) {
      ASSERT_EQ(k, next[static_cast<std::size_t>(p)]++) << "producer " << p;
      const std::uint64_t t = tickets[static_cast<std::size_t>(p)][static_cast<std::size_t>(k)];
      ASSERT_GT(t, last) << "tasks ran out of ticket order";
      last = t;
    }
    EXPECT_EQ(last, static_cast<std::uint64_t>(producers * kTasks));
    EXPECT_EQ(s.tasks_executed(), last);
  }
}

TEST(Stream, TaskCapturesAreDestroyedExactlyOnce) {
  // Captures up to kInlineBytes live in the task's slot, larger ones on the
  // heap. Either way they are destroyed exactly once: after the task ran,
  // or in its place when the stream was killed first.
  struct Census {
    std::atomic<int> made{0}, gone{0}, runs{0};
  };
  struct Counted {
    explicit Counted(Census* c) : census(c) { ++census->made; }
    Counted(const Counted& o) : census(o.census) { ++census->made; }
    Counted& operator=(const Counted&) = delete;
    ~Counted() { ++census->gone; }
    Census* census;
  };
  for (const bool kill : {false, true}) {
    Census small, large;
    {
      Stream s;
      std::atomic<bool> open{false};
      s.enqueue("gate", [&open] {
        while (!open.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
      });
      const Counted a(&small), b(&large);
      const std::array<unsigned char, Stream::kInlineBytes> pad{};
      static_assert(sizeof(pad) + sizeof(Counted) > Stream::kInlineBytes,
                    "the large task must take the heap path");
      s.enqueue("small", [a] { ++a.census->runs; });
      s.enqueue("large", [b, pad] { b.census->runs += 1 + pad[0]; });
      if (kill) s.kill();
      open = true;
      s.synchronize();
      for (const Census* c : {&small, &large}) {
        EXPECT_EQ(c->runs.load(), kill ? 0 : 1) << "kill " << kill;
        EXPECT_EQ(c->made.load() - c->gone.load(), 1) << "only the test's own copy lives";
      }
    }
    for (const Census* c : {&small, &large}) EXPECT_EQ(c->made.load(), c->gone.load());
  }
}

// ---- handoff: the worker's own core, spin-then-park and its guards ---------

TEST(Stream, DestroyingIdleStreamsNeverWaitsOutABudget) {
  // Each worker is polling for work when its stream dies; stop_ is part of
  // the poll condition, so no destructor waits out a budget. The median
  // keeps a slow thread join (sanitizer builds) from deciding the test.
  std::vector<double> destroy;
  for (int k = 0; k < 100; ++k) {
    auto s = std::make_unique<Stream>();
    s->enqueue("noop", [] {});
    s->synchronize();
    const Clock::time_point t0 = Clock::now();
    s.reset();
    destroy.push_back(seconds_since(t0));
  }
  std::nth_element(destroy.begin(), destroy.begin() + 50, destroy.end());
  EXPECT_LT(destroy[50], kBudgetS / 4) << "median destroy, s";
}

TEST(Stream, ParkedRoundTripsNeverLoseAWakeUp) {
  // Gaps and tasks both outlast the spin budget, so every round trip parks
  // the idle worker (the enqueue must wake it) and then the host (the
  // worker must wake it), alternating synchronize() and an Event wait.
  Stream s;
  const auto longer_than_budget = Stream::kSpinBudget + std::chrono::microseconds(200);
  const std::uint64_t parked0 = parked_waits();
  constexpr int kTrips = 2000;
  {
    const Watchdog dog(std::chrono::seconds(120), "2000 parked round trips");
    for (int k = 0; k < kTrips; ++k) {
      std::this_thread::sleep_for(longer_than_budget);
      s.enqueue("sleep", [&] { std::this_thread::sleep_for(longer_than_budget); });
      if (k % 2 == 0) {
        s.synchronize();
      } else {
        s.record().wait();
      }
    }
  }
  EXPECT_EQ(s.tasks_executed(), static_cast<std::uint64_t>(kTrips + kTrips / 2));
  EXPECT_GE(parked_waits() - parked0, static_cast<std::uint64_t>(kTrips * 9 / 10))
      << "the waits must mostly park for this to test the handshake";
}

TEST(Stream, PollCountsAsHostWaitInTheProfile) {
  // The poll sits inside the synchronize span: a wait that ends while
  // polling (a task shorter than the budget) is blocked host time just like
  // one that parks (a 20 ms task). The short wait's floor is lower because
  // the per-call bookkeeping outside the span weighs more there, most of
  // all under a sanitizer; a poll outside the span would read near 0.
  Stream s;
  const auto busy = [](std::chrono::microseconds d) {
    const Clock::time_point until = Clock::now() + d;
    while (Clock::now() < until) {
    }
  };
  struct Leg {
    std::chrono::microseconds task;
    int reps;
    double floor;
  };
  for (const Leg& leg : {Leg{std::chrono::microseconds(20000), 1, 0.9},
                         Leg{Stream::kSpinBudget / 4, 40, 0.5}}) {
    obs::profile_start();
    double waited = 0.0;
    for (int k = 0; k < leg.reps; ++k) {
      s.enqueue("busy", [&busy, &leg] { busy(leg.task); });
      const Clock::time_point t0 = Clock::now();
      s.synchronize();
      waited += seconds_since(t0);
    }
    const obs::ProfileReport rep = obs::profile_stop();
    EXPECT_GE(rep.host_wait_s, leg.floor * waited) << "task " << leg.task.count() << " us";
  }
}

#ifdef __linux__

cpu_set_t thread_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  return set;
}

void pin_this_thread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  EXPECT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
}

/// Pins the calling thread onto one CPU for its scope.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu) : saved_(thread_mask()) { pin_this_thread(cpu); }
  ~ScopedPin() { (void)sched_setaffinity(0, sizeof saved_, &saved_); }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_;
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

TEST(Stream, EventWaitForShorterThanTheBudgetReturnsOnTime) {
  // pool_gehrd's device-loss detection is a wait_for that times out. Its
  // poll must stop at the deadline, so each call burns at most its timeout
  // of CPU. The bound is on the calling thread's CPU time, which a
  // descheduled host does not inflate; wall time bounds only from below.
  Stream s;
  s.enqueue("warm", [] {});
  s.synchronize();  // the worker has run, so the wait may poll
  std::atomic<bool> release{false};
  s.enqueue("gate", [&] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  const Event e = s.record();
  const auto timeout = Stream::kSpinBudget / 10;
  constexpr int kCalls = 5;
  double shortest = 1e9;
  const double cpu0 = thread_cpu_seconds();
  for (int k = 0; k < kCalls; ++k) {
    const Clock::time_point t0 = Clock::now();
    EXPECT_FALSE(e.wait_for(timeout));
    shortest = std::min(shortest, seconds_since(t0));
  }
  const double cpu_per_call = (thread_cpu_seconds() - cpu0) / kCalls;
  release = true;
  EXPECT_TRUE(e.wait_for(std::chrono::seconds(30)));
  EXPECT_GE(shortest, std::chrono::duration<double>(timeout).count());
  EXPECT_LT(cpu_per_call, kBudgetS / 2)
      << "CPU s per call; a poll that ignores the timeout spins a whole budget";
}

TEST(Stream, WorkerRunsOffTheConstructingThreadsCpu) {
  const cpu_set_t allowed = thread_mask();
  if (CPU_COUNT(&allowed) < 2) GTEST_SKIP() << "needs at least 2 allowed CPUs";
  for (int attempt = 0; attempt < 100; ++attempt) {
    // Same CPU before and after: the constructor ran there too.
    const int host = sched_getcpu();
    Stream s;
    if (sched_getcpu() != host) continue;
    cpu_set_t worker_set{};
    std::vector<int> ran_on(200, -1);
    s.enqueue("mask", [&worker_set] { worker_set = thread_mask(); });
    for (int& cpu : ran_on) s.enqueue("where", [&cpu] { cpu = sched_getcpu(); });
    s.synchronize();
    EXPECT_EQ(CPU_COUNT(&worker_set), CPU_COUNT(&allowed) - 1);
    EXPECT_FALSE(CPU_ISSET(host, &worker_set));
    for (const int cpu : ran_on) EXPECT_NE(cpu, host);
    return;
  }
  FAIL() << "the test thread migrated during every one of 100 constructions";
}

TEST(Stream, CoLocatedRoundTripsParkInsteadOfSpinning) {
  // Worker and host pinned onto one CPU, where a poll could only keep the
  // other side off it. Without the guard the p50 round trip read 2 ms (two
  // budgets back to back) on a 4-vCPU Xeon VM.
  Stream s;
  int cpu = -1;
  s.enqueue("pin", [&cpu] {
    cpu = sched_getcpu();
    pin_this_thread(cpu);
  });
  s.synchronize();
  const ScopedPin pin(cpu);
  const std::uint64_t spun0 = spun_waits();
  std::vector<double> rt;
  for (int k = 0; k < 2000; ++k) {
    const Clock::time_point t0 = Clock::now();
    s.enqueue("noop", [] {});
    s.synchronize();
    rt.push_back(seconds_since(t0));
  }
  std::nth_element(rt.begin(), rt.begin() + 1000, rt.end());
  EXPECT_LT(rt[1000], kBudgetS / 10) << "p50 round trip, s";
  EXPECT_EQ(spun_waits(), spun0) << "no wait may poll on the CPU the worker runs on";
}

TEST(Stream, OneCpuMaskKeepsOrderAndErrorsAndNeverSpins) {
  // The stream inherits a one-CPU mask from its constructor: the worker
  // keeps that mask, and neither side polls.
  const ScopedPin pin(sched_getcpu());
  const std::uint64_t spun0 = spun_waits();
  const std::uint64_t parked0 = parked_waits();
  Stream s;
  cpu_set_t worker_set{};
  s.enqueue("mask", [&worker_set] { worker_set = thread_mask(); });
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) s.enqueue("push", [&order, i] { order.push_back(i); });
  s.enqueue("throw", [] { throw std::runtime_error("first"); });
  s.enqueue("throw", [] { throw std::runtime_error("second"); });
  s.enqueue("sleep", [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
  try {
    s.synchronize();
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  const cpu_set_t mine = thread_mask();
  EXPECT_TRUE(CPU_EQUAL(&worker_set, &mine)) << "the worker must keep the inherited mask";

  // An idle worker that polled would burn a budget of CPU time here.
  double idle0 = 0.0, idle1 = 0.0;
  s.enqueue("clock", [&idle0] { idle0 = thread_cpu_seconds(); });
  s.synchronize();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  s.enqueue("clock", [&idle1] { idle1 = thread_cpu_seconds(); });
  s.synchronize();
  EXPECT_LT(idle1 - idle0, kBudgetS / 2);
  EXPECT_EQ(spun_waits(), spun0);
  EXPECT_GT(parked_waits(), parked0);
}

#endif  // __linux__

}  // namespace
}  // namespace fth::hybrid

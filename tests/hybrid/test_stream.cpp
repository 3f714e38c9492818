// Stream/event semantics: FIFO ordering, synchronization, exceptions,
// cross-stream dependencies, and the host/device handoff: the worker's own
// core, spin-then-park and its guards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
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

TEST(Stream, ExecutesTasksInOrder) {
  Stream s;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    s.enqueue([&order, i] { order.push_back(i); });
  }
  s.synchronize();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(s.tasks_executed(), 100u);
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
  Stream s;
  std::atomic<long> sum{0};
  constexpr int kTasks = 5000;
  for (int i = 0; i < kTasks; ++i) s.enqueue([&sum, i] { sum += i; });
  s.synchronize();
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
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

TEST(Stream, EventWaitForShorterThanTheBudgetReturnsOnTime) {
  // pool_gehrd's device-loss detection is a wait_for that times out.
  Stream s;
  s.enqueue("warm", [] {});
  s.synchronize();  // the worker has run, so the wait may poll
  std::atomic<bool> release{false};
  s.enqueue("gate", [&] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  const Event e = s.record();
  const auto timeout = Stream::kSpinBudget / 10;
  std::vector<double> took;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point t0 = Clock::now();
    EXPECT_FALSE(e.wait_for(timeout));
    took.push_back(seconds_since(t0));
  }
  release = true;
  EXPECT_TRUE(e.wait_for(std::chrono::seconds(30)));
  std::sort(took.begin(), took.end());
  EXPECT_GE(took.front(), std::chrono::duration<double>(timeout).count());
  EXPECT_LT(took[2], kBudgetS / 2) << "a poll that ignores the timeout takes a whole budget";
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

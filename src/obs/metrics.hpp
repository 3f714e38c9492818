// fth::obs metrics — named monotonic counters and value histograms with a
// JSON snapshot writer.
//
// Unlike tracing (timeline reconstruction, off by default), metrics are
// always on: an fth::obs::Counter is one relaxed atomic add, cheap enough
// to leave in every path, and a Histogram is a short uncontended critical
// section on events that are rare by construction (detections, recoveries,
// per-iteration drift samples). The registry snapshot is what the benches
// embed in their `bench_*.json` reports and what the fault-injection tests
// cross-check against FtReport.
//
// Names are hierarchical by convention ("ft.detections", "device.h2d_bytes");
// EXPERIMENTS.md documents the schema of the emitted JSON.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace fth::obs {

/// Monotonic event counter (thread-safe).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Value histogram over decades: bucket k counts samples in
/// [10^(k+kMinExp), 10^(k+1+kMinExp)), clamped at both ends, plus exact
/// count/sum/min/max. Decade buckets suit the quantities recorded here
/// (checksum drift spans ~15 orders of magnitude; byte counts several).
class Histogram {
 public:
  static constexpr int kMinExp = -18;  ///< smallest resolved decade, 1e-18
  static constexpr int kMaxExp = 12;   ///< largest resolved decade, 1e12
  /// underflow + one bucket per decade kMinExp..kMaxExp (inclusive) + overflow
  static constexpr int kBuckets = kMaxExp - kMinExp + 3;

  void observe(double v) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< defined when count > 0
    double max = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };
  [[nodiscard]] Snapshot snapshot() const;
  void reset();

  /// Index of the bucket a value falls into (exposed for tests).
  [[nodiscard]] static int bucket_of(double v) noexcept;

 private:
  mutable std::mutex m_;
  Snapshot data_;
};

/// Process-global name → instrument registry. Instruments are created on
/// first use and live forever; the returned references stay valid, so hot
/// paths should look up once and keep the pointer.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zero every registered instrument (for tests and per-bench scoping).
  void reset();

  /// Plain-value snapshot of every registered counter. Counters are
  /// monotonic and process-global, so attribution to one unit of work
  /// (a campaign trial, a bench size) is done by snapshot-delta:
  /// take counter_values() before and after, then counter_delta().
  using CounterValues = std::map<std::string, std::uint64_t>;
  [[nodiscard]] CounterValues counter_values() const;

  /// Per-name `now − base`; names absent from `base` count from zero, and
  /// names whose delta is zero are omitted (so a trial's map holds exactly
  /// the counters it moved).
  [[nodiscard]] static CounterValues counter_delta(const CounterValues& now,
                                                   const CounterValues& base);

  /// Snapshot as a JSON object: {"counters":{name:value,...},
  /// "histograms":{name:{count,sum,min,max,buckets:[...]},...}}.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex m_;
  // std::map: stable iteration order makes the JSON output deterministic.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

/// Shorthand for Registry::global().counter(name) / .histogram(name).
Counter& counter_metric(const std::string& name);
Histogram& histogram_metric(const std::string& name);

}  // namespace fth::obs

#include "obs/profile.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "common/flops.hpp"
#include "common/json.hpp"
#include "obs/log.hpp"

namespace fth::obs {

namespace profile_detail {

namespace {
/// Pool ordinal the calling thread claims (device workers only; -1 host).
thread_local int t_device_ordinal = -1;
}  // namespace

void set_device_ordinal(int ordinal) noexcept { t_device_ordinal = ordinal; }
}  // namespace profile_detail

namespace {

using profile_detail::Interval;
using profile_detail::intersect_len;
using profile_detail::merge_union;

// ---------------------------------------------------------------------------
// Aggregation core, shared by the live profiler (one Agg per thread) and the
// offline ProfileBuilder (one Agg per trace tid). Spans are keyed by their
// (cat, name) pointers but hashed/compared by content, so literals and
// interned names merge correctly.

struct PhaseKey {
  const char* cat;
  const char* name;
  bool operator==(const PhaseKey& o) const noexcept {
    return std::strcmp(cat, o.cat) == 0 && std::strcmp(name, o.name) == 0;
  }
};

struct PhaseKeyHash {
  std::size_t operator()(const PhaseKey& k) const noexcept {
    std::size_t h = 1469598103934665603ull;
    const auto mix = [&h](const char* p) {
      for (; *p != '\0'; ++p) h = (h ^ static_cast<unsigned char>(*p)) * 1099511628211ull;
    };
    mix(k.cat);
    h = (h ^ 0x2F) * 1099511628211ull;
    mix(k.name);
    return h;
  }
};

struct PhaseAccum {
  std::uint64_t calls = 0;
  double wall_us = 0.0;
  double self_us = 0.0;
  std::uint64_t flops = 0;
  double arg_sum = 0.0;
};

struct Frame {
  PhaseKey key;
  double t0 = 0.0;
  double mark_ts = 0.0;           // start of the current self segment
  std::uint64_t mark_flops = 0;   // thread-flops at the segment start
  double arg = 0.0;
  double self_us = 0.0;
  std::uint64_t self_flops = 0;
  bool is_task = false, is_wait = false, is_panel = false, is_update = false;
};

struct Agg {
  std::vector<Frame> stack;
  std::unordered_map<PhaseKey, PhaseAccum, PhaseKeyHash> phases;
  std::vector<Interval> device_busy;  // stream/task spans (device worker)
  std::vector<Interval> host_wait;    // synchronize + event_wait spans outside tasks
  bool is_device = false;
  int device_ordinal = -1;  // pool ordinal self-reported by the worker (live)
  double pending_panel_t0 = -1.0;  // panel begin awaiting its update end
  std::uint64_t iters = 0;
  double iter_sum_us = 0.0;
  double iter_max_us = 0.0;
  double first_ts = 0.0, last_ts = 0.0;
  bool any = false;

  void note_ts(double ts) {
    if (!any) {
      first_ts = last_ts = ts;
      any = true;
    } else {
      first_ts = std::min(first_ts, ts);
      last_ts = std::max(last_ts, ts);
    }
  }

  void begin(const char* cat, const char* name, double ts, double arg, std::uint64_t fl) {
    note_ts(ts);
    if (!stack.empty()) {
      Frame& p = stack.back();
      p.self_us += ts - p.mark_ts;
      p.self_flops += fl - p.mark_flops;
    }
    Frame f;
    f.key = PhaseKey{cat, name};
    f.t0 = f.mark_ts = ts;
    f.mark_flops = fl;
    f.arg = arg;
    const bool stream_cat = std::strcmp(cat, "stream") == 0;
    // Prefix match: waits carry per-site names ("synchronize@file:line"),
    // so fth_prof can show which of the hundreds of synchronize sites
    // dominates instead of one aggregate row.
    const bool wait = stream_cat && (std::strncmp(name, "synchronize", 11) == 0 ||
                                     std::strncmp(name, "event_wait", 10) == 0);
    // Any other stream-category span is a worker task (they carry per-task
    // labels — "dev.gemm", "h2d", "ft.detect", plain "task", ...).
    f.is_task = stream_cat && !wait;
    // A wait inside a task (a worker's dev.wait_event) is device time: the
    // task's interval already counts it, and host_wait is host tracks only.
    f.is_wait = wait && std::none_of(stack.begin(), stack.end(),
                                     [](const Frame& p) { return p.is_task; });
    const bool hybrid_cat = std::strcmp(cat, "hybrid") == 0;
    f.is_panel = hybrid_cat && std::strcmp(name, "panel") == 0;
    f.is_update = hybrid_cat && std::strcmp(name, "update") == 0;
    if (f.is_task) is_device = true;
    stack.push_back(f);
  }

  void end(double ts, std::uint64_t fl) {
    if (stack.empty()) return;  // the span began before the window opened
    note_ts(ts);
    Frame f = stack.back();
    stack.pop_back();
    f.self_us += ts - f.mark_ts;
    f.self_flops += fl - f.mark_flops;
    PhaseAccum& a = phases[f.key];
    ++a.calls;
    a.wall_us += ts - f.t0;
    a.self_us += f.self_us;
    a.flops += f.self_flops;
    a.arg_sum += f.arg;
    if (!stack.empty()) {
      stack.back().mark_ts = ts;
      stack.back().mark_flops = fl;
    }
    if (f.is_task) {
      device_busy.push_back(Interval{f.t0, ts});
    } else if (f.is_wait) {
      host_wait.push_back(Interval{f.t0, ts});
    } else if (f.is_panel) {
      pending_panel_t0 = f.t0;
    } else if (f.is_update && pending_panel_t0 >= 0.0) {
      const double d = ts - pending_panel_t0;
      ++iters;
      iter_sum_us += d;
      iter_max_us = std::max(iter_max_us, d);
      pending_panel_t0 = -1.0;
    }
  }

  /// Attribute still-open spans up to `ts` (window close mid-span). No new
  /// FLOPs are credited: the closing thread cannot read the owner's counter.
  void close_open(double ts) {
    while (!stack.empty()) end(ts, stack.back().mark_flops);
  }
};

}  // namespace

/// Sort + merge in place; returns total covered length (µs).
double profile_detail::merge_union(std::vector<Interval>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) { return a.b < b.b; });
  std::size_t out = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i].b <= v[out].e) {
      v[out].e = std::max(v[out].e, v[i].e);
    } else {
      v[++out] = v[i];
    }
  }
  v.resize(out + 1);
  double len = 0.0;
  for (const Interval& iv : v) len += iv.e - iv.b;
  return len;
}

/// Overlap length of two already-merged interval lists (µs).
double profile_detail::intersect_len(const std::vector<Interval>& a,
                                     const std::vector<Interval>& b) {
  double len = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].b, b[j].b);
    const double hi = std::min(a[i].e, b[j].e);
    if (hi > lo) len += hi - lo;
    if (a[i].e < b[j].e) ++i;
    else ++j;
  }
  return len;
}

namespace {

ProfileReport build_report(const std::vector<Agg*>& aggs, double roofline, double wall_hint_s,
                           std::uint64_t total_flops) {
  ProfileReport rep;
  rep.roofline_gflops = roofline;
  rep.total_flops = total_flops;

  std::map<std::tuple<std::string, std::string, std::string>, PhaseAccum> merged;
  std::vector<Interval> dev, wait;
  std::map<int, std::vector<Interval>> ord;  // device busy, keyed by self-reported ordinal
  bool any = false;
  double first = 0.0, last = 0.0;
  for (Agg* a : aggs) {
    const char* track = a->is_device ? "device" : "host";
    if (a->is_device && !a->device_busy.empty() && a->device_ordinal >= 0) {
      auto& iv = ord[a->device_ordinal];
      iv.insert(iv.end(), a->device_busy.begin(), a->device_busy.end());
    }
    for (const auto& [k, acc] : a->phases) {
      PhaseAccum& m = merged[{track, k.cat, k.name}];
      m.calls += acc.calls;
      m.wall_us += acc.wall_us;
      m.self_us += acc.self_us;
      m.flops += acc.flops;
      m.arg_sum += acc.arg_sum;
    }
    dev.insert(dev.end(), a->device_busy.begin(), a->device_busy.end());
    wait.insert(wait.end(), a->host_wait.begin(), a->host_wait.end());
    rep.iterations += a->iters;
    rep.iter_max_s = std::max(rep.iter_max_s, a->iter_max_us / 1e6);
    rep.iter_avg_s += a->iter_sum_us;  // sum for now; divided below
    if (a->any) {
      if (!any) {
        first = a->first_ts;
        last = a->last_ts;
        any = true;
      } else {
        first = std::min(first, a->first_ts);
        last = std::max(last, a->last_ts);
      }
    }
  }
  rep.wall_s = wall_hint_s > 0.0 ? wall_hint_s : (any ? (last - first) / 1e6 : 0.0);

  rep.device_busy_s = merge_union(dev) / 1e6;
  rep.host_wait_s = merge_union(wait) / 1e6;
  const double both_s = intersect_len(dev, wait) / 1e6;
  rep.overlapped_s = rep.device_busy_s - both_s;
  rep.overlap_fraction = rep.device_busy_s > 0.0 ? rep.overlapped_s / rep.device_busy_s : 0.0;
  rep.stream_occupancy = rep.wall_s > 0.0 ? rep.device_busy_s / rep.wall_s : 0.0;
  // Pool runs have several device workers; attribute occupancy per pool
  // ordinal so a member idling behind a skewed shard map (or dead after a
  // loss) is visible. Live mode only: workers self-report their ordinal.
  // std::map iteration gives ascending ordinals for free.
  for (auto& [o, iv] : ord) {
    const double us = merge_union(iv);
    rep.per_device_by_ordinal.emplace_back(o, rep.wall_s > 0.0 ? us / 1e6 / rep.wall_s : 0.0);
  }

  rep.iter_avg_s = rep.iterations > 0 ? rep.iter_avg_s / 1e6 / static_cast<double>(rep.iterations)
                                      : 0.0;
  const auto avg_of = [&merged](const char* cat, const char* name) {
    const auto it = merged.find({"host", cat, name});
    if (it == merged.end() || it->second.calls == 0) return 0.0;
    return it->second.wall_us / 1e6 / static_cast<double>(it->second.calls);
  };
  rep.iter_avg_panel_s = avg_of("hybrid", "panel");
  rep.iter_avg_update_s = avg_of("hybrid", "update");

  for (const auto& [key, acc] : merged) {
    ProfilePhase p;
    p.track = std::get<0>(key);
    p.cat = std::get<1>(key);
    p.name = std::get<2>(key);
    p.calls = acc.calls;
    p.wall_s = acc.wall_us / 1e6;
    p.self_s = acc.self_us / 1e6;
    p.flops = acc.flops;
    p.arg_sum = acc.arg_sum;
    p.gflops = p.self_s > 0.0 ? static_cast<double>(p.flops) / p.self_s / 1e9 : 0.0;
    p.roofline_frac = roofline > 0.0 ? p.gflops / roofline : 0.0;
    rep.phases.push_back(std::move(p));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Live profiler: one Agg per thread, kept beside the thread's event log and
// fed under its lock (obs/log.hpp). The window state below only brackets it.

struct LiveWindow {
  std::mutex m;
  std::atomic<double> roofline{0.0};
  double start_ts = 0.0;
  std::uint64_t flops0 = 0;
  bool prev_flops_enabled = false;
  bool running = false;
};

LiveWindow& live() {
  static LiveWindow w;
  return w;
}

}  // namespace

struct log::ProfileAgg {
  Agg agg;
};

void log::ProfileAggDelete::operator()(ProfileAgg* a) const noexcept { delete a; }

void log::profile_feed(ProfileSlot& slot, const Record& r) noexcept {
  if (!slot) slot.reset(new ProfileAgg);
  Agg& a = slot->agg;
  // Restamp on every record: a new window starts from a fresh Agg.
  a.device_ordinal = profile_detail::t_device_ordinal;
  const std::uint64_t fl = flops::thread_count();
  switch (r.kind) {
    case Kind::SpanBegin: a.begin(r.cat, r.name, r.ts_us, r.value, fl); break;
    case Kind::TaskBegin:
    case Kind::WaitBegin: a.begin("stream", r.name, r.ts_us, 0.0, fl); break;
    case Kind::SpanEnd:
    case Kind::TaskEnd:
    case Kind::WaitEnd: a.end(r.ts_us, fl); break;
    default: break;
  }
}

bool profile_enabled() noexcept { return (log_sinks() & log::kProfile) != 0; }

void profile_start() {
  LiveWindow& w = live();
  std::lock_guard lock(w.m);
  log::disarm(log::kProfile);
  (void)log::take_profiles();  // a new window starts from fresh aggregates
  if (const char* env = std::getenv("FTH_ROOFLINE_GFLOPS"); env != nullptr && env[0] != '\0') {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) w.roofline.store(v, std::memory_order_relaxed);
  }
  w.prev_flops_enabled = flops::enabled();
  flops::enable(true);
  w.flops0 = flops::count();
  w.start_ts = detail::now_us();
  w.running = true;
  log::arm(log::kProfile);
}

ProfileReport profile_stop() {
  LiveWindow& w = live();
  std::lock_guard lock(w.m);
  if (!w.running) return ProfileReport{};
  log::disarm(log::kProfile);
  w.running = false;
  const double stop_ts = detail::now_us();
  const std::uint64_t total = flops::count() - w.flops0;
  flops::enable(w.prev_flops_enabled);
  const std::vector<log::ProfileSlot> slots = log::take_profiles();
  std::vector<Agg*> aggs;
  for (const log::ProfileSlot& s : slots) {
    s->agg.close_open(stop_ts);
    aggs.push_back(&s->agg);
  }
  return build_report(aggs, w.roofline.load(std::memory_order_relaxed),
                      (stop_ts - w.start_ts) / 1e6, total);
}

void set_profile_roofline(double gflops) noexcept {
  live().roofline.store(gflops, std::memory_order_relaxed);
}

// --- ProfileBuilder (offline replay) ----------------------------------------

struct ProfileBuilder::Impl {
  std::map<std::uint64_t, Agg> threads;
};

ProfileBuilder::ProfileBuilder() : impl_(std::make_unique<Impl>()) {}
ProfileBuilder::~ProfileBuilder() = default;

void ProfileBuilder::begin(std::uint64_t tid, const char* cat, const char* name, double ts_us,
                           double arg_value, std::uint64_t flops_now) {
  impl_->threads[tid].begin(cat, name, ts_us, arg_value, flops_now);
}

void ProfileBuilder::end(std::uint64_t tid, double ts_us, std::uint64_t flops_now) {
  impl_->threads[tid].end(ts_us, flops_now);
}

ProfileReport ProfileBuilder::finish(double roofline_gflops, double wall_hint_s) {
  std::vector<Agg*> aggs;
  std::uint64_t total = 0;
  for (auto& [tid, agg] : impl_->threads) {
    agg.close_open(agg.last_ts);  // a truncated trace may end mid-span
    aggs.push_back(&agg);
    for (const auto& [k, acc] : agg.phases) total += acc.flops;
  }
  return build_report(aggs, roofline_gflops, wall_hint_s, total);
}

// --- Report rendering --------------------------------------------------------

std::string ProfileReport::to_json() const {
  std::string out;
  out.reserve(512 + phases.size() * 160);
  out += "{\"wall_s\":";
  json::append_number(out, wall_s, 9);
  out += ",\"roofline_gflops\":";
  json::append_number(out, roofline_gflops, 9);
  out += ",\"total_flops\":" + std::to_string(total_flops);
  out += ",\"overlap\":{\"device_busy_s\":";
  json::append_number(out, device_busy_s, 9);
  out += ",\"host_wait_s\":";
  json::append_number(out, host_wait_s, 9);
  out += ",\"overlapped_s\":";
  json::append_number(out, overlapped_s, 9);
  out += ",\"overlap_fraction\":";
  json::append_number(out, overlap_fraction, 9);
  out += ",\"stream_occupancy\":";
  json::append_number(out, stream_occupancy, 9);
  // Per-device occupancy keyed by pool ordinal (live runs only): omitted
  // entirely when no worker reported an ordinal (replay, host-only windows).
  if (!per_device_by_ordinal.empty()) {
    out += ",\"stream_occupancy_by_device\":{";
    bool first_ord = true;
    for (const auto& [o, occ] : per_device_by_ordinal) {
      if (!first_ord) out += ',';
      first_ord = false;
      out += "\"" + std::to_string(o) + "\":";
      json::append_number(out, occ, 9);
    }
    out += "}";
  }
  out += "},\"iterations\":{\"count\":" + std::to_string(iterations);
  out += ",\"avg_panel_s\":";
  json::append_number(out, iter_avg_panel_s, 9);
  out += ",\"avg_update_s\":";
  json::append_number(out, iter_avg_update_s, 9);
  out += ",\"avg_s\":";
  json::append_number(out, iter_avg_s, 9);
  out += ",\"max_s\":";
  json::append_number(out, iter_max_s, 9);
  out += "},\"phases\":[";
  bool first = true;
  for (const ProfilePhase& p : phases) {
    if (!first) out += ',';
    first = false;
    out += "{\"track\":\"";
    json::append_escaped(out, p.track);
    out += "\",\"cat\":\"";
    json::append_escaped(out, p.cat);
    out += "\",\"name\":\"";
    json::append_escaped(out, p.name);
    out += "\",\"calls\":" + std::to_string(p.calls);
    out += ",\"wall_s\":";
    json::append_number(out, p.wall_s, 9);
    out += ",\"self_s\":";
    json::append_number(out, p.self_s, 9);
    out += ",\"flops\":" + std::to_string(p.flops);
    out += ",\"gflops\":";
    json::append_number(out, p.gflops, 9);
    // Omitted (not 0) when no roofline was configured: a meaningless zero
    // would read as a catastrophic regression to bench_compare.
    if (roofline_gflops > 0.0) {
      out += ",\"roofline_frac\":";
      json::append_number(out, p.roofline_frac, 9);
    }
    out += ",\"arg_sum\":";
    json::append_number(out, p.arg_sum, 9);
    out += "}";
  }
  out += "]}";
  return out;
}

void ProfileReport::print_table(std::FILE* out) const {
  std::fprintf(out, "\n-- profile: wall %.4f s", wall_s);
  if (roofline_gflops > 0.0) std::fprintf(out, ", roofline %.2f GF/s", roofline_gflops);
  if (total_flops > 0) std::fprintf(out, ", %.3g GFLOP total", static_cast<double>(total_flops) / 1e9);
  std::fprintf(out, " --\n");
  std::fprintf(out,
               "overlap: device busy %.4f s (occupancy %.1f%%), host wait %.4f s, "
               "overlapped %.4f s (%.1f%% of device busy)\n",
               device_busy_s, 100.0 * stream_occupancy, host_wait_s, overlapped_s,
               100.0 * overlap_fraction);
  if (per_device_by_ordinal.size() > 1) {
    std::fprintf(out, "per-device occupancy:");
    for (const auto& [o, occ] : per_device_by_ordinal)
      std::fprintf(out, " dev%d %.1f%%", o, 100.0 * occ);
    std::fprintf(out, "\n");
  }
  if (iterations > 0) {
    std::fprintf(out,
                 "iterations: %llu, avg panel %.3f ms, avg update %.3f ms, "
                 "critical path avg %.3f ms / max %.3f ms\n",
                 static_cast<unsigned long long>(iterations), 1e3 * iter_avg_panel_s,
                 1e3 * iter_avg_update_s, 1e3 * iter_avg_s, 1e3 * iter_max_s);
  }
  std::vector<const ProfilePhase*> by_self;
  by_self.reserve(phases.size());
  for (const ProfilePhase& p : phases) by_self.push_back(&p);
  std::sort(by_self.begin(), by_self.end(), [](const ProfilePhase* a, const ProfilePhase* b) {
    return a->self_s > b->self_s;
  });
  std::fprintf(out, "%-7s %-9s %-18s %8s %11s %11s %9s %7s\n", "track", "cat", "name", "calls",
               "wall (s)", "self (s)", "GF/s", "%roof");
  for (const ProfilePhase* p : by_self) {
    char roof[16] = "-";
    if (roofline_gflops > 0.0 && p->flops > 0)
      std::snprintf(roof, sizeof roof, "%.1f", 100.0 * p->roofline_frac);
    char gf[16] = "-";
    if (p->flops > 0) std::snprintf(gf, sizeof gf, "%.2f", p->gflops);
    std::fprintf(out, "%-7s %-9s %-18s %8llu %11.4f %11.4f %9s %7s\n", p->track.c_str(),
                 p->cat.c_str(), p->name.c_str(), static_cast<unsigned long long>(p->calls),
                 p->wall_s, p->self_s, gf, roof);
  }
}

}  // namespace fth::obs

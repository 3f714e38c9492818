#include "check/access.hpp"

#include "check/effects.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fth::check {

const char* to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::HostDerefDevice: return "HostDerefDevice";
    case ViolationKind::HostViewOverDevice: return "HostViewOverDevice";
    case ViolationKind::TransferRace: return "TransferRace";
    case ViolationKind::StreamNotIdle: return "StreamNotIdle";
    case ViolationKind::EffectMismatch: return "EffectMismatch";
    case ViolationKind::CrossDeviceAccess: return "CrossDeviceAccess";
  }
  return "?";
}

#if FTH_CHECK_ENABLED

namespace detail {
std::atomic<bool> g_active{false};
std::atomic<std::uint32_t> g_live_transfers{0};
std::atomic<std::uint32_t> g_device_allocs{0};
}  // namespace detail

namespace {
/// Effect-conformance mode (FTH_CHECK_EFFECTS=1 / set_effects_active).
std::atomic<bool> g_effects_active{false};
}  // namespace

namespace {

constexpr std::size_t kMaxStoredViolations = 64;

/// One registered device allocation. `epoch` is a process-wide generation
/// counter so reports can distinguish reuse of a recycled address.
struct AllocRec {
  std::size_t bytes = 0;
  const char* site = "";
  std::uint64_t epoch = 0;
  int device = -1;  ///< owning pool ordinal (-1 = untagged single-device)
};

/// A column-major byte rectangle: columns of `row_bytes` at stride
/// `col_stride` from `base`. The unit of happens-before conflict tests.
struct Rect {
  const char* base = nullptr;
  std::size_t row_bytes = 0;    ///< live bytes per column
  std::size_t col_stride = 0;   ///< bytes between column starts (>= row_bytes)
  index_t cols = 0;
};

/// An enqueued-but-not-host-ordered async transfer.
struct TransferRec {
  const void* stream = nullptr;
  std::uint64_t ticket = 0;
  bool host_is_dst = false;  ///< d2h: the transfer *writes* the host range
  const char* label = "";
  const char* dev_site = "";
  Rect host;
};

/// A pending cross-stream edge: once the host orders `waiter` past
/// `wait_ticket`, it has transitively ordered `src` up to `src_ticket`.
struct CrossEdge {
  const void* waiter = nullptr;
  std::uint64_t wait_ticket = 0;
  const void* src = nullptr;
  std::uint64_t src_ticket = 0;
};

struct State {
  std::mutex m;
  std::map<const void*, AllocRec> allocs;      // keyed by base address
  std::uint64_t next_epoch = 1;
  std::vector<TransferRec> transfers;          // live (not host-ordered)
  std::map<const void*, std::uint64_t> hb;     // stream -> host-ordered ticket
  std::vector<CrossEdge> edges;
  std::deque<std::pair<std::uint64_t, Violation>> stored;  // (seq, violation)
  std::uint64_t seq = 0;                       // violations ever recorded
  std::atomic<int> expect_depth{0};
  bool abort_on_violation = false;
};

State& st() {
  static State s;
  return s;
}

/// Env init runs once before main via a static initializer; FTH_CHECK=0/1
/// overrides the compiled-in default (on).
struct EnvInit {
  EnvInit() {
    bool on = true;
    if (const char* e = std::getenv("FTH_CHECK"); e != nullptr)
      on = !(e[0] == '0' && e[1] == '\0');
    detail::g_active.store(on, std::memory_order_relaxed);
    if (const char* a = std::getenv("FTH_CHECK_ABORT"); a != nullptr)
      st().abort_on_violation = !(a[0] == '0' && a[1] == '\0');
    if (const char* f = std::getenv("FTH_CHECK_EFFECTS"); f != nullptr)
      g_effects_active.store(!(f[0] == '0' && f[1] == '\0'),
                             std::memory_order_relaxed);
  }
};
const EnvInit env_init;

Rect make_rect(const void* p, std::size_t elem, index_t rows, index_t cols,
               index_t ld) noexcept {
  Rect r;
  if (rows <= 0 || cols <= 0) return r;  // empty base stays null
  if (ld < 0) {  // normalize a negative stride (strided vectors as 1×n rects)
    p = static_cast<const char*>(p) + static_cast<std::ptrdiff_t>(cols - 1) * ld *
                                          static_cast<std::ptrdiff_t>(elem);
    ld = -ld;
  }
  r.base = static_cast<const char*>(p);
  r.row_bytes = static_cast<std::size_t>(rows) * elem;
  r.col_stride = static_cast<std::size_t>(ld) * elem;
  r.cols = cols;
  return r;
}

std::size_t rect_extent(const Rect& r) noexcept {
  if (r.base == nullptr) return 0;
  return static_cast<std::size_t>(r.cols - 1) * r.col_stride + r.row_bytes;
}

/// Does the flat byte range [q0, q1) hit any live byte of `r`? O(1).
bool range_hits_rect(const char* q0, const char* q1, const Rect& r) noexcept {
  const char* r0 = r.base;
  const char* r1 = r.base + rect_extent(r);
  if (q0 < r0) q0 = r0;
  if (q1 > r1) q1 = r1;
  if (q0 >= q1) return false;
  const std::size_t o0 = static_cast<std::size_t>(q0 - r0);
  const std::size_t o1 = static_cast<std::size_t>(q1 - 1 - r0);
  const std::size_t c0 = o0 / r.col_stride;
  const std::size_t c1 = o1 / r.col_stride;
  // Spanning a column boundary necessarily covers row 0 of column c0+1.
  if (c0 != c1) return true;
  return o0 - c0 * r.col_stride < r.row_bytes;
}

/// Exact overlap of two column-major rectangles: walk the columns of the
/// narrower one (bounded by an O(1) flat-range disjointness bail-out).
bool rects_overlap(const Rect& a, const Rect& b) noexcept {
  if (a.base == nullptr || b.base == nullptr) return false;
  const char* a1 = a.base + rect_extent(a);
  const char* b1 = b.base + rect_extent(b);
  if (a1 <= b.base || b1 <= a.base) return false;
  const Rect& walk = a.cols <= b.cols ? a : b;
  const Rect& other = a.cols <= b.cols ? b : a;
  for (index_t j = 0; j < walk.cols; ++j) {
    const char* c0 = walk.base + static_cast<std::size_t>(j) * walk.col_stride;
    if (range_hits_rect(c0, c0 + walk.row_bytes, other)) return true;
  }
  return false;
}

/// Allocation containing [p, p+1), if any. Caller holds st().m.
const std::pair<const void* const, AllocRec>* find_alloc(const void* p) noexcept {
  auto& s = st();
  auto it = s.allocs.upper_bound(p);
  if (it == s.allocs.begin()) return nullptr;
  --it;
  const char* base = static_cast<const char*>(it->first);
  if (static_cast<const char*>(p) < base + it->second.bytes) return &*it;
  return nullptr;
}

/// Record a violation; caller holds st().m. Handles stderr, metrics,
/// flight dump, and the abort escalation.
void record_violation(Violation v) noexcept {
  auto& s = st();
  const bool expected = s.expect_depth.load(std::memory_order_relaxed) > 0;
  const bool first = s.seq == 0;
  const std::uint64_t my_seq = s.seq++;
  obs::counter_metric("check.violations").add();
  obs::journal_log(obs::JournalSeverity::Error, "check", to_string(v.kind), -1,
                   static_cast<double>(my_seq), -1, v.alloc_site);
  if (!expected) {
    std::fprintf(stderr, "[fth::check] %s: %s\n", to_string(v.kind),
                 v.message.c_str());
    if (first) obs::flight_dump("check_violation");
    if (s.abort_on_violation) {
      std::fflush(stderr);
      std::abort();
    }
  }
  if (s.stored.size() < kMaxStoredViolations)
    s.stored.emplace_back(my_seq, std::move(v));
}

}  // namespace

namespace {

/// Transfer happens-before test for a host-range touch; caller holds st().m
/// (both public entry points funnel here so neither ever re-locks the
/// non-recursive mutex — host_view_slow → host_touch_slow used to, and
/// self-deadlocked on the first host view built while device memory existed).
void host_touch_locked(const Rect& touch, const void* p, bool write) noexcept {
  auto& s = st();
  for (const auto& t : s.transfers) {
    // h2d only *reads* the host range: concurrent host reads are fine.
    if (!t.host_is_dst && !write) continue;
    if (!rects_overlap(touch, t.host)) continue;
    Violation v;
    v.kind = ViolationKind::TransferRace;
    v.alloc_site = t.dev_site;
    v.task_label = t.label;
    v.ticket = t.ticket;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "wait on an Event recorded at/after ticket %" PRIu64
                  " of stream %p (or synchronize()) before this access",
                  t.ticket, t.stream);
    v.missing_edge = buf;
    char mbuf[320];
    std::snprintf(mbuf, sizeof mbuf,
                  "host %s at %p races in-flight %s '%s' (ticket %" PRIu64
                  ", device alloc '%s'): no happens-before edge orders the "
                  "transfer first; %s",
                  write ? "write" : "read", p, t.host_is_dst ? "d2h" : "h2d",
                  t.label, t.ticket, t.dev_site, buf);
    v.message = mbuf;
    record_violation(std::move(v));
    return;  // one report per access is enough
  }
}

}  // namespace

namespace detail {

void host_view_slow(const void* p, std::size_t elem, index_t rows, index_t cols,
                    index_t ld, bool write) noexcept {
  if (in_task_context()) return;  // worker code owns device memory for the task
  auto& s = st();
  std::lock_guard lock(s.m);
  if (const auto* a = find_alloc(p)) {
    Violation v;
    v.kind = ViolationKind::HostViewOverDevice;
    v.alloc_site = a->second.site;
    v.task_label = "host";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "host-space access to device allocation '%s' (epoch %" PRIu64
                  ", %zu bytes) at %p from host context — device views must be "
                  "unwrapped inside a stream task or via hybrid::host_view",
                  a->second.site, a->second.epoch, a->second.bytes, p);
    v.message = buf;
    record_violation(std::move(v));
    return;
  }
  const Rect touch = make_rect(p, elem, rows, cols, ld);
  if (touch.base != nullptr) host_touch_locked(touch, p, write);
}

void host_touch_slow(const void* p, std::size_t elem, index_t rows, index_t cols,
                     index_t ld, bool write) noexcept {
  if (in_task_context()) return;
  const Rect touch = make_rect(p, elem, rows, cols, ld);
  if (touch.base == nullptr) return;
  auto& s = st();
  std::lock_guard lock(s.m);
  host_touch_locked(touch, p, write);
}

}  // namespace detail

void require_task_context(const void* p, std::size_t bytes, const char* what) noexcept {
  if (p == nullptr || !active()) return;
  auto& s = st();
  std::lock_guard lock(s.m);
  const auto* a = find_alloc(p);
  if (in_task_context() && a != nullptr) {
    // Cross-device isolation: each pool member is its own memory space, so
    // a task running on device X must not unwrap device Y's allocation —
    // transfers between spaces have to go through the host. Only enforced
    // when both sides carry an ordinal (untagged = legacy single-device).
    const int tdev = detail::t_ctx.device;
    if (tdev >= 0 && a->second.device >= 0 && tdev != a->second.device) {
      Violation v;
      v.kind = ViolationKind::CrossDeviceAccess;
      v.alloc_site = a->second.site;
      v.task_label = detail::t_ctx.task_label;
      v.ticket = detail::t_ctx.ticket;
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s on device-%d allocation '%s' (epoch %" PRIu64
                    ") from a task on device %d ('%s', ticket %" PRIu64
                    ") — pool members are separate memory spaces; route the "
                    "data through the host",
                    what, a->second.device, a->second.site, a->second.epoch,
                    tdev, v.task_label, v.ticket);
      v.message = buf;
      record_violation(std::move(v));
      return;
    }
    // Effect conformance (FTH_CHECK_EFFECTS=1): a task that declared
    // FTH_TASK_EFFECTS must unwrap only ranges inside its declared set.
    // Unwraps don't carry read/write intent, so containment is tested
    // against the union of declared reads and writes.
    const TaskEffects* eff = detail::t_ctx.effects;
    if (eff != nullptr && g_effects_active.load(std::memory_order_relaxed) &&
        !eff->covers(p, bytes, /*write=*/false)) {
      Violation v;
      v.kind = ViolationKind::EffectMismatch;
      v.alloc_site = a->second.site;
      v.task_label = detail::t_ctx.task_label;
      v.ticket = detail::t_ctx.ticket;
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s on device allocation '%s' (%zu bytes at %p) inside task "
                    "'%s' (ticket %" PRIu64
                    ") lies outside the task's declared FTH_READS/FTH_WRITES set "
                    "(%d range(s) declared)",
                    what, a->second.site, bytes, p, v.task_label, v.ticket,
                    eff->size());
      v.message = buf;
      record_violation(std::move(v));
    }
    return;
  }
  Violation v;
  v.kind = ViolationKind::HostDerefDevice;
  v.alloc_site = a != nullptr ? a->second.site : "<unregistered>";
  v.task_label = in_task_context() ? detail::t_ctx.task_label : "host";
  char buf[320];
  if (a == nullptr) {
    std::snprintf(buf, sizeof buf,
                  "%s on a stale/unregistered device range at %p (%zu bytes) — "
                  "the backing DeviceMatrix is gone",
                  what, p, bytes);
  } else {
    std::snprintf(buf, sizeof buf,
                  "%s on device allocation '%s' (epoch %" PRIu64
                  ") from host context — only stream tasks and transfer "
                  "routines may dereference device views",
                  what, a->second.site, a->second.epoch);
  }
  v.message = buf;
  record_violation(std::move(v));
}

void on_device_alloc(const void* p, std::size_t bytes, const char* site,
                     int device) noexcept {
  if (!active() || p == nullptr) return;
  auto& s = st();
  std::lock_guard lock(s.m);
  s.allocs[p] = AllocRec{bytes, site != nullptr ? site : "", s.next_epoch++, device};
  detail::g_device_allocs.store(static_cast<std::uint32_t>(s.allocs.size()),
                                std::memory_order_relaxed);
}

void on_device_free(const void* p) noexcept {
  if (p == nullptr) return;
  auto& s = st();
  std::lock_guard lock(s.m);
  s.allocs.erase(p);
  detail::g_device_allocs.store(static_cast<std::uint32_t>(s.allocs.size()),
                                std::memory_order_relaxed);
}

void on_transfer_enqueued(const void* stream, std::uint64_t ticket, bool host_is_dst,
                          const char* label, const void* p, std::size_t elem,
                          index_t rows, index_t cols, index_t ld,
                          const void* dev_base) noexcept {
  if (!active()) return;
  auto& s = st();
  std::lock_guard lock(s.m);
  TransferRec t;
  t.stream = stream;
  t.ticket = ticket;
  t.host_is_dst = host_is_dst;
  t.label = label != nullptr ? label : "";
  t.host = make_rect(p, elem, rows, cols, ld);
  if (const auto* a = find_alloc(dev_base)) t.dev_site = a->second.site;
  s.transfers.push_back(t);
  detail::g_live_transfers.store(static_cast<std::uint32_t>(s.transfers.size()),
                                 std::memory_order_relaxed);
}

namespace {

/// Caller holds st().m: raise hb[stream], chase cross-stream edges to a
/// fixpoint, retire every transfer the host has now ordered.
void order_locked(const void* stream, std::uint64_t ticket) noexcept {
  auto& s = st();
  auto& h = s.hb[stream];
  if (ticket > h) h = ticket;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = s.edges.begin(); it != s.edges.end();) {
      auto w = s.hb.find(it->waiter);
      if (w != s.hb.end() && w->second >= it->wait_ticket) {
        auto& src = s.hb[it->src];
        if (it->src_ticket > src) {
          src = it->src_ticket;
          changed = true;
        }
        it = s.edges.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto it = s.transfers.begin(); it != s.transfers.end();) {
    auto h2 = s.hb.find(it->stream);
    if (h2 != s.hb.end() && h2->second >= it->ticket)
      it = s.transfers.erase(it);
    else
      ++it;
  }
  detail::g_live_transfers.store(static_cast<std::uint32_t>(s.transfers.size()),
                                 std::memory_order_relaxed);
}

}  // namespace

void on_host_ordered(const void* stream, std::uint64_t ticket) noexcept {
  if (!active()) return;
  auto& s = st();
  std::lock_guard lock(s.m);
  order_locked(stream, ticket);
}

void on_cross_stream_wait(const void* waiter, std::uint64_t wait_ticket,
                          const void* src, std::uint64_t src_ticket) noexcept {
  if (!active()) return;
  auto& s = st();
  std::lock_guard lock(s.m);
  s.edges.push_back(CrossEdge{waiter, wait_ticket, src, src_ticket});
  // The edge may already be satisfied (host ordered the waiter earlier).
  order_locked(waiter, s.hb.count(waiter) != 0 ? s.hb[waiter] : 0);
}

void on_stream_destroyed(const void* stream, std::uint64_t tail_ticket) noexcept {
  auto& s = st();
  std::lock_guard lock(s.m);
  order_locked(stream, tail_ticket);
  s.hb.erase(stream);
}

void require_stream_idle(bool idle, const void* p, const char* what,
                         int device) noexcept {
  if (!active()) return;
  auto& s = st();
  std::lock_guard lock(s.m);
  const auto* a = find_alloc(p);
  // An idle stream only grants a host-exclusive window over its own
  // device's memory: gating device-1 data on device-0's stream is a
  // cross-device confusion even when that stream is idle.
  if (device >= 0 && a != nullptr && a->second.device >= 0 &&
      a->second.device != device) {
    Violation v;
    v.kind = ViolationKind::CrossDeviceAccess;
    v.alloc_site = a->second.site;
    v.task_label = "host";
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s gated on a device-%d stream, but the allocation '%s' "
                  "belongs to device %d — pass the owning device's stream",
                  what, device, a->second.site, a->second.device);
    v.message = buf;
    record_violation(std::move(v));
    return;
  }
  if (idle) return;
  Violation v;
  v.kind = ViolationKind::StreamNotIdle;
  v.alloc_site = a != nullptr ? a->second.site : "";
  v.task_label = "host";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s taken on device allocation '%s' while the stream still has "
                "queued work — synchronize() first (the host-exclusive window "
                "requires an idle stream)",
                what, v.alloc_site);
  v.message = buf;
  record_violation(std::move(v));
}

void set_active(bool on) noexcept {
  detail::g_active.store(on, std::memory_order_relaxed);
}

void set_effects_active(bool on) noexcept {
  g_effects_active.store(on, std::memory_order_relaxed);
}

bool effects_active() noexcept {
  return g_effects_active.load(std::memory_order_relaxed);
}

std::uint64_t violation_count() noexcept {
  auto& s = st();
  std::lock_guard lock(s.m);
  return s.seq;
}

std::vector<Violation> take_violations() {
  auto& s = st();
  std::lock_guard lock(s.m);
  std::vector<Violation> out;
  out.reserve(s.stored.size());
  for (auto& [seq, v] : s.stored) out.push_back(std::move(v));
  s.stored.clear();
  return out;
}

ExpectViolations::ExpectViolations() {
  auto& s = st();
  std::lock_guard lock(s.m);
  start_count_ = s.seq;
  s.expect_depth.fetch_add(1, std::memory_order_relaxed);
}

ExpectViolations::~ExpectViolations() {
  st().expect_depth.fetch_sub(1, std::memory_order_relaxed);
}

std::vector<Violation> ExpectViolations::taken() {
  auto& s = st();
  std::lock_guard lock(s.m);
  // Entries carry their recording sequence number, so draining "everything
  // since this scope opened" is exact even after earlier scopes drained
  // their own tails (erasing by index here used to go stale the moment a
  // second scope ran in the same process).
  auto first = s.stored.begin();
  while (first != s.stored.end() && first->first < start_count_) ++first;
  std::vector<Violation> out;
  for (auto it = first; it != s.stored.end(); ++it)
    out.push_back(std::move(it->second));
  s.stored.erase(first, s.stored.end());
  return out;
}

#else  // !FTH_CHECK_ENABLED — minimal stubs so callers link in any build.

void set_active(bool) noexcept {}
void set_effects_active(bool) noexcept {}
bool effects_active() noexcept { return false; }
std::uint64_t violation_count() noexcept { return 0; }
std::vector<Violation> take_violations() { return {}; }
ExpectViolations::ExpectViolations() = default;
ExpectViolations::~ExpectViolations() = default;
std::vector<Violation> ExpectViolations::taken() { return {}; }

#endif  // FTH_CHECK_ENABLED

}  // namespace fth::check

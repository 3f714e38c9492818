#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "obs/dag.hpp"
#include "obs/log.hpp"

namespace fth::obs {

namespace detail {
std::atomic<unsigned> g_sinks{0};
}  // namespace detail

namespace {

using log::Kind;
using log::Record;

/// The sinks that read each record kind; a record is logged for these only.
[[nodiscard]] unsigned readers(Kind k) noexcept {
  switch (k) {
    case Kind::Event: return detail::kEventReaders;
    case Kind::Counter: return log::kTraceFile | log::kFlight;
    case Kind::Enqueue: return log::kTraceFile | log::kFlight | log::kDag;
    case Kind::Transfer:
    case Kind::Discard: return log::kDag;
    case Kind::FlowBegin:
    case Kind::FlowEnd: return log::kTraceFile;
    default: return log::kTraceFile | log::kFlight | log::kProfile | log::kDag;
  }
}

/// A bounded ring of the newest records.
struct Ring {
  std::vector<Record> slots;
  std::size_t next = 0;
  bool wrapped = false;

  /// Empty the ring and give it `capacity` slots (0 releases them).
  void reset(std::size_t capacity) {
    slots = std::vector<Record>(capacity);
    next = 0;
    wrapped = false;
  }
  void push(const Record& r) {
    slots[next] = r;
    if (++next == slots.size()) {
      next = 0;
      wrapped = true;
    }
  }
  /// Contents, oldest first: [next, end) then [0, next) once wrapped.
  void copy(std::vector<Record>& out) const {
    if (wrapped)
      out.insert(out.end(), slots.begin() + static_cast<std::ptrdiff_t>(next), slots.end());
    out.insert(out.end(), slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(next));
  }
};

/// How the trace views (file, flight dump, capsule tail) show a record:
/// a trace_event phase, category and name; ph '\0' for the DAG-only kinds.
struct Shown {
  char ph;
  const char* cat;
  const char* name;
};

[[nodiscard]] Shown shown(const Record& r) noexcept {
  switch (r.kind) {
    case Kind::SpanBegin: return {'B', r.cat, r.name};
    case Kind::TaskBegin:
    case Kind::WaitBegin: return {'B', "stream", r.name};
    case Kind::SpanEnd:
    case Kind::TaskEnd:
    case Kind::WaitEnd: return {'E', "", ""};
    case Kind::Event: return {'i', r.cat, r.name};
    case Kind::Counter: return {'C', "counter", r.name};
    case Kind::Enqueue: return {'C', "counter", "stream.queue_depth"};
    case Kind::FlowBegin: return {'s', "dag", "dep"};
    case Kind::FlowEnd: return {'f', "dag", "dep"};
    default: return {'\0', "", ""};
  }
}

/// The argument name a shown event carries `value` under ("" for none).
[[nodiscard]] const char* value_key(const Record& r) noexcept {
  switch (r.kind) {
    case Kind::Counter:
    case Kind::Enqueue: return "value";
    case Kind::SpanBegin: return r.arg_key;
    default: return "";
  }
}

[[nodiscard]] bool is_flow(const Record& r) noexcept {
  return r.kind == Kind::FlowBegin || r.kind == Kind::FlowEnd;
}

/// Time order across threads. A flow shares its timestamp with the task end
/// or wait end it hangs off, and sorts after it.
void sort_by_time(std::vector<Record>& v) {
  std::stable_sort(v.begin(), v.end(), [](const Record& a, const Record& b) {
    return a.ts_us < b.ts_us || (a.ts_us == b.ts_us && !is_flow(a) && is_flow(b));
  });
}

/// One thread's log. The owning thread locks its (uncontended) mutex on
/// every record; readers lock it to copy or drain. The unbounded `log`
/// holds the trace file's and the DAG's windows, each from its own cursor;
/// `ring` is the flight recorder's; `profile` the live profile aggregate.
struct ThreadBuffer {
  std::mutex m;
  std::vector<Record> log;
  std::size_t trace_from = 0;
  std::size_t dag_from = 0;
  Ring ring;
  log::ProfileSlot profile;
  std::string thread_name;
  std::uint32_t tid = 0;

  std::size_t& cursor(unsigned sink) { return sink == log::kDag ? dag_from : trace_from; }
};

using ThreadNames = std::vector<std::pair<std::uint32_t, std::string>>;

class Recorder {
 public:
  static Recorder& instance() {
    static Recorder r;
    return r;
  }

  /// `stamped`: r.ts_us already holds the caller's now_us() reading.
  void append(Record r, bool stamped = false) noexcept {
    const unsigned to = log_sinks() & readers(r.kind);
    if (to == 0) return;
    ThreadBuffer& b = local_buffer();
    if (!stamped) r.ts_us = now_us();
    r.tid = b.tid;
    if ((to & log::kJournal) != 0) {
      std::lock_guard lock(journal_m_);
      if (!journal_.slots.empty()) journal_.push(r);  // else raced journal_close(); drop
    }
    if ((to & ~log::kJournal) == 0) return;
    std::lock_guard lock(b.m);
    if ((to & log::kProfile) != 0) log::profile_feed(b.profile, r);
    if ((to & (log::kTraceFile | log::kDag)) != 0) b.log.push_back(r);
    if ((to & log::kFlight) != 0) {
      const std::size_t cap = flight_capacity_.load(std::memory_order_relaxed);
      if (b.ring.slots.size() != cap) b.ring.reset(cap);  // registered before flight_start
      b.ring.push(r);
    }
  }

  /// Pre-stamped append to the trace file's window of the calling thread —
  /// the DAG recorder injects its cause arrows this way at assembly time,
  /// on the tracks the arrows refer to.
  void append_flow(const Record& r) noexcept {
    if ((log_sinks() & log::kTraceFile) == 0) return;
    ThreadBuffer& b = local_buffer();
    std::lock_guard lock(b.m);
    b.log.push_back(r);
  }

  void start(const std::string& path) {
    {
      std::lock_guard lock(registry_m_);
      path_ = path;
      register_atexit();
    }
    open_window(log::kTraceFile);
  }

  std::size_t stop() {
    if ((detail::g_sinks.fetch_and(~log::kTraceFile) & log::kTraceFile) == 0) return 0;
    std::vector<Record> all;
    for (const log::Track& t : window(log::kTraceFile, /*close=*/true))
      for (const Record& r : t.records)
        if (shown(r).ph != '\0') all.push_back(r);
    sort_by_time(all);
    std::string path;
    ThreadNames names;
    {
      std::lock_guard lock(registry_m_);
      path = path_;
      for (auto& b : buffers_) {
        std::lock_guard bl(b->m);
        names.emplace_back(b->tid, b->thread_name);
      }
    }
    write_file(path, all, names);
    return all.size();
  }

  /// Open `sink`'s window (kTraceFile or kDag) at the end of every thread's
  /// log. With no other window open the log restarts empty.
  void open_window(unsigned sink) {
    std::lock_guard lock(registry_m_);
    const bool shared = (log_sinks() & other_window(sink)) != 0;
    for (auto& b : buffers_) {
      std::lock_guard bl(b->m);
      if (!shared) {
        b->log.clear();
        b->trace_from = b->dag_from = 0;
      }
      b->cursor(sink) = b->log.size();
    }
    detail::g_sinks.fetch_or(sink, std::memory_order_relaxed);
  }

  /// `sink`'s window, one Track per thread that logged any. `close`
  /// disarms `sink` and drops what the other window does not still hold.
  std::vector<log::Track> window(unsigned sink, bool close) {
    std::lock_guard lock(registry_m_);
    if (close) detail::g_sinks.fetch_and(~sink, std::memory_order_relaxed);
    const unsigned other = other_window(sink);
    const bool shared = (log_sinks() & other) != 0;
    std::vector<log::Track> out;
    for (auto& b : buffers_) {
      std::lock_guard bl(b->m);
      const auto from = static_cast<std::ptrdiff_t>(std::min(b->cursor(sink), b->log.size()));
      if (b->log.begin() + from != b->log.end())
        out.push_back({b->tid, std::vector<Record>(b->log.begin() + from, b->log.end())});
      if (!close) continue;
      const std::size_t n = shared ? std::min(b->cursor(other), b->log.size()) : b->log.size();
      b->log.erase(b->log.begin(), b->log.begin() + static_cast<std::ptrdiff_t>(n));
      b->trace_from = b->dag_from = 0;
    }
    return out;
  }

  std::vector<log::ProfileSlot> take_profiles() {
    std::lock_guard lock(registry_m_);
    std::vector<log::ProfileSlot> out;
    for (auto& b : buffers_) {
      std::lock_guard bl(b->m);
      if (b->profile) out.push_back(std::move(b->profile));
    }
    return out;
  }

  void flight_start(std::size_t capacity) {
    capacity = std::max<std::size_t>(capacity, 16);
    std::lock_guard lock(registry_m_);
    flight_capacity_.store(capacity, std::memory_order_relaxed);
    for (auto& b : buffers_) {
      std::lock_guard bl(b->m);
      b->ring.reset(capacity);
    }
    install_signal_handlers();
    detail::g_sinks.fetch_or(log::kFlight, std::memory_order_relaxed);
  }

  void flight_stop() {
    detail::g_sinks.fetch_and(~log::kFlight, std::memory_order_relaxed);
    std::lock_guard lock(registry_m_);
    for (auto& b : buffers_) {
      std::lock_guard bl(b->m);
      b->ring.reset(0);
    }
  }

  void journal_open(std::size_t capacity) {
    {
      std::lock_guard lock(journal_m_);
      journal_.reset(capacity);
    }
    detail::g_sinks.fetch_or(log::kJournal, std::memory_order_relaxed);
  }

  void journal_close() {
    detail::g_sinks.fetch_and(~log::kJournal, std::memory_order_relaxed);
    std::lock_guard lock(journal_m_);
    journal_.reset(0);
  }

  [[nodiscard]] std::vector<Record> journal_window() {
    std::vector<Record> out;
    std::lock_guard lock(journal_m_);
    journal_.copy(out);
    return out;
  }

  /// Best-effort when called from a signal handler: try-lock everything and
  /// skip what cannot be acquired rather than deadlock on a lock the
  /// interrupted thread holds.
  std::string flight_dump(const char* reason, bool best_effort) noexcept {
    if (!flight_active()) return "";
    std::unique_lock<std::mutex> lock(registry_m_, std::defer_lock);
    if (best_effort) {
      if (!lock.try_lock()) return "";
    } else {
      lock.lock();
    }
    std::vector<Record> all;
    ThreadNames names;
    for (auto& b : buffers_) {
      std::unique_lock<std::mutex> bl(b->m, std::defer_lock);
      if (best_effort) {
        if (!bl.try_lock()) continue;
      } else {
        bl.lock();
      }
      b->ring.copy(all);
      names.emplace_back(b->tid, b->thread_name);
    }
    sort_by_time(all);
    // Stamp why the dump happened as a final instant on the dumping track.
    all.push_back(Record{.ts_us = now_us(), .cat = "flight", .name = reason});
    std::string path;
    if (const char* env = std::getenv("FTH_FLIGHT_PATH"); env != nullptr && env[0] != '\0') {
      path = env;
    } else {
      path = "fth_flight_" + std::to_string(static_cast<long>(::getpid())) + ".json";
    }
    if (!write_file(path, all, names)) return "";
    return path;
  }

  /// Ring contents as an embeddable JSON array (capsule form). Unlike
  /// flight_dump() this never touches the filesystem and keeps only the
  /// newest `max_events` after the cross-thread merge.
  [[nodiscard]] std::string flight_tail_json(std::size_t max_events) {
    if (!flight_active()) return "[]";
    std::vector<Record> all;
    {
      std::lock_guard lock(registry_m_);
      for (auto& b : buffers_) {
        std::lock_guard bl(b->m);
        b->ring.copy(all);
      }
    }
    sort_by_time(all);
    if (all.size() > max_events)
      all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(max_events));
    std::string out = "[";
    char num[64];
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Record& r = all[i];
      const Shown s = shown(r);
      if (i > 0) out += ',';
      std::snprintf(num, sizeof num, "%.3f", r.ts_us);
      out += "{\"ts_us\":";
      out += num;
      out += ",\"ph\":\"";
      out.push_back(s.ph);
      out += "\",\"tid\":" + std::to_string(r.tid);
      if (s.ph != 'E') {
        out += ",\"cat\":\"";
        json::append_escaped(out, s.cat);
        out += "\",\"name\":\"";
        json::append_escaped(out, s.name);
        out += "\"";
      }
      if (value_key(r)[0] != '\0') {
        out += ",\"value\":";
        json::append_number(out, r.value);
      }
      out += "}";
    }
    out += "]";
    return out;
  }

  void name_thread(const char* name) {
    ThreadBuffer& b = local_buffer();
    std::lock_guard lock(b.m);
    b.thread_name = name;
  }

  [[nodiscard]] double now_us() const noexcept {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  Recorder() : t0_(std::chrono::steady_clock::now()) {}

  /// The trace file and the DAG share the unbounded log.
  static unsigned other_window(unsigned sink) noexcept {
    return sink == log::kDag ? log::kTraceFile : log::kDag;
  }

  void register_atexit() {
    if (atexit_registered_) return;
    atexit_registered_ = true;
    std::atexit([] { trace_stop(); });
  }

  void install_signal_handlers() {
    if (signals_installed_) return;
    signals_installed_ = true;
    for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
      std::signal(sig, [](int s) {
        // One dump attempt, then the default disposition so the crash is
        // still a crash (core dump, non-zero exit). Not strictly
        // async-signal-safe — a post-mortem best effort, nothing more.
        static std::atomic<bool> dumping{false};
        if (!dumping.exchange(true))
          Recorder::instance().flight_dump("fatal-signal", /*best_effort=*/true);
        std::signal(s, SIG_DFL);
        std::raise(s);
      });
    }
  }

  ThreadBuffer& local_buffer() {
    thread_local std::shared_ptr<ThreadBuffer> buf = [this] {
      auto b = std::make_shared<ThreadBuffer>();
      std::lock_guard lock(registry_m_);
      b->tid = next_tid_++;
      buffers_.push_back(b);
      return b;
    }();
    return *buf;
  }

  static bool write_file(const std::string& path, const std::vector<Record>& events,
                         const ThreadNames& names) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fth::obs: cannot open trace output '%s'\n", path.c_str());
      return false;
    }
    // pid: single-process library; a stable dummy keeps tools happy.
    std::string line;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    auto emit = [&](const std::string& s) {
      std::fprintf(f, "%s%s", first ? "" : ",\n", s.c_str());
      first = false;
    };
    // Track-name metadata first (tools accept it anywhere; first is tidy).
    for (const auto& [tid, name] : names) {
      if (name.empty()) continue;
      line = "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" + std::to_string(tid) +
             ",\"args\":{\"name\":\"";
      json::append_escaped(line, name);
      line += "\"}}";
      emit(line);
    }
    char num[64];
    for (const Record& r : events) {
      const Shown s = shown(r);
      line = "{\"ph\":\"";
      line.push_back(s.ph);
      line += "\",\"pid\":1,\"tid\":" + std::to_string(r.tid);
      std::snprintf(num, sizeof num, "%.3f", r.ts_us);
      line += ",\"ts\":";
      line += num;
      if (s.ph != 'E') {
        line += ",\"cat\":\"";
        json::append_escaped(line, s.cat);
        line += "\",\"name\":\"";
        json::append_escaped(line, s.name);
        line += "\"";
      }
      if (s.ph == 'i') line += ",\"s\":\"t\"";
      if (is_flow(r)) {
        // Flow events (the DAG's cause edges): shared "id" binds the pair;
        // "bp":"e" makes the arrow terminate at the enclosing slice's end,
        // which is where the wait actually released.
        line += ",\"id\":" + std::to_string(static_cast<long long>(r.value));
        if (s.ph == 'f') line += ",\"bp\":\"e\"";
      }
      if (const char* key = value_key(r); key[0] != '\0') {
        line += ",\"args\":{\"";
        json::append_escaped(line, key);
        line += "\":";
        json::append_number(line, r.value);
        line += "}";
      }
      line += "}";
      emit(line);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
  }

  std::atomic<std::size_t> flight_capacity_{0};
  // The journal: the newest events of every thread in one ring, in log
  // order. Events are rare (detections, losses, state changes), so one
  // short critical section keeps its order and capacity process-wide.
  std::mutex journal_m_;
  Ring journal_;
  std::mutex registry_m_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::string path_;
  std::uint32_t next_tid_ = 0;
  bool atexit_registered_ = false;
  bool signals_installed_ = false;
  std::chrono::steady_clock::time_point t0_;
};

// Honour FTH_TRACE / FTH_FLIGHT for any binary linking the library,
// independent of which entry point it uses. Idempotent; benches call
// trace_init_from_env() again.
[[maybe_unused]] const bool g_env_init = [] {
  trace_init_from_env();
  return true;
}();

}  // namespace

void trace_start(const std::string& path) { Recorder::instance().start(path); }

std::size_t trace_stop() { return Recorder::instance().stop(); }

void trace_init_from_env() {
  const char* path = std::getenv("FTH_TRACE");
  if (path != nullptr && path[0] != '\0' && (log_sinks() & detail::kTraceFile) == 0)
    trace_start(path);
  const char* flight = std::getenv("FTH_FLIGHT");
  if (flight != nullptr && flight[0] != '\0' && !flight_active()) {
    const long n = std::strtol(flight, nullptr, 10);
    if (n > 0) flight_start(static_cast<std::size_t>(n));
  }
  dag::init_from_env();  // FTH_DAG rides the same env hook
}

void set_thread_name(const char* name) { Recorder::instance().name_thread(name); }

const char* intern_name(std::string_view name) {
  static std::mutex m;
  // Leaked on purpose: interned names must outlive every static destructor
  // and atexit flush that might still reference them.
  static auto* storage = new std::deque<std::string>();
  static auto* index = new std::unordered_map<std::string_view, const char*>();
  std::lock_guard lock(m);
  if (const auto it = index->find(name); it != index->end()) return it->second;
  storage->emplace_back(name);
  const std::string& stored = storage->back();
  index->emplace(std::string_view(stored), stored.c_str());
  return stored.c_str();
}

const char* site_label(const char* kind, const char* file, unsigned line) {
  struct SiteKey {
    const char* kind;
    const char* file;
    unsigned line;
    bool operator==(const SiteKey&) const = default;
  };
  struct SiteHash {
    std::size_t operator()(const SiteKey& s) const noexcept {
      std::size_t h = std::hash<const void*>()(s.kind);
      h = h * 31 + std::hash<const void*>()(s.file);
      return h * 31 + s.line;
    }
  };
  static std::mutex m;
  // Leaked like intern_name's tables, and for the same reason: sites are
  // referenced from buffered events until the atexit flush.
  static auto* cache = new std::unordered_map<SiteKey, const char*, SiteHash>();
  std::lock_guard lock(m);
  const SiteKey key{kind, file, line};
  if (const auto it = cache->find(key); it != cache->end()) return it->second;
  std::string_view base(file);
  if (const auto slash = base.rfind('/'); slash != std::string_view::npos)
    base.remove_prefix(slash + 1);
  std::string label(kind);
  label += '@';
  label += base;
  label += ':';
  label += std::to_string(line);
  const char* interned = intern_name(label);
  cache->emplace(key, interned);
  return interned;
}

void flight_start(std::size_t capacity) { Recorder::instance().flight_start(capacity); }

std::string flight_dump(const char* reason) noexcept {
  return Recorder::instance().flight_dump(reason, /*best_effort=*/false);
}

void flight_stop() { Recorder::instance().flight_stop(); }

std::string flight_tail_json(std::size_t max_events) {
  return Recorder::instance().flight_tail_json(max_events);
}

namespace detail {

namespace {
void stream_record(Kind kind, std::uint64_t stream, std::uint64_t ticket, const char* label,
                   double value = 0.0) noexcept {
  log::append(Record{
      .value = value, .stream = stream, .ticket = ticket, .name = label, .kind = kind});
}
}  // namespace

double now_us() noexcept { return Recorder::instance().now_us(); }

void begin_span(const char* cat, const char* name) noexcept {
  log::append(Record{.cat = cat, .name = name, .kind = Kind::SpanBegin});
}

void begin_span(const char* cat, const char* name, const char* arg_key,
                double arg_value) noexcept {
  log::append(Record{.value = arg_value,
                     .cat = cat,
                     .name = name,
                     .arg_key = arg_key,
                     .kind = Kind::SpanBegin});
}

void end_span() noexcept { log::append(Record{.kind = Kind::SpanEnd}); }

void begin_span_at(double ts_us, const char* cat, const char* name, const char* arg_key,
                   double arg_value) noexcept {
  Recorder::instance().append(Record{.ts_us = ts_us,
                                     .value = arg_value,
                                     .cat = cat,
                                     .name = name,
                                     .arg_key = arg_key,
                                     .kind = Kind::SpanBegin},
                              /*stamped=*/true);
}

void end_span_at(double ts_us) noexcept {
  Recorder::instance().append(Record{.ts_us = ts_us, .kind = Kind::SpanEnd}, /*stamped=*/true);
}

void record_counter(const char* name, double value) noexcept {
  log::append(Record{.value = value, .name = name, .kind = Kind::Counter});
}

void log_enqueue(std::uint64_t stream, std::uint64_t ticket, const char* label,
                 double depth) noexcept {
  stream_record(Kind::Enqueue, stream, ticket, label, depth);
}

void log_transfer(std::uint64_t stream, std::uint64_t ticket, double bytes) noexcept {
  stream_record(Kind::Transfer, stream, ticket, "", bytes);
}

void log_discard(std::uint64_t stream, std::uint64_t ticket, const char* label) noexcept {
  stream_record(Kind::Discard, stream, ticket, label);
}

void task_begin(std::uint64_t stream, std::uint64_t ticket, const char* label) noexcept {
  stream_record(Kind::TaskBegin, stream, ticket, label);
}

void task_end() noexcept { log::append(Record{.kind = Kind::TaskEnd}); }

void wait_begin(const char* kind, const std::source_location& loc, std::uint64_t stream,
                std::uint64_t cause) noexcept {
  if (!trace_enabled()) return;  // site_label allocates
  const char* site = site_label(kind, loc.file_name(), static_cast<unsigned>(loc.line()));
  log::append(Record{
      .stream = stream, .ticket = cause, .cat = kind, .name = site, .kind = Kind::WaitBegin});
}

void wait_end() noexcept { log::append(Record{.kind = Kind::WaitEnd}); }

}  // namespace detail

namespace log {

void append(Record r) noexcept { Recorder::instance().append(r); }

void append_flow(const Record& r) noexcept { Recorder::instance().append_flow(r); }

void arm(unsigned sink) {
  if (sink == kDag) Recorder::instance().open_window(kDag);
  else detail::g_sinks.fetch_or(sink, std::memory_order_relaxed);
}

void disarm(unsigned sink) { detail::g_sinks.fetch_and(~sink, std::memory_order_relaxed); }

std::vector<Track> dag_window(bool close) { return Recorder::instance().window(kDag, close); }

void journal_open(std::size_t capacity) { Recorder::instance().journal_open(capacity); }

void journal_close() { Recorder::instance().journal_close(); }

std::vector<Record> journal_window() { return Recorder::instance().journal_window(); }

std::vector<ProfileSlot> take_profiles() { return Recorder::instance().take_profiles(); }

}  // namespace log

}  // namespace fth::obs

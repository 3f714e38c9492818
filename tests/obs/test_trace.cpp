// fth::obs tracing: the Chrome/Perfetto trace_event JSON recorder.
//
// Parses the emitted file with a minimal JSON reader (no third-party
// dependency) and validates event structure (ph/ts/pid/tid), begin/end
// nesting per thread track, thread_name metadata, and that one traced FT
// run produces spans from all three layers (ft / hybrid / stream+device).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "ft/ft_gehrd.hpp"
#include "la/generate.hpp"
#include "obs/dag.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace fth {
namespace {

// ---- minimal JSON reader -----------------------------------------------------

struct Json {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  [[nodiscard]] bool has(const std::string& key) const {
    return type == Type::Object && obj.count(key) > 0;
  }
  [[nodiscard]] const Json& at(const std::string& key) const {
    if (!has(key)) throw std::runtime_error("missing key: " + key);
    return obj.at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : s_(std::move(text)) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(i_) + ": " + msg);
  }

  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  char peek() {
    skip_ws();
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" + s_[i_] + "'");
    ++i_;
  }

  void literal(const char* word) {
    for (; *word != '\0'; ++word) {
      if (i_ >= s_.size() || s_[i_] != *word) fail("bad literal");
      ++i_;
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') break;
      if (c == '\\') {
        if (i_ >= s_.size()) fail("dangling escape");
        const char e = s_[i_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u':
            if (i_ + 4 > s_.size()) fail("short \\u escape");
            i_ += 4;  // the recorder only emits \u00XX control escapes
            out.push_back('?');
            break;
          default: fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Json j;
        j.type = Json::Type::String;
        j.str = string_body();
        return j;
      }
      case 't': {
        literal("true");
        Json j;
        j.type = Json::Type::Bool;
        j.boolean = true;
        return j;
      }
      case 'f': {
        literal("false");
        Json j;
        j.type = Json::Type::Bool;
        return j;
      }
      case 'n': {
        literal("null");
        return {};
      }
      default: return number_value();
    }
  }

  Json number_value() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 || s_[i_] == '-' ||
            s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
    }
    if (i_ == start) fail("expected a value");
    Json j;
    j.type = Json::Type::Number;
    j.number = std::strtod(s_.substr(start, i_ - start).c_str(), nullptr);
    return j;
  }

  Json array() {
    expect('[');
    Json j;
    j.type = Json::Type::Array;
    if (peek() == ']') {
      ++i_;
      return j;
    }
    while (true) {
      j.arr.push_back(value());
      const char c = peek();
      ++i_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return j;
  }

  Json object() {
    expect('{');
    Json j;
    j.type = Json::Type::Object;
    if (peek() == '}') {
      ++i_;
      return j;
    }
    while (true) {
      std::string key = string_body();
      expect(':');
      j.obj.emplace(std::move(key), value());
      const char c = peek();
      ++i_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return j;
  }

  std::string s_;
  std::size_t i_ = 0;
};

Json parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return JsonParser(ss.str()).parse();
}

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

// ---- format validation -------------------------------------------------------

struct TraceSummary {
  std::set<std::string> cats;
  std::set<std::string> names;
  std::set<std::string> thread_names;
  std::set<double> tids;
  std::size_t events = 0;  // non-metadata events
};

/// Walks the trace, asserting the per-event invariants the trace_event
/// format requires (and this recorder promises): ph/pid/tid everywhere,
/// ts on every non-metadata event and globally sorted, instants
/// thread-scoped, counters valued, and B/E strictly nested per tid.
void validate_trace(const Json& root, TraceSummary& out) {
  ASSERT_EQ(root.type, Json::Type::Object);
  ASSERT_TRUE(root.has("displayTimeUnit"));
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  ASSERT_TRUE(root.has("traceEvents"));
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::Array);

  std::map<double, int> depth;  // tid -> open span count
  double last_ts = -1.0;
  for (const Json& ev : events.arr) {
    ASSERT_EQ(ev.type, Json::Type::Object);
    ASSERT_TRUE(ev.has("ph"));
    const std::string& ph = ev.at("ph").str;
    ASSERT_EQ(ph.size(), 1u);
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "i" || ph == "C" || ph == "M")
        << "unknown phase " << ph;
    ASSERT_TRUE(ev.has("pid"));
    EXPECT_EQ(ev.at("pid").number, 1.0);
    ASSERT_TRUE(ev.has("tid"));
    const double tid = ev.at("tid").number;
    out.tids.insert(tid);

    if (ph == "M") {
      EXPECT_EQ(ev.at("name").str, "thread_name");
      out.thread_names.insert(ev.at("args").at("name").str);
      continue;
    }
    ++out.events;
    ASSERT_TRUE(ev.has("ts")) << "event without timestamp";
    const double ts = ev.at("ts").number;
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(ts, last_ts) << "trace not sorted by ts";
    last_ts = ts;

    if (ph == "E") {
      ASSERT_GT(depth[tid], 0) << "span end without begin on tid " << tid;
      --depth[tid];
      continue;
    }
    ASSERT_TRUE(ev.has("cat"));
    ASSERT_TRUE(ev.has("name"));
    EXPECT_FALSE(ev.at("name").str.empty());
    out.cats.insert(ev.at("cat").str);
    out.names.insert(ev.at("name").str);
    if (ph == "B") ++depth[tid];
    if (ph == "i") {
      EXPECT_EQ(ev.at("s").str, "t");
    }
    if (ph == "C") {
      EXPECT_EQ(ev.at("cat").str, "counter");
      EXPECT_EQ(ev.at("args").at("value").type, Json::Type::Number);
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
}

// ---- tests -------------------------------------------------------------------

TEST(Trace, DisabledPathIsInert) {
  if (std::getenv("FTH_TRACE") != nullptr) {
    GTEST_SKIP() << "FTH_TRACE set: process-wide tracing active";
  }
  // CI arms the flight recorder for the whole suite (FTH_FLIGHT); pause it
  // so this test sees every sink disarmed.
  const bool flight = obs::flight_active();
  obs::flight_stop();
  EXPECT_FALSE(obs::trace_enabled());
  EXPECT_EQ(obs::log_sinks(), 0u);
  // All recording entry points must be no-ops when disabled.
  {
    obs::TraceSpan span("test", "noop");
    obs::journal_log(obs::JournalSeverity::Info, "test", "noop");
    obs::counter("test.noop", 1.0);
  }
  EXPECT_EQ(obs::trace_stop(), 0u);
  if (flight) obs::trace_init_from_env();  // re-arms FTH_FLIGHT
}

TEST(Trace, EventFormatAndNesting) {
  const std::string path = temp_path("fth_trace_format.json");
  obs::trace_start(path);
  obs::set_thread_name("gtest-main");
  {
    obs::TraceSpan outer("test", "outer", "n", 42.0);
    {
      obs::TraceSpan inner("test", "inner");
    }
    obs::journal_log(obs::JournalSeverity::Info, "test", "ping");
    obs::counter("test.queue", 3.0);
  }
  std::thread worker([] {
    obs::set_thread_name("gtest-worker");
    obs::TraceSpan span("test", "job");
  });
  worker.join();
  // 2 nested spans (4 events) + instant + counter + the worker span (2).
  EXPECT_EQ(obs::trace_stop(), 8u);

  TraceSummary sum;
  Json root;
  ASSERT_NO_THROW(root = parse_file(path));
  validate_trace(root, sum);
  EXPECT_EQ(sum.events, 8u);
  EXPECT_EQ(sum.cats, (std::set<std::string>{"test", "counter"}));
  EXPECT_TRUE(sum.names.count("outer") == 1 && sum.names.count("inner") == 1);
  EXPECT_TRUE(sum.names.count("ping") == 1 && sum.names.count("test.queue") == 1);
  EXPECT_TRUE(sum.thread_names.count("gtest-main") == 1);
  EXPECT_TRUE(sum.thread_names.count("gtest-worker") == 1);
  EXPECT_GE(sum.tids.size(), 2u) << "worker events must land on their own track";

  // The span argument survives the round trip.
  bool saw_arg = false;
  for (const Json& ev : root.at("traceEvents").arr) {
    if (ev.has("ph") && ev.at("ph").str == "B" && ev.at("name").str == "outer") {
      EXPECT_EQ(ev.at("args").at("n").number, 42.0);
      saw_arg = true;
    }
  }
  EXPECT_TRUE(saw_arg);
}

TEST(Trace, FileAndDagWindowsShareOneLog) {
  // The trace file and the DAG read windows of one per-thread log, each
  // from its own start, so arming or closing one mid-way must neither drop
  // nor duplicate what the other sees. DAG-only records (transfer
  // payloads) never reach the trace file.
  const std::string path = temp_path("fth_trace_windows.json");
  obs::dag::start();
  { obs::TraceSpan span("test", "dag-only"); }
  obs::trace_start(path);
  {
    obs::TraceSpan span("test", "both");
    obs::detail::log_enqueue(1, 1, "h2d", 0.0);
    obs::detail::log_transfer(1, 1, 4096.0);
  }
  const obs::dag::Graph g = obs::dag::stop();
  { obs::TraceSpan span("test", "trace-only"); }
  EXPECT_EQ(obs::trace_stop(), 5u) << "two spans and the queue-depth counter, no transfer";

  std::multiset<std::string> dag_labels;
  double bytes = 0.0;
  for (const obs::dag::Node& nd : g.nodes) {
    dag_labels.insert(nd.label);
    bytes += nd.bytes;
  }
  EXPECT_EQ(dag_labels.count("test/dag-only"), 1u);
  EXPECT_EQ(dag_labels.count("test/both"), 1u);
  EXPECT_EQ(dag_labels.count("test/trace-only"), 0u);
  EXPECT_EQ(bytes, 4096.0) << "the transfer record reaches the DAG";

  TraceSummary sum;
  Json root;
  ASSERT_NO_THROW(root = parse_file(path));
  validate_trace(root, sum);
  EXPECT_EQ(sum.names, (std::set<std::string>{"both", "trace-only", "stream.queue_depth"}));
}

TEST(Trace, FtRunCoversAllThreeLayers) {
  const index_t n = 64, nb = 16;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 3);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  fault::Injector inj(spec, 3);
  ft::FtReport rep;

  const std::string path = temp_path("fth_trace_ft_run.json");
  obs::trace_start(path);
  ft::ft_gehrd(dev, a.view(), VectorView<double>(tau.data(), n - 1), {.nb = nb}, &inj, &rep);
  const std::size_t count = obs::trace_stop();
  ASSERT_GE(rep.detections, 1);
  EXPECT_GT(count, 100u);

  TraceSummary sum;
  Json root;
  ASSERT_NO_THROW(root = parse_file(path));
  validate_trace(root, sum);

  // One trace, all layers: FT machinery, hybrid driver, software device.
  for (const char* cat : {"ft", "hybrid", "stream", "device", "dev_blas", "counter"}) {
    EXPECT_EQ(sum.cats.count(cat), 1u) << "missing category " << cat;
  }
  for (const char* name : {"sytrd", "gebrd"}) {
    EXPECT_EQ(sum.names.count(name), 0u) << "unexpected driver span " << name;
  }
  for (const char* name : {"gehrd", "encode", "checkpoint_save", "panel", "update", "detect",
                           "rollback", "locate", "reexec", "final_sweep",
                           "q_verify", "h2d", "d2h", "stream.queue_depth"}) {
    EXPECT_EQ(sum.names.count(name), 1u) << "missing event " << name;
  }
  EXPECT_EQ(sum.thread_names.count("device-stream"), 1u);
  EXPECT_GE(sum.tids.size(), 2u) << "device-stream work must be on its own track";
}

}  // namespace
}  // namespace fth

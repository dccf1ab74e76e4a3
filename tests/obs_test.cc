// Tests for src/obs/: striped counters/gauges/histograms, the registry's
// deterministic exports, the flight recorder, and the runtime switch.
// The concurrency tests double as the TSan target for the
// striped-update design (ci runs this binary under -DRS_TSAN=ON).

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "obs/catalog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace robust_sampling {
namespace obs {
namespace {

// --- catalog: static data, identical in both build modes ------------------

TEST(ObsCatalogTest, DescriptorsAreUniqueAndWellFormed) {
  const auto& catalog = AllMetricDescriptors();
  ASSERT_GE(catalog.size(), 20u);
  std::set<std::string> names;
  for (const MetricDescriptor& d : catalog) {
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate name " << d.name;
    EXPECT_TRUE(std::string(d.name).starts_with("rs_")) << d.name;
    const std::string type = d.type;
    EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
        << d.name << " has type " << type;
    EXPECT_FALSE(std::string(d.help).empty()) << d.name;
  }
}

TEST(ObsCatalogTest, AccessorsReturnStableInstances) {
  Counter& a = PipelineIngestBatches();
  Counter& b = PipelineIngestBatches();
  EXPECT_EQ(&a, &b);
  Histogram& h1 = WireSerializeNs("robust_sample");
  Histogram& h2 = WireSerializeNs("robust_sample");
  EXPECT_EQ(&h1, &h2);
}

// --- primitives under concurrency -----------------------------------------

TEST(ObsMetricsTest, CounterIsExactAfterConcurrentIncrements) {
  Counter counter;
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(ObsMetricsTest, HistogramIsExactAfterConcurrentObserves) {
  Histogram histogram;
  constexpr size_t kThreads = 4;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Observe(t * 1000 + (i % 7));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const Histogram::Aggregate agg = histogram.Read();
  EXPECT_EQ(agg.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) bucket_total += agg.buckets[b];
  EXPECT_EQ(bucket_total, agg.count);
  EXPECT_GT(agg.sum, 0u);
}

TEST(ObsMetricsTest, GaugeSetMaxIsMonotoneUnderConcurrency) {
  Gauge gauge;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int64_t v = 0; v < 10'000; ++v) gauge.SetMax(t * 10'000 + v);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.Value(), 3 * 10'000 + 9'999);
}

TEST(ObsMetricsTest, HistogramBucketsAreLog2Spaced) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // Values past the last finite bucket land in the +Inf overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
}

TEST(ObsMetricsTest, HistogramQuantilesReturnBucketUpperBounds) {
  Histogram histogram;
  for (int i = 0; i < 90; ++i) histogram.Observe(100);   // bucket 7 (<=127)
  for (int i = 0; i < 10; ++i) histogram.Observe(5000);  // bucket 13 (<=8191)
  const Histogram::Aggregate agg = histogram.Read();
  EXPECT_EQ(agg.ApproxQuantile(0.5), 127u);
  EXPECT_EQ(agg.ApproxQuantile(0.99), 8191u);
  EXPECT_EQ(agg.ApproxMax(), 8191u);
}

TEST(ObsMetricsTest, RuntimeDisableStopsUpdates) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  counter.Increment();
  SetRuntimeEnabled(false);
  counter.Increment(100);
  gauge.SetMax(5);
  histogram.Observe(42);
  SetRuntimeEnabled(true);
  counter.Increment();
  EXPECT_EQ(counter.Value(), 2u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(histogram.Read().count, 0u);
}

// --- registry ---------------------------------------------------------------

TEST(ObsRegistryTest, SameNameSameInstanceLabeledDistinct) {
  MetricRegistry& registry = MetricRegistry::Global();
  Counter* a = registry.GetCounter("rs_test_repeat_total", "help");
  Counter* b = registry.GetCounter("rs_test_repeat_total");
  EXPECT_EQ(a, b);
  Counter* labeled_x =
      registry.GetCounter("rs_test_labeled_total", "", {"kind", "x"});
  Counter* labeled_y =
      registry.GetCounter("rs_test_labeled_total", "", {"kind", "y"});
  EXPECT_NE(labeled_x, labeled_y);
  EXPECT_EQ(labeled_x,
            registry.GetCounter("rs_test_labeled_total", "", {"kind", "x"}));
}

TEST(ObsRegistryTest, SnapshotsAreDeterministicAndSorted) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("rs_test_det_b_total")->Increment(2);
  registry.GetCounter("rs_test_det_a_total")->Increment(1);
  registry.GetHistogram("rs_test_det_h_ns")->Observe(42);
  const std::string first = registry.ToJson();
  const std::string second = registry.ToJson();
  EXPECT_EQ(first, second);
  const std::vector<std::string> names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_LT(first.find("rs_test_det_a_total"),
            first.find("rs_test_det_b_total"));
}

TEST(ObsRegistryTest, PrometheusTextExposesSeries) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("rs_test_prom_total", "a counter")->Increment(7);
  registry.GetHistogram("rs_test_prom_ns", "a histogram")->Observe(100);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# HELP rs_test_prom_total a counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rs_test_prom_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rs_test_prom_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rs_test_prom_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("rs_test_prom_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rs_test_prom_ns_sum 100"), std::string::npos);
  EXPECT_NE(text.find("rs_test_prom_ns_count 1"), std::string::npos);
}

TEST(ObsRegistryTest, ToJsonRowsCarryNumericCells) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("rs_test_json_total")->Increment(5);
  const std::string json = registry.ToJson();
  // The value cell must be an unquoted number for bench_diff to compare.
  EXPECT_NE(json.find("\"metric\": \"rs_test_json_total\", \"type\": "
                      "\"counter\", \"value\": 5"),
            std::string::npos)
      << json;
}

// --- flight recorder --------------------------------------------------------

TEST(ObsFlightRecorderTest, DumpMergesThreadsInSequenceOrder) {
  FlightRecorder& recorder = FlightRecorder::Global();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < 8; ++i) {
        recorder.Record(TraceEventKind::kMark, "obs_test",
                        "thread " + std::to_string(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const std::string dump = recorder.Dump();
  for (int t = 0; t < 4; ++t) {
    EXPECT_NE(dump.find("thread " + std::to_string(t)), std::string::npos);
  }
}

TEST(ObsFlightRecorderTest, RingOverwritesOldestEvents) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Record(TraceEventKind::kMark, "obs_test", "overwritten-marker");
  for (size_t i = 0; i < kFlightRecorderRingEvents + 8; ++i) {
    recorder.Record(TraceEventKind::kMark, "obs_test", "filler");
  }
  // This thread's ring holds only the newest kFlightRecorderRingEvents
  // events, so the early marker is gone.
  EXPECT_EQ(recorder.Dump().find("overwritten-marker"), std::string::npos);
}

TEST(ObsFlightRecorderTest, ErrorHookReceivesDumpNamingTheFailure) {
  FlightRecorder& recorder = FlightRecorder::Global();
  std::string captured;
  recorder.SetErrorHook([&captured](const std::string& dump) {
    captured = dump;
  });
  recorder.Record(TraceEventKind::kMark, "obs_test", "context before");
  recorder.RecordError("obs_test", "the failing operation", 17);
  recorder.SetErrorHook(nullptr);
  EXPECT_NE(captured.find("context before"), std::string::npos);
  EXPECT_NE(captured.find("the failing operation"), std::string::npos);
  EXPECT_NE(captured.find("ERROR"), std::string::npos);
  EXPECT_NE(captured.find("(arg=17)"), std::string::npos);
}

TEST(ObsFlightRecorderTest, TraceSpanRecordsBeginAndEnd) {
  FlightRecorder& recorder = FlightRecorder::Global();
  { TraceSpan span("obs_test", "span-under-test"); }
  const std::string dump = recorder.Dump();
  const size_t begin = dump.find("begin");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(dump.find("span-under-test"), std::string::npos);
  EXPECT_NE(dump.find("end"), std::string::npos);
}

// --- Prometheus exposition conformance ---------------------------------------
//
// /metrics is consumed by real scrapers, so the text format is a contract:
// every line is a comment or a well-formed series, histogram buckets are
// cumulative and monotone, le="+Inf" equals _count, and label values
// escape backslash/quote/newline. This test parses the whole export.

namespace prom {

// Parses `name{key="value",...} 123` series lines. Returns false on any
// structural violation.
struct Series {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  // still escaped
  uint64_t value = 0;
};

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool IsNameChar(char c) { return IsNameStart(c) || (c >= '0' && c <= '9'); }

bool ParseSeriesLine(const std::string& line, Series* out) {
  size_t i = 0;
  if (i >= line.size() || !IsNameStart(line[i])) return false;
  while (i < line.size() && IsNameChar(line[i])) ++i;
  out->name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      const size_t key_start = i;
      while (i < line.size() && IsNameChar(line[i])) ++i;
      if (i == key_start || i + 1 >= line.size() || line[i] != '=' ||
          line[i + 1] != '"') {
        return false;
      }
      const std::string key = line.substr(key_start, i - key_start);
      i += 2;
      std::string value;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          // Escapes are exactly \\, \", \n per the exposition format.
          if (i + 1 >= line.size()) return false;
          const char esc = line[i + 1];
          if (esc != '\\' && esc != '"' && esc != 'n') return false;
          value += line[i];
          value += esc;
          i += 2;
        } else if (line[i] == '\n') {
          return false;  // raw newline inside a label value
        } else {
          value += line[i++];
        }
      }
      if (i >= line.size()) return false;  // unterminated value
      ++i;                                 // closing quote
      out->labels.emplace_back(key, value);
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') return false;
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') return false;
  ++i;
  const size_t value_start = i;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
  if (i == value_start || i != line.size()) return false;
  out->value = std::stoull(line.substr(value_start));
  return true;
}

std::string BaseName(const std::string& series_name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (series_name.size() > s.size() &&
        series_name.compare(series_name.size() - s.size(), s.size(), s) ==
            0) {
      return series_name.substr(0, series_name.size() - s.size());
    }
  }
  return series_name;
}

}  // namespace prom

TEST(ObsPrometheusConformanceTest, ExpositionParsesAndHistogramsAreSound) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("rs_test_conf_total", "conformance counter")
      ->Increment(3);
  Histogram* histogram =
      registry.GetHistogram("rs_test_conf_ns", "conformance histogram");
  histogram->Observe(1);
  histogram->Observe(100);
  histogram->Observe(1'000'000);

  const std::string text = registry.ToPrometheusText();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "export must end with a newline";

  std::map<std::string, std::string> type_of;       // base name -> TYPE
  std::map<std::string, std::vector<prom::Series>> buckets_of;
  std::map<std::string, uint64_t> count_of;
  std::map<std::string, uint64_t> sum_of;

  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "line without newline";
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      const std::string type = rest.substr(space + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      type_of[rest.substr(0, space)] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;
    prom::Series series;
    ASSERT_TRUE(prom::ParseSeriesLine(line, &series)) << line;
    const std::string base = prom::BaseName(series.name);
    // Every series must be announced by a TYPE line for its base name
    // (series are grouped after their TYPE header, map is fine).
    ASSERT_TRUE(type_of.count(base) == 1 || type_of.count(series.name) == 1)
        << "series without TYPE: " << line;
    const std::string type =
        type_of.count(series.name) == 1 ? type_of[series.name]
                                        : type_of[base];
    if (type == "histogram") {
      if (series.name == base + "_bucket") {
        buckets_of[base].push_back(series);
      } else if (series.name == base + "_count") {
        count_of[base] = series.value;
      } else if (series.name == base + "_sum") {
        sum_of[base] = series.value;
      } else {
        FAIL() << "histogram series with bad suffix: " << line;
      }
    }
  }

  // Histogram soundness: buckets cumulative + monotone, last le is +Inf
  // and equals _count.
  ASSERT_TRUE(buckets_of.count("rs_test_conf_ns") == 1);
  for (const auto& [base, buckets] : buckets_of) {
    ASSERT_FALSE(buckets.empty()) << base;
    ASSERT_TRUE(count_of.count(base) == 1) << base << " missing _count";
    ASSERT_TRUE(sum_of.count(base) == 1) << base << " missing _sum";
    uint64_t prev = 0;
    std::string last_le;
    for (const prom::Series& bucket : buckets) {
      std::string le;
      for (const auto& [key, value] : bucket.labels) {
        if (key == "le") le = value;
      }
      ASSERT_FALSE(le.empty()) << base << " bucket without le label";
      EXPECT_GE(bucket.value, prev)
          << base << " buckets are not cumulative-monotone at le=" << le;
      prev = bucket.value;
      last_le = le;
    }
    EXPECT_EQ(last_le, "+Inf") << base;
    EXPECT_EQ(prev, count_of[base])
        << base << ": le=\"+Inf\" bucket must equal _count";
  }
  EXPECT_EQ(count_of["rs_test_conf_ns"], 3u);
}

TEST(ObsPrometheusConformanceTest, LabelAndHelpValuesAreEscaped) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry
      .GetCounter("rs_test_conf_esc_total", "help with \\ and\nnewline",
                  {"kind", "a\"b\\c\nd"})
      ->Increment();
  const std::string text = registry.ToPrometheusText();
  // Label value: " -> \" , \ -> \\ , newline -> literal \n.
  EXPECT_NE(text.find("rs_test_conf_esc_total{kind=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
  // HELP text: \ -> \\ and newline -> \n (quotes stay raw there).
  EXPECT_NE(
      text.find("# HELP rs_test_conf_esc_total help with \\\\ and\\nnewline"),
      std::string::npos)
      << text;
}

// --- chrome-trace export ------------------------------------------------------

namespace json {

// Minimal recursive-descent validator — accepts exactly the JSON grammar,
// no extensions. Returns true iff `text` is one valid JSON value.
struct Cursor {
  const std::string& text;
  size_t i = 0;
  bool Eof() const { return i >= text.size(); }
  char Peek() const { return text[i]; }
};

void SkipWs(Cursor* c) {
  while (!c->Eof() && (c->Peek() == ' ' || c->Peek() == '\t' ||
                       c->Peek() == '\n' || c->Peek() == '\r')) {
    ++c->i;
  }
}

bool ParseValue(Cursor* c, int depth);

bool ParseString(Cursor* c) {
  if (c->Eof() || c->Peek() != '"') return false;
  ++c->i;
  while (!c->Eof() && c->Peek() != '"') {
    const char ch = c->Peek();
    if (static_cast<unsigned char>(ch) < 0x20) return false;  // raw control
    if (ch == '\\') {
      ++c->i;
      if (c->Eof()) return false;
      const char esc = c->Peek();
      if (esc == 'u') {
        for (int k = 0; k < 4; ++k) {
          ++c->i;
          if (c->Eof() || !std::isxdigit(static_cast<unsigned char>(
                              c->Peek()))) {
            return false;
          }
        }
      } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                 esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
        return false;
      }
    }
    ++c->i;
  }
  if (c->Eof()) return false;
  ++c->i;  // closing quote
  return true;
}

bool ParseNumber(Cursor* c) {
  const size_t start = c->i;
  if (!c->Eof() && c->Peek() == '-') ++c->i;
  while (!c->Eof() && std::isdigit(static_cast<unsigned char>(c->Peek()))) {
    ++c->i;
  }
  if (!c->Eof() && c->Peek() == '.') {
    ++c->i;
    while (!c->Eof() &&
           std::isdigit(static_cast<unsigned char>(c->Peek()))) {
      ++c->i;
    }
  }
  if (!c->Eof() && (c->Peek() == 'e' || c->Peek() == 'E')) {
    ++c->i;
    if (!c->Eof() && (c->Peek() == '+' || c->Peek() == '-')) ++c->i;
    while (!c->Eof() &&
           std::isdigit(static_cast<unsigned char>(c->Peek()))) {
      ++c->i;
    }
  }
  return c->i > start;
}

bool ParseLiteral(Cursor* c, const char* literal) {
  const size_t len = std::strlen(literal);
  if (c->text.compare(c->i, len, literal) != 0) return false;
  c->i += len;
  return true;
}

bool ParseValue(Cursor* c, int depth) {
  if (depth > 64) return false;
  SkipWs(c);
  if (c->Eof()) return false;
  const char ch = c->Peek();
  if (ch == '"') return ParseString(c);
  if (ch == '{') {
    ++c->i;
    SkipWs(c);
    if (!c->Eof() && c->Peek() == '}') {
      ++c->i;
      return true;
    }
    while (true) {
      SkipWs(c);
      if (!ParseString(c)) return false;
      SkipWs(c);
      if (c->Eof() || c->Peek() != ':') return false;
      ++c->i;
      if (!ParseValue(c, depth + 1)) return false;
      SkipWs(c);
      if (c->Eof()) return false;
      if (c->Peek() == ',') {
        ++c->i;
        continue;
      }
      if (c->Peek() == '}') {
        ++c->i;
        return true;
      }
      return false;
    }
  }
  if (ch == '[') {
    ++c->i;
    SkipWs(c);
    if (!c->Eof() && c->Peek() == ']') {
      ++c->i;
      return true;
    }
    while (true) {
      if (!ParseValue(c, depth + 1)) return false;
      SkipWs(c);
      if (c->Eof()) return false;
      if (c->Peek() == ',') {
        ++c->i;
        continue;
      }
      if (c->Peek() == ']') {
        ++c->i;
        return true;
      }
      return false;
    }
  }
  if (ch == 't') return ParseLiteral(c, "true");
  if (ch == 'f') return ParseLiteral(c, "false");
  if (ch == 'n') return ParseLiteral(c, "null");
  return ParseNumber(c);
}

bool IsValid(const std::string& text) {
  Cursor c{text};
  if (!ParseValue(&c, 0)) return false;
  SkipWs(&c);
  return c.Eof();
}

}  // namespace json

TEST(ObsChromeTraceTest, DumpIsValidJsonWithSpanBeginEndPairs) {
  FlightRecorder& recorder = FlightRecorder::Global();
  // A detail that stresses JSON escaping: quote, backslash, newline, tab.
  recorder.Record(TraceEventKind::kMark, "obs_test",
                  "escape \"quote\" back\\slash\nnewline\ttab");
  { TraceSpan span("obs_test", "traced-span"); }
  const std::string trace = recorder.DumpChromeTraceJson();
  ASSERT_TRUE(json::IsValid(trace)) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\""), std::string::npos);
  // The span contributes a B/E pair; the mark an instant.
  EXPECT_NE(trace.find("\"ph\":\"B\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ph\":\"E\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("traced-span"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":"), std::string::npos);
  EXPECT_NE(trace.find("\"ts\":"), std::string::npos);
  // The escaped detail must round-trip as JSON escapes, not raw bytes.
  EXPECT_NE(trace.find("escape \\\"quote\\\" back\\\\slash\\nnewline"),
            std::string::npos)
      << trace;
}

TEST(ObsChromeTraceTest, ThreadsGetDistinctTids) {
  FlightRecorder& recorder = FlightRecorder::Global();
  std::thread other([&recorder] {
    recorder.Record(TraceEventKind::kMark, "obs_test", "from-other-thread");
  });
  other.join();
  recorder.Record(TraceEventKind::kMark, "obs_test", "from-main-thread");
  const std::string trace = recorder.DumpChromeTraceJson();
  ASSERT_TRUE(json::IsValid(trace)) << trace;
  // Extract the tid that follows each marker's event; they must differ.
  auto tid_near = [&trace](const std::string& marker) {
    const size_t at = trace.find(marker);
    EXPECT_NE(at, std::string::npos) << marker;
    const size_t tid_at = trace.find("\"tid\":", at);
    EXPECT_NE(tid_at, std::string::npos);
    return std::stoull(trace.substr(tid_at + 6));
  };
  EXPECT_NE(tid_near("from-other-thread"), tid_near("from-main-thread"));
}

// --- last-error post-mortem ---------------------------------------------------

TEST(ObsFlightRecorderTest, LastErrorDumpRetainsThePostMortem) {
  FlightRecorder& recorder = FlightRecorder::Global();
  // Silence the default print-once path for this test.
  recorder.SetErrorHook([](const std::string&) {});
  recorder.Record(TraceEventKind::kMark, "obs_test", "pre-error context");
  recorder.RecordError("obs_test", "retained failure", 42);
  recorder.SetErrorHook(nullptr);
  const std::string dump = recorder.LastErrorDump();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("retained failure"), std::string::npos);
  EXPECT_NE(dump.find("pre-error context"), std::string::npos);
  // A later non-error record must not clear the retained post-mortem.
  recorder.Record(TraceEventKind::kMark, "obs_test", "after-error");
  EXPECT_NE(recorder.LastErrorDump().find("retained failure"),
            std::string::npos);
}

TEST(ObsFlightRecorderTest, SpanDetailHoldsAtLeast90Chars) {
  // TraceSpan and TraceEvent share kTraceDetailBytes; before unification
  // the span buffer silently truncated at 64 bytes.
  static_assert(kTraceDetailBytes >= 96);
  FlightRecorder& recorder = FlightRecorder::Global();
  std::string long_detail = "span-detail-";
  while (long_detail.size() < 90) long_detail += "x";
  { TraceSpan span("obs_test", long_detail); }
  EXPECT_NE(recorder.Dump().find(long_detail), std::string::npos)
      << "span detail truncated below " << long_detail.size() << " chars";
}

}  // namespace
}  // namespace obs
}  // namespace robust_sampling

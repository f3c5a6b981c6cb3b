#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace olite::obs {
namespace {

// -- Counter ------------------------------------------------------------------

TEST(CounterTest, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

// The headline merge-exactness contract: N threads adding M each always
// read back exactly N*M — sharded cells may race on *which* cell a thread
// picks, but no increment is ever lost. Run under TSan in CI.
TEST(CounterTest, ConcurrentAddsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(),
            static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(CounterTest, ConcurrentBulkAddsAreExact) {
  constexpr int kThreads = 6;
  constexpr int kAddsPerThread = 5000;
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Add(t + 1);
    });
  }
  for (auto& th : threads) th.join();
  // sum over t of (t+1) * kAddsPerThread
  uint64_t want = 0;
  for (int t = 0; t < kThreads; ++t) {
    want += static_cast<uint64_t>(t + 1) * kAddsPerThread;
  }
  EXPECT_EQ(c.Value(), want);
}

// -- Gauge --------------------------------------------------------------------

TEST(GaugeTest, LastValueWins) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(0.5);
  g.Set(0.75);
  EXPECT_EQ(g.Value(), 0.75);
  g.Reset();
  EXPECT_EQ(g.Value(), 0.0);
}

TEST(GaugeTest, ConcurrentSetsLeaveOneWritersValue) {
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 1000; ++i) g.Set(static_cast<double>(t + 1));
    });
  }
  for (auto& th : threads) th.join();
  const double v = g.Value();
  EXPECT_GE(v, 1.0);
  EXPECT_LE(v, 4.0);
}

// -- Histogram bucket layout --------------------------------------------------

TEST(HistogramTest, BucketLayoutInvariants) {
  // Bucket 0 is the resolution floor: everything <= 1, plus the garbage
  // values (NaN, negatives) that must never index out of range.
  EXPECT_EQ(Histogram::BucketOf(0.0), 0u);
  EXPECT_EQ(Histogram::BucketOf(0.5), 0u);
  EXPECT_EQ(Histogram::BucketOf(1.0), 0u);
  EXPECT_EQ(Histogram::BucketOf(-3.0), 0u);
  EXPECT_EQ(Histogram::BucketOf(std::nan("")), 0u);
  // Every positive value lands in the bucket whose [lower, upper) range
  // contains it: previous bucket's bound <= value < this bucket's bound.
  for (double v : {1.001, 1.5, 2.0, 10.0, 1000.0, 1e6, 123456.789}) {
    const size_t i = Histogram::BucketOf(v);
    ASSERT_GT(i, 0u) << v;
    EXPECT_LT(v, Histogram::BucketUpperBound(i)) << v;
    EXPECT_GE(v, Histogram::BucketUpperBound(i - 1)) << v;
  }
  // Four buckets per doubling.
  for (double v : {1.5, 3.0, 10.0, 500.0}) {
    EXPECT_EQ(Histogram::BucketOf(2.0 * v), Histogram::BucketOf(v) + 4) << v;
  }
  // Astronomical values clamp into the overflow bucket instead of
  // indexing past the array.
  EXPECT_EQ(Histogram::BucketOf(1e300), Histogram::kNumBuckets - 1);
  EXPECT_TRUE(std::isinf(
      Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));
}

TEST(HistogramTest, CountSumAndQuantiles) {
  Histogram h;
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
  EXPECT_EQ(h.TakeSnapshot().Quantile(0.5), 0.0);
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 100u);
  // Fixed-point sum: each sample rounds to the nearest 1/1024, so the
  // total is exact to within count/2048.
  EXPECT_NEAR(s.sum, 5050.0, 100.0 / 2048.0);
  EXPECT_NEAR(s.Mean(), 50.5, 0.01);
  // Log buckets bound quantile error by one bucket width (2^(1/4)).
  const double kWidth = std::exp2(0.25);
  EXPECT_GE(s.Quantile(0.5), 50.0 / kWidth);
  EXPECT_LE(s.Quantile(0.5), 50.0 * kWidth);
  EXPECT_GE(s.Quantile(0.99), 99.0 / kWidth);
  EXPECT_LE(s.Quantile(0.99), 99.0 * kWidth);
  EXPECT_GE(s.Max(), 100.0 / kWidth);
  EXPECT_LE(s.Max(), 100.0 * kWidth);
  // Quantiles are monotone in q.
  EXPECT_LE(s.Quantile(0.1), s.Quantile(0.5));
  EXPECT_LE(s.Quantile(0.5), s.Quantile(0.9));
  EXPECT_LE(s.Quantile(0.9), s.Quantile(1.0));
  h.Reset();
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
  EXPECT_EQ(h.TakeSnapshot().sum, 0.0);
}

// Merge exactness under concurrency: the count is derived from the
// sharded bucket counters, so no sample can be dropped even when all
// threads record at once. Run under TSan in CI.
TEST(HistogramTest, ConcurrentRecordsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>((t * kPerThread + i) % 500) + 1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  Histogram::Snapshot s = h.TakeSnapshot();
  const uint64_t want = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(s.count, want);
  // Every value was in [1, 500]; the sum must agree with a serial replay.
  double serial = 0;
  for (uint64_t i = 0; i < want; ++i) serial += static_cast<double>(i % 500) + 1.0;
  EXPECT_NEAR(s.sum, serial, static_cast<double>(want) / 2048.0);
}

// -- MetricsRegistry ----------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateIsStable) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("requests");
  Counter& c2 = reg.counter("requests");
  EXPECT_EQ(&c1, &c2);  // same name -> same instrument
  c1.Add(3);
  EXPECT_EQ(c2.Value(), 3u);
  Histogram& h1 = reg.histogram("latency");
  // Creating more instruments must not invalidate earlier references.
  for (int i = 0; i < 100; ++i) {
    reg.counter("c" + std::to_string(i));
    reg.histogram("h" + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("requests"), &c1);
  EXPECT_EQ(&reg.histogram("latency"), &h1);
}

TEST(MetricsRegistryTest, FindReturnsNullForAbsent) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("nope"), nullptr);
  EXPECT_EQ(reg.FindGauge("nope"), nullptr);
  EXPECT_EQ(reg.FindHistogram("nope"), nullptr);
  EXPECT_EQ(reg.HistogramQuantile("nope", 0.5), 0.0);
  reg.counter("yes").Add();
  EXPECT_NE(reg.FindCounter("yes"), nullptr);
  EXPECT_EQ(reg.FindHistogram("yes"), nullptr);  // type-separated namespaces
}

TEST(MetricsRegistryTest, ResetZeroesEverythingButKeepsPointers) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a");
  Gauge& g = reg.gauge("b");
  Histogram& h = reg.histogram("c");
  c.Add(7);
  g.Set(0.5);
  h.Record(100);
  reg.Reset();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(g.Value(), 0.0);
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
  // The previously returned references still record.
  c.Add(1);
  EXPECT_EQ(reg.FindCounter("a")->Value(), 1u);
}

TEST(MetricsRegistryTest, ToJsonAndToTextListEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("obda.answers").Add(5);
  reg.gauge("plan_cache.hit_rate").Set(0.25);
  reg.histogram("stage.execute_us").Record(42.0);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"obda.answers\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"plan_cache.hit_rate\": 0.25"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"stage.execute_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
  const std::string text = reg.ToText();
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("obda.answers"), std::string::npos);
  EXPECT_NE(text.find("gauge"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramQuantileAccessor) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 100; ++i) h.Record(10.0);
  const double p50 = reg.HistogramQuantile("lat", 0.5);
  const double kWidth = std::exp2(0.25);
  EXPECT_GE(p50, 10.0 / kWidth);
  EXPECT_LE(p50, 10.0 * kWidth);
}

TEST(MetricsRegistryTest, ConcurrentFindOrCreateAndRecord) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        // Registry lookup races with creation on the first call of each
        // name; all threads must converge on one instrument.
        reg.counter("shared").Add();
        reg.histogram("shared_h").Record(5.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.FindCounter("shared")->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.FindHistogram("shared_h")->TakeSnapshot().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// -- Trace sinks --------------------------------------------------------------

QueryTrace SampleTrace() {
  QueryTrace t;
  t.query = "q(x) :- Person(x)";
  t.fingerprint = 0xabcd;
  t.ok = true;
  t.cache_hit = true;
  t.rows = 2;
  t.total_us = 123.5;
  t.spans.push_back({"execute", 120.0});
  return t;
}

TEST(TraceTest, ToJsonCarriesEveryField) {
  const std::string json = SampleTrace().ToJson();
  EXPECT_NE(json.find("q(x) :- Person(x)"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_hit\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rows\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("execute"), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one line (JSONL-safe)
}

TEST(TraceTest, VectorSinkBuffersConcurrentRecords) {
  VectorTraceSink sink;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sink] {
      for (int i = 0; i < 50; ++i) sink.Record(SampleTrace());
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sink.size(), 200u);
  EXPECT_EQ(sink.traces().size(), 200u);
  EXPECT_EQ(sink.traces()[0].query, "q(x) :- Person(x)");
}

TEST(TraceTest, JsonLinesSinkAppendsOneLinePerTrace) {
  const std::string path =
      testing::TempDir() + "/olite_trace_test.jsonl";
  std::remove(path.c_str());
  {
    JsonLinesTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.Record(SampleTrace());
    sink.Record(SampleTrace());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"total_us\""), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(TraceTest, JsonLinesSinkUnopenableIsInert) {
  JsonLinesTraceSink sink("/nonexistent_dir_zz/trace.jsonl");
  EXPECT_FALSE(sink.ok());
  sink.Record(SampleTrace());  // must not crash
}

}  // namespace
}  // namespace olite::obs

#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace olite::obs {

size_t ThreadShard(size_t mod) {
  static std::atomic<size_t> next{0};
  thread_local const size_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id % mod;
}

// -- Histogram ----------------------------------------------------------------

size_t Histogram::BucketOf(double value) {
  if (!(value > 1.0)) return 0;  // also catches NaN and negatives
  double scaled = std::log2(value) * 4.0;
  size_t idx = 1 + static_cast<size_t>(scaled);
  return idx < kNumBuckets ? idx : kNumBuckets - 1;
}

double Histogram::BucketUpperBound(size_t i) {
  if (i == 0) return 1.0;
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::exp2(static_cast<double>(i) / 4.0);
}

void Histogram::Record(double value) {
  Shard& shard = shards_[ThreadShard(kShards)];
  shard.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  const double clamped = value > 0 ? value : 0;  // NaN/negative add nothing
  shard.sum_fp.fetch_add(static_cast<uint64_t>(clamped * 1024.0 + 0.5),
                         std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  for (const Shard& shard : shards_) {
    snap.sum +=
        static_cast<double>(shard.sum_fp.load(std::memory_order_relaxed)) /
        1024.0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      snap.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  for (uint64_t b : snap.buckets) snap.count += b;
  return snap;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    shard.sum_fp.store(0, std::memory_order_relaxed);
    for (auto& b : shard.buckets) b.store(0, std::memory_order_relaxed);
  }
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * count));
  if (rank == 0) rank = 1;
  uint64_t cum = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      // The overflow bucket has no finite upper bound; report its lower
      // bound so the quantile stays a number.
      if (i == kNumBuckets - 1) return BucketUpperBound(i - 1);
      return BucketUpperBound(i);
    }
  }
  return BucketUpperBound(kNumBuckets - 2);
}

double Histogram::Snapshot::Max() const {
  for (size_t i = kNumBuckets; i > 0; --i) {
    if (buckets[i - 1] != 0) {
      if (i - 1 == kNumBuckets - 1) return BucketUpperBound(kNumBuckets - 2);
      return BucketUpperBound(i - 1);
    }
  }
  return 0;
}

// -- MetricsRegistry ----------------------------------------------------------

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

double MetricsRegistry::HistogramQuantile(std::string_view name,
                                          double q) const {
  const Histogram* h = FindHistogram(name);
  return h == nullptr ? 0 : h->TakeSnapshot().Quantile(q);
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

namespace {

void AppendJsonNumber(std::string* out, double v) {
  char buf[64];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  *out += buf;
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(c->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": ";
    AppendJsonNumber(&out, g->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    Histogram::Snapshot s = h->TakeSnapshot();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"count\": " + std::to_string(s.count) +
           ", \"sum\": ";
    AppendJsonNumber(&out, s.sum);
    out += ", \"mean\": ";
    AppendJsonNumber(&out, s.Mean());
    for (auto [label, q] : {std::pair<const char*, double>{"p50", 0.50},
                            {"p90", 0.90},
                            {"p95", 0.95},
                            {"p99", 0.99}}) {
      out += std::string(", \"") + label + "\": ";
      AppendJsonNumber(&out, s.Quantile(q));
    }
    out += ", \"max\": ";
    AppendJsonNumber(&out, s.Max());
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[192];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "counter   %-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->Value()));
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "gauge     %-32s %.6g\n", name.c_str(),
                  g->Value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    Histogram::Snapshot s = h->TakeSnapshot();
    std::snprintf(buf, sizeof(buf),
                  "histogram %-32s count=%llu mean=%.1f p50=%.1f p95=%.1f "
                  "p99=%.1f max=%.1f\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.Mean(), s.Quantile(0.5), s.Quantile(0.95),
                  s.Quantile(0.99), s.Max());
    out += buf;
  }
  return out;
}

}  // namespace olite::obs

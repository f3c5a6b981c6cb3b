#ifndef OLITE_OBS_METRICS_H_
#define OLITE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace olite::obs {

/// Shard index of the calling thread, in `[0, mod)`. Thread ids are dealt
/// round-robin from a process-wide counter, so threads spread evenly over
/// the shards of every sharded instrument without hashing.
size_t ThreadShard(size_t mod);

/// A process-lifetime monotone counter. `Add` touches one cache-line-padded
/// atomic cell selected by the calling thread, so concurrent recorders on
/// different threads do not contend; `Value` sums the cells. Increments are
/// never lost: N threads adding M each always read back exactly N*M.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    cells_[ThreadShard(kShards)].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Zeroes the counter. Only meaningful while no thread is recording
  /// (between benchmark cells, test setup).
  void Reset() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_{};
};

/// A last-value-wins instantaneous measurement (cache hit rate, queue
/// depth). Plain atomic double; concurrent Set calls race benignly (one
/// writer's value survives — gauges are snapshots, not accumulators).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<double> value_{0};
};

/// A log-bucketed latency histogram with sharded atomic buckets.
///
/// Bucket layout: bucket 0 holds every value <= 1 (the resolution floor —
/// instruments record microseconds, so sub-microsecond samples collapse);
/// bucket i > 0 spans [2^((i-1)/4), 2^(i/4)), i.e. four buckets per
/// doubling (worst-case quantile error ~19%), up to ~2^31 µs (~36 min) in
/// the overflow bucket. Recording is one log2 and two relaxed fetch_adds
/// (bucket + fixed-point sum) in the calling thread's shard — no locks,
/// no CAS loops, TSan-clean, and exact: concurrent recorders never lose a
/// sample (the count is derived from the buckets at snapshot time).
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 128;

  void Record(double value);

  /// A merged copy of all shards, taken at one instant (counts are summed
  /// per bucket; concurrent recording only makes the snapshot slightly
  /// stale, never inconsistent with itself beyond the in-flight samples).
  struct Snapshot {
    uint64_t count = 0;
    double sum = 0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double Mean() const { return count == 0 ? 0 : sum / count; }
    /// The upper bound of the bucket containing the q-quantile sample
    /// (q in [0,1]); 0 when empty. Error is bounded by one bucket width
    /// (a factor of 2^(1/4)).
    double Quantile(double q) const;
    /// Upper bound of the highest non-empty bucket (coarse max).
    double Max() const;
  };

  Snapshot TakeSnapshot() const;

  /// Zeroes every bucket. Only meaningful while no thread is recording.
  void Reset();

  /// Upper value bound of bucket `i` (1.0 for bucket 0).
  static double BucketUpperBound(size_t i);
  /// The bucket `value` records into.
  static size_t BucketOf(double value);

 private:
  static constexpr size_t kShards = 8;
  /// sum is fixed-point with 10 fractional bits (value * 1024), so the
  /// hot path is a single fetch_add instead of a CAS loop on a double;
  /// at microsecond-scale samples it overflows after centuries.
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<uint64_t> sum_fp{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// A process-wide (or scoped — benchmarks build one per cell) registry of
/// named instruments. Lookup by name takes a mutex and returns a pointer
/// that stays valid for the registry's lifetime, so hot paths resolve
/// their instruments once and record lock-free thereafter.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The default process-wide registry (what serving code records into
  /// unless pointed elsewhere).
  static MetricsRegistry& Default();

  /// Finds or creates the named instrument. O(log n) under a mutex —
  /// resolve once, cache the reference.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Read-only lookups; null when the instrument was never created.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  /// Quantile of the named histogram (0 when absent/empty) — the one-line
  /// accessor benchmark exporters use.
  double HistogramQuantile(std::string_view name, double q) const;

  /// Zeroes every registered instrument (names stay registered, pointers
  /// stay valid). Only meaningful while no thread is recording.
  void Reset();

  /// JSON dump: {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, sum, mean, p50, p90, p95, p99, max}}}.
  std::string ToJson() const;

  /// Plain-text snapshot, one instrument per line (for logs/debugging).
  std::string ToText() const;

 private:
  mutable std::mutex mu_;
  // node-based maps: values never move, so returned references outlive
  // later insertions.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace olite::obs

#endif  // OLITE_OBS_METRICS_H_

// Unified serve-path telemetry (DESIGN.md §14): a MetricsRegistry of named
// monotonic counters, max-semantics gauges, and log2-bucketed latency
// histograms, built so the tick path pays only a clock read and a relaxed
// atomic increment per sample:
//
//   · every instrument is a fixed-size block of std::atomic<uint64_t> —
//     no locks and no allocation after registration;
//   · each OWNER (engine shard, ingest pump, adapt trainer) registers its
//     own instance of a name at startup and is that instance's only
//     writer, so hot increments never contend across threads;
//   · snapshot() aggregates same-name instances with ONE rule:
//     counters and histogram buckets sum, gauges take the max — the
//     merge_value() that obs::merge_stats applies to the stats structs
//     (obs/stat_fields.hpp), so a registry snapshot of a sharded run
//     reads like the merged EngineStats of its shards.
//
// Telemetry never feeds back into classification: verdicts are
// bit-identical with a registry attached or not (the §8/§10 invariant),
// and the bench_obs harness holds the total tick-path overhead under 2%.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace mlad::obs {

namespace detail {
/// Cached nanoseconds-per-raw-tick factor: a one-time ~2 ms calibration
/// against steady_clock on first use. MetricsRegistry's constructor forces
/// it, so the cost lands at startup, never on a tick path.
double ns_per_tick();
std::uint64_t steady_now_ns();
}  // namespace detail

/// Fast monotonic timestamp in nanoseconds. On x86-64 / aarch64 this is a
/// raw cycle-counter read (~5–10 ns) scaled by the calibrated factor —
/// cheap enough for per-package stage stamps; elsewhere it falls back to
/// steady_clock. Only ever used for durations (differences), so the epoch
/// is arbitrary.
inline std::uint64_t now_ns() {
#if defined(__x86_64__) || defined(_M_X64)
  static const double k = detail::ns_per_tick();
  return static_cast<std::uint64_t>(static_cast<double>(__rdtsc()) * k);
#elif defined(__aarch64__)
  static const double k = detail::ns_per_tick();
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return static_cast<std::uint64_t>(static_cast<double>(v) * k);
#else
  return detail::steady_now_ns();
#endif
}

/// A relaxed-atomic value with one writer (the owning thread); any thread
/// may read a consistent value at any time. The storage of Counter and
/// Gauge, and what a StatMirror publishes into.
class Cell {
 public:
  /// Mirror an externally maintained value (StatMirror publishes stats
  /// struct fields this way — cheaper than atomic increments per package,
  /// and the struct stays the source of truth).
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 protected:
  std::atomic<std::uint64_t> value_{0};
};

/// Monotonic event count; same-name instances SUM across owners.
class Counter : public Cell {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
};

/// Point-in-time level whose cross-owner aggregation is MAX (peak queue
/// depth, peak concurrent links, serving model version).
class Gauge : public Cell {};

/// Aggregated histogram contents (see LatencyHistogram for the bucket
/// layout): plain integers, so exporters and tests can merge and query
/// without touching atomics.
struct HistogramSnapshot {
  std::array<std::uint64_t, 64> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  void merge(const HistogramSnapshot& other);
  /// Inclusive upper edge of bucket b: 1 for b=0, else 2^(b+1)-1.
  static std::uint64_t bucket_upper_ns(std::size_t b);
  /// Value at quantile q in [0,1]: the upper edge of the bucket holding
  /// the ceil(q*count)-th sample (0 when empty). Log buckets make this
  /// exact to a factor of 2 — plenty for latency triage.
  double quantile_ns(double q) const;
  double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) /
                            static_cast<double>(count);
  }
};

/// Fixed 64-bucket power-of-2 latency histogram: bucket b holds samples
/// with bit_width(ns) == b+1, i.e. {0,1} in bucket 0 and [2^b, 2^(b+1)) in
/// bucket b ≥ 1. record() is two relaxed fetch_adds — no floating point,
/// no branches beyond the bit_width, no allocation.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  static std::size_t bucket_of(std::uint64_t ns) {
    return ns == 0 ? 0 : static_cast<std::size_t>(std::bit_width(ns)) - 1;
  }

  void record(std::uint64_t ns) {
    buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot out;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      out.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
      out.count += out.buckets[b];
    }
    out.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// One registry snapshot: same-name instances already aggregated (counters
/// and histogram buckets summed, gauges maxed), names sorted — the
/// deterministic field order every exporter inherits.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  const std::uint64_t* counter(std::string_view name) const;
  const std::uint64_t* gauge(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;

  /// Prometheus text exposition (one `mlad_`-prefixed family per name;
  /// histograms as cumulative `_bucket{le=...}` + `_sum` + `_count`).
  std::string prometheus() const;
};

/// The instrument directory. counter()/gauge()/histogram() REGISTER a new
/// per-owner instance bound to `name` (they never return a shared one) —
/// call them at startup, keep the reference, and write lock-free ever
/// after. snapshot() may run concurrently with any number of writers.
class MetricsRegistry {
 public:
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// now_ns() at construction — exporters stamp snapshots relative to it.
  std::uint64_t start_ns() const { return start_ns_; }

 private:
  mutable std::mutex mutex_;  ///< guards the instance lists, not the values
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<LatencyHistogram>>>
      histograms_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace mlad::obs

#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <thread>

#include "obs/stat_fields.hpp"

namespace mlad::obs {

namespace detail {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint64_t raw_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return steady_now_ns();
#endif
}

double calibrate() {
#if defined(__aarch64__)
  // The architected counter advertises its own frequency.
  std::uint64_t freq;
  asm volatile("mrs %0, cntfrq_el0" : "=r"(freq));
  if (freq != 0) return 1e9 / static_cast<double>(freq);
#endif
  // Measure the raw counter against steady_clock over ~2 ms. Constant-TSC
  // is universal on the x86-64 fleets this targets; the factor is cached
  // for the process lifetime.
  const std::uint64_t t0 = steady_now_ns();
  const std::uint64_t r0 = raw_ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t t1 = steady_now_ns();
  const std::uint64_t r1 = raw_ticks();
  if (r1 <= r0 || t1 <= t0) return 1.0;
  return static_cast<double>(t1 - t0) / static_cast<double>(r1 - r0);
}

}  // namespace

double ns_per_tick() {
  static const double k = calibrate();
  return k;
}

}  // namespace detail

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
  count += other.count;
  sum_ns += other.sum_ns;
}

std::uint64_t HistogramSnapshot::bucket_upper_ns(std::size_t b) {
  if (b == 0) return 1;
  if (b >= 63) return UINT64_MAX;
  return (std::uint64_t{1} << (b + 1)) - 1;
}

double HistogramSnapshot::quantile_ns(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) return static_cast<double>(bucket_upper_ns(b));
  }
  return static_cast<double>(bucket_upper_ns(buckets.size() - 1));
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; registry names are
/// snake_case already, but sanitize defensively.
std::string prom_name(std::string_view name) {
  std::string out = "mlad_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void append_line(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

template <typename T>
const T* find_named(const std::vector<std::pair<std::string, T>>& items,
                    std::string_view name) {
  for (const auto& [n, v] : items) {
    if (n == name) return &v;
  }
  return nullptr;
}

}  // namespace

const std::uint64_t* MetricsSnapshot::counter(std::string_view name) const {
  return find_named(counters, name);
}

const std::uint64_t* MetricsSnapshot::gauge(std::string_view name) const {
  return find_named(gauges, name);
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  return find_named(histograms, name);
}

std::string MetricsSnapshot::prometheus() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    const std::string p = prom_name(name);
    append_line(out, "# TYPE %s counter\n", p.c_str());
    append_line(out, "%s %" PRIu64 "\n", p.c_str(), value);
  }
  for (const auto& [name, value] : gauges) {
    const std::string p = prom_name(name);
    append_line(out, "# TYPE %s gauge\n", p.c_str());
    append_line(out, "%s %" PRIu64 "\n", p.c_str(), value);
  }
  for (const auto& [name, h] : histograms) {
    const std::string p = prom_name(name);
    append_line(out, "# TYPE %s histogram\n", p.c_str());
    // Cumulative buckets up to the highest non-empty one, then +Inf.
    std::size_t last = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] != 0) last = b;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b <= last; ++b) {
      cumulative += h.buckets[b];
      append_line(out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                  p.c_str(), HistogramSnapshot::bucket_upper_ns(b),
                  cumulative);
    }
    append_line(out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", p.c_str(),
                h.count);
    append_line(out, "%s_sum %" PRIu64 "\n", p.c_str(), h.sum_ns);
    append_line(out, "%s_count %" PRIu64 "\n", p.c_str(), h.count);
  }
  return out;
}

MetricsRegistry::MetricsRegistry() {
  // Force the clock calibration here, off every tick path.
  (void)detail::ns_per_tick();
  start_ns_ = now_ns();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.emplace_back(std::string(name), std::make_unique<Counter>());
  return *counters_.back().second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_.emplace_back(std::string(name), std::make_unique<Gauge>());
  return *gauges_.back().second;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  histograms_.emplace_back(std::string(name),
                           std::make_unique<LatencyHistogram>());
  return *histograms_.back().second;
}

namespace {

/// Fold same-name instances into `out` with the one merge rule.
template <typename Instrument>
void fold(const std::vector<std::pair<std::string,
                                      std::unique_ptr<Instrument>>>& owned,
          Merge merge,
          std::vector<std::pair<std::string, std::uint64_t>>& out) {
  for (const auto& [name, cell] : owned) {
    if (auto* slot = const_cast<std::uint64_t*>(find_named(out, name))) {
      *slot = merge_value(merge, *slot, cell->value());
    } else {
      out.emplace_back(name, cell->value());
    }
  }
}

}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fold(counters_, Merge::kSum, out.counters);
    fold(gauges_, Merge::kMax, out.gauges);
    for (const auto& [name, h] : histograms_) {
      if (auto* slot =
              const_cast<HistogramSnapshot*>(out.histogram(name))) {
        slot->merge(h->snapshot());
      } else {
        out.histograms.emplace_back(name, h->snapshot());
      }
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

}  // namespace mlad::obs

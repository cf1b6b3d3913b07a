// End-to-end benchmark of the mlad serve and training paths (see README.md).
//
// Everything here drives the library through its public headers only; the
// spans, counters and standalone passes that break a run down by layer live
// in this directory, never inside src/.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "detect/combined.hpp"
#include "detect/pipeline.hpp"
#include "ics/capture.hpp"
#include "ics/link_mux.hpp"

namespace mlad::e2e {

// ---- clocks -----------------------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// CLOCK_PROCESS_CPUTIME_ID or CLOCK_THREAD_CPUTIME_ID, in seconds.
inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Busy-wait (sleeping while far away) until steady time `deadline_ns`;
/// returns how late the caller is, in ns, once it gets there.
std::uint64_t wait_until(std::uint64_t deadline_ns);

/// 64-bit finalizer (splitmix64) for seeds and digests.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The 1-in-64 span sample, keyed by (session, link, seq) so the spans of
/// one package are kept or dropped together at every layer.
inline bool sampled(std::size_t session, ics::LinkId link, std::uint64_t seq) {
  return (mix64((static_cast<std::uint64_t>(session) << 52) ^
                (static_cast<std::uint64_t>(link) << 32) ^ seq) &
          63) == 0;
}

/// One alarm folded into its link's running hash (order-sensitive: a
/// link's alarm sequence is fixed by the engine contract).
inline std::uint64_t fold_alarm(std::uint64_t hash, std::uint64_t seq,
                                bool bloom, bool lstm) {
  return mix64(hash ^ ((seq << 2) | (bloom ? 2u : 0u) | (lstm ? 1u : 0u)));
}

/// Order-insensitive digest of per-link alarm hashes and counts, so runs on
/// any shard count (or commit) can be compared by one string.
std::string format_digest(const std::vector<std::uint64_t>& link_hash,
                          const std::vector<std::uint64_t>& link_alarms);

// ---- summaries --------------------------------------------------------------

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles by the method of Python's statistics.quantiles(n=4),
/// so compare.py and the in-binary numbers agree.
Summary summarize(std::vector<double> values);

/// Nearest-rank percentile (p in [0, 100]); reorders `values`.
double percentile(std::vector<double>& values, double p);

/// Latency samples cut into blocks of consecutive sessions (or evaluation
/// passes) that hold at least `min_block` samples each, so every block
/// supports a p99.9 and one disturbed block cannot move the median over
/// blocks. A short tail joins the block before it.
class LatencyBlocks {
 public:
  explicit LatencyBlocks(std::size_t min_block) : min_block_(min_block) {}
  void add(std::span<const double> unit);
  /// Median over blocks of each block's percentile p; the quartiles are
  /// those of the block percentiles, n the number of samples.
  Summary summary(double p) const;
  std::size_t samples() const { return samples_; }
  std::size_t blocks() const { return blocks_.size() + (open_.empty() ? 0 : 1); }

 private:
  std::size_t min_block_;
  std::size_t samples_ = 0;
  std::vector<std::vector<double>> blocks_;
  std::vector<double> open_;
};

// ---- workloads --------------------------------------------------------------

enum class Driver { kEngine, kSharded, kTcp };

struct WorkloadSpec {
  std::string name;
  Driver driver = Driver::kEngine;
  /// The `train` workload: timed train_framework reps, and the trained
  /// model serving its own test split. Serve workloads train the serve
  /// model once, untimed.
  bool train = false;
  std::size_t links = 0;
  std::size_t sessions = 0;     ///< independent wires per rep
  std::size_t cycles = 0;       ///< simulator cycles per link per session
  std::size_t shards = 1;
  double speed = 1.0;           ///< paced replay: capture seconds per second
  bool sigdb = false;           ///< lookups through an mmap .sigdb view
  std::size_t connections = 0;  ///< TCP connections (kTcp)
  std::size_t train_cycles = 8000;
  std::size_t epochs = 15;
};

/// The named workload, shrunk to a few seconds in smoke mode. Throws on an
/// unknown name.
WorkloadSpec workload_spec(const std::string& name, bool smoke);
std::vector<std::string> workload_names();

struct Options {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir;
  std::string trace_out;
};

// ---- inputs -----------------------------------------------------------------

/// The training capture: simulated packages turned into raw frames and
/// decoded back, with the simulator's ground-truth labels attached. It is
/// the same for every seed (README.md, "Inputs").
struct TrainingData {
  ics::Capture frames;
  std::vector<ics::Package> packages;
};
TrainingData make_training_data(std::size_t cycles);

/// One independent multi-link wire, served by a fresh engine.
struct Session {
  std::vector<ics::LinkFrame> frames;  ///< time-ordered (ics::merge_captures)
  std::vector<std::uint32_t> seq;      ///< frame i's index within its link
  /// Offset of frame i from the session's paced start, in ns: its capture
  /// time over the speed, never earlier than frame i-1's.
  std::vector<std::uint64_t> due_ns;
  std::vector<std::vector<std::uint64_t>> due_by_link;  ///< [link][seq]
  std::vector<std::vector<std::uint8_t>> attack;        ///< [link][seq]
};

struct Traffic {
  std::size_t links = 0;
  std::vector<Session> sessions;
  std::size_t frames = 0;
  std::size_t attacks = 0;
  double capture_seconds = 0.0;  ///< summed over sessions
};

/// The serve wires of a serve workload, from --seed.
Traffic make_traffic(std::uint64_t seed, const WorkloadSpec& spec);

/// The test split of the training capture, served as spec.links lockstep
/// links in one session.
Traffic test_split_traffic(const TrainingData& data,
                           std::span<const ics::Package> test,
                           const WorkloadSpec& spec);

/// The model configuration (hidden 64, batch 8, one thread). The serve
/// model uses a fixed seed; the `train` workload takes its seed from --seed.
detect::PipelineConfig model_config(const WorkloadSpec& spec,
                                    std::uint64_t seed);

// ---- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" | "lower"
  Summary value;
};

struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::string alarm_digest;
  std::vector<std::pair<std::string, double>> info;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  bool correct() const;
  void add_e2e(const std::string& name, Summary s);
  void add_layer(const std::string& name, double value);
  void note(const std::string& name, double value) { info.emplace_back(name, value); }
};

/// Units and directions of every metric the benchmark reports.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};
const std::vector<MetricDef>& end_to_end_defs();
const std::vector<MetricDef>& per_layer_defs();

// ---- standalone layer passes ------------------------------------------------

/// Per-layer numbers of the model build, from a standalone re-run of the
/// steps train_framework takes (seconds).
struct TrainBreakdown {
  double package_build_s = 0.0;
  double epoch_s = 0.0;
  double choose_k_s = 0.0;
  bool identical = false;  ///< same bytes as the train_framework model
};
TrainBreakdown train_breakdown(std::span<const ics::Package> packages,
                               const detect::PipelineConfig& config,
                               const detect::CombinedDetector& reference);

/// Standalone timed passes over the traffic: CaptureSource::next and
/// LinkMux::push per frame, then classify_batch and StreamBatch::step in the
/// lockstep tick shape of each session's per-shard links (ns per package).
struct StandalonePasses {
  double source_next_ns = 0.0;
  double decode_ns = 0.0;
  double lookup_ns_per_pkg = 0.0;
  double step_ns_per_pkg = 0.0;  ///< StreamBatch::step, lookup included
};
StandalonePasses standalone_passes(const detect::CombinedDetector& detector,
                                   const Traffic& traffic, std::size_t shards);

/// Serialized model bytes (for identity checks).
std::string model_bytes(const detect::CombinedDetector& detector);

RunResult run_workload(const Options& opt);

}  // namespace mlad::e2e

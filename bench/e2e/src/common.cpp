#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "bench.hpp"
#include "detect/serialize.hpp"
#include "ics/simulator.hpp"

namespace mlad::e2e {

std::uint64_t wait_until(std::uint64_t deadline_ns) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= deadline_ns) return now - deadline_ns;
    const std::uint64_t left = deadline_ns - now;
    // Sleeps overshoot by up to the timer slack (~50 us); spin the rest.
    if (left > 300'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200'000));
    } else {
#if defined(__x86_64__)
      _mm_pause();
#endif
    }
  }
}

std::string format_digest(const std::vector<std::uint64_t>& link_hash,
                          const std::vector<std::uint64_t>& link_alarms) {
  std::uint64_t d = 0;
  for (std::size_t l = 0; l < link_hash.size(); ++l) {
    d += mix64(link_hash[l] ^ mix64(l) ^ (link_alarms[l] << 1));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(d));
  return buf;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    s.median = s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(values, n=4), method "exclusive".
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                values[static_cast<std::size_t>(j)] *
                    static_cast<double>(delta)) /
               4.0;
  }
  s.q1 = q[0];
  s.median = q[1];
  s.q3 = q[2];
  return s;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  const double n = static_cast<double>(values.size());
  const std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  const std::size_t idx = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

void LatencyBlocks::add(std::span<const double> unit) {
  open_.insert(open_.end(), unit.begin(), unit.end());
  samples_ += unit.size();
  if (open_.size() >= min_block_) {
    blocks_.push_back(std::move(open_));
    open_.clear();
  }
}

Summary LatencyBlocks::summary(double p) const {
  std::vector<std::vector<double>> blocks = blocks_;
  if (!open_.empty()) {
    if (blocks.empty()) {
      blocks.push_back(open_);
    } else {
      blocks.back().insert(blocks.back().end(), open_.begin(), open_.end());
    }
  }
  std::vector<double> per_block;
  for (std::vector<double>& b : blocks) per_block.push_back(percentile(b, p));
  Summary s = summarize(per_block);
  s.n = samples_;
  return s;
}

// ---- workloads --------------------------------------------------------------

std::vector<std::string> workload_names() {
  return {"serve-8link", "serve-256link-4shard", "tcp-64link-2shard", "train"};
}

WorkloadSpec workload_spec(const std::string& name, bool smoke) {
  // Each serve workload's traffic is a fixed link x cycle budget cut into
  // many short independent sessions: the lockstep gate's wait is a random
  // walk over one wire, so pooling sessions is what keeps a run's alarm
  // latency steady across seeds (README.md, "Sessions").
  WorkloadSpec w;
  w.name = name;
  if (name == "serve-8link") {
    w.driver = Driver::kEngine;
    w.links = 8;
    w.sessions = 64;
    w.cycles = 156;
    w.speed = 1000.0;
  } else if (name == "serve-256link-4shard") {
    w.driver = Driver::kSharded;
    w.links = 256;
    w.sessions = 8;
    w.cycles = 100;
    w.shards = 4;
    w.speed = 50.0;
    w.sigdb = true;
  } else if (name == "tcp-64link-2shard") {
    w.driver = Driver::kTcp;
    w.links = 64;
    w.sessions = 16;
    w.cycles = 125;
    w.shards = 2;
    w.speed = 100.0;
    w.connections = 4;
  } else if (name == "train") {
    w.driver = Driver::kEngine;
    w.train = true;
    w.links = 8;
    w.sessions = 1;
    w.speed = 1000.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (smoke) {
    w.links = std::min<std::size_t>(w.links, 16);
    w.sessions = std::min<std::size_t>(w.sessions, 2);
    w.cycles = 60;
    w.train_cycles = 800;
    w.epochs = 2;
  }
  return w;
}

// ---- inputs -----------------------------------------------------------------

namespace {

/// Simulator seed of the training capture. It is fixed: the model's shape
/// (one-hot input width, signature count) follows the capture, and across
/// capture seeds it moves the NN cost by more than any bound (README.md).
constexpr std::uint64_t kTrainingCaptureSeed = 0x747261696eULL;  // "train"
constexpr std::uint64_t kServeModelSeed = 5;
constexpr std::uint64_t kLinkTag = 0x6c696e6bULL;  // "link"

/// Fills a session's per-frame sequence numbers and paced due times from
/// its merged frames.
void schedule(Session& s, std::size_t links, double speed, Traffic& t) {
  const std::size_t n = s.frames.size();
  s.seq.resize(n);
  s.due_ns.resize(n);
  s.due_by_link.resize(links);
  for (std::size_t l = 0; l < links; ++l) {
    s.due_by_link[l].resize(s.attack[l].size());
  }
  std::vector<std::uint32_t> next(links, 0);
  const double t0 = n > 0 ? s.frames[0].frame.timestamp : 0.0;
  double t_last = t0;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ics::LinkFrame& lf = s.frames[i];
    const std::uint32_t q = next[lf.link]++;
    s.seq[i] = q;
    const double offset = (lf.frame.timestamp - t0) / speed;
    std::uint64_t due =
        offset > 0.0 ? static_cast<std::uint64_t>(std::llround(offset * 1e9))
                     : 0;
    // A frame cannot be sent before the one ahead of it on the wire.
    due = std::max(due, prev);
    prev = due;
    s.due_ns[i] = due;
    s.due_by_link[lf.link][q] = due;
    t_last = std::max(t_last, lf.frame.timestamp);
  }
  t.capture_seconds += t_last - t0;
  t.frames += n;
  for (const auto& link : s.attack) {
    t.attacks += static_cast<std::size_t>(
        std::count(link.begin(), link.end(), std::uint8_t{1}));
  }
  t.sessions.push_back(std::move(s));
}

}  // namespace

TrainingData make_training_data(std::size_t cycles) {
  ics::SimulatorConfig cfg;
  cfg.cycles = cycles;
  cfg.seed = kTrainingCaptureSeed;
  ics::GasPipelineSimulator sim(cfg);
  const ics::SimulationResult simulated = sim.run();

  TrainingData data;
  data.frames.reserve(simulated.packages.size());
  for (const ics::Package& p : simulated.packages) {
    data.frames.push_back(ics::package_to_frame(p));
  }
  ics::FrameDecoder decoder;
  data.packages = decoder.decode_all(data.frames);
  if (data.packages.size() != simulated.packages.size()) {
    throw std::runtime_error("training capture: decode changed the length");
  }
  for (std::size_t i = 0; i < data.packages.size(); ++i) {
    data.packages[i].label = simulated.packages[i].label;
  }
  return data;
}

Traffic make_traffic(std::uint64_t seed, const WorkloadSpec& spec) {
  Traffic t;
  t.links = spec.links;
  const std::uint64_t base = mix64(seed ^ kLinkTag);
  for (std::size_t k = 0; k < spec.sessions; ++k) {
    Session s;
    s.attack.resize(spec.links);
    std::vector<ics::Capture> captures(spec.links);
    for (std::size_t l = 0; l < spec.links; ++l) {
      ics::SimulatorConfig cfg;
      cfg.cycles = spec.cycles;
      cfg.seed = mix64(base + k * spec.links + l);
      ics::GasPipelineSimulator sim(cfg);
      const ics::SimulationResult simulated = sim.run();
      captures[l].reserve(simulated.packages.size());
      s.attack[l].reserve(simulated.packages.size());
      for (const ics::Package& p : simulated.packages) {
        captures[l].push_back(ics::package_to_frame(p));
        s.attack[l].push_back(p.is_attack() ? 1 : 0);
      }
    }
    s.frames = ics::merge_captures(captures);
    schedule(s, spec.links, spec.speed, t);
  }
  return t;
}

Traffic test_split_traffic(const TrainingData& data,
                           std::span<const ics::Package> test,
                           const WorkloadSpec& spec) {
  // split_dataset's test split is the capture's last test.size() packages.
  // It is cut into spec.links contiguous near-equal segments (longer ones
  // first, as evaluate_framework's multi-stream mode cuts it), each re-timed
  // to start at 0 so the segments run side by side as links.
  const std::size_t n = test.size();
  const std::size_t links = std::min(spec.links, n);
  const std::size_t first = data.frames.size() - n;
  Session s;
  s.attack.resize(links);
  std::vector<ics::Capture> captures(links);
  for (std::size_t l = 0, at = 0; l < links; ++l) {
    const std::size_t len = n / links + (l < n % links ? 1 : 0);
    const double t0 = data.frames[first + at].timestamp;
    for (std::size_t i = at; i < at + len; ++i) {
      ics::RawFrame frame = data.frames[first + i];
      frame.timestamp -= t0;
      captures[l].push_back(std::move(frame));
      s.attack[l].push_back(test[i].is_attack() ? 1 : 0);
    }
    at += len;
  }
  s.frames = ics::merge_captures(captures);
  Traffic t;
  t.links = links;
  schedule(s, links, spec.speed, t);
  return t;
}

detect::PipelineConfig model_config(const WorkloadSpec& spec,
                                    std::uint64_t seed) {
  detect::PipelineConfig cfg;
  cfg.combined.timeseries.hidden_dims = {64};
  cfg.combined.timeseries.epochs = spec.epochs;
  cfg.combined.timeseries.batch_size = 8;
  cfg.combined.timeseries.threads = 1;
  cfg.seed = spec.train ? mix64(seed) : kServeModelSeed;
  return cfg;
}

std::string model_bytes(const detect::CombinedDetector& detector) {
  std::ostringstream out;
  detect::save_framework(out, detector);
  return out.str();
}

// ---- results ----------------------------------------------------------------

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"throughput_kpps", "kpkg/s", "higher"},
      {"cpu_us_per_pkg", "us", "lower"},
      {"alarm_p50_ms", "ms", "lower"},
      {"alarm_p999_ms", "ms", "lower"},
      {"f1", "ratio", "higher"},
      {"setup_s", "s", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"nn.step_us", "us", "lower"},
      {"nn.step_ns_per_pkg", "ns", "lower"},
      {"nn.train_epoch_s", "s", "lower"},
      {"detect.choose_k_s", "s", "lower"},
      {"detect.package_build_s", "s", "lower"},
      {"detect.eval_us_per_pkg", "us", "lower"},
      {"detect.lookup_us", "us", "lower"},
      {"detect.lookup_ns_per_pkg", "ns", "lower"},
      {"detect.bloom_alarm_frac", "ratio", "higher"},
      {"detect.lstm_alarm_frac", "ratio", "higher"},
      {"serve.queue_wait_us", "us", "lower"},
      {"serve.mean_batch", "rows", "higher"},
      {"serve.tick_us", "us", "lower"},
      {"serve.dispatch_us", "us", "lower"},
      {"serve.push_ns", "ns", "lower"},
      {"serve.producer_block_frac", "ratio", "lower"},
      {"serve.peak_queue_depth", "count", "lower"},
      {"serve.sink_ns", "ns", "lower"},
      {"serve.residual_ns_per_pkg", "ns", "lower"},
      {"ingest.next_ns", "ns", "lower"},
      {"ingest.malformed", "count", "lower"},
      {"ics.decode_ns", "ns", "lower"},
      {"obs.trace_overhead_pct", "%", "lower"},
      {"gen.late_p99_us", "us", "lower"},
  };
  return defs;
}

namespace {
const MetricDef& find_def(const std::vector<MetricDef>& defs,
                          const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return d;
  }
  throw std::logic_error("undeclared metric " + name);
}
}  // namespace

bool RunResult::correct() const {
  if (checks.empty()) return false;
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  return true;
}

void RunResult::add_e2e(const std::string& name, Summary s) {
  const MetricDef& d = find_def(end_to_end_defs(), name);
  end_to_end.push_back({name, d.unit, d.better, s});
}

void RunResult::add_layer(const std::string& name, double value) {
  const MetricDef& d = find_def(per_layer_defs(), name);
  Summary s;
  s.median = s.q1 = s.q3 = value;
  s.n = 1;
  per_layer.push_back({name, d.unit, d.better, s});
}

}  // namespace mlad::e2e

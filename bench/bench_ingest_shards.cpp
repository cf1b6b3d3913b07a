// Shard scaling of the ingestion serve path (DESIGN.md §10): wires of
// 64–1000 links, partitioned onto 1/2/4/8 engine shards by the consistent
// link hash, classified through per-shard lockstep engines.
//
// Two timings per configuration, both reported:
//
//   · critical_path_s — each shard's engine timed IN ISOLATION; the max is
//     the wall time a deployment with >= shards cores sees (shards share
//     nothing on the classification path). This is the scaling metric: it
//     is meaningful even when the bench box has fewer cores than shards.
//   · wall_s — the real threaded ShardedEngine (pump + SPSC queues +
//     shard threads) on THIS box; on a box with fewer cores than shards it
//     degenerates to ~the 1-shard time plus queueing overhead, which is
//     exactly what it should show there.
//
// `hardware_threads` is recorded next to both so neither can be misread.
// The determinism cross-check re-runs the 64-link wire at several shard
// counts and requires every link's alarm stream to match the unsharded
// lockstep engine bitwise (the §10 contract).
//
// Output: human table on stdout; `--json out.json` writes the committed
// BENCH_ingest.json (validated in CI by tools/check_bench_json.py).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "common/spsc_queue.hpp"
#include "common/stopwatch.hpp"
#include "detect/pipeline.hpp"
#include "ics/capture.hpp"
#include "ics/link_mux.hpp"
#include "ics/simulator.hpp"
#include "ingest/package_source.hpp"
#include "ingest/shard_router.hpp"
#include "serve/alarm_sink.hpp"
#include "serve/monitor_engine.hpp"
#include "serve/sharded_engine.hpp"

namespace {

using namespace mlad;

constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
constexpr std::size_t kLinkCounts[] = {64, 256, 1000};
constexpr double kCriterionSpeedup = 2.5;  ///< 4 shards vs 1, 64-link wire

struct ShardRun {
  std::size_t shards = 0;
  double critical_path_s = 0.0;  ///< max isolated per-shard time
  double wall_s = 0.0;           ///< threaded ShardedEngine on this box
  double cpu_us_per_package = 0.0;
  std::size_t max_shard_links = 0;
};

struct LinkScale {
  std::size_t links = 0;
  std::uint64_t packages = 0;
  std::vector<ShardRun> runs;
  double speedup_critical_4v1 = 0.0;
  double speedup_wall_4v1 = 0.0;
};

/// L links over a small pool of distinct simulated captures (streams are
/// independent, so links may share traffic without touching each other's
/// verdicts; distinct seeds in the pool keep the wire non-degenerate).
std::vector<ics::LinkFrame> make_wire(std::size_t links) {
  static std::vector<ics::Capture> pool;
  if (pool.empty()) {
    for (std::size_t i = 0; i < 8; ++i) {
      ics::SimulatorConfig cfg;
      cfg.cycles = 75;
      cfg.seed = 9000 + i;
      ics::GasPipelineSimulator sim(cfg);
      const ics::SimulationResult result = sim.run();
      ics::Capture capture;
      capture.reserve(result.packages.size());
      for (const auto& p : result.packages) {
        capture.push_back(ics::package_to_frame(p));
      }
      pool.push_back(std::move(capture));
    }
  }
  std::vector<ics::Capture> captures;
  std::vector<ics::LinkId> ids;
  captures.reserve(links);
  for (std::size_t i = 0; i < links; ++i) {
    captures.push_back(pool[i % pool.size()]);
    ids.push_back(static_cast<ics::LinkId>(i));
  }
  return ics::merge_captures(captures, ids);
}

/// Split the wire into per-shard sub-wires (order preserved per shard —
/// exactly what each shard's SPSC queue would deliver).
std::vector<std::vector<ics::LinkFrame>> partition(
    const std::vector<ics::LinkFrame>& wire, std::size_t shards) {
  std::vector<std::vector<ics::LinkFrame>> parts(shards);
  for (const ics::LinkFrame& lf : wire) {
    parts[ingest::shard_of(lf.link, shards)].push_back(lf);
  }
  return parts;
}

LinkScale bench_links(const detect::CombinedDetector& detector,
                      std::size_t links) {
  LinkScale scale;
  scale.links = links;
  const std::vector<ics::LinkFrame> wire = make_wire(links);

  // Warm pass: kernel dispatch, page-in, batch growth.
  {
    serve::MonitorEngine engine(detector, nullptr);
    engine.replay(wire);
    scale.packages = engine.stats().packages;
  }

  for (const std::size_t shards : kShardCounts) {
    ShardRun run;
    run.shards = shards;

    // Critical path: each shard in isolation, sequentially.
    const auto parts = partition(wire, shards);
    double total_us = 0.0;
    for (const auto& part : parts) {
      std::size_t shard_links = 0;
      {
        std::vector<char> seen(links, 0);
        for (const ics::LinkFrame& lf : part) seen[lf.link] = 1;
        for (const char c : seen) shard_links += c != 0;
      }
      run.max_shard_links = std::max(run.max_shard_links, shard_links);
      serve::MonitorEngine engine(detector, nullptr);
      Stopwatch sw;
      engine.replay(part);
      const double secs = sw.elapsed_seconds();
      run.critical_path_s = std::max(run.critical_path_s, secs);
      total_us += static_cast<double>(engine.stats().classify_ns) * 1e-3;
    }
    run.cpu_us_per_package =
        scale.packages > 0 ? total_us / static_cast<double>(scale.packages)
                           : 0.0;

    // Real threaded wall time on this box.
    {
      serve::ShardedEngineConfig cfg;
      cfg.shards = shards;
      cfg.queue_capacity = kQueueCapacity;
      serve::ShardedEngine engine(detector, nullptr, cfg);
      ingest::CaptureSource source(wire);
      Stopwatch sw;
      engine.run(source);
      run.wall_s = sw.elapsed_seconds();
    }

    std::printf(
        "  links %4zu  shards %zu  critical path %7.3f s  wall %7.3f s  "
        "%6.2f cpu-us/pkg  (largest shard: %zu links)\n",
        links, shards, run.critical_path_s, run.wall_s,
        run.cpu_us_per_package, run.max_shard_links);
    scale.runs.push_back(run);
  }

  const auto find = [&](std::size_t shards) -> const ShardRun& {
    for (const ShardRun& r : scale.runs) {
      if (r.shards == shards) return r;
    }
    throw std::logic_error("missing shard run");
  };
  scale.speedup_critical_4v1 =
      find(4).critical_path_s > 0
          ? find(1).critical_path_s / find(4).critical_path_s
          : 0.0;
  scale.speedup_wall_4v1 =
      find(4).wall_s > 0 ? find(1).wall_s / find(4).wall_s : 0.0;
  std::printf("  links %4zu  speedup 4 shards vs 1: %.2fx critical-path, "
              "%.2fx wall on this box\n",
              links, scale.speedup_critical_4v1, scale.speedup_wall_4v1);
  return scale;
}

/// §10 contract: per-link alarm streams identical to the unsharded
/// lockstep engine for every shard count.
bool verify_determinism(const detect::CombinedDetector& detector) {
  const std::vector<ics::LinkFrame> wire = make_wire(64);
  struct Key {
    ics::LinkId link;
    std::uint64_t seq;
    double time;
    bool bloom, lstm;
    bool operator==(const Key&) const = default;
    bool operator<(const Key& o) const {
      return std::tie(link, seq) < std::tie(o.link, o.seq);
    }
  };
  const auto keys = [](const std::vector<serve::AlarmEvent>& events) {
    std::vector<Key> out;
    for (const serve::AlarmEvent& e : events) {
      out.push_back({e.link, e.seq, e.time, e.verdict.package_level,
                     e.verdict.timeseries_level});
    }
    // Per-link order is what the contract fixes; the cross-link
    // interleaving legitimately depends on shard scheduling.
    std::sort(out.begin(), out.end());
    return out;
  };

  serve::CountingAlarmSink base_sink;
  serve::MonitorEngine baseline(detector, &base_sink);
  baseline.replay(wire);
  const auto want = keys(base_sink.events());

  bool ok = !want.empty();
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    serve::CountingAlarmSink sink;
    serve::ShardedEngineConfig cfg;
    cfg.shards = shards;
    serve::ShardedEngine engine(detector, &sink, cfg);
    ingest::CaptureSource source(wire);
    engine.run(source);
    const bool match = keys(sink.events()) == want;
    std::printf("  determinism %zu shards vs lockstep: %s\n", shards,
                match ? "bit-identical" : "MISMATCH");
    ok = ok && match;
  }
  return ok;
}

/// Ingest ceiling: route + queue + drain, no classification.
double bench_pump_mframes_per_s() {
  const std::vector<ics::LinkFrame> wire = make_wire(64);
  SpscQueue<ics::LinkFrame> queue(kQueueCapacity);
  std::uint64_t drained = 0;
  std::thread consumer([&] {
    ics::LinkFrame lf;
    while (queue.pop(lf)) ++drained;
  });
  Stopwatch sw;
  for (const ics::LinkFrame& lf : wire) {
    (void)ingest::shard_of(lf.link, 4);
    queue.push(lf);
  }
  queue.close();
  consumer.join();
  const double secs = sw.elapsed_seconds();
  return secs > 0
             ? static_cast<double>(drained) / secs / 1e6
             : 0.0;
}

void write_json(const std::string& path, const bench::Scale& scale,
                std::size_t hw, double pump_mfps,
                const std::vector<LinkScale>& scales, bool deterministic,
                double criterion_speedup) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_ingest_shards\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.name);
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw);
  std::fprintf(f, "  \"queue_capacity\": %zu,\n", kQueueCapacity);
  std::fprintf(f,
               "  \"measurement\": \"critical_path_s times each shard's "
               "engine in isolation (shards share nothing on the "
               "classification path), so max-over-shards is the wall time "
               "of a deployment with >= shards cores; wall_s is the real "
               "threaded pump+queues+shards pipeline on this "
               "hardware_threads-core box\",\n");
  std::fprintf(f, "  \"pump_only_mframes_per_s\": %.3f,\n", pump_mfps);
  std::fprintf(f, "  \"links\": {\n");
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const LinkScale& s = scales[i];
    std::fprintf(f, "    \"%zu\": {\n", s.links);
    std::fprintf(f, "      \"packages\": %llu,\n",
                 static_cast<unsigned long long>(s.packages));
    std::fprintf(f, "      \"shards\": {\n");
    for (std::size_t j = 0; j < s.runs.size(); ++j) {
      const ShardRun& r = s.runs[j];
      std::fprintf(f,
                   "        \"%zu\": {\"critical_path_s\": %.4f, "
                   "\"wall_s\": %.4f, \"cpu_us_per_package\": %.3f, "
                   "\"max_shard_links\": %zu}%s\n",
                   r.shards, r.critical_path_s, r.wall_s,
                   r.cpu_us_per_package, r.max_shard_links,
                   j + 1 < s.runs.size() ? "," : "");
    }
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"speedup_critical_4shards_vs_1\": %.3f,\n",
                 s.speedup_critical_4v1);
    std::fprintf(f, "      \"speedup_wall_4shards_vs_1\": %.3f\n",
                 s.speedup_wall_4v1);
    std::fprintf(f, "    }%s\n", i + 1 < scales.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"per_link_verdicts_match_isolated\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"criterion\": {\n");
  std::fprintf(f, "    \"required_speedup_4shards_vs_1\": %.1f,\n",
               kCriterionSpeedup);
  std::fprintf(f,
               "    \"measured_speedup_4shards_vs_1_64links\": %.3f,\n",
               criterion_speedup);
  std::fprintf(f, "    \"metric\": \"critical_path\",\n");
  std::fprintf(f, "    \"met\": %s\n",
               criterion_speedup >= kCriterionSpeedup ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const bench::Scale scale = bench::scale_from_env();
  bench::print_header("bench_ingest_shards — sharded ingestion serve",
                      scale);
  const std::size_t hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %zu\n", hw);

  // A quick converged detector: the workload under test is the serve path,
  // not training.
  ics::SimulatorConfig sim_cfg;
  sim_cfg.cycles = std::min<std::size_t>(scale.cycles, 4000);
  sim_cfg.seed = 1234;
  ics::GasPipelineSimulator sim(sim_cfg);
  detect::PipelineConfig pipe_cfg = bench::pipeline_config(scale);
  pipe_cfg.combined.timeseries.epochs =
      std::min<std::size_t>(scale.epochs, 4);
  pipe_cfg.combined.timeseries.batch_size = 8;
  const detect::TrainedFramework fw =
      detect::train_framework(sim.run().packages, pipe_cfg);
  const detect::CombinedDetector& detector = *fw.detector;

  std::printf("pump-only ingest path (route + queue, no classify):\n");
  const double pump_mfps = bench_pump_mframes_per_s();
  std::printf("  %.2f Mframes/s\n", pump_mfps);

  std::printf("shard scaling:\n");
  std::vector<LinkScale> scales;
  for (const std::size_t links : kLinkCounts) {
    scales.push_back(bench_links(detector, links));
  }

  std::printf("determinism cross-check (64-link wire):\n");
  const bool deterministic = verify_determinism(detector);

  const double criterion_speedup = scales.front().speedup_critical_4v1;
  std::printf(
      "criterion: %.2fx critical-path speedup at 4 shards vs 1 on the "
      "64-link wire (threshold %.1fx) — %s\n",
      criterion_speedup, kCriterionSpeedup,
      criterion_speedup >= kCriterionSpeedup ? "MET" : "NOT MET");

  if (!json_path.empty()) {
    write_json(json_path, scale, hw, pump_mfps, scales, deterministic,
               criterion_speedup);
  }
  return deterministic && criterion_speedup >= kCriterionSpeedup ? 0 : 1;
}

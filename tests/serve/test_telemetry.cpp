// Serve telemetry (DESIGN.md §14): attaching a MetricsRegistry must be
// invisible to classification — per-link verdicts bit-identical with
// telemetry on or off — while the registry mirrors every field of the
// EngineStats, IngestStats and SourceHealth tables exactly and the stage
// histograms count one sample per unit of work.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "detect/pipeline.hpp"
#include "ics/capture.hpp"
#include "ics/features.hpp"
#include "ics/link_mux.hpp"
#include "ics/simulator.hpp"
#include "ingest/faulty_source.hpp"
#include "ingest/package_source.hpp"
#include "obs/metrics.hpp"
#include "obs/stat_fields.hpp"
#include "serve/monitor_engine.hpp"
#include "serve/sharded_engine.hpp"

namespace mlad::serve {
namespace {

struct Fixture {
  detect::TrainedFramework framework;
  std::vector<ics::LinkFrame> wire;  ///< three links interleaved by time

  Fixture() {
    ics::SimulatorConfig sim_cfg;
    sim_cfg.cycles = 1200;
    sim_cfg.seed = 77;
    ics::GasPipelineSimulator sim(sim_cfg);
    const ics::SimulationResult train_capture = sim.run();

    detect::PipelineConfig cfg;
    cfg.combined.timeseries.hidden_dims = {24};
    cfg.combined.timeseries.epochs = 2;
    cfg.combined.timeseries.batch_size = 8;
    cfg.seed = 3;
    framework = detect::train_framework(train_capture.packages, cfg);

    std::vector<ics::Capture> captures;
    const std::size_t cycles[] = {350, 280, 200};
    for (std::size_t i = 0; i < std::size(cycles); ++i) {
      ics::SimulatorConfig live_cfg = sim_cfg;
      live_cfg.cycles = cycles[i];
      live_cfg.seed = 2000 + i;
      ics::GasPipelineSimulator live(live_cfg);
      const ics::SimulationResult result = live.run();
      ics::Capture capture;
      capture.reserve(result.packages.size());
      for (const auto& p : result.packages) {
        capture.push_back(ics::package_to_frame(p));
      }
      captures.push_back(std::move(capture));
    }
    wire = ics::merge_captures(captures);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

struct AlarmKey {
  ics::LinkId link;
  std::uint64_t seq;
  bool bloom;
  double time;

  bool operator==(const AlarmKey&) const = default;
};

std::vector<AlarmKey> keys(const std::vector<AlarmEvent>& events) {
  std::vector<AlarmKey> out;
  for (const AlarmEvent& e : events) {
    out.push_back({e.link, e.seq, e.verdict.package_level, e.time});
  }
  return out;
}

EngineStats run_engine(const Fixture& f, obs::MetricsRegistry* metrics,
                       std::vector<AlarmKey>* alarms) {
  CountingAlarmSink sink;
  MonitorEngineConfig cfg;
  cfg.metrics = metrics;
  MonitorEngine engine(*f.framework.detector, &sink, cfg);
  engine.replay(f.wire);
  *alarms = keys(sink.events());
  return engine.stats();
}

/// The snapshot holds `stats` field by field, each in the instrument its
/// merge rule names: a counter for kSum, a gauge for kMax — never both.
template <typename T, std::size_t N>
void expect_registry_holds(const obs::MetricsSnapshot& snap,
                           const std::array<obs::StatField<T>, N>& table,
                           const T& stats) {
  for (const obs::StatField<T>& f : table) {
    const bool sum = f.merge == obs::Merge::kSum;
    const std::uint64_t* counter = snap.counter(f.name);
    const std::uint64_t* gauge = snap.gauge(f.name);
    const std::uint64_t* held = sum ? counter : gauge;
    ASSERT_NE(held, nullptr) << f.name;
    EXPECT_EQ(sum ? gauge : counter, nullptr)
        << f.name << " registered as both kinds";
    EXPECT_EQ(*held, stats.*f.member) << f.name;
  }
}

/// Pins one table: its exported names in order, which fields take the max,
/// and that merge_stats and a registry fed by three owners agree field by
/// field. Every field gets distinct values and the max sits on the middle
/// owner, so neither a sum/max mix-up nor a first/last shortcut can pass.
template <typename T, std::size_t N>
T expect_table_contract(const std::array<obs::StatField<T>, N>& table,
                        const std::vector<std::string_view>& names,
                        const std::vector<std::string_view>& max_fields) {
  const auto is_max = [&](std::string_view name) {
    return std::find(max_fields.begin(), max_fields.end(), name) !=
           max_fields.end();
  };
  std::vector<std::string_view> got;
  for (const obs::StatField<T>& f : table) {
    got.push_back(f.name);
    EXPECT_EQ(f.merge, is_max(f.name) ? obs::Merge::kMax : obs::Merge::kSum)
        << f.name;
  }
  EXPECT_EQ(got, names);
  for (const std::string_view m : max_fields) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), m) != names.end())
        << m;
  }

  std::vector<T> owners(3);
  for (std::size_t i = 0; i < N; ++i) {
    owners[0].*table[i].member = 10 + i;
    owners[1].*table[i].member = 500 + i;
    owners[2].*table[i].member = 20 + i;
  }
  const T merged = obs::merge_stats(owners, table);
  for (std::size_t i = 0; i < N; ++i) {
    EXPECT_EQ(merged.*table[i].member,
              is_max(table[i].name) ? 500 + i : 530 + 3 * i)
        << table[i].name;
  }
  obs::MetricsRegistry reg;
  for (const T& owner : owners) obs::StatMirror<T>(reg, table).publish(owner);
  expect_registry_holds(reg.snapshot(), table, merged);
  return merged;
}

TEST(StatFields, EngineStatsTable) {
  const EngineStats m = expect_table_contract(
      kEngineStatFields,
      {"engine_frames_total", "engine_packages_total", "engine_ticks_total",
       "engine_partial_ticks_total",
       "engine_alarms_total", "engine_package_level_alarms_total",
       "engine_timeseries_level_alarms_total", "engine_decode_failures_total",
       "engine_links_seen_total", "engine_links_retired_total",
       "engine_links_parked_total", "engine_peak_links",
       "engine_peak_pending", "engine_model_version",
       "engine_model_swaps_total", "engine_rollbacks_total",
       "engine_straggler_closes_total", "engine_classify_ns_total",
       "engine_adapt_ns_total"},
      {"engine_peak_links", "engine_peak_pending", "engine_model_version"});
  EXPECT_DOUBLE_EQ(m.us_per_package(),
                   static_cast<double>(m.classify_ns) * 1e-3 /
                       static_cast<double>(m.packages));
}

TEST(StatFields, IngestStatsTable) {
  expect_table_contract(kIngestStatFields,
                        {"ingest_frames_routed_total",
                         "ingest_producer_blocks_total",
                         "ingest_peak_queue_depth"},
                        {"ingest_peak_queue_depth"});
}

TEST(StatFields, SourceHealthTable) {
  expect_table_contract(
      ingest::kSourceHealthFields,
      {"source_malformed_total", "source_truncated_total",
       "source_connections_total", "source_reconnects_total",
       "source_duplicates_discarded_total", "source_records_lost_total",
       "source_faults_injected_total"},
      {});
}

TEST(ServeTelemetry, VerdictsBitIdenticalWithRegistryAttached) {
  const Fixture& f = fixture();
  std::vector<AlarmKey> plain_alarms;
  std::vector<AlarmKey> telemetered_alarms;
  const EngineStats plain = run_engine(f, nullptr, &plain_alarms);
  obs::MetricsRegistry reg;
  const EngineStats telemetered =
      run_engine(f, &reg, &telemetered_alarms);

  EXPECT_EQ(plain.packages, telemetered.packages);
  EXPECT_EQ(plain.ticks, telemetered.ticks);
  EXPECT_EQ(plain.alarms, telemetered.alarms);
  EXPECT_EQ(plain_alarms, telemetered_alarms)
      << "telemetry changed a verdict";
}

// Every EngineStats field after a real run, not just the busy ones: a
// straggler ladder on a clock that advances one unit per pushed frame
// makes the straggler counters move.
TEST(ServeTelemetry, RegistryMirrorsEveryEngineStatsField) {
  const Fixture& f = fixture();
  obs::MetricsRegistry reg;
  MonitorEngineConfig cfg;
  cfg.metrics = &reg;
  cfg.park_after_ms = 16;
  MonitorEngine engine(*f.framework.detector, nullptr, cfg);
  double now = 0.0;
  for (const ics::LinkFrame& lf : f.wire) {
    engine.push(lf.link, lf.frame);
    engine.sweep(++now);
  }
  engine.finish();
  const EngineStats s = engine.stats();
  EXPECT_GT(s.links_parked, 0u);
  EXPECT_GT(s.classify_ns, 0u);
  expect_registry_holds(reg.snapshot(), kEngineStatFields, s);
}

TEST(ServeTelemetry, StageHistogramsCountUnitsOfWork) {
  const Fixture& f = fixture();
  obs::MetricsRegistry reg;
  std::vector<AlarmKey> alarms;
  const EngineStats s = run_engine(f, &reg, &alarms);
  const obs::MetricsSnapshot snap = reg.snapshot();

  // Per-frame stages sample 1-in-kStageSampleEvery frames (indices 0, N,
  // 2N, …); per-tick stages record once per gate release.
  const std::uint64_t sampled =
      (s.frames + MonitorEngine::kStageSampleEvery - 1) /
      MonitorEngine::kStageSampleEvery;
  EXPECT_EQ(snap.histogram("stage_decode_ns")->count, sampled);
  EXPECT_EQ(snap.histogram("stage_queue_wait_ns")->count, sampled);
  EXPECT_EQ(snap.histogram("stage_tick_ns")->count, s.ticks);
  EXPECT_EQ(snap.histogram("stage_dispatch_ns")->count, s.ticks);
  EXPECT_EQ(snap.histogram("stage_lookup_ns")->count, s.ticks);
  EXPECT_EQ(snap.histogram("stage_nn_ns")->count, s.ticks);
  // Latency sums are real measurements, not zero-filled placeholders.
  EXPECT_GT(snap.histogram("stage_tick_ns")->sum_ns, 0u);
}

// A sharded run through run(): the engine, pump and source tables all
// mirror the engine's own accessors. A tiny queue makes the pump block, and
// a fault schedule makes the source counters move.
TEST(ServeTelemetry, ShardedRunMirrorsEngineIngestAndSourceStats) {
  const Fixture& f = fixture();
  obs::MetricsRegistry reg;
  ShardedEngineConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 4;
  cfg.engine.metrics = &reg;
  ShardedEngine engine(*f.framework.detector, nullptr, cfg);
  ingest::FaultySource source(
      std::make_unique<ingest::CaptureSource>(f.wire),
      ingest::FaultSpec::parse("seed=5,drop=0.02"));
  engine.run(source);

  const obs::MetricsSnapshot snap = reg.snapshot();
  expect_registry_holds(snap, kEngineStatFields, engine.stats());
  expect_registry_holds(snap, kIngestStatFields, engine.ingest_stats());
  expect_registry_holds(snap, ingest::kSourceHealthFields,
                        engine.source_health());
  EXPECT_GT(engine.source_health().faults_injected, 0u);
  EXPECT_EQ(engine.ingest_stats().frames_routed, engine.stats().frames);
}

}  // namespace
}  // namespace mlad::serve

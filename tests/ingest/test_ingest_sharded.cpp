// Sharded serve path (serve/sharded_engine.hpp, DESIGN.md §10). The load-
// bearing contract: for ANY shard count, every link's verdict sequence is
// bit-identical to the single unsharded lockstep engine — sharding, like
// batching before it, is a pure throughput optimization. Also covered:
// consistent link→shard hashing, lossless backpressure through tiny
// queues, stats aggregation, lifecycle guards, and an allocation-free warm
// pump → queue → shard hop, ticking in lockstep or ready-only.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "detect/pipeline.hpp"
#include "ics/capture.hpp"
#include "ics/simulator.hpp"
#include "ingest/package_source.hpp"
#include "ingest/shard_router.hpp"
#include "serve/monitor_engine.hpp"
#include "serve/sharded_engine.hpp"
#include "support/alloc_counter.hpp"

namespace mlad::serve {
namespace {

TEST(ShardRouter, DeterministicInRangeAndCovering) {
  for (const std::size_t shards : {1u, 2u, 3u, 4u, 7u, 16u}) {
    std::set<std::size_t> hit;
    for (ics::LinkId link = 0; link < 512; ++link) {
      const std::size_t s = ingest::shard_of(link, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ingest::shard_of(link, shards)) << "not deterministic";
      hit.insert(s);
    }
    EXPECT_EQ(hit.size(), shards) << "some shard owns no links";
  }
  EXPECT_EQ(ingest::shard_of(12345, 1), 0u);
  EXPECT_THROW(ingest::shard_of(0, 0), std::invalid_argument);
}

TEST(ShardRouter, SpreadsDenseAndStridedIdsReasonably) {
  // Dense 0..63 and strided ids must not collapse onto few shards — the
  // reason the router hashes instead of taking link % N.
  for (const ics::LinkId stride : {1u, 2u, 8u, 10u}) {
    std::map<std::size_t, std::size_t> counts;
    for (ics::LinkId i = 0; i < 64; ++i) {
      ++counts[ingest::shard_of(i * stride, 4)];
    }
    ASSERT_EQ(counts.size(), 4u) << "stride " << stride;
    for (const auto& [shard, n] : counts) {
      EXPECT_GE(n, 4u) << "shard " << shard << " starved at stride "
                       << stride;
      EXPECT_LE(n, 32u) << "shard " << shard << " overloaded at stride "
                        << stride;
    }
  }
}

struct Fixture {
  detect::TrainedFramework framework;
  std::vector<ics::Capture> captures;
  std::vector<ics::LinkFrame> wire;

  Fixture() {
    ics::SimulatorConfig sim_cfg;
    sim_cfg.cycles = 1200;
    sim_cfg.seed = 777;
    ics::GasPipelineSimulator sim(sim_cfg);
    const ics::SimulationResult train_capture = sim.run();

    detect::PipelineConfig cfg;
    cfg.combined.timeseries.hidden_dims = {24};
    cfg.combined.timeseries.epochs = 2;
    cfg.combined.timeseries.batch_size = 8;
    cfg.seed = 3;
    framework = detect::train_framework(train_capture.packages, cfg);

    const std::size_t cycles[] = {240, 190, 150, 120, 90};
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

/// Everything that identifies one alarm bitwise.
struct AlarmKey {
  std::uint64_t seq;
  double time;
  bool bloom;
  bool lstm;

  bool operator==(const AlarmKey&) const = default;
};

std::map<ics::LinkId, std::vector<AlarmKey>> per_link_keys(
    const std::vector<AlarmEvent>& events) {
  std::map<ics::LinkId, std::vector<AlarmKey>> out;
  for (const AlarmEvent& e : events) {
    out[e.link].push_back({e.seq, e.time, e.verdict.package_level,
                           e.verdict.timeseries_level});
  }
  return out;
}

TEST(ShardedEngine, AnyShardCountMatchesUnshardedLockstepBitwise) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  // Ground truth: the single unsharded lockstep engine on the same wire.
  CountingAlarmSink base_sink;
  MonitorEngine baseline(det, &base_sink);
  baseline.replay(f.wire);
  const auto want = per_link_keys(base_sink.events());
  ASSERT_FALSE(want.empty()) << "fixture produced no alarms to compare";

  for (const std::size_t shards : {1u, 2u, 4u}) {
    CountingAlarmSink sink;
    ShardedEngineConfig cfg;
    cfg.shards = shards;
    ShardedEngine engine(det, &sink, cfg);
    ingest::CaptureSource source(f.wire);
    EXPECT_EQ(engine.run(source), f.wire.size());

    EXPECT_EQ(per_link_keys(sink.events()), want)
        << shards << " shards diverged from the lockstep engine";
    const EngineStats s = engine.stats();
    EXPECT_EQ(s.frames, baseline.stats().frames);
    EXPECT_EQ(s.packages, baseline.stats().packages);
    EXPECT_EQ(s.alarms, baseline.stats().alarms);
    EXPECT_EQ(s.decode_failures, baseline.stats().decode_failures);
    EXPECT_EQ(s.links_seen, baseline.stats().links_seen);

    // Per-link stats line up with the baseline's, link by link.
    const auto want_links = baseline.link_stats();
    const auto got_links = engine.link_stats();
    ASSERT_EQ(got_links.size(), want_links.size());
    for (std::size_t i = 0; i < want_links.size(); ++i) {
      EXPECT_EQ(got_links[i].first, want_links[i].first);
      EXPECT_EQ(got_links[i].second.packages, want_links[i].second.packages);
      EXPECT_EQ(got_links[i].second.alarms, want_links[i].second.alarms);
      EXPECT_EQ(got_links[i].second.package_level_alarms,
                want_links[i].second.package_level_alarms);
      EXPECT_EQ(got_links[i].second.timeseries_level_alarms,
                want_links[i].second.timeseries_level_alarms);
    }
  }
}

TEST(ShardedEngine, TinyQueuesBackpressureLosslessly) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  CountingAlarmSink sink;
  ShardedEngineConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 2;  // pathological: the pump stalls constantly
  ShardedEngine engine(det, &sink, cfg);
  for (const ics::LinkFrame& lf : f.wire) engine.push(lf);
  engine.finish();

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.frames, f.wire.size()) << "backpressure lost frames";
  const IngestStats in = engine.ingest_stats();
  EXPECT_EQ(in.frames_routed, f.wire.size());
  EXPECT_GE(in.producer_blocks, 1u);
  EXPECT_LE(in.peak_queue_depth, 2u);

  CountingAlarmSink base_sink;
  MonitorEngine baseline(det, &base_sink);
  baseline.replay(f.wire);
  EXPECT_EQ(per_link_keys(sink.events()), per_link_keys(base_sink.events()));
}

TEST(ShardedEngine, PerLinkSinkOrderIsPreserved) {
  const auto& f = fixture();
  CountingAlarmSink sink;
  ShardedEngineConfig cfg;
  cfg.shards = 4;
  ShardedEngine engine(*f.framework.detector, &sink, cfg);
  ingest::CaptureSource source(f.wire);
  engine.run(source);

  // Within each link, arrival order at the (serialized) sink must be
  // classification order: strictly increasing package sequence numbers.
  std::map<ics::LinkId, std::uint64_t> last_seq;
  for (const AlarmEvent& e : sink.events()) {
    if (const auto it = last_seq.find(e.link); it != last_seq.end()) {
      EXPECT_GT(e.seq, it->second) << "link " << e.link << " reordered";
    }
    last_seq[e.link] = e.seq;
  }
}

TEST(ShardedEngine, LifecycleGuards) {
  const auto& f = fixture();
  ShardedEngineConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW(ShardedEngine(*f.framework.detector, nullptr, cfg),
               std::invalid_argument);

  cfg.shards = 2;
  adapt::OnlineTrainer* bogus = reinterpret_cast<adapt::OnlineTrainer*>(0x1);
  cfg.engine.adapter = bogus;
  EXPECT_THROW(ShardedEngine(*f.framework.detector, nullptr, cfg),
               std::invalid_argument);
  cfg.engine.adapter = nullptr;

  ShardedEngine engine(*f.framework.detector, nullptr, cfg);
  EXPECT_THROW((void)engine.stats(), std::logic_error);
  EXPECT_THROW((void)engine.link_stats(), std::logic_error);
  EXPECT_THROW((void)engine.ingest_stats(), std::logic_error);
  EXPECT_THROW((void)engine.source_health(), std::logic_error);
  engine.push(f.wire.front());
  engine.finish();
  engine.finish();  // idempotent
  EXPECT_EQ(engine.stats().frames, 1u);
  EXPECT_THROW(engine.push(f.wire.front()), std::logic_error);
}

/// Counts allocations from the `warm`-th frame it hands out until it runs
/// dry — so a run() over it, which finishes only after the source is
/// exhausted, is counted over its warm steady state alone.
class CountedAfterWarmup final : public ingest::PackageSource {
 public:
  CountedAfterWarmup(ingest::PackageSource& inner, std::size_t warm)
      : inner_(inner), warm_(warm) {}

  bool next(ics::LinkFrame& out) override {
    if (handed_out_ == warm_) test_support::begin_counting_allocations();
    if (!inner_.next(out)) {
      if (handed_out_ >= warm_ && !ended_) {
        allocations_ = test_support::end_counting_allocations();
        ended_ = true;
      }
      return false;
    }
    ++handed_out_;
    return true;
  }

  std::size_t allocations() const { return allocations_; }

 private:
  ingest::PackageSource& inner_;
  const std::size_t warm_;
  std::size_t handed_out_ = 0;
  std::size_t allocations_ = 0;
  bool ended_ = false;
};

TEST(ShardedEngine, WarmPumpAllocatesNothingPerFrame) {
  // Once every ring slot has been constructed and the byte buffers that
  // circulate between the slots and each shard's pop target have grown,
  // push() copies into a slot's reused bytes, pop() swaps them out, and the
  // warm shard engines allocate nothing either. The links take strict
  // turns (as in MonitorEngine.WarmEngineAllocatesNothingPerFrameOrAlarm).
  // Tiny queues keep warm-up short: each shard circulates only capacity + 1
  // buffers (buffer k carries items k, k + capacity + 1, ... whatever the
  // timing), and all but a few counted frames are through their shard
  // before counting stops.
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  std::size_t shortest = f.captures[0].size();
  for (const ics::Capture& c : f.captures) {
    shortest = std::min(shortest, c.size());
  }
  std::vector<ics::LinkFrame> wire;
  for (std::size_t i = 0; i < shortest; ++i) {
    for (std::size_t l = 0; l < f.captures.size(); ++l) {
      wire.push_back({static_cast<ics::LinkId>(l), f.captures[l][i]});
    }
  }
  const std::size_t warm = 50 * f.captures.size();
  ASSERT_GT(wire.size(), 4 * warm);

  const std::string path = ::testing::TempDir() + "warm_pump.jsonl";
  JsonlAlarmSink sink(path);
  ShardedEngineConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 4;
  {
    ShardedEngine engine(det, &sink, cfg);
    for (std::size_t i = 0; i < warm; ++i) {
      engine.push(wire[i].link, wire[i].frame);
    }
    test_support::begin_counting_allocations();
    for (std::size_t i = warm; i < wire.size(); ++i) {
      if (i % 2 == 0) {
        engine.push(wire[i]);
      } else {
        engine.push(wire[i].link, wire[i].frame);
      }
    }
    const std::size_t allocations = test_support::end_counting_allocations();
    engine.finish();
    EXPECT_EQ(engine.stats().frames, wire.size());
    EXPECT_EQ(allocations, 0u)
        << "push() over " << wire.size() - warm << " frames";
  }
  {
    ShardedEngine engine(det, &sink, cfg);
    ingest::CaptureSource source(wire);
    CountedAfterWarmup counted(source, warm);
    EXPECT_EQ(engine.run(counted), wire.size());
    EXPECT_EQ(engine.stats().frames, wire.size());
    EXPECT_EQ(counted.allocations(), 0u)
        << "run(CaptureSource) over " << wire.size() - warm << " frames";
  }
  std::remove(path.c_str());
}

TEST(ShardedEngine, WarmShardTickingReadyOnlyAllocatesNothing) {
  // A pump that pauses after every frame lets each shard's queue run dry,
  // so the shard ticks the one link that has a package and leaves the
  // others behind (MonitorEngine::tick_ready). Once warm that path
  // allocates nothing either, and every link's alarm counts are the
  // unsharded lockstep engine's. Warm-up first pushes a burst, whose full
  // lockstep ticks size every per-tick buffer for all of a shard's links:
  // a paced warm-up alone may never see a tick that large, and the first
  // one would legitimately grow them.
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  std::size_t shortest = f.captures[0].size();
  for (const ics::Capture& c : f.captures) {
    shortest = std::min(shortest, c.size());
  }
  std::vector<ics::LinkFrame> wire;
  for (std::size_t i = 0; i < std::min<std::size_t>(shortest, 120); ++i) {
    for (std::size_t l = 0; l < f.captures.size(); ++l) {
      wire.push_back({static_cast<ics::LinkId>(l), f.captures[l][i]});
    }
  }
  const std::size_t warm = 30 * f.captures.size();
  ASSERT_GT(wire.size(), 3 * warm);

  MonitorEngine baseline(det, nullptr);
  baseline.replay(wire);

  const std::string path = ::testing::TempDir() + "warm_ready_shard.jsonl";
  JsonlAlarmSink sink(path);
  ShardedEngineConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 4;
  ShardedEngine engine(det, &sink, cfg);
  const auto push_paced = [&](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      engine.push(wire[i]);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  for (std::size_t i = 0; i < warm; ++i) engine.push(wire[i]);
  push_paced(warm, 2 * warm);
  test_support::begin_counting_allocations();
  push_paced(2 * warm, wire.size());
  const std::size_t allocations = test_support::end_counting_allocations();
  engine.finish();
  EXPECT_EQ(engine.stats().packages, wire.size());
  EXPECT_GT(engine.stats().partial_ticks, 0u);
  EXPECT_EQ(allocations, 0u)
      << "over " << wire.size() - 2 * warm << " frames";
  const auto links = engine.link_stats();
  const auto base_links = baseline.link_stats();
  ASSERT_EQ(links.size(), base_links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_EQ(links[i].second.packages, base_links[i].second.packages);
    EXPECT_EQ(links[i].second.package_level_alarms,
              base_links[i].second.package_level_alarms);
    EXPECT_EQ(links[i].second.timeseries_level_alarms,
              base_links[i].second.timeseries_level_alarms);
  }
  EXPECT_GT(baseline.stats().alarms, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlad::serve

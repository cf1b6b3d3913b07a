// Serve engine (serve/monitor_engine.hpp): the multi-link refactor's
// contracts. (a) The engine on one link matches the historical
// per-package monitor loop, kept here as the oracle. (b) The engine on a
// merged wire reproduces each link's ISOLATED verdict sequence exactly —
// streams are independent rows, so batching is a pure throughput
// optimization.
// (c) Links join and leave mid-run without disturbing anyone else.
// (d) Thread count changes nothing but wall time.
// (e) Ready-only ticks (tick_ready) at any point change no verdict.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "detect/pipeline.hpp"
#include "ics/capture.hpp"
#include "ics/features.hpp"
#include "ics/link_mux.hpp"
#include "ics/simulator.hpp"
#include "serve/monitor_engine.hpp"
#include "support/alloc_counter.hpp"

namespace mlad::serve {
namespace {

struct Fixture {
  detect::TrainedFramework framework;
  std::vector<ics::Capture> captures;  ///< three live wires, varied lengths

  Fixture() {
    ics::SimulatorConfig sim_cfg;
    sim_cfg.cycles = 1500;
    sim_cfg.seed = 321;
    ics::GasPipelineSimulator sim(sim_cfg);
    const ics::SimulationResult train_capture = sim.run();

    detect::PipelineConfig cfg;
    cfg.combined.timeseries.hidden_dims = {24};
    cfg.combined.timeseries.epochs = 2;
    cfg.combined.timeseries.batch_size = 8;
    cfg.seed = 3;
    framework = detect::train_framework(train_capture.packages, cfg);

    const std::size_t cycles[] = {400, 300, 220};
    for (std::size_t i = 0; i < std::size(cycles); ++i) {
      ics::SimulatorConfig live_cfg = sim_cfg;
      live_cfg.cycles = cycles[i];
      live_cfg.seed = 1000 + i;
      ics::GasPipelineSimulator live(live_cfg);
      const ics::SimulationResult result = live.run();
      ics::Capture capture;
      capture.reserve(result.packages.size());
      for (const auto& p : result.packages) {
        capture.push_back(ics::package_to_frame(p));
      }
      captures.push_back(std::move(capture));
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// (seq, stage, time) triple — enough to compare full verdict sequences:
/// two runs with equal package counts and equal alarm lists have equal
/// verdicts everywhere (non-alarms are the complement).
struct AlarmKey {
  std::uint64_t seq;
  bool bloom;
  double time;

  bool operator==(const AlarmKey&) const = default;
};

std::vector<AlarmKey> keys(const std::vector<AlarmEvent>& events,
                           std::optional<ics::LinkId> link = std::nullopt) {
  std::vector<AlarmKey> out;
  for (const AlarmEvent& e : events) {
    if (link && e.link != *link) continue;
    out.push_back({e.seq, e.verdict.package_level, e.time});
  }
  return out;
}

/// Pushes frames and drives the straggler ladder on a manual clock that
/// advances one unit per pushed frame. On a two-link wire the block time
/// then equals the backlog queued behind the silent link, so ladder
/// thresholds read as package counts.
struct FrameClock {
  MonitorEngine& engine;
  double now = 0.0;

  void push(ics::LinkId link, const ics::RawFrame& frame) {
    engine.push(link, frame);
    engine.sweep(++now);
  }
};

/// The oracle: the pre-engine `mlad monitor` loop, verbatim — one
/// FrameDecoder and one classify_and_consume per package on one stream.
std::vector<AlarmKey> manual_monitor_loop(const detect::CombinedDetector& det,
                                          const ics::Capture& capture) {
  ics::FrameDecoder decoder;
  auto stream = det.make_stream();
  std::vector<AlarmKey> alarms;
  std::optional<double> prev_time;
  std::uint64_t seq = 0;
  for (const ics::RawFrame& frame : capture) {
    const auto decoded = decoder.next(frame);
    const double interval =
        prev_time ? decoded.package.time - *prev_time : 0.0;
    prev_time = decoded.package.time;
    const auto row = ics::to_raw_row(decoded.package, interval);
    const auto verdict = det.classify_and_consume(stream, row);
    if (verdict.anomaly) {
      alarms.push_back({seq, verdict.package_level, decoded.package.time});
    }
    ++seq;
  }
  return alarms;
}

TEST(MonitorEngine, SingleLinkEngineMatchesManualMonitorLoop) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  // Holds exactly on every fixture capture under the scalar, AVX2 and
  // AVX-512 backends alike. With the merged-wire test below this also pins
  // a multi-link wire to N sequential monitors.
  for (std::size_t i = 0; i < f.captures.size(); ++i) {
    const ics::Capture& capture = f.captures[i];
    CountingAlarmSink sink;
    MonitorEngine engine(det, &sink);
    for (const ics::RawFrame& frame : capture) engine.push(0, frame);
    engine.finish();

    EXPECT_EQ(engine.stats().packages, capture.size());
    EXPECT_EQ(keys(sink.events()), manual_monitor_loop(det, capture))
        << "capture " << i << ": engine diverged from the monitor loop";
  }
}

TEST(MonitorEngine, MergedWireReproducesIsolatedVerdictsExactly) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  // Isolated: each capture monitored alone through the batched engine.
  std::vector<std::vector<AlarmKey>> isolated;
  std::vector<std::uint64_t> isolated_packages;
  for (const ics::Capture& capture : f.captures) {
    CountingAlarmSink sink;
    MonitorEngine engine(det, &sink);
    for (const ics::RawFrame& frame : capture) engine.push(0, frame);
    engine.finish();
    isolated.push_back(keys(sink.events()));
    isolated_packages.push_back(engine.stats().packages);
  }

  // Merged: all three captures interleaved on one wire. The shortest
  // capture drains first (leave mid-run), so later ticks run with fewer
  // streams — verdicts must not move.
  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  engine.replay(ics::merge_captures(f.captures));

  const auto per_link = engine.link_stats();
  ASSERT_EQ(per_link.size(), f.captures.size());
  for (std::size_t i = 0; i < f.captures.size(); ++i) {
    EXPECT_EQ(per_link[i].second.packages, isolated_packages[i]);
    EXPECT_EQ(keys(sink.events(), static_cast<ics::LinkId>(i)), isolated[i])
        << "link " << i << " verdicts changed when monitored alongside "
        << "other links";
  }
  EXPECT_EQ(engine.stats().links_retired, f.captures.size());
  EXPECT_EQ(engine.stats().peak_links, f.captures.size());
}

TEST(MonitorEngine, LateJoinReproducesIsolatedVerdicts) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  // Shift capture 2 to start after capture 0 is half done: on the merged
  // wire it JOINS mid-run (batch grows 1 → 2 while ticking). The shift only
  // changes absolute timestamps; inter-arrival gaps — the actual feature —
  // are untouched except the first frame's, which is 0 either way.
  ics::Capture shifted = f.captures[2];
  const double offset = f.captures[0][f.captures[0].size() / 2].timestamp;
  for (ics::RawFrame& frame : shifted) frame.timestamp += offset;

  const auto isolated_run = [&](const ics::Capture& capture) {
    CountingAlarmSink sink;
    MonitorEngine engine(det, &sink);
    for (const ics::RawFrame& frame : capture) engine.push(0, frame);
    engine.finish();
    return keys(sink.events());
  };
  // Times differ by the shift, so compare (seq, stage) only.
  const auto strip_time = [](std::vector<AlarmKey> ks) {
    for (AlarmKey& k : ks) k.time = 0.0;
    return ks;
  };
  const auto want0 = isolated_run(f.captures[0]);
  const auto want2 = strip_time(isolated_run(f.captures[2]));

  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  const std::vector<ics::Capture> pair = {f.captures[0], shifted};
  engine.replay(ics::merge_captures(pair));

  EXPECT_EQ(keys(sink.events(), 0u), want0);
  EXPECT_EQ(strip_time(keys(sink.events(), 1u)), want2)
      << "a late-joining link's verdicts differ from its isolated run";
  EXPECT_EQ(engine.stats().links_seen, 2u);
}

TEST(MonitorEngine, ThreadCountChangesNothingButWallTime) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  const auto run = [&](std::size_t threads) {
    CountingAlarmSink sink;
    MonitorEngineConfig cfg;
    cfg.threads = threads;
    MonitorEngine engine(det, &sink, cfg);
    engine.replay(ics::merge_captures(f.captures));
    return std::make_pair(keys(sink.events()), engine.stats());
  };
  const auto [alarms1, stats1] = run(1);
  const auto [alarms4, stats4] = run(4);
  EXPECT_EQ(alarms1, alarms4);
  EXPECT_EQ(stats1.packages, stats4.packages);
  EXPECT_EQ(stats1.alarms, stats4.alarms);
  EXPECT_EQ(stats1.ticks, stats4.ticks);
  EXPECT_EQ(stats1.package_level_alarms, stats4.package_level_alarms);
  EXPECT_EQ(stats1.timeseries_level_alarms, stats4.timeseries_level_alarms);
}

TEST(MonitorEngine, AddressKeyedPushDemuxesMultiDropLine) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  // A wire carrying two unit addresses: address-keyed push must open one
  // link per address (ids = the addresses themselves).
  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  const ics::Capture& capture = f.captures[0];
  for (std::size_t i = 0; i < 200 && i < capture.size(); ++i) {
    engine.push(capture[i]);
  }
  engine.finish();
  EXPECT_EQ(engine.stats().packages,
            std::min<std::size_t>(200, capture.size()));
  // The simulator's legitimate station is address 4; reconnaissance scans
  // touch others, so at least that link must exist.
  bool saw_station = false;
  for (const auto& [id, ls] : engine.link_stats()) {
    saw_station |= id == 4 && ls.packages > 0;
  }
  EXPECT_TRUE(saw_station);
}

TEST(MonitorEngine, CloseThenRejoinStartsAFreshStream) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  const ics::Capture& capture = f.captures[1];

  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  const std::size_t half = capture.size() / 2;
  for (std::size_t i = 0; i < half; ++i) engine.push(7, capture[i]);
  engine.close(7);
  EXPECT_EQ(engine.active_links(), 0u);
  EXPECT_EQ(engine.stats().links_retired, 1u);
  for (std::size_t i = half; i < capture.size(); ++i) {
    engine.push(7, capture[i]);
  }
  engine.finish();
  EXPECT_EQ(engine.stats().links_seen, 2u) << "rejoin must open a new stream";
  EXPECT_EQ(engine.stats().links_retired, 2u);
  EXPECT_EQ(engine.stats().packages, capture.size());
  // Idempotent / unknown closes are no-ops.
  engine.close(7);
  engine.close(999);
  engine.finish();
}

TEST(MonitorEngine, ParkAfterKeepsTheWireFlowingAndTheStateIntact) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  const ics::Capture& a = f.captures[0];
  const ics::Capture& b = f.captures[1];

  // Link 1 goes silent for the middle third of the wire. Without a
  // straggler ladder the lockstep gate would buffer link 0's packages for
  // the whole gap; with park_after_ms the gate parks link 1, keeps ticking
  // link 0, and re-admits link 1 with its stream state intact.
  const auto isolated_b = [&] {
    CountingAlarmSink sink;
    MonitorEngine engine(det, &sink);
    for (const ics::RawFrame& frame : b) engine.push(1, frame);
    engine.finish();
    return keys(sink.events());
  }();

  CountingAlarmSink sink;
  constexpr std::size_t kParkAfter = 6;
  MonitorEngineConfig cfg;
  cfg.park_after_ms = kParkAfter;
  MonitorEngine engine(det, &sink, cfg);
  FrameClock clock{engine};
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t bi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    clock.push(0, a[i]);
    const bool b_silent = i >= n / 3 && i < 2 * n / 3;
    if (!b_silent && bi < b.size()) clock.push(1, b[bi++]);
  }
  // The gap must not have dammed up link 0 behind the gate.
  EXPECT_LE(engine.stats().peak_pending, kParkAfter + 1);
  EXPECT_GE(engine.stats().links_parked, 1u);
  while (bi < b.size()) clock.push(1, b[bi++]);
  for (std::size_t i = n; i < a.size(); ++i) clock.push(0, a[i]);
  engine.finish();

  EXPECT_EQ(engine.stats().links_seen, 2u)
      << "a parked link must resume, not rejoin as a new stream";
  EXPECT_EQ(engine.stats().packages, a.size() + b.size());
  EXPECT_EQ(keys(sink.events(), 1u), isolated_b)
      << "parking changed the parked link's verdicts";
}

TEST(MonitorEngine, ParkEscalatesToCloseAndExplicitCloseRetiresParked) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  const ics::Capture& a = f.captures[0];
  const ics::Capture& b = f.captures[1];

  // park_after_ms < close_after_ms: a permanently dead link is first
  // parked (state kept for a possible rejoin), then RETIRED once its total
  // silence reaches close_after_ms — it must not hold its snapshot
  // forever.
  {
    MonitorEngineConfig cfg;
    cfg.park_after_ms = 4;
    cfg.close_after_ms = 20;
    MonitorEngine engine(det, nullptr, cfg);
    FrameClock clock{engine};
    for (std::size_t i = 0; i < 16 && i < b.size(); ++i) {
      clock.push(1, b[i]);
    }
    for (std::size_t i = 0; i < 200; ++i) clock.push(0, a[i]);  // b silent
    EXPECT_EQ(engine.stats().links_parked, 1u);
    EXPECT_EQ(engine.stats().links_retired, 1u)
        << "parked link was not escalated to close";
    // A frame after the escalation opens a FRESH stream.
    clock.push(1, b[16]);
    EXPECT_EQ(engine.stats().links_seen, 3u);
    engine.finish();
  }

  // An explicit close() of a parked link retires it immediately.
  {
    MonitorEngineConfig cfg;
    cfg.park_after_ms = 4;
    MonitorEngine engine(det, nullptr, cfg);
    FrameClock clock{engine};
    for (std::size_t i = 0; i < 16 && i < b.size(); ++i) {
      clock.push(1, b[i]);
    }
    for (std::size_t i = 0; i < 40; ++i) clock.push(0, a[i]);  // parks b
    EXPECT_EQ(engine.stats().links_parked, 1u);
    EXPECT_EQ(engine.stats().links_retired, 0u);
    engine.close(1);
    EXPECT_EQ(engine.stats().links_retired, 1u)
        << "close() was a silent no-op on a parked link";
    engine.close(1);  // idempotent
    EXPECT_EQ(engine.stats().links_retired, 1u);
    engine.finish();
  }
}

TEST(MonitorEngine, CloseAfterRetiresAStalledLinkToAFreshStream) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  const ics::Capture& a = f.captures[0];
  const ics::Capture& b = f.captures[2];
  const std::size_t half = b.size() / 2;

  // The closed link's post-gap traffic must classify exactly like a brand
  // new stream over just those frames.
  const auto fresh_tail = [&] {
    CountingAlarmSink sink;
    MonitorEngine engine(det, &sink);
    for (std::size_t i = half; i < b.size(); ++i) engine.push(1, b[i]);
    engine.finish();
    return keys(sink.events());
  }();

  CountingAlarmSink sink;
  constexpr std::size_t kCloseAfter = 5;
  MonitorEngineConfig cfg;
  cfg.close_after_ms = kCloseAfter;
  MonitorEngine engine(det, &sink, cfg);
  FrameClock clock{engine};
  std::size_t bi = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    clock.push(0, a[i]);
    // b sends its first half early, stalls for a long stretch, then sends
    // the rest.
    const bool b_active = i < half || i >= a.size() - (b.size() - half);
    if (b_active && bi < b.size()) clock.push(1, b[bi++]);
  }
  while (bi < b.size()) clock.push(1, b[bi++]);
  engine.finish();

  EXPECT_LE(engine.stats().peak_pending, kCloseAfter + 1);
  EXPECT_EQ(engine.stats().links_parked, 0u);
  EXPECT_EQ(engine.stats().links_seen, 3u)
      << "the closed link must have rejoined as a fresh stream";
  EXPECT_EQ(engine.stats().packages, a.size() + b.size());

  // Post-close alarms track the fresh-stream run. Not bitwise: the
  // per-link decode session (CRC window, inter-arrival clock) survives a
  // close by design, so the rejoining package's Table-I features differ
  // from a fresh session's (whose first interval is 0) and that one input
  // perturbs the LSTM history — compare alarm volume with slack.
  std::size_t tail_alarms = 0;
  for (const AlarmKey& k : keys(sink.events(), 1u)) {
    tail_alarms += k.seq >= half ? 1 : 0;
  }
  const double slack =
      5.0 + 0.05 * static_cast<double>(fresh_tail.size());
  EXPECT_NEAR(static_cast<double>(tail_alarms),
              static_cast<double>(fresh_tail.size()), slack)
      << "post-close alarm volume diverged from a fresh stream's";
}

TEST(MonitorEngine, WarmEngineAllocatesNothingPerFrameOrAlarm) {
  // Once every link has joined and its queue slots, row buffers and the
  // batch state have grown, decode → queue → tick → JSONL alarm runs
  // allocation-free. The links take strict turns, so queue depths stay
  // flat and no new high-water mark can legitimately grow a ring.
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  std::size_t shortest = f.captures[0].size();
  for (const ics::Capture& c : f.captures) {
    shortest = std::min(shortest, c.size());
  }
  const std::string path = ::testing::TempDir() + "warm_engine.jsonl";
  JsonlAlarmSink sink(path);
  MonitorEngine engine(det, &sink);
  const auto push_round = [&](std::size_t i) {
    for (std::size_t l = 0; l < f.captures.size(); ++l) {
      engine.push(static_cast<ics::LinkId>(l), f.captures[l][i]);
    }
  };
  const std::size_t warm = 50;
  for (std::size_t i = 0; i < warm; ++i) push_round(i);
  const std::uint64_t alarms_before = engine.stats().alarms;
  test_support::begin_counting_allocations();
  for (std::size_t i = warm; i < shortest; ++i) push_round(i);
  const std::size_t allocations = test_support::end_counting_allocations();
  EXPECT_EQ(engine.active_links(), f.captures.size());
  EXPECT_GT(engine.stats().alarms, alarms_before);  // the sink was exercised
  EXPECT_EQ(allocations, 0u)
      << "over " << (shortest - warm) * f.captures.size() << " frames";
  engine.finish();
  std::remove(path.c_str());
}

TEST(MonitorEngine, StatsAddUp) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  engine.replay(ics::merge_captures(f.captures));
  const EngineStats& s = engine.stats();

  std::size_t total_frames = 0;
  for (const auto& c : f.captures) total_frames += c.size();
  EXPECT_EQ(s.frames, total_frames);
  EXPECT_EQ(s.packages, total_frames);  // fully drained
  EXPECT_EQ(s.alarms, sink.count());
  EXPECT_EQ(s.alarms, s.package_level_alarms + s.timeseries_level_alarms);
  EXPECT_GE(s.ticks, 1u);
  EXPECT_GE(s.mean_batch(), 1.0);
  EXPECT_LE(s.mean_batch(), static_cast<double>(f.captures.size()));

  std::uint64_t link_packages = 0, link_alarms = 0;
  for (const auto& [id, ls] : engine.link_stats()) {
    link_packages += ls.packages;
    link_alarms += ls.alarms;
  }
  EXPECT_EQ(link_packages, s.packages);
  EXPECT_EQ(link_alarms, s.alarms);
}

/// Everything an alarm carries but its link, in delivery order per link.
using EventKey = std::tuple<std::uint64_t, double, bool, bool, bool,
                            std::uint8_t, std::uint8_t, std::uint16_t, bool>;

std::map<ics::LinkId, std::vector<EventKey>> per_link_events(
    const std::vector<AlarmEvent>& events) {
  std::map<ics::LinkId, std::vector<EventKey>> out;
  for (const AlarmEvent& e : events) {
    out[e.link].emplace_back(e.seq, e.time, e.verdict.anomaly,
                             e.verdict.package_level,
                             e.verdict.timeseries_level, e.address,
                             e.function, e.length, e.decode_ok);
  }
  return out;
}

struct ScheduledRun {
  std::map<ics::LinkId, std::vector<EventKey>> events;
  std::vector<std::pair<ics::LinkId, LinkStats>> links;
  EngineStats stats;
};

/// Drives `wire` through an engine with the straggler ladder on a frame
/// clock, closing each link right after its last frame. After each frame,
/// with probability `ready_p` (seeded), it also calls tick_ready();
/// ready_p = 0 is the pure lockstep run.
ScheduledRun run_schedule(const std::vector<ics::LinkFrame>& wire,
                          double ready_p, std::uint64_t seed) {
  const auto& f = fixture();
  std::map<ics::LinkId, std::size_t> left;
  for (const ics::LinkFrame& lf : wire) ++left[lf.link];
  CountingAlarmSink sink;
  MonitorEngineConfig cfg;
  cfg.park_after_ms = 8;
  MonitorEngine engine(*f.framework.detector, &sink, cfg);
  FrameClock clock{engine};
  Rng rng(seed);
  for (const ics::LinkFrame& lf : wire) {
    clock.push(lf.link, lf.frame);
    if (--left[lf.link] == 0) engine.close(lf.link);
    if (ready_p > 0.0 && rng.uniform() < ready_p) engine.tick_ready();
  }
  engine.finish();
  return {per_link_events(sink.events()), engine.link_stats(),
          engine.stats()};
}

TEST(MonitorEngine, ReadyOnlyTicksAtAnyPointKeepEveryLinksVerdicts) {
  // Which links share a tick never changes a link's verdicts, so calling
  // tick_ready() at arbitrary points between pushes must reproduce the
  // pure lockstep run bit for bit — with a link joining late, one going
  // silent long enough to be parked (and resumed), and every link closing
  // after its last frame while others still run.
  const auto& f = fixture();
  ics::Capture late = f.captures[2];
  const double offset = f.captures[0][f.captures[0].size() / 3].timestamp;
  for (ics::RawFrame& frame : late) frame.timestamp += offset;
  const std::vector<ics::Capture> captures = {f.captures[0], f.captures[1],
                                              f.captures[2], late};
  const std::vector<ics::LinkFrame> merged = ics::merge_captures(captures);
  // Link 1 falls silent for the middle third of the wire, then delivers the
  // held frames in one burst (its own order unchanged).
  std::vector<ics::LinkFrame> wire, held;
  const std::size_t n = merged.size();
  for (std::size_t i = 0; i < n; ++i) {
    const bool hold = merged[i].link == 1 && i >= n / 3 && i < 2 * n / 3;
    (hold ? held : wire).push_back(merged[i]);
    if (i + 1 == 2 * n / 3) wire.insert(wire.end(), held.begin(), held.end());
  }
  ASSERT_EQ(wire.size(), n);

  const ScheduledRun lockstep = run_schedule(wire, 0.0, 0);
  EXPECT_EQ(lockstep.stats.partial_ticks, 0u);
  EXPECT_GE(lockstep.stats.links_parked, 1u);
  ASSERT_EQ(lockstep.events.size(), captures.size());
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const double ready_p = 0.1 * static_cast<double>(seed);
    const ScheduledRun run = run_schedule(wire, ready_p, seed);
    EXPECT_GT(run.stats.partial_ticks, 0u) << "seed " << seed;
    EXPECT_GE(run.stats.links_parked, 1u) << "seed " << seed;
    EXPECT_EQ(run.stats.packages, n) << "seed " << seed;
    EXPECT_EQ(run.stats.links_seen, captures.size()) << "seed " << seed;
    EXPECT_EQ(run.events, lockstep.events) << "seed " << seed;
    ASSERT_EQ(run.links.size(), lockstep.links.size());
    for (std::size_t i = 0; i < run.links.size(); ++i) {
      EXPECT_EQ(run.links[i].second.packages,
                lockstep.links[i].second.packages);
      EXPECT_EQ(run.links[i].second.alarms, lockstep.links[i].second.alarms);
    }
  }
}

TEST(MonitorEngine, TickReadyDoesNotWaitForASilentLink) {
  // Link 1 sends one frame and falls silent. The lockstep gate then holds
  // every later package of link 0; tick_ready() classifies and alarms them
  // all at once — the same alarms link 0 raises alone — before finish().
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  const ics::Capture& a = f.captures[0];
  constexpr std::size_t kFrames = 120;
  ASSERT_GT(a.size(), kFrames);
  const auto alone = [&] {
    CountingAlarmSink sink;
    MonitorEngine engine(det, &sink);
    for (std::size_t i = 0; i < kFrames; ++i) engine.push(0, a[i]);
    engine.finish();
    return keys(sink.events());
  }();
  ASSERT_FALSE(alone.empty()) << "the fixture must raise alarms on link 0";

  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  engine.push(1, f.captures[1][0]);
  for (std::size_t i = 0; i < kFrames; ++i) engine.push(0, a[i]);
  EXPECT_EQ(engine.stats().packages, 1u) << "the gate waits on link 1";
  engine.tick_ready();
  EXPECT_EQ(engine.stats().packages, kFrames + 1);
  EXPECT_EQ(keys(sink.events(), 0u), alone);
  EXPECT_EQ(engine.stats().partial_ticks, kFrames);
  EXPECT_EQ(engine.active_links(), 2u);
  engine.finish();
  EXPECT_EQ(engine.stats().packages, kFrames + 1);
}

TEST(MonitorEngine, ReadyOnlyTicksStillParkASilentLink) {
  // The shard loop's order: a frame, a ready-only tick once the input runs
  // dry, then a sweep. Nothing is ever pending at the sweep, so only the
  // split batch (the latest tick left link 1 behind) makes link 1 a
  // straggler; the talking link 0 restarts its clock at every step and is
  // never parked.
  const auto& f = fixture();
  MonitorEngineConfig cfg;
  cfg.park_after_ms = 5;
  MonitorEngine engine(*f.framework.detector, nullptr, cfg);
  engine.push(1, f.captures[1][0]);
  double now = 0.0;
  for (std::size_t i = 0; i < 20; ++i) {
    engine.push(0, f.captures[0][i]);
    engine.tick_ready();
    engine.sweep(++now);
  }
  EXPECT_EQ(engine.stats().packages, 21u);
  EXPECT_EQ(engine.stats().links_parked, 1u);
  const auto links = engine.link_stats();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].second.parks, 0u) << "the talking link was parked";
  EXPECT_EQ(links[1].second.parks, 1u);
  EXPECT_EQ(engine.active_links(), 1u);
}

TEST(MonitorEngine, WarmReadyOnlyTicksAllocateNothing) {
  // A caller whose input runs dry after 1, 2, 3, 1, ... frames: the links
  // take strict turns, and each dry spell's tick_ready() steps the one or
  // two links that have a package (three complete the lockstep gate). Once
  // warm, this path (slot gathering, prefix steps of varying size,
  // dispatch) allocates nothing.
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  std::size_t shortest = f.captures[0].size();
  for (const ics::Capture& c : f.captures) {
    shortest = std::min(shortest, c.size());
  }
  const std::string path = ::testing::TempDir() + "warm_ready.jsonl";
  JsonlAlarmSink sink(path);
  MonitorEngine engine(det, &sink);
  std::size_t since_dry = 0;
  std::size_t burst = 1;
  const auto push_round = [&](std::size_t i) {
    for (std::size_t l = 0; l < f.captures.size(); ++l) {
      engine.push(static_cast<ics::LinkId>(l), f.captures[l][i]);
      if (++since_dry == burst) {
        engine.tick_ready();
        since_dry = 0;
        burst = burst % f.captures.size() + 1;
      }
    }
  };
  const std::size_t warm = 50;
  for (std::size_t i = 0; i < warm; ++i) push_round(i);
  const EngineStats before = engine.stats();
  test_support::begin_counting_allocations();
  for (std::size_t i = warm; i < shortest; ++i) push_round(i);
  const std::size_t allocations = test_support::end_counting_allocations();
  const std::uint64_t frames = (shortest - warm) * f.captures.size();
  EXPECT_EQ(engine.stats().packages - before.packages, frames);
  EXPECT_GE(engine.stats().partial_ticks - before.partial_ticks, frames / 4);
  EXPECT_GT(engine.stats().alarms, before.alarms);  // the sink was exercised
  EXPECT_EQ(allocations, 0u) << "over " << frames << " frames";
  engine.finish();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlad::serve

// Fault-tolerant serve (DESIGN.md §12): the straggler ladder on its
// injected clock, and its integration with the live TCP front end.
//  (a) sweep() parks a link that blocks the gate past park_after_ms, then
//      retires it once its park ages past the close grace — deterministic
//      unit drive on a manual clock, no sockets or threads;
//  (b) block time only accrues while the gate is actually blocked (idle
//      wires and flowing gates never accrue);
//  (c) a parked straggler rejoins with its stream state intact and its
//      verdicts are bit-identical to an uninterrupted run;
//  (d) the derived hysteresis raises the re-park bar to 2 × park_after_ms
//      for a freshly rejoined link without ever blocking parks outright —
//      a rejoined link that stalls again is re-parked;
//  (e) end to end over loopback TCP: three tokened taps, one goes silent
//      mid-stream — the other two links' verdicts are bit-identical to
//      their solo runs while the stalled link parks, then closes, on the
//      shard thread's steady clock.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "detect/pipeline.hpp"
#include "ics/capture.hpp"
#include "ics/features.hpp"
#include "ics/simulator.hpp"
#include "ingest/socket_source.hpp"
#include "serve/monitor_engine.hpp"
#include "serve/sharded_engine.hpp"

namespace mlad::serve {
namespace {

struct Fixture {
  detect::TrainedFramework framework;
  std::vector<ics::Capture> captures;

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

    const std::size_t cycles[] = {260, 200, 160};
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

std::vector<AlarmKey> solo_run(const ics::Capture& capture) {
  const auto& f = fixture();
  CountingAlarmSink sink;
  MonitorEngine engine(*f.framework.detector, &sink);
  for (const ics::RawFrame& frame : capture) engine.push(0, frame);
  engine.finish();
  return keys(sink.events());
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

// ---- straggler ladder unit drive -------------------------------------------

TEST(StragglerLadder, ParksBlockedStragglerThenEscalatesToClose) {
  const auto& f = fixture();
  CountingAlarmSink sink;
  MonitorEngineConfig cfg;
  cfg.park_after_ms = 100.0;
  cfg.close_after_ms = 300.0;  // grace after the park: 200 ms
  MonitorEngine engine(*f.framework.detector, &sink, cfg);

  // Link 0 ticks alone, link 1 joins (tick 2 drains both), then link 1
  // goes silent while link 0 keeps sending: the gate is now blocked.
  engine.push(0, f.captures[0][0]);  // tick 1: link 0 is the whole gate
  engine.push(1, f.captures[1][0]);
  engine.push(0, f.captures[0][1]);  // tick 2: both drain
  engine.push(0, f.captures[0][2]);  // waits on the now-silent link 1
  ASSERT_EQ(engine.stats().ticks, 2u);

  EXPECT_FALSE(engine.sweep(50.0));   // 50 ms blocked: under
  EXPECT_FALSE(engine.sweep(99.0));   // 99 ms: still under
  EXPECT_TRUE(engine.sweep(101.0));   // 101 ms: park fires
  EXPECT_EQ(engine.stats().links_parked, 1u);
  // The park unblocked the gate: link 0's backlog ticked through.
  EXPECT_EQ(engine.stats().ticks, 3u);
  EXPECT_EQ(engine.active_links(), 1u);

  // The parked link now ages toward the close escalation on the same
  // clock — even though the gate itself is no longer blocked.
  EXPECT_FALSE(engine.sweep(300.0));  // parked 199 < 200 ms grace
  EXPECT_TRUE(engine.sweep(302.0));   // parked 201 ms: retired
  EXPECT_EQ(engine.stats().straggler_closes, 1u);
  EXPECT_EQ(engine.stats().links_retired, 1u);
  engine.finish();
}

TEST(StragglerLadder, AccruesOnlyWhileTheGateIsBlocked) {
  const auto& f = fixture();
  CountingAlarmSink sink;
  MonitorEngineConfig cfg;
  cfg.park_after_ms = 100.0;
  MonitorEngine engine(*f.framework.detector, &sink, cfg);

  // No links at all: time passes, nothing accrues.
  EXPECT_FALSE(engine.sweep(1000.0));
  EXPECT_EQ(engine.stats().links_parked, 0u);

  // Two links, both drained (no pending anywhere): idle is not a stall.
  engine.push(0, f.captures[0][0]);  // tick 1: link 0 alone
  engine.push(1, f.captures[1][0]);  // link 1 joins; waits on link 0
  engine.push(0, f.captures[0][1]);  // tick 2: both drain
  ASSERT_EQ(engine.stats().ticks, 2u);
  EXPECT_FALSE(engine.sweep(2000.0));
  EXPECT_EQ(engine.stats().links_parked, 0u);

  // Blocked for 60 ms, then the straggler speaks (gate ticks, clock
  // resets), then blocked for another 60 ms: never reaches 100 ms.
  engine.push(0, f.captures[0][2]);
  EXPECT_FALSE(engine.sweep(2060.0));
  engine.push(1, f.captures[1][1]);  // gate fires, block clock restarts
  engine.push(0, f.captures[0][3]);
  EXPECT_FALSE(engine.sweep(2120.0));
  EXPECT_EQ(engine.stats().links_parked, 0u);
  engine.finish();
}

TEST(StragglerLadder, ParkedStragglerRejoinsWithVerdictsIntact) {
  const auto& f = fixture();
  const ics::Capture& a = f.captures[0];
  const ics::Capture& b = f.captures[1];
  const auto isolated_b = [&] {
    CountingAlarmSink sink;
    MonitorEngine engine(*f.framework.detector, &sink);
    for (const ics::RawFrame& frame : b) engine.push(1, frame);
    engine.finish();
    return keys(sink.events());
  }();

  CountingAlarmSink sink;
  MonitorEngineConfig cfg;
  cfg.park_after_ms = 100.0;
  MonitorEngine engine(*f.framework.detector, &sink, cfg);

  const std::size_t n = std::min(a.size(), b.size());
  std::size_t bi = 0;
  double now = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    engine.push(0, a[i]);
    const bool b_silent = i >= n / 3 && i < 2 * n / 3;
    if (!b_silent && bi < b.size()) engine.push(1, b[bi++]);
    if (b_silent) engine.sweep(now += 60.0);  // parks b mid-gap
  }
  EXPECT_EQ(engine.stats().links_parked, 1u);
  while (bi < b.size()) engine.push(1, b[bi++]);
  for (std::size_t i = n; i < a.size(); ++i) engine.push(0, a[i]);
  engine.finish();

  EXPECT_EQ(engine.stats().links_seen, 2u)
      << "a parked link must resume, not rejoin as a new stream";
  EXPECT_EQ(engine.stats().packages, a.size() + b.size());
  EXPECT_EQ(keys(sink.events(), 1u), isolated_b)
      << "parking changed the parked link's verdicts";
}

TEST(ParkHysteresis, RaisesTheReParkBarAfterARejoin) {
  const auto& f = fixture();
  const ics::Capture& a = f.captures[0];
  const ics::Capture& b = f.captures[1];
  CountingAlarmSink sink;
  constexpr std::size_t kParkAfter = 6;
  MonitorEngineConfig cfg;
  cfg.park_after_ms = kParkAfter;
  MonitorEngine engine(*f.framework.detector, &sink, cfg);
  FrameClock clock{engine};

  // First stall: parks at the plain threshold (hysteresis never affects a
  // link that has not parked before). b[0] ticks through alone; every a
  // push after that piles up behind the now-silent link 1.
  clock.push(1, b[0]);  // tick 1: link 1 is the whole gate
  std::size_t ai = 0;
  while (engine.stats().links_parked == 0) {
    ASSERT_LT(ai, kParkAfter + 1) << "first park missed its threshold";
    clock.push(0, a[ai++]);
  }
  EXPECT_EQ(ai, kParkAfter);

  // Rejoin, then stall again immediately: the block starts within
  // park_after_ms of the rejoin, so the bar is 2 × park_after_ms of block
  // time — 2 × kParkAfter pending — not kParkAfter.
  clock.push(1, b[1]);     // re-admits b with its rejoin frame queued
  clock.push(0, a[ai++]);  // pairs with it; the gate ticks both through
  const std::size_t bar = 2 * kParkAfter;
  for (std::size_t pending = 1; pending <= bar; ++pending) {
    clock.push(0, a[ai++]);
    EXPECT_EQ(engine.stats().links_parked, pending < bar ? 1u : 2u)
        << "re-park at pending " << pending << " inside hysteresis";
  }
  EXPECT_EQ(engine.stats().links_parked, 2u);
  engine.finish();
}

TEST(StragglerLadder, RejoinedStragglerThatStallsAgainIsReParked) {
  // Gate ticks stop while the gate is blocked, so the hysteresis window
  // must live on the ladder clock: a link that rejoins and goes silent
  // again is re-parked at the raised bar, and the other link's backlog
  // stays bounded instead of growing for as long as the stall lasts.
  const auto& f = fixture();
  const ics::Capture& a = f.captures[0];
  const ics::Capture& b = f.captures[1];
  constexpr double kParkAfter = 100.0;
  constexpr double kFrameMs = 10.0;  // link 0 sends every 10 ms
  constexpr std::size_t kAfterRePark = 100;
  ASSERT_GE(a.size(), 4 * kParkAfter / kFrameMs + kAfterRePark);
  MonitorEngineConfig cfg;
  cfg.park_after_ms = kParkAfter;
  MonitorEngine engine(*f.framework.detector, nullptr, cfg);
  double now = 0.0;
  std::size_t ai = 0;
  const auto step_a = [&] {
    engine.push(0, a[ai++]);
    engine.sweep(now += kFrameMs);
  };

  // Link 1 speaks once, goes silent, and is parked at park_after_ms.
  engine.push(1, b[0]);  // tick 1: link 1 is the whole gate
  while (engine.stats().links_parked == 0) {
    ASSERT_LT(now, 2 * kParkAfter) << "first park missed its threshold";
    step_a();
  }
  EXPECT_EQ(now, kParkAfter);

  // It rejoins, ticks once with link 0, and goes silent again while link 0
  // keeps sending: the second park lands at exactly 2 × park_after_ms.
  engine.push(1, b[1]);
  step_a();  // the gate ticks both links through
  const double block_start = now;
  while (engine.stats().links_parked == 1) {
    ASSERT_LT(now - block_start, 4 * kParkAfter)
        << "the rejoined straggler was never re-parked";
    step_a();
  }
  EXPECT_EQ(now - block_start, 2 * kParkAfter);
  EXPECT_EQ(engine.stats().links_parked, 2u);

  // The wire keeps flowing: link 0 ticks alone, its backlog stays bounded.
  const std::uint64_t ticks = engine.stats().ticks;
  for (std::size_t i = 0; i < kAfterRePark; ++i) step_a();
  EXPECT_EQ(engine.stats().ticks, ticks + kAfterRePark);
  EXPECT_LE(engine.stats().peak_pending, 2 * kParkAfter / kFrameMs + 1);
  engine.finish();
}

TEST(StragglerLadder, MalformedLadderIsRejected) {
  const auto& f = fixture();
  const auto make = [&](double park_ms, double close_ms) {
    MonitorEngineConfig cfg;
    cfg.park_after_ms = park_ms;
    cfg.close_after_ms = close_ms;
    MonitorEngine engine(*f.framework.detector, nullptr, cfg);
  };
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(make(-1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(make(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(make(std::nan(""), 0.0), std::invalid_argument);
  EXPECT_THROW(make(0.0, inf), std::invalid_argument);
  // Strictly park-then-close: an inverted or equal pair would close a link
  // before (or instead of) parking it.
  EXPECT_THROW(make(200.0, 100.0), std::invalid_argument);
  EXPECT_THROW(make(100.0, 100.0), std::invalid_argument);
  EXPECT_NO_THROW(make(0.0, 0.0));
  EXPECT_NO_THROW(make(100.0, 0.0));
  EXPECT_NO_THROW(make(0.0, 100.0));
  EXPECT_NO_THROW(make(100.0, 300.0));
}

// ---- loopback integration: 3 taps, one stalls ------------------------------

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &dst.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)), 0);
  return fd;
}

TEST(FaultTolerance, StalledTapParksThenClosesWhileOthersStayBitIdentical) {
  const auto& f = fixture();
  const auto solo0 = solo_run(f.captures[0]);
  const auto solo1 = solo_run(f.captures[1]);

  ingest::TcpSource source(/*port=*/0, "127.0.0.1", /*max_conns=*/8,
                           /*idle_timeout_ms=*/250);
  CountingAlarmSink sink;
  ShardedEngineConfig cfg;
  cfg.shards = 1;
  cfg.engine.park_after_ms = 150.0;
  cfg.engine.close_after_ms = 400.0;
  ShardedEngine engine(*f.framework.detector, &sink, cfg);

  constexpr std::size_t kStallAfter = 30;
  std::vector<std::thread> taps;
  for (std::uint32_t t = 0; t < 3; ++t) {
    taps.emplace_back([&, t, port = source.port()] {
      const ics::Capture& capture = f.captures[t];
      const int fd = connect_loopback(port);
      send_all(fd, ingest::encode_hello(t + 1, 0));
      const bool stalls = t == 2;
      const std::size_t n =
          stalls ? std::min(kStallAfter, capture.size()) : capture.size();
      for (std::size_t i = 0; i < n; ++i) {
        send_all(fd, ingest::encode_record({0, capture[i]}));
      }
      if (stalls) {
        // Silent but connected: the engine must park, then close, this
        // link on the shard's clock — long before the tap finally gives up.
        std::this_thread::sleep_for(std::chrono::milliseconds(1200));
      }
      ::close(fd);
    });
  }

  engine.run(source);
  for (auto& t : taps) t.join();

  const EngineStats s = engine.stats();
  EXPECT_GE(s.links_parked, 1u) << "the stalled link never parked";
  EXPECT_GE(s.straggler_closes, 1u)
      << "the parked link never closed on schedule";
  EXPECT_EQ(s.packages,
            f.captures[0].size() + f.captures[1].size() + kStallAfter);

  // The healthy taps' verdicts are exactly their solo runs.
  EXPECT_EQ(keys(sink.events(), ics::LinkId{1} << 16), solo0);
  EXPECT_EQ(keys(sink.events(), ics::LinkId{2} << 16), solo1);

  // The stalled link delivered (and was scored on) exactly its pre-stall
  // prefix, and went through a park.
  bool found = false;
  for (const auto& [link, ls] : engine.link_stats()) {
    if (link != ics::LinkId{3} << 16) continue;
    found = true;
    EXPECT_EQ(ls.packages, kStallAfter);
    EXPECT_GE(ls.parks, 1u);
  }
  EXPECT_TRUE(found);

  const auto health = engine.source_health();
  EXPECT_EQ(health.connections, 3u);
  EXPECT_EQ(health.malformed, 0u);
}

}  // namespace
}  // namespace mlad::serve

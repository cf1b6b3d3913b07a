// Online adaptation subsystem end-to-end (adapt/ + serve/ wiring,
// DESIGN.md §9):
//  (a) adapted serve runs are fully deterministic — same captures, seed and
//      interval ⇒ identical verdict streams AND identical published weight
//      versions on identical ticks;
//  (b) a swap mid-run never changes the verdict of an already-emitted
//      package (the pre-swap prefix equals the frozen run);
//  (c) on drifting anomaly-free traffic, the adapted model's false alarms
//      are no worse than the frozen model's;
//  (d) the weight hot-swap machinery (refresh + stream carry-over) is
//      exact: post-swap ticks equal a cold engine on the new weights with
//      the same stream state restored;
//  (e) the one-shard ShardedEngine that `mlad serve` runs adapts exactly
//      like the lockstep engine driven directly.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/online_trainer.hpp"
#include "detect/pipeline.hpp"
#include "detect/serialize.hpp"
#include "ics/capture.hpp"
#include "ics/features.hpp"
#include "ics/link_mux.hpp"
#include "ics/simulator.hpp"
#include "serve/monitor_engine.hpp"
#include "serve/sharded_engine.hpp"

namespace mlad::adapt {
namespace {

ics::Capture to_capture(const ics::SimulationResult& result) {
  ics::Capture capture;
  capture.reserve(result.packages.size());
  for (const auto& p : result.packages) {
    capture.push_back(ics::package_to_frame(p));
  }
  return capture;
}

struct Fixture {
  std::string model_bytes;  ///< serialized framework; each run loads fresh
  std::vector<ics::LinkFrame> drift_wire;  ///< anomaly-free, drifted plant

  Fixture() {
    // A properly converged frozen model (an undertrained one false-alarms
    // on half the traffic, so no verdict-clean window could ever form and
    // there would be nothing to adapt from).
    ics::SimulatorConfig train_cfg;
    train_cfg.cycles = 4000;
    train_cfg.seed = 321;
    ics::GasPipelineSimulator sim(train_cfg);
    const ics::SimulationResult train_capture = sim.run();

    detect::PipelineConfig cfg;
    cfg.combined.timeseries.hidden_dims = {64};
    cfg.combined.timeseries.epochs = 30;
    cfg.combined.timeseries.batch_size = 8;
    cfg.seed = 3;
    const detect::TrainedFramework fw =
        detect::train_framework(train_capture.packages, cfg);
    std::ostringstream out;
    detect::save_framework(out, *fw.detector);
    model_bytes = out.str();

    // The deployed plant drifts: same signature vocabulary (setpoint
    // levels, modes, addresses unchanged — the Bloom stage still accepts
    // it) but a much busier supervisory schedule, so the LSTM sees known
    // packages in orders it was barely trained on. Attacks off: every
    // alarm below is a false alarm.
    std::vector<ics::Capture> captures;
    for (std::size_t i = 0; i < 3; ++i) {
      ics::SimulatorConfig drift = train_cfg;
      drift.cycles = 300;
      drift.seed = 2000 + i;
      drift.attacks_enabled = false;
      drift.setpoint_change_prob = 0.06;
      drift.manual_episode_prob = 0.03;
      drift.manual_episode_cycles = 12;
      ics::GasPipelineSimulator drift_sim(drift);
      captures.push_back(to_capture(drift_sim.run()));
    }
    drift_wire = ics::merge_captures(captures);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

AdaptConfig test_adapt_config() {
  AdaptConfig cfg;
  cfg.window_len = 8;
  cfg.replay_capacity = 64;
  cfg.min_windows = 4;
  cfg.epochs_per_round = 1;
  cfg.batch_size = 8;
  cfg.micro_batch = 4;
  cfg.threads = 1;
  cfg.seed = 5;
  return cfg;
}

struct AlarmKey {
  ics::LinkId link;
  std::uint64_t seq;
  bool bloom;
  double time;

  bool operator==(const AlarmKey&) const = default;
};

struct RunResult {
  std::vector<AlarmKey> alarms;
  std::vector<serve::CountingAlarmSink::SwapRecord> swaps;
  std::vector<serve::CountingAlarmSink::RollbackRecord> rollbacks;
  serve::EngineStats stats;
  AdaptStats adapt_stats;
};

RunResult run_serve(bool adapt_on, std::size_t interval = 150) {
  const Fixture& f = fixture();
  std::istringstream in(f.model_bytes);
  const auto detector = detect::load_framework(in);

  serve::CountingAlarmSink sink;
  serve::MonitorEngineConfig cfg;
  std::unique_ptr<OnlineTrainer> trainer;
  if (adapt_on) {
    trainer = std::make_unique<OnlineTrainer>(*detector, test_adapt_config());
    cfg.adapter = trainer.get();
    cfg.adapt_interval = interval;
  }
  serve::MonitorEngine engine(*detector, &sink, cfg);
  engine.replay(f.drift_wire);

  RunResult result;
  for (const serve::AlarmEvent& e : sink.events()) {
    result.alarms.push_back(
        {e.link, e.seq, e.verdict.package_level, e.time});
  }
  result.swaps = sink.swaps();
  result.stats = engine.stats();
  if (trainer) result.adapt_stats = trainer->stats();
  return result;
}

/// The frozen/adapted runs at default settings, shared across tests (the
/// subsystem is deterministic, so reuse is sound — and the determinism
/// test below re-derives the adapted run independently to prove it).
const RunResult& canonical_run(bool adapt_on) {
  static const RunResult frozen = run_serve(false);
  static const RunResult adapted = run_serve(true);
  return adapt_on ? adapted : frozen;
}

TEST(OnlineAdaptation, AdaptedServeIsFullyDeterministic) {
  const RunResult& first = canonical_run(true);
  const RunResult second = run_serve(true);

  ASSERT_GE(first.swaps.size(), 2u)
      << "fixture produced too few weight publications to test";
  EXPECT_EQ(first.swaps, second.swaps)
      << "published versions / swap ticks differ between identical runs";
  EXPECT_EQ(first.alarms, second.alarms)
      << "verdict stream differs between identical adapted runs";
  EXPECT_EQ(first.stats.model_version, second.stats.model_version);
  EXPECT_EQ(first.adapt_stats.windows_harvested,
            second.adapt_stats.windows_harvested);
  EXPECT_EQ(first.adapt_stats.rounds_completed,
            second.adapt_stats.rounds_completed);
}

TEST(OnlineAdaptation, SwapNeverRewritesAlreadyEmittedVerdicts) {
  const RunResult& frozen = canonical_run(false);
  const RunResult& adapted = canonical_run(true);
  ASSERT_GE(adapted.swaps.size(), 1u);

  // Until the first swap lands the engines are byte-for-byte the same
  // machine, so the alarm prefix must match exactly.
  const std::size_t prefix = adapted.swaps.front().alarms_before;
  ASSERT_LE(prefix, frozen.alarms.size());
  for (std::size_t i = 0; i < prefix; ++i) {
    ASSERT_EQ(adapted.alarms[i], frozen.alarms[i]) << "at alarm " << i;
  }
  EXPECT_EQ(adapted.stats.model_swaps, adapted.swaps.size());
  EXPECT_EQ(adapted.stats.model_version,
            adapted.adapt_stats.applied_version);
}

TEST(OnlineAdaptation, AdaptationDoesNotIncreaseFalseAlarmsOnDrift) {
  const RunResult& frozen = canonical_run(false);
  const RunResult& adapted = canonical_run(true);
  ASSERT_GE(adapted.swaps.size(), 1u);

  // The wire is anomaly-free, so every LSTM-stage alarm is a false alarm;
  // the pre-swap prefix is shared, so a whole-run comparison is exactly a
  // post-swap comparison.
  EXPECT_GT(frozen.stats.timeseries_level_alarms, 0u)
      << "fixture drift produced no false alarms to adapt away";
  EXPECT_LE(adapted.stats.timeseries_level_alarms,
            frozen.stats.timeseries_level_alarms)
      << "adapted model raised MORE false alarms than the frozen one";
  // The Bloom stage is untouched by adaptation.
  EXPECT_EQ(adapted.stats.package_level_alarms,
            frozen.stats.package_level_alarms);
}

TEST(OnlineAdaptation, OneShardEngineAdaptsLikeTheLockstepEngine) {
  // `mlad serve --adapt` runs through ShardedEngine{shards = 1}: a pump
  // thread, one SPSC queue, and the engine on its shard thread. On the
  // same drifted wire it must raise the same per-link alarms and publish
  // the same weight versions on the same ticks as a MonitorEngine driven
  // directly.
  const RunResult& direct = canonical_run(true);
  ASSERT_GE(direct.swaps.size(), 1u);

  const Fixture& f = fixture();
  std::istringstream in(f.model_bytes);
  const auto detector = detect::load_framework(in);
  OnlineTrainer trainer(*detector, test_adapt_config());
  serve::CountingAlarmSink sink;
  serve::ShardedEngineConfig cfg;
  cfg.engine.adapter = &trainer;
  cfg.engine.adapt_interval = 150;
  serve::ShardedEngine engine(*detector, &sink, cfg);
  for (const ics::LinkFrame& lf : f.drift_wire) engine.push(lf);
  engine.finish();

  std::vector<AlarmKey> alarms;
  for (const serve::AlarmEvent& e : sink.events()) {
    alarms.push_back({e.link, e.seq, e.verdict.package_level, e.time});
  }
  EXPECT_EQ(alarms, direct.alarms);
  ASSERT_EQ(sink.swaps().size(), direct.swaps.size());
  for (std::size_t i = 0; i < direct.swaps.size(); ++i) {
    EXPECT_EQ(sink.swaps()[i].version, direct.swaps[i].version) << i;
    EXPECT_EQ(sink.swaps()[i].tick, direct.swaps[i].tick) << i;
  }
  EXPECT_EQ(engine.stats().model_version, direct.stats.model_version);
}

TEST(OnlineAdaptation, JsonlSinkRecordsSwaps) {
  const Fixture& f = fixture();
  std::istringstream in(f.model_bytes);
  const auto detector = detect::load_framework(in);
  const std::string path = testing::TempDir() + "adapt_swaps.jsonl";
  {
    serve::JsonlAlarmSink sink(path);
    OnlineTrainer trainer(*detector, test_adapt_config());
    serve::MonitorEngineConfig cfg;
    cfg.adapter = &trainer;
    cfg.adapt_interval = 150;
    serve::MonitorEngine engine(*detector, &sink, cfg);
    engine.replay(f.drift_wire);
    sink.flush();
  }
  std::ifstream audit(path);
  ASSERT_TRUE(audit.good());
  std::string line;
  std::size_t swap_records = 0;
  while (std::getline(audit, line)) {
    if (line.find("\"type\": \"swap\"") != std::string::npos &&
        line.find("\"version\"") != std::string::npos) {
      ++swap_records;
    }
  }
  EXPECT_GE(swap_records, 1u);
}

TEST(OnlineAdaptation, WeightRefreshPreservesStreamStateExactly) {
  // Hot-swap machinery in isolation: (batch A) tick, swap weights via
  // copy_params_from + refresh_weights, tick again — must equal (batch B)
  // an engine that ALWAYS had the new weights, with A's post-tick stream
  // state restored. Stream carry-over across a swap is exact.
  const Fixture& f = fixture();
  std::istringstream in_a(f.model_bytes);
  std::istringstream in_b(f.model_bytes);
  const auto det_a = detect::load_framework(in_a);
  const auto det_b = detect::load_framework(in_b);

  // The "adapted" weights: a deterministic perturbation of the original.
  nn::SequenceModel adapted = det_a->timeseries_level().model().clone();
  adapted.lstm().layer(0).cell().w().apply([](float v) { return v * 1.01f; });
  adapted.output_layer().b().apply([](float v) { return v + 0.01f; });

  const std::vector<sig::RawRow> rows = [&] {
    std::vector<sig::RawRow> out;
    ics::LinkMux mux;
    for (std::size_t i = 0; i < 24; ++i) {
      const auto d = mux.push(f.drift_wire[i].link, f.drift_wire[i].frame);
      out.push_back(ics::to_raw_row(d.decoded.package, d.interval));
    }
    return out;
  }();

  const std::size_t streams = 2;
  detect::StreamBatch batch_a(*det_a, streams);
  std::vector<std::span<const double>> tick(streams);
  std::vector<detect::CombinedVerdict> verdicts_a;
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t s = 0; s < streams; ++s) {
      tick[s] = rows[t * streams + s];
    }
    batch_a.step(tick, verdicts_a);
  }
  const auto snap0 = batch_a.extract_stream(0);
  const auto snap1 = batch_a.extract_stream(1);

  // Swap A onto the adapted weights mid-run.
  det_a->timeseries_level().model().copy_params_from(adapted);
  batch_a.refresh_weights();

  // B always ran the adapted weights; adopt A's stream state.
  det_b->timeseries_level().model().copy_params_from(adapted);
  detect::StreamBatch batch_b(*det_b, streams);
  batch_b.refresh_weights();
  batch_b.restore_stream(0, snap0);
  batch_b.restore_stream(1, snap1);

  std::vector<detect::CombinedVerdict> verdicts_b;
  for (std::size_t t = 4; t < 12; ++t) {
    for (std::size_t s = 0; s < streams; ++s) {
      tick[s] = rows[t * streams + s];
    }
    batch_a.step(tick, verdicts_a);
    batch_b.step(tick, verdicts_b);
    for (std::size_t s = 0; s < streams; ++s) {
      ASSERT_EQ(verdicts_a[s].anomaly, verdicts_b[s].anomaly)
          << "tick " << t << " stream " << s;
      ASSERT_EQ(verdicts_a[s].timeseries_level, verdicts_b[s].timeseries_level)
          << "tick " << t << " stream " << s;
    }
  }
}

TEST(OnlineAdaptation, AdapterRequiresIntervalAndMatchingDetector) {
  const Fixture& f = fixture();
  std::istringstream in(f.model_bytes);
  const auto detector = detect::load_framework(in);
  OnlineTrainer trainer(*detector, test_adapt_config());

  serve::MonitorEngineConfig cfg;
  cfg.adapter = &trainer;
  cfg.adapt_interval = 0;
  EXPECT_THROW(serve::MonitorEngine(*detector, nullptr, cfg),
               std::invalid_argument);

  std::istringstream in2(f.model_bytes);
  const auto other = detect::load_framework(in2);
  cfg.adapt_interval = 128;
  EXPECT_THROW(serve::MonitorEngine(*other, nullptr, cfg),
               std::invalid_argument);
}

// ---- adaptation auto-rollback (DESIGN.md §12) -------------------------------

/// A serve run whose FIRST published adaptation round ships deliberately
/// blown-up weights (AdaptConfig::poison_round), with the engine's rollback
/// monitor on (`rollback_window` > 0) or off (== 0).
RunResult run_poisoned_serve(std::size_t rollback_window,
                             double rollback_ratio = 2.0,
                             double poison_scale = -8.0) {
  const Fixture& f = fixture();
  std::istringstream in(f.model_bytes);
  const auto detector = detect::load_framework(in);

  AdaptConfig acfg = test_adapt_config();
  acfg.poison_round = 1;
  // A plain positive blow-up largely preserves the logit RANKING (scaling
  // the output layer is rank-preserving and saturated gates keep their
  // sign structure), which a top-k detector shrugs off; negating flips the
  // ranking, so the published model predicts the least likely
  // continuations — the storm auto-rollback exists to contain.
  acfg.poison_scale = poison_scale;
  serve::CountingAlarmSink sink;
  OnlineTrainer trainer(*detector, acfg);
  serve::MonitorEngineConfig cfg;
  cfg.adapter = &trainer;
  cfg.adapt_interval = 150;
  cfg.rollback_window = rollback_window;
  cfg.rollback_ratio = rollback_ratio;
  serve::MonitorEngine engine(*detector, &sink, cfg);
  engine.replay(f.drift_wire);

  RunResult result;
  for (const serve::AlarmEvent& e : sink.events()) {
    result.alarms.push_back(
        {e.link, e.seq, e.verdict.package_level, e.time});
  }
  result.swaps = sink.swaps();
  result.rollbacks = sink.rollbacks();
  result.stats = engine.stats();
  result.adapt_stats = trainer.stats();
  return result;
}

const RunResult& poisoned_run(bool guarded) {
  static const RunResult g = run_poisoned_serve(/*rollback_window=*/60);
  static const RunResult u = run_poisoned_serve(/*rollback_window=*/0);
  return guarded ? g : u;
}

TEST(OnlineAdaptation, PoisonedPublicationRollsBackToThePriorVersion) {
  const RunResult& guarded = poisoned_run(true);
  ASSERT_GE(guarded.rollbacks.size(), 1u)
      << "poisoned publication never tripped the rollback monitor";
  EXPECT_EQ(guarded.stats.rollbacks, guarded.rollbacks.size());
  // The first (poisoned) publication is v1; the only older retained
  // weights are the v0 pre-adaptation baseline.
  EXPECT_EQ(guarded.rollbacks.front().from, 1u);
  EXPECT_EQ(guarded.rollbacks.front().to, 0u);
  // The rollback fires a judgment window AFTER the swap it judges, at a
  // tick boundary.
  ASSERT_GE(guarded.swaps.size(), 1u);
  EXPECT_GT(guarded.rollbacks.front().tick, guarded.swaps.front().tick);
}

TEST(OnlineAdaptation, RollbackContainsThePoisonedAlarmStorm) {
  const RunResult& unguarded = poisoned_run(false);
  const RunResult& guarded = poisoned_run(true);
  EXPECT_EQ(unguarded.rollbacks.size(), 0u);
  EXPECT_EQ(unguarded.stats.rollbacks, 0u);
  // Same wire, same poisoned round: restoring the prior version must cut
  // the false-alarm bill relative to serving the bad weights to the end.
  EXPECT_GT(unguarded.alarms.size(), guarded.alarms.size())
      << "rollback did not reduce the poisoned run's false alarms";
}

TEST(OnlineAdaptation, RollbackIsDeterministic) {
  const RunResult& first = poisoned_run(true);
  const RunResult second = run_poisoned_serve(/*rollback_window=*/60);
  EXPECT_EQ(first.rollbacks, second.rollbacks);
  EXPECT_EQ(first.swaps, second.swaps);
  EXPECT_EQ(first.alarms, second.alarms);
  EXPECT_EQ(first.stats.rollbacks, second.stats.rollbacks);
  EXPECT_EQ(first.stats.model_version, second.stats.model_version);
}

TEST(OnlineAdaptation, NonFiniteGradientAbandonsTheRoundAndServeSurvives) {
  // A NaN publication makes every later round's gradient NaN. The trainer
  // thread must survive it (no std::terminate): each such round is counted
  // as skipped, publishes nothing, and the engine replays to the end.
  const RunResult r =
      run_poisoned_serve(/*rollback_window=*/0, /*rollback_ratio=*/2.0,
                         std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(r.adapt_stats.rounds_completed, 1u);  // the poisoned round
  EXPECT_EQ(r.adapt_stats.published_version, 1u);
  EXPECT_GE(r.adapt_stats.rounds_skipped, 1u)
      << "no round ran on the NaN weights";
  EXPECT_EQ(r.stats.rollbacks, 0u);
}

TEST(OnlineAdaptation, NonFinitePublicationTripsRollback) {
  // A 1e39 blow-up overflows the published weights to ±Inf, so the logits
  // go NaN. A NaN target logit must rank as a miss (an alarm): before it
  // did, every package ranked inside the top k, alarms FELL, and the
  // rollback monitor, which watches for a rise, never fired.
  const RunResult r = run_poisoned_serve(/*rollback_window=*/60,
                                         /*rollback_ratio=*/2.0,
                                         /*poison_scale=*/1e39);
  ASSERT_GE(r.swaps.size(), 1u);
  ASSERT_GE(r.rollbacks.size(), 1u)
      << "the non-finite publication never tripped the rollback monitor";
  EXPECT_EQ(r.rollbacks.front().from, 1u);
  EXPECT_EQ(r.rollbacks.front().to, 0u);
  EXPECT_GT(r.rollbacks.front().tick, r.swaps.front().tick);
}

TEST(OnlineAdaptation, RollbackToRestoresTheBaselineBitwise) {
  const Fixture& f = fixture();
  std::istringstream in(f.model_bytes);
  const auto detector = detect::load_framework(in);
  OnlineTrainer trainer(*detector, test_adapt_config());

  std::ostringstream before;
  detect::save_framework(before, *detector);

  // Perturb the serving weights the way a bad swap would.
  detector->timeseries_level().model().output_layer().b().apply(
      [](float v) { return v + 1.0f; });
  std::ostringstream perturbed;
  detect::save_framework(perturbed, *detector);
  ASSERT_NE(before.str(), perturbed.str());

  ASSERT_TRUE(trainer.rollback_to(0));
  std::ostringstream after;
  detect::save_framework(after, *detector);
  EXPECT_EQ(before.str(), after.str()) << "v0 restore is not bitwise";

  // A version that was never retained cannot be restored.
  EXPECT_FALSE(trainer.rollback_to(7));
}

TEST(OnlineAdaptation, RollbackConfigIsValidated) {
  const Fixture& f = fixture();
  std::istringstream in(f.model_bytes);
  const auto detector = detect::load_framework(in);

  serve::MonitorEngineConfig cfg;
  cfg.rollback_window = 32;  // monitor on, but nothing to roll back with
  EXPECT_THROW(serve::MonitorEngine(*detector, nullptr, cfg),
               std::invalid_argument);

  OnlineTrainer trainer(*detector, test_adapt_config());
  cfg.adapter = &trainer;
  cfg.adapt_interval = 150;
  cfg.rollback_ratio = 0.0;
  EXPECT_THROW(serve::MonitorEngine(*detector, nullptr, cfg),
               std::invalid_argument);
}

TEST(OnlineAdaptation, MismatchedWarmStartIsRefused) {
  const Fixture& f = fixture();
  std::istringstream in(f.model_bytes);
  const auto detector = detect::load_framework(in);
  nn::AdamState bogus;
  bogus.t = 7;
  bogus.m = {{1.0f, 2.0f}};
  bogus.v = {{1.0f, 2.0f}};
  EXPECT_THROW(OnlineTrainer(*detector, test_adapt_config(), &bogus),
               std::invalid_argument);
}

}  // namespace
}  // namespace mlad::adapt

#include "detect/timeseries_detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/kernel_backend.hpp"

namespace mlad::detect {
namespace {

/// A deterministic 4-phase cyclic protocol over one feature with 4 values —
/// a miniature of the gas pipeline's command/response cycle.
struct TsFixture : ::testing::Test {
  void SetUp() override {
    cards = {4};
    db = std::make_unique<sig::SignatureDatabase>(sig::SignatureGenerator(cards));
    for (int rep = 0; rep < 50; ++rep) {
      DiscreteFragment frag;
      for (int t = 0; t < 20; ++t) {
        frag.push_back({static_cast<std::uint16_t>(t % 4)});
      }
      fragments.push_back(frag);
      for (const auto& row : frag) db->add(row);
    }
    config.hidden_dims = {12};
    config.epochs = 15;
    config.noise.enabled = false;
    config.max_k = 4;
  }

  std::unique_ptr<TimeSeriesDetector> make_trained(std::uint64_t seed) {
    Rng rng(seed);
    auto det = std::make_unique<TimeSeriesDetector>(*db, cards, config, rng);
    det->train(fragments, rng);
    return det;
  }

  std::vector<std::size_t> cards;
  std::unique_ptr<sig::SignatureDatabase> db;
  std::vector<DiscreteFragment> fragments;
  TimeSeriesConfig config;
};

TEST_F(TsFixture, TrainingLossDecreases) {
  Rng rng(1);
  TimeSeriesDetector det(*db, cards, config, rng);
  const auto losses = det.train(fragments, rng);
  ASSERT_EQ(losses.size(), config.epochs);
  EXPECT_LT(losses.back(), losses.front() * 0.5);
}

TEST_F(TsFixture, TopKErrorLowOnDeterministicCycle) {
  const auto det = make_trained(2);
  EXPECT_LT(det->top_k_error(fragments, 1), 0.15);
  EXPECT_DOUBLE_EQ(det->top_k_error(fragments, 4), 0.0);  // k = |S|
}

TEST_F(TsFixture, TopKErrorMonotoneInK) {
  const auto det = make_trained(3);
  double prev = 1.0;
  for (std::size_t k = 1; k <= 4; ++k) {
    const double err = det->top_k_error(fragments, k);
    EXPECT_LE(err, prev + 1e-12);
    prev = err;
  }
}

TEST_F(TsFixture, ChooseKPicksSmallK) {
  auto det = make_trained(4);
  const std::size_t k = det->choose_k(fragments);
  EXPECT_LE(k, 2u);
  EXPECT_EQ(det->k(), k);
}

TEST_F(TsFixture, StreamingDetectsPhaseViolation) {
  auto det = make_trained(5);
  det->set_k(1);
  auto stream = det->make_stream();
  // Warm up with a correct prefix 0,1,2,3,0,1,…
  for (int t = 0; t < 8; ++t) {
    const sig::DiscreteRow row = {static_cast<std::uint16_t>(t % 4)};
    det->consume(stream, row, false);
  }
  // Next should be 0 (after …,2,3): signature 0 passes, 2 is flagged.
  const auto id_ok = db->id_of({0});
  const auto id_bad = db->id_of({2});
  EXPECT_FALSE(det->is_anomalous(stream, id_ok));
  EXPECT_TRUE(det->is_anomalous(stream, id_bad));
}

TEST_F(TsFixture, FirstPackagePassesWithoutHistory) {
  const auto det = make_trained(6);
  const auto stream = det->make_stream();
  EXPECT_FALSE(det->is_anomalous(stream, db->id_of({0})));
}

TEST_F(TsFixture, MissingSignatureIdIsAnomalous) {
  auto det = make_trained(7);
  auto stream = det->make_stream();
  det->consume(stream, {0}, false);
  EXPECT_TRUE(det->is_anomalous(stream, std::nullopt));
}

TEST_F(TsFixture, NoiseTrainingStillLearns) {
  config.noise.enabled = true;
  config.noise.lambda = 5.0;
  config.noise.max_corrupted_features = 1;
  Rng rng(8);
  TimeSeriesDetector det(*db, cards, config, rng);
  const auto losses = det.train(fragments, rng);
  EXPECT_LT(losses.back(), losses.front());
  // The deterministic cycle should still be predictable at modest k.
  EXPECT_LT(det.top_k_error(fragments, 2), 0.15);
}

TEST_F(TsFixture, InputDimIncludesNoisyBit) {
  Rng rng(9);
  const TimeSeriesDetector det(*db, cards, config, rng);
  EXPECT_EQ(det.model().input_dim(), 4u + 1u);  // one-hot + noisy bit
  EXPECT_EQ(det.model().num_classes(), db->size());
}

TEST_F(TsFixture, ShortFragmentsIgnored) {
  Rng rng(10);
  TimeSeriesDetector det(*db, cards, config, rng);
  const std::vector<DiscreteFragment> tiny = {{{0}}};  // single package
  const auto losses = det.train(tiny, rng);
  EXPECT_DOUBLE_EQ(losses.back(), 0.0);  // nothing to train on
  EXPECT_DOUBLE_EQ(det.top_k_error(tiny, 1), 0.0);
}

TEST_F(TsFixture, TrainRejectsUnknownSignatures) {
  Rng rng(11);
  TimeSeriesDetector det(*db, cards, config, rng);
  // {3} exists but a fragment containing an id outside the db must throw:
  // build a db *without* value 3.
  sig::SignatureDatabase small_db{sig::SignatureGenerator(cards)};
  small_db.add({0});
  TimeSeriesDetector det2(small_db, cards, config, rng);
  const std::vector<DiscreteFragment> bad = {{{0}, {3}}};
  EXPECT_THROW(det2.train(bad, rng), std::invalid_argument);
}

TEST_F(TsFixture, MemoryBytesPositive) {
  Rng rng(12);
  const TimeSeriesDetector det(*db, cards, config, rng);
  EXPECT_GT(det.memory_bytes(), 1000u);
}

// ---- the epoch loop ---------------------------------------------------------

std::vector<float> flat_params(TimeSeriesDetector& det) {
  std::vector<float> out;
  for (const nn::ParamSlot& s : det.model().param_slots()) {
    out.insert(out.end(), s.param->data(), s.param->data() + s.param->size());
  }
  return out;
}

TEST_F(TsFixture, TruncationWindowsCoverEveryStep) {
  // 50 steps of the learned cycle whose last target breaks it. Truncation
  // at 7 leaves that surprising step alone in an eighth window, so a
  // dropped or repeated window moves the epoch's mean loss visibly.
  auto det = make_trained(13);
  DiscreteFragment frag;
  for (std::uint16_t t = 0; t < 50; ++t) frag.push_back({std::uint16_t(t % 4)});
  frag.push_back({0});  // the cycle predicts 2
  const std::vector<DiscreteFragment> frags = {frag};

  // The expected mean: every window scored from a fresh state.
  std::vector<std::vector<float>> xs;
  std::vector<std::size_t> targets;
  std::vector<float> x;
  for (std::size_t t = 0; t + 1 < frag.size(); ++t) {
    sig::one_hot_encode(frag[t], cards, /*extra_bits=*/1, x);
    xs.push_back(x);
    targets.push_back(*db->id_of(frag[t + 1]));
  }
  double loss = 0.0;
  for (std::size_t start = 0; start < xs.size(); start += 7) {
    const std::size_t n = std::min<std::size_t>(7, xs.size() - start);
    loss += det->model().evaluate_fragment(
        std::span(xs).subspan(start, n), std::span(targets).subspan(start, n));
  }
  const double want = loss / static_cast<double>(xs.size());

  // Learning rate 0: the weights never move, so each window's loss is the
  // same at batch 1 (per-window step) and batch 4 (grouped engine).
  TimeSeriesConfig cfg = det->config();
  cfg.epochs = 1;
  cfg.learning_rate = 0.0;
  cfg.truncate_steps = 7;
  for (const std::size_t batch : {1u, 4u}) {
    cfg.batch_size = batch;
    det->set_train_config(cfg);
    Rng rng(14);
    const auto losses = det->train(frags, rng);
    ASSERT_EQ(losses.size(), 1u);
    EXPECT_NEAR(losses[0], want, 1e-5 * want) << "batch " << batch;
  }
}

TEST_F(TsFixture, Batch1IsThePerWindowReferenceStep) {
  // At batch_size 1 every round is one window through train_fragment, the
  // global-norm clip and Adam: bitwise the plain loop below over the
  // shuffled fragments.
  config.epochs = 2;
  config.truncate_steps = 6;  // 19 steps per fragment = 6 + 6 + 6 + 1
  Rng rng(19);
  TimeSeriesDetector det(*db, cards, config, rng);
  nn::SequenceModel ref = det.model();
  Rng ref_rng = rng;
  const auto losses = det.train(fragments, rng);

  nn::Adam opt(config.learning_rate);
  const auto slots = ref.param_slots();
  std::vector<std::size_t> order(fragments.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<float> x;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    ref_rng.shuffle(order);
    double loss = 0.0;
    std::size_t steps = 0;
    for (const std::size_t fi : order) {
      const DiscreteFragment& frag = fragments[fi];
      std::vector<std::vector<float>> xs;
      std::vector<std::size_t> targets;
      for (std::size_t t = 0; t + 1 < frag.size(); ++t) {
        sig::one_hot_encode(frag[t], cards, /*extra_bits=*/1, x);
        xs.push_back(x);
        targets.push_back(*db->id_of(frag[t + 1]));
      }
      for (std::size_t start = 0; start < xs.size(); start += 6) {
        const std::size_t n = std::min<std::size_t>(6, xs.size() - start);
        ref.zero_grads();
        loss += ref.train_fragment(std::span(xs).subspan(start, n),
                                   std::span(targets).subspan(start, n));
        // The clip as a pass over the gradients; the detector folds the
        // same float multiply into Adam's load.
        double ss = 0.0;
        for (const nn::ParamSlot& s : slots) ss += s.grad->sum_squares();
        const double norm = std::sqrt(ss);
        if (norm > config.grad_clip) {
          const auto scale = static_cast<float>(config.grad_clip / norm);
          for (const nn::ParamSlot& s : slots) *s.grad *= scale;
        }
        opt.step(slots);
        steps += n;
      }
    }
    EXPECT_EQ(losses[epoch], loss / static_cast<double>(steps));
  }
  const auto got = det.model().param_slots();
  for (std::size_t k = 0; k < slots.size(); ++k) {
    for (std::size_t i = 0; i < slots[k].param->size(); ++i) {
      ASSERT_EQ(got[k].param->data()[i], slots[k].param->data()[i])
          << "slot " << k << " element " << i;
    }
  }
}

TEST_F(TsFixture, EmptyAndOnePackageFragmentsAreHarmless) {
  const std::vector<DiscreteFragment> none = {{}, {{0}}, {}};
  std::vector<DiscreteFragment> mixed = fragments;
  mixed.insert(mixed.begin() + 3, none.begin(), none.end());
  for (const std::size_t batch : {1u, 4u}) {
    config.batch_size = batch;
    Rng rng(15);
    TimeSeriesDetector det(*db, cards, config, rng);
    for (const double l : det.train(none, rng)) EXPECT_DOUBLE_EQ(l, 0.0);
    EXPECT_EQ(det.top_k_error_curve(none, 4),
              std::vector<double>(4, 0.0));
    const auto losses = det.train(mixed, rng);
    EXPECT_LT(losses.back(), losses.front()) << "batch " << batch;
  }
}

TEST_F(TsFixture, BatchedTrainingIsBitIdenticalAcrossThreadCounts) {
  // One capture at batch > 1 runs the grouped engine; the thread count
  // must not move a bit of the losses or weights (DESIGN.md §5). Noise is
  // on so the caller's Rng feeds encoding as well as the shuffle.
  config.epochs = 3;
  config.truncate_steps = 6;
  config.batch_size = 4;
  config.micro_batch = 2;
  config.noise.enabled = true;
  std::vector<std::vector<double>> losses;
  std::vector<std::vector<float>> params;
  for (const std::size_t threads : {1u, 4u}) {
    config.threads = threads;
    Rng rng(55);
    TimeSeriesDetector det(*db, cards, config, rng);
    losses.push_back(det.train(fragments, rng));
    params.push_back(flat_params(det));
  }
  ASSERT_EQ(losses[0], losses[1]);
  ASSERT_EQ(params[0], params[1]);
}

TEST_F(TsFixture, Batch1AndBatchBBothLearn) {
  config.truncate_steps = 6;
  for (const std::size_t batch : {1u, 4u}) {
    config.batch_size = batch;
    Rng rng(71);
    TimeSeriesDetector det(*db, cards, config, rng);
    const auto losses = det.train(fragments, rng);
    ASSERT_EQ(losses.size(), config.epochs);
    EXPECT_LT(losses.back(), losses.front() * 0.7) << "batch " << batch;
  }
}

TEST_F(TsFixture, TopKErrorCurveMatchesPerKMisses) {
  // A 5-value feature whose database holds only 0..3: a validation target
  // of 4 has no id, so it must count as a miss at every k.
  const std::vector<std::size_t> cards5 = {5};
  sig::SignatureDatabase db5{sig::SignatureGenerator(cards5)};
  for (std::uint16_t v = 0; v < 4; ++v) db5.add({v});
  Rng rng(16);
  config.epochs = 3;
  TimeSeriesDetector det(db5, cards5, config, rng);
  det.train(fragments, rng);

  std::vector<DiscreteFragment> validation = {fragments[0], fragments[1]};
  validation[1][4] = {4};
  validation[1].resize(12);
  const std::size_t max_k = 6;
  const std::vector<double> curve = det.top_k_error_curve(validation, max_k);
  ASSERT_EQ(curve.size(), max_k);

  std::size_t total = 0;
  std::vector<std::size_t> misses(max_k, 0);
  std::vector<float> x;
  for (const DiscreteFragment& frag : validation) {
    std::vector<std::vector<float>> xs;
    std::vector<std::size_t> targets;
    for (std::size_t t = 0; t + 1 < frag.size(); ++t) {
      sig::one_hot_encode(frag[t], cards5, /*extra_bits=*/1, x);
      xs.push_back(x);
      targets.push_back(db5.id_of(frag[t + 1]).value_or(db5.size()));
    }
    total += xs.size();
    for (std::size_t k = 1; k <= max_k; ++k) {
      misses[k - 1] += det.model().top_k_misses(xs, targets, k);
    }
  }
  ASSERT_GT(misses[max_k - 1], 0u);  // the unknown target always misses
  std::size_t brute_k = 0;  // minimal k with err_k < θ, 0 if none
  const double theta = 0.1;
  for (std::size_t k = 1; k <= max_k; ++k) {
    const double err =
        static_cast<double>(misses[k - 1]) / static_cast<double>(total);
    EXPECT_EQ(curve[k - 1], err) << "k=" << k;
    EXPECT_EQ(det.top_k_error(validation, k), err) << "k=" << k;
    if (brute_k == 0 && err < theta) brute_k = k;
  }
  config.theta = theta;
  config.max_k = max_k;
  det.set_train_config(config);
  EXPECT_EQ(det.choose_k(validation), brute_k == 0 ? max_k : brute_k);
}

TEST_F(TsFixture, TopKErrorCurveIsIdenticalOnEveryBackend) {
  // The single-stream pass (gemv_add over transposes) computes the same
  // bits on every kernel backend, so the curve and the chosen k are too.
  auto det = make_trained(8);
  std::vector<std::vector<double>> curves;
  for (const std::string& name : nn::available_kernel_backends()) {
    ASSERT_TRUE(nn::select_kernel_backend(name));
    curves.push_back(det->top_k_error_curve(fragments, config.max_k));
  }
  nn::select_kernel_backend_from_env();
  for (const auto& curve : curves) EXPECT_EQ(curve, curves.front());
}

TEST_F(TsFixture, NonFiniteGradientStopsTraining) {
  // Batch 1 (the per-window step) and the batched fold both refuse a NaN
  // gradient norm instead of letting Adam write NaN weights.
  for (const std::size_t batch : {1u, 4u}) {
    config.batch_size = batch;
    Rng rng(21);
    TimeSeriesDetector det(*db, cards, config, rng);
    det.model().output_layer().b()(0, 0) =
        std::numeric_limits<float>::quiet_NaN();
    EXPECT_THROW(det.train(fragments, rng), nn::NonFiniteGradientError)
        << "batch " << batch;
  }
}

TEST_F(TsFixture, ChooseKFallsBackToMaxK) {
  // θ = 0 can never be met (errors are >= 0 and the test is strict).
  config.theta = 0.0;
  config.max_k = 3;
  Rng rng(17);
  TimeSeriesDetector det(*db, cards, config, rng);  // untrained
  EXPECT_EQ(det.choose_k(fragments), 3u);
}

TEST_F(TsFixture, ZeroBatchSizesAreRejected) {
  Rng rng(18);
  TimeSeriesConfig bad = config;
  bad.batch_size = 0;
  EXPECT_THROW(TimeSeriesDetector(*db, cards, bad, rng),
               std::invalid_argument);
  bad = config;
  bad.micro_batch = 0;
  EXPECT_THROW(TimeSeriesDetector(*db, cards, bad, rng),
               std::invalid_argument);
  TimeSeriesDetector det(*db, cards, config, rng);
  EXPECT_THROW(det.set_train_config(bad), std::invalid_argument);
}

}  // namespace
}  // namespace mlad::detect

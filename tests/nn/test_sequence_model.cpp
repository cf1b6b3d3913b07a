#include "nn/sequence_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "nn/softmax.hpp"
#include "support/alloc_counter.hpp"

namespace mlad::nn {
namespace {

/// Build a deterministic cyclic task: one-hot class t predicts class (t+1)%C.
void cyclic_fragment(std::size_t classes, std::size_t steps,
                     std::vector<std::vector<float>>& xs,
                     std::vector<std::size_t>& targets) {
  xs.clear();
  targets.clear();
  for (std::size_t t = 0; t < steps; ++t) {
    std::vector<float> x(classes, 0.0f);
    x[t % classes] = 1.0f;
    xs.push_back(std::move(x));
    targets.push_back((t + 1) % classes);
  }
}

TEST(SequenceModel, RejectsZeroDimensions) {
  SequenceModelConfig cfg;
  cfg.input_dim = 0;
  cfg.num_classes = 3;
  EXPECT_THROW(SequenceModel{cfg}, std::invalid_argument);
}

TEST(SequenceModel, ParamSlotsCoverEveryTensor) {
  SequenceModelConfig cfg;
  cfg.input_dim = 4;
  cfg.num_classes = 3;
  cfg.hidden_dims = {5, 6};
  SequenceModel model(cfg);
  // 2 LSTM layers × 3 tensors + softmax W,b
  EXPECT_EQ(model.param_slots().size(), 2u * 3u + 2u);
  std::size_t total = 0;
  for (const auto& slot : model.param_slots()) total += slot.param->size();
  EXPECT_EQ(total, model.param_count());
}

TEST(SequenceModel, LearnsCyclicSequence) {
  SequenceModelConfig cfg;
  cfg.input_dim = 5;
  cfg.num_classes = 5;
  cfg.hidden_dims = {16};
  SequenceModel model(cfg);
  Rng rng(42);
  model.init_params(rng);

  std::vector<std::vector<float>> xs;
  std::vector<std::size_t> targets;
  cyclic_fragment(5, 40, xs, targets);

  Adam opt(1e-2);
  const auto slots = model.param_slots();
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    model.zero_grads();
    const double loss = model.train_fragment(xs, targets) / xs.size();
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
    opt.step(slots, clip_scale(slots, 5.0));
  }
  EXPECT_LT(last_loss, first_loss * 0.2);
  // The deterministic cycle should be perfectly predicted at top-1.
  EXPECT_EQ(model.top_k_misses(xs, targets, 1), 0u);
}

TEST(SequenceModel, EvaluateMatchesTrainForwardLoss) {
  SequenceModelConfig cfg;
  cfg.input_dim = 3;
  cfg.num_classes = 4;
  cfg.hidden_dims = {4};
  SequenceModel model(cfg);
  Rng rng(9);
  model.init_params(rng);

  std::vector<std::vector<float>> xs = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::size_t> targets = {1, 2, 3};
  const double eval_loss = model.evaluate_fragment(xs, targets);
  model.zero_grads();
  const double train_loss = model.train_fragment(xs, targets);
  EXPECT_NEAR(eval_loss, train_loss, 1e-4);
}

TEST(SequenceModel, TopKMissesMonotoneInK) {
  SequenceModelConfig cfg;
  cfg.input_dim = 4;
  cfg.num_classes = 6;
  cfg.hidden_dims = {5};
  SequenceModel model(cfg);
  Rng rng(13);
  model.init_params(rng);

  std::vector<std::vector<float>> xs;
  std::vector<std::size_t> targets;
  for (int t = 0; t < 30; ++t) {
    std::vector<float> x(4, 0.0f);
    x[t % 4] = 1.0f;
    xs.push_back(x);
    targets.push_back(static_cast<std::size_t>(t * 7 % 6));
  }
  std::size_t prev = xs.size() + 1;
  for (std::size_t k = 1; k <= 6; ++k) {
    const std::size_t misses = model.top_k_misses(xs, targets, k);
    EXPECT_LE(misses, prev);
    prev = misses;
  }
  EXPECT_EQ(model.top_k_misses(xs, targets, 6), 0u);  // k == |S|
}

TEST(SequenceModel, StreamingPredictMatchesSequenceProbabilities) {
  SequenceModelConfig cfg;
  cfg.input_dim = 3;
  cfg.num_classes = 4;
  cfg.hidden_dims = {4, 3};
  SequenceModel model(cfg);
  Rng rng(21);
  model.init_params(rng);

  std::vector<std::vector<float>> xs = {{0.5f, 0, 0}, {0, 0.5f, 0}, {0, 0, 0.5f}};
  // Streaming twice must produce identical outputs (pure function of state).
  auto s1 = model.make_state();
  auto s2 = model.make_state();
  std::vector<float> p1, p2;
  for (const auto& x : xs) {
    model.predict(s1, x, p1);
    model.predict(s2, x, p2);
    ASSERT_EQ(p1.size(), p2.size());
    for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
  }
}

TEST(SequenceModel, StateMadeBeforeAWeightChangePredictsWithTheNewWeights) {
  // A State caches weight transposes; a weight change (copy_params_from,
  // re-init, or an optimizer step announced by params_changed) must reach
  // a State made before it — the bits of a State made after it.
  SequenceModelConfig cfg;
  cfg.input_dim = 5;
  cfg.num_classes = 4;
  cfg.hidden_dims = {6, 3};
  SequenceModel model(cfg);
  SequenceModel other(cfg);
  Rng rng(23);
  model.init_params(rng);
  other.init_params(rng);
  const std::vector<float> x = {1, 0, 0, 1, 0};
  const auto expect_fresh_bits = [&](SequenceModel::State& old_state,
                                     const char* what) {
    model.reset_state(old_state);
    SequenceModel::State fresh = model.make_state();
    std::vector<float> got, want;
    model.predict(old_state, x, got);
    model.predict(fresh, x, want);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << what << " logit " << i;
    }
  };

  SequenceModel::State state = model.make_state();
  std::vector<float> before;
  model.predict(state, x, before);  // builds the transposes

  model.copy_params_from(other);
  expect_fresh_bits(state, "copy_params_from");
  model.init_params(rng);
  expect_fresh_bits(state, "init_params");
  for (const ParamSlot& slot : model.param_slots()) {
    slot.param->data()[0] += 0.5f;
  }
  model.params_changed();
  expect_fresh_bits(state, "params_changed");
}

/// One tick of a prefix schedule: relabel two stream pairs, then step the
/// first `rows.rows()` streams.
struct PrefixTick {
  std::size_t swap[2][2];
  OneHotRows rows;
};

TEST(SequenceModel, PredictBatchPrefixStepsEachStreamAsIfAlone) {
  // The serve engine's ready-only tick: relabel streams, then step only a
  // prefix of them. On a two-layer model every stream must hold the bits of
  // a one-stream batch fed the same inputs — the stepped rows' logits after
  // each tick, the other streams' state and logits untouched — and once
  // warm the prefix ticks allocate nothing.
  SequenceModelConfig cfg;
  cfg.input_dim = 13;
  cfg.num_classes = 11;
  cfg.hidden_dims = {10, 7};
  SequenceModel model(cfg);
  Rng rng(41);
  model.init_params(rng);
  constexpr std::size_t S = 5;

  const auto draw_tick = [&] {
    PrefixTick t;
    for (auto& pair : t.swap) {
      pair[0] = rng.index(S);
      pair[1] = rng.index(S);
    }
    t.rows.clear(cfg.input_dim);
    const std::size_t n = 1 + rng.index(S);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::uint32_t id = 0; id < cfg.input_dim; ++id) {
        if (rng.uniform() < 0.25) t.rows.ids.push_back(id);
      }
      t.rows.end_row();
    }
    return t;
  };

  SequenceModel::BatchState batch = model.make_batch_state(S);
  std::vector<SequenceModel::BatchState> lone;
  for (std::size_t s = 0; s < S; ++s) lone.push_back(model.make_batch_state(1));
  std::vector<std::size_t> stream_at(S);  // slot → stream
  std::iota(stream_at.begin(), stream_at.end(), 0);
  const auto relabel = [&](const PrefixTick& t) {
    for (const auto& pair : t.swap) {
      model.swap_batch_streams(batch, pair[0], pair[1]);
      std::swap(stream_at[pair[0]], stream_at[pair[1]]);
    }
  };
  OneHotRows one;
  const auto step_lone = [&](const PrefixTick& t) {
    for (std::size_t r = 0; r < t.rows.rows(); ++r) {
      one.clear(cfg.input_dim);
      one.append_row(t.rows, r);
      model.predict_batch(lone[stream_at[r]], one);
    }
  };
  const auto expect_alone = [&](std::size_t slot) {
    const auto got = model.extract_batch_stream(batch, slot);
    const auto want = model.extract_batch_stream(lone[stream_at[slot]], 0);
    EXPECT_EQ(got.lstm.h, want.lstm.h) << "slot " << slot;
    EXPECT_EQ(got.lstm.c, want.lstm.c) << "slot " << slot;
    EXPECT_EQ(got.logits, want.logits) << "slot " << slot;
  };

  // Full ticks first, so every stream has standing logits to keep.
  PrefixTick full;
  full.rows.clear(cfg.input_dim);
  for (std::size_t r = 0; r < S; ++r) {
    full.rows.ids.push_back(static_cast<std::uint32_t>(r));
    full.rows.end_row();
  }
  full.swap[0][0] = full.swap[0][1] = full.swap[1][0] = full.swap[1][1] = 0;
  model.predict_batch(batch, full.rows);
  step_lone(full);

  for (std::size_t t = 0; t < 60; ++t) {
    const PrefixTick tick = draw_tick();
    relabel(tick);
    const std::size_t n = tick.rows.rows();
    std::vector<SequenceModel::StreamSnapshot> before;
    for (std::size_t s = n; s < S; ++s) {
      before.push_back(model.extract_batch_stream(batch, s));
    }
    model.predict_batch(batch, tick.rows);
    step_lone(tick);
    for (std::size_t s = 0; s < n; ++s) expect_alone(s);
    for (std::size_t s = n; s < S; ++s) {
      const auto after = model.extract_batch_stream(batch, s);
      EXPECT_EQ(after.lstm.h, before[s - n].lstm.h) << "tick " << t;
      EXPECT_EQ(after.lstm.c, before[s - n].lstm.c) << "tick " << t;
      EXPECT_EQ(after.logits, before[s - n].logits) << "tick " << t;
    }
  }

  // Warm: the same kind of schedule, drawn up front, counted.
  std::vector<PrefixTick> ticks;
  for (std::size_t t = 0; t < 60; ++t) ticks.push_back(draw_tick());
  test_support::begin_counting_allocations();
  for (const PrefixTick& tick : ticks) {
    for (const auto& pair : tick.swap) {
      model.swap_batch_streams(batch, pair[0], pair[1]);
    }
    model.predict_batch(batch, tick.rows);
  }
  const std::size_t allocations = test_support::end_counting_allocations();
  EXPECT_EQ(allocations, 0u);
  // Replay the mapping and the lone streams, then compare every stream.
  for (const PrefixTick& tick : ticks) {
    for (const auto& pair : tick.swap) {
      std::swap(stream_at[pair[0]], stream_at[pair[1]]);
    }
    step_lone(tick);
  }
  for (std::size_t s = 0; s < S; ++s) expect_alone(s);
}

TEST(SequenceModel, MemoryBytesTracksParamCount) {
  SequenceModelConfig cfg;
  cfg.input_dim = 4;
  cfg.num_classes = 3;
  cfg.hidden_dims = {8};
  SequenceModel model(cfg);
  EXPECT_EQ(model.memory_bytes(), model.param_count() * sizeof(float) + 64);
}

TEST(SequenceModel, TrainFragmentValidatesLengths) {
  SequenceModelConfig cfg;
  cfg.input_dim = 2;
  cfg.num_classes = 2;
  cfg.hidden_dims = {3};
  SequenceModel model(cfg);
  std::vector<std::vector<float>> xs = {{1, 0}};
  std::vector<std::size_t> targets = {0, 1};
  EXPECT_THROW(model.train_fragment(xs, targets), std::invalid_argument);
}

}  // namespace
}  // namespace mlad::nn

#include "nn/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/stopwatch.hpp"

namespace mlad::nn {

MinibatchTrainer::MinibatchTrainer(SequenceModel& model,
                                   std::size_t micro_batch,
                                   std::size_t threads)
    : model_(&model),
      micro_batch_(micro_batch != 0
                       ? micro_batch
                       : throw std::invalid_argument(
                             "MinibatchTrainer: micro_batch must be >= 1")),
      pool_(threads) {}

double MinibatchTrainer::process(std::span<const WindowRef> windows) {
  // One group ⇒ the same micro-batch partition (and therefore bit-identical
  // results) as the original ungrouped engine.
  const std::span<const WindowRef> group[] = {windows};
  return process_grouped(group);
}

double MinibatchTrainer::process_grouped(
    std::span<const std::span<const WindowRef>> groups) {
  model_->zero_grads();
  // The lane partition depends only on the group sizes and micro_batch_ —
  // never on the pool — so lane contents are reproducible. Lanes never
  // straddle a group boundary: each group (capture) accumulates into its
  // own lanes before the fixed-order merge.
  lane_windows_.clear();
  for (const std::span<const WindowRef>& g : groups) {
    for (std::size_t b = 0; b < g.size(); b += micro_batch_) {
      lane_windows_.push_back(g.subspan(b, std::min(micro_batch_,
                                                    g.size() - b)));
    }
  }
  const std::size_t lanes = lane_windows_.size();
  lane_seconds_.assign(lanes, 0.0);
  if (lanes == 0) return 0.0;
  // Weights are frozen between optimizer steps, so one refresh here serves
  // every lane of every minibatch until the next step (DESIGN.md §11).
  if (!tcache_.valid) model_->refresh_transpose_cache(tcache_);
  while (lanes_.size() < lanes) {
    lanes_.push_back(model_->make_grads());
    ws_.emplace_back();
  }
  lane_loss_.assign(lanes, 0.0);

  const auto run_lane = [&](std::size_t mb) {
    Stopwatch lane_sw;
    lanes_[mb].zero();
    // The inner pool pointer is the same pool; nested parallel_for from a
    // worker runs inline, so kernel-level parallelism only kicks in when
    // there is a single lane to run.
    lane_loss_[mb] = model_->train_window_batch(lane_windows_[mb], lanes_[mb],
                                                ws_[mb], pool_.get(),
                                                &tcache_);
    lane_seconds_[mb] = lane_sw.elapsed_seconds();
  };
  if (pool_.get() == nullptr || lanes == 1) {
    for (std::size_t mb = 0; mb < lanes; ++mb) run_lane(mb);
  } else {
    pool_.get()->parallel_for(0, lanes, run_lane);
  }

  // Fixed-order pairwise tree reduction: lane pairing is a function of the
  // lane count alone, so the float sums never depend on the thread count.
  for (std::size_t stride = 1; stride < lanes; stride *= 2) {
    for (std::size_t i = 0; i + stride < lanes; i += 2 * stride) {
      lanes_[i] += lanes_[i + stride];
    }
  }
  const auto slots = model_->param_slots();
  for (std::size_t k = 0; k < slots.size(); ++k) {
    *slots[k].grad += lanes_[0].g[k];
  }
  double loss = 0.0;
  for (std::size_t mb = 0; mb < lanes; ++mb) loss += lane_loss_[mb];
  return loss;
}

double MinibatchTrainer::step(std::span<const WindowRef> windows,
                              std::span<const ParamSlot> slots,
                              double grad_clip, Optimizer& opt) {
  const std::span<const WindowRef> group[] = {windows};
  return step_grouped(group, slots, grad_clip, opt);
}

double MinibatchTrainer::step_grouped(
    std::span<const std::span<const WindowRef>> groups,
    std::span<const ParamSlot> slots, double grad_clip, Optimizer& opt) {
  const double loss = process_grouped(groups);
  clip_global_norm(slots, grad_clip);
  opt.step(slots);
  tcache_.valid = false;  // parameters just changed
  return loss;
}

}  // namespace mlad::nn

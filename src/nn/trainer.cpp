#include "nn/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/stopwatch.hpp"
#include "nn/kernel_backend.hpp"

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
  if (lanes == 0) {
    model_->zero_grads();
    grad_sum_squares_ = 0.0;
    return 0.0;
  }
  // Weights are frozen between optimizer steps, so one refresh here serves
  // every lane of every minibatch until the next step (DESIGN.md §11).
  if (tcache_.version != model_->params_version()) {
    model_->refresh_transpose_cache(tcache_);
  }
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

  fold_lanes(lanes);
  double loss = 0.0;
  for (std::size_t mb = 0; mb < lanes; ++mb) loss += lane_loss_[mb];
  return loss;
}

void MinibatchTrainer::fold_lanes(std::size_t lanes) {
  // The fixed-order pairwise tree over the lanes (pairing a function of
  // the lane count alone, so the float sums never depend on the thread
  // count): level s adds lane i + s into lane i for i = 0, 2s, 4s, ….
  // Every level below the top one runs in place, in chunks so the lanes
  // stay cached; the top level (lane 0 + lane `top`, or lane 0 alone when
  // there is one lane) is added to +0 — the add into zeroed model
  // gradients it replaces, so a −0 sum lands as +0 as it always did — and
  // written to the model's gradient buffer directly. A slot the lanes
  // store transposed (ModelGrads::transposed) is summed in place in lane 0
  // and lands in its parameter's layout through the backend transpose.
  // nn::grad_sum_squares then takes the clip's norm over the folded slots.
  std::size_t top = 0;
  for (std::size_t stride = 1; stride < lanes; stride *= 2) top = stride;
  constexpr std::size_t kChunk = 4096;
  const auto slots = model_->param_slots();
  const KernelBackend& be = kernel_backend();
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const std::size_t size = lanes_[0].g[k].size();
    for (std::size_t e0 = 0; e0 < size; e0 += kChunk) {
      const std::size_t e1 = std::min(size, e0 + kChunk);
      for (std::size_t stride = 1; stride < top; stride *= 2) {
        for (std::size_t i = 0; i + stride < lanes; i += 2 * stride) {
          float* acc = lanes_[i].g[k].data();
          const float* add = lanes_[i + stride].g[k].data();
          for (std::size_t e = e0; e < e1; ++e) acc[e] += add[e];
        }
      }
    }
    float* a = lanes_[0].g[k].data();
    Matrix& dst = *slots[k].grad;
    const bool transposed = lanes_[0].transposed[k];
    float* sum = transposed ? a : dst.data();
    if (top != 0) {
      const float* b = lanes_[top].g[k].data();
      for (std::size_t e = 0; e < size; ++e) sum[e] = 0.0f + (a[e] + b[e]);
    } else {
      for (std::size_t e = 0; e < size; ++e) sum[e] = 0.0f + a[e];
    }
    if (transposed) be.transpose(a, dst.data(), dst.cols(), dst.rows());
  }
  const double ss = nn::grad_sum_squares(slots);
  // A NaN or Inf gradient stops training here, before Adam writes it into
  // the weights (and save_model into a file).
  (void)finite_grad_norm(ss);
  grad_sum_squares_ = ss;
}

double MinibatchTrainer::step(std::span<const WindowRef> windows,
                              std::span<const ParamSlot> slots,
                              double grad_clip, Adam& opt) {
  const std::span<const WindowRef> group[] = {windows};
  return step_grouped(group, slots, grad_clip, opt);
}

double MinibatchTrainer::step_grouped(
    std::span<const std::span<const WindowRef>> groups,
    std::span<const ParamSlot> slots, double grad_clip, Adam& opt) {
  const double loss = process_grouped(groups);
  opt.step(slots, clip_scale(grad_sum_squares_, grad_clip));
  model_->params_changed();
  return loss;
}

}  // namespace mlad::nn

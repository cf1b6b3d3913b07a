#include "detect/pipeline.hpp"

#include <algorithm>
#include <optional>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "detect/stream_batch.hpp"
#include "ics/features.hpp"

namespace mlad::detect {
namespace {

/// Score rows [begin, end) as one independent stream into `out`. The
/// caller owns `stream` (reset between shards) so its scratch buffers are
/// reused across shards instead of reallocated per shard.
void evaluate_shard(const CombinedDetector& detector,
                    std::span<const ics::Package> test,
                    std::span<const sig::RawRow> rows, std::size_t begin,
                    std::size_t end, CombinedDetector::Stream& stream,
                    EvaluationResult& out) {
  for (std::size_t i = begin; i < end; ++i) {
    const CombinedVerdict v = detector.classify_and_consume(stream, rows[i]);
    out.confusion.record(test[i].is_attack(), v.anomaly);
    out.per_attack.record(test[i].label, v.anomaly);
    if (v.package_level) ++out.package_level_alarms;
    if (v.timeseries_level) ++out.timeseries_level_alarms;
  }
}

/// Batched multi-stream evaluation: cut the test stream into S contiguous
/// near-equal segments (longer segments first, so the active set stays a
/// prefix) and advance them in lockstep through StreamBatch.
EvaluationResult evaluate_multistream(const CombinedDetector& detector,
                                      std::span<const ics::Package> test,
                                      const EvalOptions& options) {
  const std::size_t S = std::min(options.streams, test.size());
  const std::vector<sig::RawRow> rows = ics::to_raw_rows(test);
  const std::size_t base = test.size() / S;
  const std::size_t rem = test.size() % S;
  std::vector<std::size_t> offset(S);
  std::vector<std::size_t> length(S);
  for (std::size_t s = 0, at = 0; s < S; ++s) {
    length[s] = base + (s < rem ? 1 : 0);  // non-increasing in s
    offset[s] = at;
    at += length[s];
  }

  Stopwatch sw;
  PoolHandle pool(options.threads);
  StreamBatch batch(detector, S, pool.get());
  std::vector<EvaluationResult> partials(S);
  std::vector<std::span<const double>> tick(S);
  std::vector<CombinedVerdict> verdicts;
  std::size_t active = S;
  for (std::size_t t = 0; t < length[0]; ++t) {
    while (active > 0 && length[active - 1] <= t) --active;
    if (active < batch.active()) batch.shrink(active);
    for (std::size_t s = 0; s < active; ++s) tick[s] = rows[offset[s] + t];
    batch.step(std::span(tick).first(active), verdicts);
    for (std::size_t s = 0; s < active; ++s) {
      const ics::Package& p = test[offset[s] + t];
      EvaluationResult& out = partials[s];
      out.confusion.record(p.is_attack(), verdicts[s].anomaly);
      out.per_attack.record(p.label, verdicts[s].anomaly);
      if (verdicts[s].package_level) ++out.package_level_alarms;
      if (verdicts[s].timeseries_level) ++out.timeseries_level_alarms;
    }
  }

  EvaluationResult result;
  for (const EvaluationResult& p : partials) {
    result.confusion += p.confusion;
    result.per_attack += p.per_attack;
    result.package_level_alarms += p.package_level_alarms;
    result.timeseries_level_alarms += p.timeseries_level_alarms;
  }
  result.avg_classify_us = sw.elapsed_us() / static_cast<double>(test.size());
  return result;
}

}  // namespace

std::vector<std::vector<sig::RawRow>> fragment_raw_rows(
    std::span<const ics::PackageFragment> fragments) {
  std::vector<std::vector<sig::RawRow>> out;
  out.reserve(fragments.size());
  for (const auto& f : fragments) out.push_back(ics::fragment_rows(f));
  return out;
}

namespace {

/// The one framework builder behind both train_framework overloads: split
/// every capture 6:2:2 and train one detector over all of them. Without
/// `shard_seed` (exactly one capture) the single-capture CombinedDetector
/// runs, so config.seed's Rng also drives the LSTM epochs.
MultiTrainedFramework build_framework(std::span<const CaptureInput> captures,
                                      const PipelineConfig& config,
                                      std::optional<std::uint64_t> shard_seed) {
  MultiTrainedFramework tf;
  tf.splits.reserve(captures.size());
  const std::vector<sig::FeatureSpec> specs =
      config.specs.empty() ? ics::default_feature_specs() : config.specs;

  // Per-capture fragment storage must outlive the detector constructor,
  // which only holds spans over it.
  struct CaptureRows {
    std::vector<std::vector<sig::RawRow>> train, val, train_short, val_short;
  };
  std::vector<CaptureRows> rows(captures.size());
  std::vector<CaptureFragments> frags;
  frags.reserve(captures.size());
  for (std::size_t ci = 0; ci < captures.size(); ++ci) {
    tf.splits.push_back(ics::split_dataset(captures[ci].packages,
                                           config.split));
    const ics::DatasetSplit& split = tf.splits.back();
    CaptureRows& r = rows[ci];
    r.train = fragment_raw_rows(split.train_fragments);
    r.val = fragment_raw_rows(split.validation_fragments);
    r.train_short = fragment_raw_rows(split.train_short_fragments);
    r.val_short = fragment_raw_rows(split.validation_short_fragments);
    frags.push_back(
        {captures[ci].key, r.train, r.val, r.train_short, r.val_short});
  }

  Rng rng(config.seed);
  Stopwatch sw;
  if (shard_seed) {
    tf.detector = std::make_unique<CombinedDetector>(
        frags, specs, config.combined, rng, *shard_seed);
  } else {
    const CaptureFragments& f = frags.front();
    tf.detector = std::make_unique<CombinedDetector>(
        f.train_fragments, f.validation_fragments, specs, config.combined, rng,
        f.signature_only_train, f.signature_only_validation);
  }
  tf.train_seconds = sw.elapsed_seconds();
  return tf;
}

}  // namespace

TrainedFramework train_framework(std::span<const ics::Package> capture,
                                 const PipelineConfig& config) {
  const CaptureInput one[] = {{"", capture}};
  MultiTrainedFramework tf = build_framework(one, config, std::nullopt);
  return {std::move(tf.detector), std::move(tf.splits.front()),
          tf.train_seconds};
}

MultiTrainedFramework train_framework(std::span<const CaptureInput> captures,
                                      const PipelineConfig& config) {
  return build_framework(captures, config, /*shard_seed=*/config.seed);
}

EvaluationResult evaluate_framework(const CombinedDetector& detector,
                                    std::span<const ics::Package> test) {
  EvaluationResult result;
  const std::vector<sig::RawRow> rows = ics::to_raw_rows(test);
  Stopwatch sw;
  CombinedDetector::Stream stream = detector.make_stream();
  evaluate_shard(detector, test, rows, 0, test.size(), stream, result);
  if (!test.empty()) {
    result.avg_classify_us = sw.elapsed_us() / static_cast<double>(test.size());
  }
  return result;
}

EvaluationResult evaluate_framework(const CombinedDetector& detector,
                                    std::span<const ics::Package> test,
                                    const EvalOptions& options) {
  if (options.streams > 1 && test.size() > 1) {
    return evaluate_multistream(detector, test, options);
  }
  const std::size_t shard_size =
      options.shard_size == 0 ? test.size() : options.shard_size;
  if (test.empty() || shard_size >= test.size()) {
    return evaluate_framework(detector, test);
  }
  const std::vector<sig::RawRow> rows = ics::to_raw_rows(test);
  const std::size_t shards = (test.size() + shard_size - 1) / shard_size;
  std::vector<EvaluationResult> partials(shards);

  Stopwatch sw;
  PoolHandle pool(options.threads);
  // One stream object per contiguous shard range: its LSTM state is reset
  // at every shard boundary (independent-stream semantics preserved) but
  // the encode / probability scratch buffers are reused across the whole
  // range instead of reallocated per shard.
  const auto run_shards = [&](std::size_t sb, std::size_t se) {
    CombinedDetector::Stream stream = detector.make_stream();
    for (std::size_t s = sb; s < se; ++s) {
      detector.reset_stream(stream);
      const std::size_t begin = s * shard_size;
      const std::size_t end = std::min(test.size(), begin + shard_size);
      evaluate_shard(detector, test, rows, begin, end, stream, partials[s]);
    }
  };
  if (pool.get() == nullptr) {
    run_shards(0, shards);
  } else {
    pool.get()->parallel_chunks(0, shards, run_shards);
  }

  // Merge in shard order (all counts are integers, so the order only
  // matters for reproducibility discipline, not rounding).
  EvaluationResult result;
  for (const EvaluationResult& p : partials) {
    result.confusion += p.confusion;
    result.per_attack += p.per_attack;
    result.package_level_alarms += p.package_level_alarms;
    result.timeseries_level_alarms += p.timeseries_level_alarms;
  }
  result.avg_classify_us = sw.elapsed_us() / static_cast<double>(test.size());
  return result;
}

}  // namespace mlad::detect

// Standalone per-layer passes: each times one library layer on its own, over
// the same inputs the end-to-end reps use, so a layer's cost can be read
// without the engine around it.
#include <algorithm>
#include <map>
#include <numeric>

#include "bench.hpp"
#include "detect/package_detector.hpp"
#include "detect/stream_batch.hpp"
#include "detect/timeseries_detector.hpp"
#include "ics/dataset.hpp"
#include "ics/features.hpp"
#include "ingest/package_source.hpp"
#include "ingest/shard_router.hpp"

namespace mlad::e2e {
namespace {

std::vector<sig::RawRow> flatten(
    const std::vector<std::vector<sig::RawRow>>& fragments) {
  std::vector<sig::RawRow> rows;
  for (const auto& f : fragments) rows.insert(rows.end(), f.begin(), f.end());
  return rows;
}

}  // namespace

TrainBreakdown train_breakdown(std::span<const ics::Package> packages,
                               const detect::PipelineConfig& config,
                               const detect::CombinedDetector& reference) {
  // The steps of train_framework and CombinedDetector's training
  // constructor, in the same order and with the same Rng draws, so the
  // rebuilt model must be byte-identical to `reference`.
  const ics::DatasetSplit split = ics::split_dataset(packages, config.split);
  const auto train = detect::fragment_raw_rows(split.train_fragments);
  const auto val = detect::fragment_raw_rows(split.validation_fragments);
  std::vector<sig::RawRow> train_rows = flatten(train);
  {
    const auto extra =
        flatten(detect::fragment_raw_rows(split.train_short_fragments));
    train_rows.insert(train_rows.end(), extra.begin(), extra.end());
  }
  const std::vector<sig::FeatureSpec> specs =
      config.specs.empty() ? ics::default_feature_specs() : config.specs;

  TrainBreakdown out;
  Rng rng(config.seed);
  std::uint64_t t0 = now_ns();
  auto package = std::make_unique<detect::PackageLevelDetector>(
      train_rows, specs, rng, config.combined.package);
  out.package_build_s = static_cast<double>(now_ns() - t0) * 1e-9;

  const auto discretize = [&](const std::vector<std::vector<sig::RawRow>>& in) {
    std::vector<detect::DiscreteFragment> frags;
    frags.reserve(in.size());
    for (const auto& f : in) {
      frags.push_back(package->discretizer().transform_all(f));
    }
    return frags;
  };
  const auto train_disc = discretize(train);
  const auto val_disc = discretize(val);

  auto timeseries = std::make_unique<detect::TimeSeriesDetector>(
      package->database(), package->discretizer().cardinalities(),
      config.combined.timeseries, rng);
  t0 = now_ns();
  const std::vector<double> losses = timeseries->train(train_disc, rng);
  out.epoch_s = static_cast<double>(now_ns() - t0) * 1e-9 /
                static_cast<double>(std::max<std::size_t>(1, losses.size()));
  t0 = now_ns();
  timeseries->choose_k(val_disc);
  out.choose_k_s = static_cast<double>(now_ns() - t0) * 1e-9;

  const detect::CombinedDetector rebuilt(std::move(package),
                                         std::move(timeseries));
  out.identical = model_bytes(rebuilt) == model_bytes(reference);
  return out;
}

StandalonePasses standalone_passes(const detect::CombinedDetector& detector,
                                   const Traffic& traffic, std::size_t shards) {
  constexpr std::size_t kDim = ics::kRawColumnCount;
  double next_ns = 0.0;
  double decode_ns = 0.0;
  double lookup_ns = 0.0;
  double step_ns = 0.0;

  for (const Session& session : traffic.sessions) {
    // The in-memory source `mlad serve --source capture` drains.
    {
      ingest::CaptureSource source(session.frames);
      ics::LinkFrame lf;
      const std::uint64_t t0 = now_ns();
      while (source.next(lf)) {
      }
      next_ns += static_cast<double>(now_ns() - t0);
    }
    // One shard of the session at a time, as one engine shard sees it.
    for (std::size_t shard = 0; shard < shards; ++shard) {
      std::vector<const ics::LinkFrame*> mine;
      for (const ics::LinkFrame& lf : session.frames) {
        if (shards == 1 || ingest::shard_of(lf.link, shards) == shard) {
          mine.push_back(&lf);
        }
      }
      if (mine.empty()) continue;

      // LinkMux::push alone, median of three passes on fresh sessions.
      std::vector<double> passes;
      for (int p = 0; p < 3; ++p) {
        ics::LinkMux mux;
        const std::uint64_t t0 = now_ns();
        for (const ics::LinkFrame* lf : mine) {
          mux.push(lf->link, lf->frame);
        }
        passes.push_back(static_cast<double>(now_ns() - t0));
      }
      decode_ns += summarize(passes).median;

      // The engine's classifier rows, per link, untimed.
      std::map<ics::LinkId, std::size_t> local;
      std::vector<std::vector<double>> rows;
      {
        ics::LinkMux mux;
        for (const ics::LinkFrame* lf : mine) {
          const auto [it, inserted] = local.try_emplace(lf->link, rows.size());
          if (inserted) rows.emplace_back();
          const ics::LinkMux::Demuxed d = mux.push(lf->link, lf->frame);
          const sig::RawRow row = ics::to_raw_row(d.decoded.package, d.interval);
          rows[it->second].insert(rows[it->second].end(), row.begin(), row.end());
        }
      }
      // Lockstep tick shape: tick t holds row t of every link that has one;
      // longest links first so the active set is always a prefix.
      std::vector<std::size_t> order(rows.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return rows[a].size() > rows[b].size();
      });
      const std::size_t ticks = rows[order[0]].size() / kDim;
      std::vector<std::span<const double>> tick;
      const auto fill_tick = [&](std::size_t t) {
        std::size_t active = order.size();
        while (active > 0 && rows[order[active - 1]].size() / kDim <= t) {
          --active;
        }
        tick.resize(active);
        for (std::size_t j = 0; j < active; ++j) {
          tick[j] = std::span<const double>(rows[order[j]].data() + t * kDim, kDim);
        }
      };

      const detect::PackageLevelDetector& pkg = detector.package_level();
      detect::PackageLevelDetector::BatchScratch scratch;
      std::vector<detect::PackageVerdict> pkg_verdicts;
      std::uint64_t t0 = now_ns();
      for (std::size_t t = 0; t < ticks; ++t) {
        fill_tick(t);
        pkg.classify_batch(tick, pkg_verdicts, scratch);
      }
      lookup_ns += static_cast<double>(now_ns() - t0);

      detect::StreamBatch batch(detector, rows.size());
      std::vector<detect::CombinedVerdict> verdicts;
      t0 = now_ns();
      for (std::size_t t = 0; t < ticks; ++t) {
        fill_tick(t);
        if (tick.size() < batch.active()) batch.shrink(tick.size());
        batch.step(tick, verdicts);
      }
      step_ns += static_cast<double>(now_ns() - t0);
    }
  }

  StandalonePasses out;
  const double n = static_cast<double>(std::max<std::size_t>(1, traffic.frames));
  out.source_next_ns = next_ns / n;
  out.decode_ns = decode_ns / n;
  out.lookup_ns_per_pkg = lookup_ns / n;
  out.step_ns_per_pkg = step_ns / n;
  return out;
}

}  // namespace mlad::e2e

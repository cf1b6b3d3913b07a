#include "serve/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "ingest/shard_router.hpp"
#include "obs/metrics.hpp"

namespace mlad::serve {
namespace {

/// Shard-thread sweep period: a tenth of the smaller configured straggler
/// threshold, clamped to [1, 10] ms; 0 when no ladder is configured. The
/// engine has already rejected close_after_ms <= park_after_ms, so the
/// smaller threshold is the first one set.
int sweep_period_ms(const MonitorEngineConfig& engine) {
  const double first = engine.park_after_ms > 0.0 ? engine.park_after_ms
                                                  : engine.close_after_ms;
  if (first == 0.0) return 0;
  return std::clamp(static_cast<int>(first / 10.0), 1, 10);
}

}  // namespace

ShardedEngine::ShardedEngine(const detect::CombinedDetector& detector,
                             AlarmSink* sink,
                             const ShardedEngineConfig& config) {
  if (config.shards == 0) {
    throw std::invalid_argument("ShardedEngine: shards must be > 0");
  }
  if (config.engine.adapter != nullptr && config.shards > 1) {
    throw std::invalid_argument(
        "ShardedEngine: online adaptation requires shards == 1 (shards "
        "share the detector read-only)");
  }
  if (sink != nullptr) serialized_.emplace(sink);
  AlarmSink* shard_sink = serialized_ ? &*serialized_ : nullptr;

  if (config.engine.metrics != nullptr) {
    // Pump-side instruments; each shard's MonitorEngine registers its own
    // engine_*/stage_* instances below (the registry sums them by name).
    obs::MetricsRegistry& reg = *config.engine.metrics;
    telemetry_ = true;
    ingest_mirror_ = obs::StatMirror<IngestStats>(reg, kIngestStatFields);
    health_mirror_ =
        obs::StatMirror<ingest::SourceHealth>(reg, ingest::kSourceHealthFields);
  }

  shards_.resize(config.shards);
  for (Shard& shard : shards_) {
    shard.queue =
        std::make_unique<SpscQueue<ics::LinkFrame>>(config.queue_capacity);
    shard.engine = std::make_unique<MonitorEngine>(detector, shard_sink,
                                                   config.engine);
    shard.thread = std::thread([q = shard.queue.get(),
                                engine = shard.engine.get(),
                                sweep_ms = sweep_period_ms(config.engine),
                                lockstep = config.engine.adapter != nullptr] {
      // Drain then tick: pop without blocking while frames are queued (the
      // engine ticks in lockstep as they complete its gate), and once the
      // queue runs dry tick every link that has a package before blocking,
      // so no verdict waits on a silent link. Adaptation rounds are counted
      // in ticks, so an adapting shard stays lockstep (DESIGN.md §10).
      ics::LinkFrame lf;
      if (sweep_ms == 0) {
        for (;;) {
          if (!q->try_pop(lf)) {
            if (!lockstep) engine->tick_ready();
            if (!q->pop(lf)) break;
          }
          engine->push(lf.link, lf.frame);
        }
      } else {
        // Timed pops so a silent tap can't park the shard thread in a
        // blocking pop forever: after every wait, frame or timeout, the
        // engine's straggler ladder reads the shard's clock.
        using Clock = std::chrono::steady_clock;
        using Pop = SpscQueue<ics::LinkFrame>::PopResult;
        const auto start = Clock::now();
        for (;;) {
          Pop res = Pop::kItem;
          if (!q->try_pop(lf)) {
            if (!lockstep) engine->tick_ready();
            res = q->pop_for(lf, sweep_ms);
            if (res == Pop::kClosed) break;
          }
          if (res == Pop::kItem) engine->push(lf.link, lf.frame);
          engine->sweep(std::chrono::duration<double, std::milli>(
                            Clock::now() - start)
                            .count());
        }
      }
      engine->finish();
    });
  }
}

ShardedEngine::~ShardedEngine() {
  try {
    finish();
  } catch (...) {
    // Destruction must not throw; shard threads are joined regardless.
  }
}

void ShardedEngine::push(const ics::LinkFrame& lf) { push(lf.link, lf.frame); }

void ShardedEngine::push(ics::LinkId link, const ics::RawFrame& frame) {
  if (finished_) {
    throw std::logic_error("ShardedEngine: push after finish");
  }
  ++ingest_.frames_routed;
  // Copy straight into the ring slot, whose byte buffer is reused.
  shards_[ingest::shard_of(link, shards_.size())].queue->push_with(
      [&](ics::LinkFrame& slot) {
        slot.link = link;
        slot.frame = frame;
      });
  if (telemetry_) {
    if (ingest_.frames_routed % 4096 == 0) fold_queue_stats();
    ingest_mirror_.publish(ingest_);
  }
}

std::uint64_t ShardedEngine::run(ingest::PackageSource& source) {
  std::uint64_t n = 0;
  ics::LinkFrame lf;
  while (source.next(lf)) {
    push(lf);
    ++n;
    // Keep the live /metrics view of front-end degradation fresh without
    // querying the source per frame.
    if (telemetry_ && n % 4096 == 0) health_mirror_.publish(source.health());
  }
  // Capture the front end's degradation counters while the source is still
  // alive — the caller may destroy it right after run() returns.
  source_health_ = source.health();
  health_mirror_.publish(source_health_);
  finish();
  return n;
}

void ShardedEngine::finish() {
  if (finished_) return;
  for (Shard& shard : shards_) shard.queue->close();
  for (Shard& shard : shards_) {
    if (shard.thread.joinable()) shard.thread.join();
  }
  fold_queue_stats();
  ingest_mirror_.publish(ingest_);
  finished_ = true;
}

void ShardedEngine::fold_queue_stats() {
  std::vector<IngestStats> parts;
  parts.reserve(shards_.size() + 1);
  parts.push_back({.frames_routed = ingest_.frames_routed});
  for (const Shard& shard : shards_) {
    const auto qs = shard.queue->stats();
    parts.push_back({.producer_blocks = qs.producer_blocks,
                     .peak_queue_depth = qs.peak_depth});
  }
  ingest_ = obs::merge_stats(parts, kIngestStatFields);
}

void ShardedEngine::require_finished(const char* what) const {
  if (!finished_) {
    throw std::logic_error(std::string("ShardedEngine: ") + what +
                           " before finish() — shard threads still own "
                           "their engines");
  }
}

EngineStats ShardedEngine::stats() const {
  return obs::merge_stats(shard_stats(), kEngineStatFields);
}

std::vector<EngineStats> ShardedEngine::shard_stats() const {
  require_finished("stats()");
  std::vector<EngineStats> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) out.push_back(shard.engine->stats());
  return out;
}

std::vector<std::pair<ics::LinkId, LinkStats>> ShardedEngine::link_stats()
    const {
  require_finished("link_stats()");
  std::vector<std::pair<ics::LinkId, LinkStats>> out;
  for (const Shard& shard : shards_) {
    const auto ls = shard.engine->link_stats();
    out.insert(out.end(), ls.begin(), ls.end());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

IngestStats ShardedEngine::ingest_stats() const {
  require_finished("ingest_stats()");
  return ingest_;
}

ingest::SourceHealth ShardedEngine::source_health() const {
  require_finished("source_health()");
  return source_health_;
}

}  // namespace mlad::serve

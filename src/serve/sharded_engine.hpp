// Sharded async serve path (DESIGN.md §10): one ingest pump thread (the
// caller of push()/run()) routes wire frames by consistent link hashing
// into N bounded SPSC queues; each queue feeds a dedicated shard thread
// running its own lockstep MonitorEngine over the links it owns.
//
//   PackageSource → pump (shard_of) → SpscQueue×N → MonitorEngine×N
//                                                       ↓
//                                        SerializedAlarmSink → user sink
//
// Determinism: a link's complete frame sequence reaches exactly one shard,
// in wire order (SPSC FIFO), so that shard's LinkMux session and LSTM
// stream see precisely what the single-shard engine would have — per-link
// verdicts are bit-identical for ANY shard count (per-row kernels make a
// stream's math independent of its batch neighbours, DESIGN.md §5/§8).
// Only the cross-link interleaving of sink deliveries depends on thread
// scheduling; per-link delivery order is preserved by the serializing
// sink. A full shard queue blocks the pump (lossless backpressure),
// counted in IngestStats.
//
// This is the one serve pipeline: `mlad serve` and `mlad monitor` always
// run it, with one shard by default. Online adaptation requires
// shards == 1: shards share the detector read-only, while the adapter
// hot-swaps its weights from the one shard thread that owns the engine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/spsc_queue.hpp"
#include "ingest/package_source.hpp"
#include "serve/monitor_engine.hpp"

namespace mlad::serve {

struct ShardedEngineConfig {
  std::size_t shards = 1;
  /// Frames buffered per shard queue before the pump blocks.
  std::size_t queue_capacity = 4096;
  /// Shard-thread pop timeout while a wall-clock straggler policy
  /// (engine.park_after_ms / engine.close_after_ms) is configured: each
  /// timeout (or slow pop) feeds elapsed real time into the engine's
  /// wall_clock_sweep so a silent tap cannot stall a shard's gate. Ignored
  /// (plain blocking pops) when neither threshold is set.
  int sweep_interval_ms = 10;
  /// Per-shard engine configuration. `adapter` requires shards == 1 (see
  /// above); `threads` applies per shard (leave at 1 unless cores >>
  /// shards).
  MonitorEngineConfig engine;
};

/// Pump-side counters, aggregated over the shard queues after finish().
struct IngestStats {
  std::uint64_t frames_routed = 0;
  std::uint64_t producer_blocks = 0;   ///< pushes that hit a full queue
  std::uint64_t peak_queue_depth = 0;  ///< high-water mark over all queues
  /// Source-reported degradation counters (run() captures them after the
  /// source is drained; all-zero for clean in-memory sources).
  ingest::SourceHealth source_health;
};

/// Element-wise aggregation of per-shard stats: counters and timings sum
/// (classify_us becomes total CPU time inside ticks, so us_per_package()
/// stays a per-package CPU cost); the peak_* gauges and model_version take
/// the max — summing per-shard peaks would report a high-water mark no
/// single engine ever saw. The registry's snapshot aggregation
/// (obs::MetricsRegistry) applies the same rules, so telemetry and this
/// struct always agree.
EngineStats aggregate_stats(std::span<const EngineStats> shards);

class ShardedEngine {
 public:
  /// `detector` and `sink` must outlive the engine; `sink` may be null.
  /// Shard threads start immediately. Throws if config.shards is 0, or if
  /// config.engine.adapter is set with more than one shard.
  ShardedEngine(const detect::CombinedDetector& detector, AlarmSink* sink,
                const ShardedEngineConfig& config = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Route one wire frame to its shard (blocks while that queue is full).
  void push(const ics::LinkFrame& lf);
  void push(ics::LinkId link, const ics::RawFrame& frame);

  /// Drain `source` to completion, then finish(). Returns frames routed.
  std::uint64_t run(ingest::PackageSource& source);

  /// Close every queue, let the shards drain their engines, join. After
  /// this the stats accessors are safe. Idempotent.
  void finish();

  std::size_t shards() const { return shards_.size(); }

  // The accessors below require finish() — shard threads mutate their
  // engines until then. They throw std::logic_error when called early.
  EngineStats stats() const;                        ///< aggregate
  std::vector<EngineStats> shard_stats() const;     ///< per shard
  /// Per-link stats over every shard, ascending by link id.
  std::vector<std::pair<ics::LinkId, LinkStats>> link_stats() const;
  IngestStats ingest_stats() const;

 private:
  struct Shard {
    std::unique_ptr<SpscQueue<ics::LinkFrame>> queue;
    std::unique_ptr<MonitorEngine> engine;
    std::thread thread;
  };

  void require_finished(const char* what) const;
  /// Poll the shard queues' lock-guarded stats into the registry (called
  /// from the pump every few thousand frames and once at finish — never
  /// per frame, the queue mutex is not tick-path cheap).
  void sample_queue_telemetry();

  /// Pump-side registry instruments (bound when config.engine.metrics is
  /// set; the pump thread owns every write).
  struct IngestTelemetry {
    obs::Counter* frames_routed = nullptr;
    obs::Counter* producer_blocks = nullptr;
    obs::Gauge* peak_queue_depth = nullptr;
    ingest::SourceHealthMetrics health;
    bool on() const { return frames_routed != nullptr; }
  };

  /// Engaged only when a sink is given (null sink ⇒ shards count alarms
  /// without delivery, nothing to serialize).
  std::optional<SerializedAlarmSink> serialized_;
  std::vector<Shard> shards_;
  IngestStats ingest_;
  IngestTelemetry itele_;
  bool finished_ = false;
};

}  // namespace mlad::serve

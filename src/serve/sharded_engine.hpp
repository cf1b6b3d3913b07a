// Sharded async serve path (DESIGN.md §10): one ingest pump thread (the
// caller of push()/run()) routes wire frames by consistent link hashing
// into N bounded SPSC queues; each queue feeds a dedicated shard thread
// running its own MonitorEngine over the links it owns. A shard drains its
// queue without blocking, ticking in lockstep as the frames complete its
// gate; when the queue runs dry it ticks every link that has a package
// (MonitorEngine::tick_ready) and only then blocks — an adapting shard
// excepted, which stays lockstep.
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

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
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
  /// Per-shard engine configuration. `adapter` requires shards == 1 (see
  /// above); `threads` applies per shard (leave at 1 unless cores >>
  /// shards). With a straggler ladder configured (engine.park_after_ms /
  /// engine.close_after_ms), each shard thread pops with a timeout of a
  /// tenth of the smaller threshold, clamped to [1, 10] ms, and after every
  /// pop or timeout passes steady-clock time to its engine's sweep(), so a
  /// silent tap cannot stall the shard's gate (with `adapter` set) or keep
  /// its slot forever. Without one it blocks in plain pops.
  MonitorEngineConfig engine;
};

/// Pump-side counters, folded over the shard queues.
struct IngestStats {
  std::uint64_t frames_routed = 0;
  std::uint64_t producer_blocks = 0;   ///< pushes that hit a full queue
  std::uint64_t peak_queue_depth = 0;  ///< high-water mark over all queues
};

/// IngestStats' one field table (DESIGN.md §14).
inline constexpr std::array<obs::StatField<IngestStats>, 3>
    kIngestStatFields{{
        {"ingest_frames_routed_total", &IngestStats::frames_routed,
         obs::Merge::kSum},
        {"ingest_producer_blocks_total", &IngestStats::producer_blocks,
         obs::Merge::kSum},
        {"ingest_peak_queue_depth", &IngestStats::peak_queue_depth,
         obs::Merge::kMax},
    }};
static_assert(obs::covers_every_field(kIngestStatFields),
              "every IngestStats field needs a kIngestStatFields entry");

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
  /// Shard stats merged under kEngineStatFields' rules.
  EngineStats stats() const;
  std::vector<EngineStats> shard_stats() const;     ///< per shard
  /// Per-link stats over every shard, ascending by link id.
  std::vector<std::pair<ics::LinkId, LinkStats>> link_stats() const;
  IngestStats ingest_stats() const;
  /// The source's degradation counters as run() left them (all-zero for
  /// push()-driven runs and clean in-memory sources).
  ingest::SourceHealth source_health() const;

 private:
  struct Shard {
    std::unique_ptr<SpscQueue<ics::LinkFrame>> queue;
    std::unique_ptr<MonitorEngine> engine;
    std::thread thread;
  };

  void require_finished(const char* what) const;
  /// Fold the shard queues' stats into ingest_ under kIngestStatFields'
  /// rules (every few thousand frames while telemetry is on, and once at
  /// finish — never per frame: reading a queue's stats pulls its
  /// consumer's cache line).
  void fold_queue_stats();

  /// Engaged only when a sink is given (null sink ⇒ shards count alarms
  /// without delivery, nothing to serialize).
  std::optional<SerializedAlarmSink> serialized_;
  std::vector<Shard> shards_;
  IngestStats ingest_;
  ingest::SourceHealth source_health_;
  /// Pump-side registry mirrors (bound when config.engine.metrics is set;
  /// the pump thread owns every write).
  bool telemetry_ = false;
  obs::StatMirror<IngestStats> ingest_mirror_;
  obs::StatMirror<ingest::SourceHealth> health_mirror_;
  bool finished_ = false;
};

}  // namespace mlad::serve

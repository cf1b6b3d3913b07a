// Multi-link online monitoring engine (DESIGN.md §8) — the serve-layer
// data path:
//
//   raw frames → LinkMux (per-link decode sessions) → per-link pending
//   queues → tick scheduler → StreamBatch (one (L×dim) LSTM step per tick)
//   → AlarmSink + per-link/aggregate stats
//
// One engine instance is one long-running monitoring process: links join
// when their first frame arrives (StreamBatch::grow recycles freed slots),
// tick in lockstep while live, and leave once closed and drained
// (swap-to-back + shrink, so the batch stays dense). Because every stream's
// arithmetic is a fixed per-row function (DESIGN.md §5/§7), a link's
// verdict sequence is bit-identical whether it is monitored alone or
// alongside any number of other links, and whichever of them share its
// ticks — lockstep batching is a pure throughput optimization, and a
// caller whose input runs dry can tick just the links that have a package
// (tick_ready).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "detect/combined.hpp"
#include "detect/stream_batch.hpp"
#include "ics/link_mux.hpp"
#include "obs/stat_fields.hpp"
#include "serve/alarm_sink.hpp"
#include "signature/discretizer.hpp"

namespace mlad::adapt {
class OnlineTrainer;
}  // namespace mlad::adapt

namespace mlad::serve {

struct MonitorEngineConfig {
  /// Kernel-row partitioning only (0 = all cores, 1 = sequential); never
  /// changes any verdict or stat (DESIGN.md §5).
  std::size_t threads = 1;
  std::size_t crc_window = 50;  ///< per-link rolling CRC window (§VII)

  // ---- straggler ladder (DESIGN.md §9, §12) -------------------------------
  // The lockstep gate fires only when EVERY active link has a package
  // pending, so one silent PLC stalls the whole wire. The ladder takes such
  // a link out of the gate on one clock, the time the driving thread passes
  // to sweep(): a silent active link accrues block time while another link
  // has packages pending, or while the batch is split (the latest tick was
  // a ready-only tick that left some active link behind); a tick that
  // steps the link restarts its clock. 0 = rung off (the default keeps
  // every run untouched). Negative or
  // non-finite thresholds, and close_after_ms <= park_after_ms with both
  // set, are rejected at construction: escalation is park-then-close.
  /// Park a blocker after this much block time: the link leaves the batch
  /// with its stream state snapshotted, and its next frame resumes it (same
  /// verdict sequence as if the gap never happened). A link whose block
  /// starts within park_after_ms of its last rejoin re-parks only at
  /// 2 × park_after_ms (derived hysteresis against park/rejoin churn).
  double park_after_ms = 0.0;
  /// Close: retire a parked link once it has been parked for
  /// close_after_ms − park_after_ms; with park_after_ms off, close a blocker
  /// outright at close_after_ms of block time. A later frame on the link
  /// opens a fresh zero-state stream.
  double close_after_ms = 0.0;

  // ---- adaptation auto-rollback (DESIGN.md §12) ---------------------------
  /// Packages the rollback monitor scores after each weight swap, compared
  /// against the same-length window before it; 0 = rollback off. Requires
  /// an adapter.
  std::size_t rollback_window = 0;
  /// Roll back when (post_alarms + 1) > ratio * (scaled pre_alarms + 1)
  /// over the rollback window (add-one smoothing so a quiet pre-window
  /// cannot make any alarm spike, and a zero-alarm post-window never
  /// triggers).
  double rollback_ratio = 4.0;

  // ---- online adaptation (DESIGN.md §9) -----------------------------------
  /// Background adaptation subsystem; must wrap the SAME detector object
  /// this engine serves. The engine harvests verdict-clean windows into it
  /// and hot-swaps the weights it publishes. Null = adaptation off (the
  /// default; the tick path is untouched).
  adapt::OnlineTrainer* adapter = nullptr;
  /// Ticks between adaptation rounds: at every multiple the engine adopts
  /// the previous round's weights (waiting for it if still training) and
  /// requests the next — so swaps land on deterministic ticks.
  std::size_t adapt_interval = 512;

  // ---- telemetry (DESIGN.md §14) ------------------------------------------
  /// Metrics registry; the engine registers its own per-stage histograms
  /// and EngineStats mirrors at construction and updates them on the tick
  /// path (a clock read and a relaxed store per sample — never a lock).
  /// Telemetry never feeds back into classification: verdicts are
  /// bit-identical with or without it. Null = telemetry off (the default;
  /// the tick path pays nothing).
  obs::MetricsRegistry* metrics = nullptr;
};

struct LinkStats {
  std::uint64_t packages = 0;
  std::uint64_t alarms = 0;
  std::uint64_t package_level_alarms = 0;     ///< Bloom stage
  std::uint64_t timeseries_level_alarms = 0;  ///< LSTM stage
  std::uint64_t decode_failures = 0;
  std::uint64_t parks = 0;  ///< times the straggler policy parked this link
  double first_time = 0.0;
  double last_time = 0.0;
};

struct EngineStats {
  std::uint64_t frames = 0;    ///< frames pushed
  std::uint64_t packages = 0;  ///< packages classified (= frames once drained)
  std::uint64_t ticks = 0;
  /// Ticks that advanced a strict subset of the active links (tick_ready
  /// while some link had nothing pending).
  std::uint64_t partial_ticks = 0;
  std::uint64_t alarms = 0;
  std::uint64_t package_level_alarms = 0;
  std::uint64_t timeseries_level_alarms = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t links_seen = 0;
  std::uint64_t links_retired = 0;
  std::uint64_t links_parked = 0;  ///< straggler parks (links may repeat)
  std::uint64_t peak_links = 0;    ///< max concurrently-active links
  std::uint64_t peak_pending = 0;  ///< max queued packages on one link
  std::uint64_t model_version = 0;  ///< serving weight version (0 = shipped)
  std::uint64_t model_swaps = 0;    ///< adapted-weight hot swaps applied
  std::uint64_t rollbacks = 0;      ///< auto-rollbacks (DESIGN.md §12)
  std::uint64_t straggler_closes = 0;  ///< links closed by the straggler ladder
  std::uint64_t classify_ns = 0;  ///< wall time inside classification ticks
  /// Wall time inside adapt boundaries: waiting out an unfinished round
  /// plus adopting its weights (copy + cache re-transpose). NOT part of
  /// classify_ns — reported separately so slow rounds can't hide.
  std::uint64_t adapt_ns = 0;

  double us_per_package() const {
    return packages > 0 ? static_cast<double>(classify_ns) * 1e-3 /
                              static_cast<double>(packages)
                        : 0.0;
  }
  double mean_batch() const {
    return ticks > 0
               ? static_cast<double>(packages) / static_cast<double>(ticks)
               : 0.0;
  }
};

/// EngineStats' one field table (DESIGN.md §14): registry names and
/// cross-shard merge rules. Counters and timings sum (classify_ns becomes
/// total CPU time inside ticks, so us_per_package() stays a per-package
/// CPU cost); the peaks and the serving model version take the max.
inline constexpr std::array<obs::StatField<EngineStats>, 19>
    kEngineStatFields{{
        {"engine_frames_total", &EngineStats::frames, obs::Merge::kSum},
        {"engine_packages_total", &EngineStats::packages, obs::Merge::kSum},
        {"engine_ticks_total", &EngineStats::ticks, obs::Merge::kSum},
        {"engine_partial_ticks_total", &EngineStats::partial_ticks,
         obs::Merge::kSum},
        {"engine_alarms_total", &EngineStats::alarms, obs::Merge::kSum},
        {"engine_package_level_alarms_total",
         &EngineStats::package_level_alarms, obs::Merge::kSum},
        {"engine_timeseries_level_alarms_total",
         &EngineStats::timeseries_level_alarms, obs::Merge::kSum},
        {"engine_decode_failures_total", &EngineStats::decode_failures,
         obs::Merge::kSum},
        {"engine_links_seen_total", &EngineStats::links_seen,
         obs::Merge::kSum},
        {"engine_links_retired_total", &EngineStats::links_retired,
         obs::Merge::kSum},
        {"engine_links_parked_total", &EngineStats::links_parked,
         obs::Merge::kSum},
        {"engine_peak_links", &EngineStats::peak_links, obs::Merge::kMax},
        {"engine_peak_pending", &EngineStats::peak_pending,
         obs::Merge::kMax},
        {"engine_model_version", &EngineStats::model_version,
         obs::Merge::kMax},
        {"engine_model_swaps_total", &EngineStats::model_swaps,
         obs::Merge::kSum},
        {"engine_rollbacks_total", &EngineStats::rollbacks,
         obs::Merge::kSum},
        {"engine_straggler_closes_total", &EngineStats::straggler_closes,
         obs::Merge::kSum},
        {"engine_classify_ns_total", &EngineStats::classify_ns,
         obs::Merge::kSum},
        {"engine_adapt_ns_total", &EngineStats::adapt_ns, obs::Merge::kSum},
    }};
static_assert(obs::covers_every_field(kEngineStatFields),
              "every EngineStats field needs a kEngineStatFields entry");

class MonitorEngine {
 public:
  /// Per-FRAME telemetry stages (decode latency, queue wait) sample one
  /// frame in this many (DESIGN.md §14): a raw clock read costs ~20 ns on
  /// virtualized TSCs, so stamping every frame would exceed the 2%
  /// tick-path overhead budget by itself. Per-TICK stages are always
  /// measured — their cost amortizes over the batch.
  static constexpr std::uint64_t kStageSampleEvery = 8;

  /// `detector` and `sink` must outlive the engine; `sink` may be null
  /// (classify + count, no alarm delivery).
  MonitorEngine(const detect::CombinedDetector& detector, AlarmSink* sink,
                const MonitorEngineConfig& config = {});

  /// Feed the next frame of link `link` (frames per link must arrive in
  /// capture order). Unknown links join automatically; classification runs
  /// as soon as every active link has a package pending (the lockstep
  /// gate).
  void push(ics::LinkId link, const ics::RawFrame& frame);

  /// Feed a frame keyed by its Modbus unit address (multi-drop-line tap).
  void push(const ics::RawFrame& frame);

  /// Replay a pre-merged wire (see ics::merge_captures) and finish().
  void replay(std::span<const ics::LinkFrame> wire);

  /// No more frames will arrive on `link`: it keeps ticking until its
  /// queue drains, then leaves the batch (its slot is recycled). Unknown
  /// or already-closed links are a no-op. A push BEFORE the link has
  /// fully drained cancels the close (same stream continues); a push
  /// after it left opens a fresh zero-state stream.
  void close(ics::LinkId link);

  /// Close every link and drain all pending packages.
  void finish();

  /// Tick the links that have a package pending, without waiting for the
  /// others, until no link has one: a caller invokes this when its input
  /// runs dry, so no verdict waits on a silent link (DESIGN.md §8). Dispatch,
  /// stats and telemetry are the lockstep tick's, and every link's verdict
  /// sequence is the one push() alone gives — except that a link pushed
  /// again after close() may have drained and left in between, and so
  /// restarts as a fresh stream where push() alone would have cancelled
  /// the close. Each round moves the ready links to the front slots and
  /// steps that prefix of the batch; rounds that leave a link out count in
  /// EngineStats::partial_ticks. Tick-counted schedules (adapt_interval)
  /// then count these rounds too.
  void tick_ready();

  /// Straggler-ladder clock (DESIGN.md §12): the driving thread reports
  /// the time `now_ms`, in milliseconds since construction on a monotonic
  /// clock (tests pass a manual one). Parked links past their close grace
  /// are retired, then every silent link blocking the gate past its
  /// threshold is parked or closed and the tick retried. The ladder reads
  /// time nowhere else; under a real clock its schedule (never a verdict)
  /// depends on timing. No-op unless a threshold is configured. Returns
  /// true if any link was parked or closed.
  bool sweep(double now_ms);

  std::size_t active_links() const { return slots_.size(); }
  const EngineStats& stats() const { return stats_; }
  /// Per-link stats (every link ever seen), ascending by link id.
  std::vector<std::pair<ics::LinkId, LinkStats>> link_stats() const;

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// One decoded package waiting for its tick.
  struct Pending {
    sig::RawRow row;  ///< Table-I feature vector (classifier input)
    double time = 0.0;
    std::uint8_t address = 0;
    std::uint8_t function = 0;
    std::uint16_t length = 0;
    bool decode_ok = false;
    /// Decode-end timestamp (telemetry only; 0 when telemetry is off or
    /// the frame was not sampled) — the tick start minus this is the
    /// package's queue wait.
    std::uint64_t enqueue_ns = 0;
  };

  /// A link's FIFO of pending packages: a ring whose slots keep their row
  /// buffers, so a push refills a popped slot's RawRow in place
  /// (ics::to_raw_row_into) and a warm engine allocates nothing per frame.
  /// Grows by doubling, never shrinks.
  class PendingQueue {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const Pending& front() const { return slots_[head_]; }
    /// Appends a slot and returns it; the caller overwrites every field.
    Pending& push_back();
    void pop_front() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
    }

   private:
    std::vector<Pending> slots_;  ///< power-of-two size (or empty)
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  struct Link {
    std::size_t slot = kNoSlot;  ///< batch row while active
    PendingQueue queue;
    /// Sweep time this link's current block began (straggler ladder);
    /// reset by a tick that steps it, or a sweep that finds it not blocking.
    std::optional<double> block_start_ms;
    bool closed = false;
    bool parked = false;  ///< out of the gate, state preserved for rejoin
    double parked_at_ms = 0.0;  ///< ladder clock at park time
    /// Ladder clock at the last park→rejoin (−inf: never rejoined).
    double rejoined_ms = -std::numeric_limits<double>::infinity();
    LinkStats stats;
    /// Stream state saved across a park (nullopt otherwise).
    std::optional<detect::StreamBatch::StreamSnapshot> parked_state;
  };

  void ingest(const ics::LinkMux::Demuxed& demuxed, std::size_t frame_len,
              std::uint64_t enqueue_ns);
  void join(ics::LinkId id, Link& link);
  void mark_closed(Link& link);
  void retire_drained();
  /// Relabel two slots: stream rows, ids and the links' slot fields.
  void swap_slots(std::size_t a, std::size_t b);
  /// Take slot `s` out of the batch (swap to the back, shrink); the link's
  /// stream state is dropped and its slot becomes kNoSlot.
  void release_slot(std::size_t s);
  void park(std::size_t slot);
  /// Drop a parked link's saved state and retire it (explicit close(),
  /// the park→close escalation, or finish()).
  void retire_parked(ics::LinkId id, Link& link);
  /// Run lockstep ticks while every active link has a package pending.
  void maybe_tick();
  /// Classify the front package of each link in slots [0, n).
  void tick(std::size_t n);
  /// Adaptation-interval boundary: adopt the outstanding round's weights
  /// (waiting for it if still training) and, unless `request_next` is
  /// false (final collection in finish()), request the next round.
  void adapt_boundary(bool request_next = true);
  /// Score one package for the rollback monitor (every package, alarm or
  /// not) and arm the rollback flag when the post-swap window closes hot.
  void rollback_observe(bool anomaly);
  /// Execute an armed rollback at the tick boundary.
  void perform_rollback();
  void dispatch(ics::LinkId id, Link& link, const Pending& pending,
                const detect::CombinedVerdict& verdict);
  const detect::CombinedDetector* detector_;
  AlarmSink* sink_;
  MonitorEngineConfig config_;
  PoolHandle pool_;
  ics::LinkMux mux_;
  detect::StreamBatch batch_;
  std::map<ics::LinkId, Link> links_;
  std::vector<ics::LinkId> slots_;  ///< slot → link id, dense
  std::vector<Link*> slot_links_;   ///< slot → session (map nodes are stable)
  std::size_t parked_count_ = 0;    ///< links currently parked
  /// Active links with a package pending / marked closed: the gate and the
  /// retirement check read these instead of scanning the slots per frame.
  std::size_t ready_links_ = 0;
  std::size_t closed_links_ = 0;
  /// The latest tick left some active link behind (a partial tick); a tick
  /// that steps every active link clears it.
  bool split_ = false;
  EngineStats stats_;

  /// Telemetry instrument pointers, resolved once at construction from
  /// config_.metrics (all null when telemetry is off, and every hot-path
  /// touch is guarded by on() — a single pointer test). `stats` mirrors
  /// stats_ into the registry once per tick and once in finish().
  struct Telemetry {
    obs::MetricsRegistry* registry = nullptr;
    obs::LatencyHistogram* decode_ns = nullptr;
    obs::LatencyHistogram* queue_wait_ns = nullptr;
    obs::LatencyHistogram* dispatch_ns = nullptr;
    obs::LatencyHistogram* tick_ns = nullptr;
    obs::LatencyHistogram* adapt_ns = nullptr;
    obs::StatMirror<EngineStats> stats;
    bool on() const { return registry != nullptr; }
  } tele_;

  // ---- straggler ladder clock (DESIGN.md §12) -----------------------------
  double now_ms_ = 0.0;  ///< time of the last sweep()

  // ---- rollback monitor (DESIGN.md §12) -----------------------------------
  std::deque<bool> recent_alarms_;     ///< last rollback_window package flags
  std::size_t recent_alarm_count_ = 0;
  bool rollback_armed_ = false;        ///< scoring a fresh swap
  bool rollback_due_ = false;          ///< verdict in: roll back at boundary
  std::uint64_t rollback_from_ = 0;    ///< the version under evaluation
  std::uint64_t rollback_to_ = 0;      ///< version serving before the swap
  std::size_t pre_alarms_ = 0;         ///< alarms in the pre-swap window
  std::size_t pre_window_ = 0;         ///< its actual length (may be short)
  std::size_t post_packages_ = 0;
  std::size_t post_alarms_ = 0;

  // Per-tick scratch, reused so the steady state is allocation-free.
  std::vector<std::span<const double>> tick_rows_;
  std::vector<detect::CombinedVerdict> verdicts_;
  std::vector<detect::PackageVerdict> package_verdicts_;  ///< harvest only
};

}  // namespace mlad::serve

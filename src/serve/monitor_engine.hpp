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
// alongside any number of other links — lockstep batching is a pure
// throughput optimization.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "detect/combined.hpp"
#include "detect/stream_batch.hpp"
#include "ics/link_mux.hpp"
#include "serve/alarm_sink.hpp"
#include "signature/discretizer.hpp"

namespace mlad::adapt {
class OnlineTrainer;
}  // namespace mlad::adapt

namespace mlad::obs {
class Counter;
class Gauge;
class LatencyHistogram;
class MetricsRegistry;
}  // namespace mlad::obs

namespace mlad::serve {

struct MonitorEngineConfig {
  /// Kernel-row partitioning only (0 = all cores, 1 = sequential); never
  /// changes any verdict or stat (DESIGN.md §5).
  std::size_t threads = 1;
  std::size_t crc_window = 50;  ///< per-link rolling CRC window (§VII)

  // ---- straggler policy (DESIGN.md §9) ------------------------------------
  // The lockstep gate fires only when EVERY active link has a package
  // pending, so one silent PLC stalls the whole wire. With these set, a
  // link that is the only thing blocking the gate while some other link has
  // accumulated >= T packages — on a time-ordered wire, T ticks' worth of
  // silence — is taken out of the gate:
  /// Park: the link leaves the batch but its stream state is snapshotted;
  /// the next frame re-admits it with its history intact (same verdict
  /// sequence as if the gap never happened). 0 = off.
  std::size_t park_after = 0;
  /// Close: the link is retired as if close()d; a later frame opens a
  /// fresh zero-state stream. 0 = off. When both are set, whichever
  /// threshold is lower acts first (park wins a tie); with
  /// park_after < close_after a parked link is retired — its saved state
  /// dropped — once its total silence reaches close_after ticks.
  std::size_t close_after = 0;
  /// Park/rejoin churn damping: a link that rejoined from a park within the
  /// last `park_hysteresis` ticks needs `park_hysteresis` EXTRA pending
  /// packages on some other link (queue policy) before it may re-park, and
  /// is skipped by the wall-clock park sweep (the close escalation still
  /// applies). 0 = off; never affects links that have not parked yet.
  std::size_t park_hysteresis = 0;

  // ---- wall-clock straggler sweep (DESIGN.md §12) -------------------------
  // The tick-count policy above needs wire to flow: a link that is silent
  // while the OTHERS keep sending shows up as queue depth. A live tap that
  // goes silent when queues are shallow stalls the gate with no depth
  // signal at all — these wall-clock thresholds let the engine's driving
  // thread call wall_clock_sweep() to park/close the blockers by elapsed
  // real time instead. Degradation mode: WHICH tick a wall-clock park lands
  // on depends on real time, so verdict determinism holds per link but the
  // park schedule does not replay bit-exactly. 0 = off (the default keeps
  // every existing run untouched).
  double park_after_ms = 0.0;
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
  std::uint64_t wall_clock_parks = 0;   ///< parks by the wall-clock sweep
  std::uint64_t wall_clock_closes = 0;  ///< closes by the wall-clock sweep
  double classify_us = 0.0;        ///< wall time inside classification ticks
  /// Wall time inside adapt boundaries: waiting out an unfinished round
  /// plus adopting its weights (copy + cache re-transpose). NOT part of
  /// classify_us — reported separately so slow rounds can't hide.
  double adapt_us = 0.0;

  double us_per_package() const {
    return packages > 0 ? classify_us / static_cast<double>(packages) : 0.0;
  }
  double mean_batch() const {
    return ticks > 0
               ? static_cast<double>(packages) / static_cast<double>(ticks)
               : 0.0;
  }
};

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
  /// as soon as every active link has a package pending.
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

  /// Wall-clock straggler sweep (DESIGN.md §12): the engine's driving
  /// thread reports `elapsed_ms` more milliseconds of real time. When the
  /// gate has been blocked — some links holding pending packages, others
  /// silent — past park_after_ms/close_after_ms of accumulated block time,
  /// the silent links are parked/closed and the tick retried. Parked links
  /// accumulate the same clock toward the close escalation. No-op unless a
  /// wall-clock threshold is configured. Returns true if any link was
  /// parked or closed.
  bool wall_clock_sweep(double elapsed_ms);

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

  struct Link {
    std::size_t slot = kNoSlot;  ///< batch row while active
    std::deque<Pending> queue;
    bool closed = false;
    bool parked = false;  ///< out of the gate, state preserved for rejoin
    std::uint64_t parked_since = 0;  ///< tick count at park time
    std::uint64_t rejoined_at = 0;   ///< tick of the last park→rejoin
    double parked_wall_ms = 0.0;     ///< wall-clock time spent in this park
    LinkStats stats;
    /// Stream state saved across a park (nullopt otherwise).
    std::optional<detect::StreamBatch::StreamSnapshot> parked_state;
  };

  void ingest(const ics::LinkMux::Demuxed& demuxed, std::size_t frame_len,
              std::uint64_t enqueue_ns);
  void join(ics::LinkId id, Link& link);
  void retire_drained();
  /// Take every link currently blocking the gate out of it (park or close)
  /// once the straggler thresholds trip. Returns true if anything changed.
  bool apply_straggler_policy();
  void park(std::size_t slot);
  /// Drop a parked link's saved state and retire it (explicit close(),
  /// the park→close escalation, or finish()).
  void retire_parked(ics::LinkId id, Link& link);
  /// With both thresholds set (park < close), retire parked links whose
  /// total silence has reached close_after ticks.
  void escalate_parked();
  /// Is this link inside its post-rejoin hysteresis window, i.e. protected
  /// from re-parking (queue policy: unless the pressure also exceeds the
  /// raised threshold)?
  bool in_park_hysteresis(const Link& link) const;
  void maybe_tick();
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
  /// Mirror every EngineStats field into the registry (relaxed stores;
  /// called once per tick and once in finish() — the struct stays the
  /// source of truth, the registry its exporter-visible shadow).
  void publish_stats();

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
  EngineStats stats_;

  /// Telemetry instrument pointers, resolved once at construction from
  /// config_.metrics (all null when telemetry is off, and every hot-path
  /// touch is guarded by on() — a single pointer test).
  struct Telemetry {
    obs::MetricsRegistry* registry = nullptr;
    obs::LatencyHistogram* decode_ns = nullptr;
    obs::LatencyHistogram* queue_wait_ns = nullptr;
    obs::LatencyHistogram* dispatch_ns = nullptr;
    obs::LatencyHistogram* tick_ns = nullptr;
    obs::LatencyHistogram* adapt_ns = nullptr;
    obs::Counter* frames = nullptr;
    obs::Counter* packages = nullptr;
    obs::Counter* ticks = nullptr;
    obs::Counter* alarms = nullptr;
    obs::Counter* package_level_alarms = nullptr;
    obs::Counter* timeseries_level_alarms = nullptr;
    obs::Counter* decode_failures = nullptr;
    obs::Counter* links_seen = nullptr;
    obs::Counter* links_retired = nullptr;
    obs::Counter* links_parked = nullptr;
    obs::Counter* model_swaps = nullptr;
    obs::Counter* rollbacks = nullptr;
    obs::Counter* wall_clock_parks = nullptr;
    obs::Counter* wall_clock_closes = nullptr;
    obs::Counter* classify_us = nullptr;
    obs::Counter* adapt_us = nullptr;
    obs::Gauge* peak_links = nullptr;
    obs::Gauge* peak_pending = nullptr;
    obs::Gauge* model_version = nullptr;
    bool on() const { return registry != nullptr; }
  } tele_;

  /// Wall-clock milliseconds the gate has been blocked (reset by a tick).
  double gate_blocked_ms_ = 0.0;

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

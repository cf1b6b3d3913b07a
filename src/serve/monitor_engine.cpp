#include "serve/monitor_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "adapt/online_trainer.hpp"
#include "common/stopwatch.hpp"
#include "ics/features.hpp"
#include "obs/metrics.hpp"

namespace mlad::serve {

MonitorEngine::MonitorEngine(const detect::CombinedDetector& detector,
                             AlarmSink* sink,
                             const MonitorEngineConfig& config)
    : detector_(&detector),
      sink_(sink),
      config_(config),
      pool_(config.threads),
      mux_(config.crc_window),
      batch_(detector, /*streams=*/0, pool_.get()) {
  if (config_.adapter != nullptr) {
    if (config_.adapt_interval == 0) {
      throw std::invalid_argument(
          "MonitorEngine: adapt_interval must be > 0");
    }
    if (&config_.adapter->detector() != detector_) {
      throw std::invalid_argument(
          "MonitorEngine: the adapter must wrap this engine's detector");
    }
  }
  if (config_.rollback_window != 0) {
    if (config_.adapter == nullptr) {
      throw std::invalid_argument(
          "MonitorEngine: rollback_window requires an adapter");
    }
    if (config_.rollback_ratio <= 0.0) {
      throw std::invalid_argument(
          "MonitorEngine: rollback_ratio must be > 0");
    }
  }
  if (config_.metrics != nullptr) {
    // Register this engine's own instances up front (the registry sums
    // same-name instances across shards); after this the tick path never
    // touches the registry, only these pointers.
    obs::MetricsRegistry& reg = *config_.metrics;
    tele_.registry = &reg;
    tele_.decode_ns = &reg.histogram("stage_decode_ns");
    tele_.queue_wait_ns = &reg.histogram("stage_queue_wait_ns");
    tele_.dispatch_ns = &reg.histogram("stage_dispatch_ns");
    tele_.tick_ns = &reg.histogram("stage_tick_ns");
    tele_.adapt_ns = &reg.histogram("stage_adapt_ns");
    tele_.frames = &reg.counter("engine_frames_total");
    tele_.packages = &reg.counter("engine_packages_total");
    tele_.ticks = &reg.counter("engine_ticks_total");
    tele_.alarms = &reg.counter("engine_alarms_total");
    tele_.package_level_alarms =
        &reg.counter("engine_package_level_alarms_total");
    tele_.timeseries_level_alarms =
        &reg.counter("engine_timeseries_level_alarms_total");
    tele_.decode_failures = &reg.counter("engine_decode_failures_total");
    tele_.links_seen = &reg.counter("engine_links_seen_total");
    tele_.links_retired = &reg.counter("engine_links_retired_total");
    tele_.links_parked = &reg.counter("engine_links_parked_total");
    tele_.model_swaps = &reg.counter("engine_model_swaps_total");
    tele_.rollbacks = &reg.counter("engine_rollbacks_total");
    tele_.wall_clock_parks = &reg.counter("engine_wall_clock_parks_total");
    tele_.wall_clock_closes = &reg.counter("engine_wall_clock_closes_total");
    tele_.classify_us = &reg.counter("engine_classify_us_total");
    tele_.adapt_us = &reg.counter("engine_adapt_us_total");
    tele_.peak_links = &reg.gauge("engine_peak_links");
    tele_.peak_pending = &reg.gauge("engine_peak_pending");
    tele_.model_version = &reg.gauge("engine_model_version");
    batch_.set_stage_timers({&reg.histogram("stage_lookup_ns"),
                             &reg.histogram("stage_nn_ns")});
  }
}

void MonitorEngine::push(ics::LinkId link, const ics::RawFrame& frame) {
  // Per-frame stages are SAMPLED 1-in-kStageSampleEvery (DESIGN.md §14): a
  // raw clock read costs ~20 ns on virtualized TSCs, which alone would
  // blow the 2% tick-path budget if paid on every frame.
  if (tele_.on() && stats_.frames % kStageSampleEvery == 0) {
    const std::uint64_t t0 = obs::now_ns();
    const ics::LinkMux::Demuxed demuxed = mux_.push(link, frame);
    const std::uint64_t t1 = obs::now_ns();
    tele_.decode_ns->record(t1 - t0);
    ingest(demuxed, frame.bytes.size(), t1);
  } else {
    ingest(mux_.push(link, frame), frame.bytes.size(), 0);
  }
}

void MonitorEngine::push(const ics::RawFrame& frame) {
  if (tele_.on() && stats_.frames % kStageSampleEvery == 0) {
    const std::uint64_t t0 = obs::now_ns();
    const ics::LinkMux::Demuxed demuxed = mux_.push(frame);
    const std::uint64_t t1 = obs::now_ns();
    tele_.decode_ns->record(t1 - t0);
    ingest(demuxed, frame.bytes.size(), t1);
  } else {
    ingest(mux_.push(frame), frame.bytes.size(), 0);
  }
}

void MonitorEngine::replay(std::span<const ics::LinkFrame> wire) {
  for (const ics::LinkFrame& lf : wire) push(lf.link, lf.frame);
  finish();
}

void MonitorEngine::ingest(const ics::LinkMux::Demuxed& demuxed,
                           std::size_t frame_len,
                           std::uint64_t enqueue_ns) {
  ++stats_.frames;
  Link& link = links_[demuxed.link];
  if (link.slot == kNoSlot) {
    join(demuxed.link, link);
  } else {
    // A frame arriving while the link is still draining a premature close
    // cancels it: the stream continues. Only a link that actually LEFT
    // rejoins as a fresh stream (slot == kNoSlot above).
    link.closed = false;
  }

  const ics::Package& p = demuxed.decoded.package;
  Pending pending;
  pending.row = ics::to_raw_row(p, demuxed.interval);
  pending.time = p.time;
  pending.address = p.address;
  pending.function = p.function;
  pending.length = static_cast<std::uint16_t>(frame_len);
  pending.decode_ok = demuxed.decoded.decode_ok;
  pending.enqueue_ns = enqueue_ns;
  link.queue.push_back(std::move(pending));
  stats_.peak_pending =
      std::max<std::uint64_t>(stats_.peak_pending, link.queue.size());
  maybe_tick();
}

void MonitorEngine::join(ics::LinkId id, Link& link) {
  // A parked link re-enters through the same grow path but with its saved
  // stream state restored, so its verdict sequence continues as if the
  // silent gap never happened. Everyone else starts a fresh zero stream.
  const bool resuming = link.parked;
  link.slot = slots_.size();
  slots_.push_back(id);
  slot_links_.push_back(&link);
  link.closed = false;
  batch_.grow(slots_.size());
  if (resuming) {
    batch_.restore_stream(link.slot, *link.parked_state);
    link.parked_state.reset();
  }
  link.parked = false;
  if (resuming) {
    --parked_count_;
    link.rejoined_at = stats_.ticks;
    link.parked_wall_ms = 0.0;
  }
  if (!resuming) {
    ++stats_.links_seen;
    // A fresh stream breaks any partial harvest window of a previous
    // incarnation of this link id.
    if (config_.adapter != nullptr) config_.adapter->stream_break(id);
  }
  stats_.peak_links = std::max<std::uint64_t>(stats_.peak_links, slots_.size());
}

void MonitorEngine::close(ics::LinkId id) {
  const auto it = links_.find(id);
  if (it == links_.end()) return;
  if (it->second.parked) {
    // A parked link has no queue and no slot: closing it is an immediate
    // retirement (its saved stream state will never be resumed).
    retire_parked(id, it->second);
    return;
  }
  if (it->second.slot == kNoSlot) return;
  it->second.closed = true;
  maybe_tick();
}

void MonitorEngine::finish() {
  for (auto& [id, link] : links_) {
    if (link.slot != kNoSlot) link.closed = true;
    // Nothing more will arrive; a parked link can't drain through the
    // gate, so retire it here.
    if (link.parked) retire_parked(id, link);
  }
  maybe_tick();
  // Collect an outstanding adaptation round so its publication shows up in
  // the closing stats (no tick follows to adopt it otherwise). Idempotent:
  // with nothing outstanding this is a no-op.
  if (config_.adapter != nullptr) adapt_boundary(/*request_next=*/false);
  // Final mirror so exporters sampled after finish() see end-of-run totals
  // (links retired above would otherwise wait for a tick that never comes).
  if (tele_.on()) publish_stats();
}

void MonitorEngine::retire_drained() {
  // Walk slots from the back so one pass can retire several links; each
  // retirement swaps the victim to the last slot and shrinks — streams are
  // independent, so the relabeling never changes anyone's verdicts.
  for (std::size_t s = slots_.size(); s-- > 0;) {
    Link& link = *slot_links_[s];
    if (!link.closed || !link.queue.empty()) continue;
    const ics::LinkId id = slots_[s];
    const std::size_t last = slots_.size() - 1;
    if (s != last) {
      batch_.swap_streams(s, last);
      std::swap(slots_[s], slots_[last]);
      std::swap(slot_links_[s], slot_links_[last]);
      slot_links_[s]->slot = s;
    }
    batch_.shrink(last);
    link.slot = kNoSlot;
    slots_.pop_back();
    slot_links_.pop_back();
    ++stats_.links_retired;
    if (config_.adapter != nullptr) config_.adapter->stream_break(id);
  }
}

void MonitorEngine::park(std::size_t s) {
  Link& link = *slot_links_[s];
  link.parked_state = batch_.extract_stream(s);
  const std::size_t last = slots_.size() - 1;
  if (s != last) {
    batch_.swap_streams(s, last);
    std::swap(slots_[s], slots_[last]);
    std::swap(slot_links_[s], slot_links_[last]);
    slot_links_[s]->slot = s;
  }
  batch_.shrink(last);
  link.slot = kNoSlot;
  link.parked = true;
  link.parked_since = stats_.ticks;
  link.parked_wall_ms = 0.0;
  slots_.pop_back();
  slot_links_.pop_back();
  ++parked_count_;
  ++link.stats.parks;
  ++stats_.links_parked;
}

void MonitorEngine::retire_parked(ics::LinkId id, Link& link) {
  link.parked = false;
  link.parked_state.reset();
  --parked_count_;
  ++stats_.links_retired;
  if (config_.adapter != nullptr) config_.adapter->stream_break(id);
}

void MonitorEngine::escalate_parked() {
  if (parked_count_ == 0 || config_.close_after == 0 ||
      config_.park_after == 0 || config_.close_after <= config_.park_after) {
    return;
  }
  // The wire keeps ticking while a link is parked, so the tick counter is
  // a real clock for its silence: parked at park_after ticks of it,
  // retired once the total reaches close_after.
  const std::uint64_t grace = config_.close_after - config_.park_after;
  for (auto& [id, link] : links_) {
    if (link.parked && stats_.ticks - link.parked_since >= grace) {
      retire_parked(id, link);
    }
  }
}

bool MonitorEngine::in_park_hysteresis(const Link& link) const {
  return config_.park_hysteresis != 0 && link.stats.parks > 0 &&
         stats_.ticks - link.rejoined_at < config_.park_hysteresis;
}

bool MonitorEngine::apply_straggler_policy() {
  const bool park_enabled = config_.park_after != 0;
  const bool close_enabled = config_.close_after != 0;
  if (!park_enabled && !close_enabled) return false;
  // "Silent for T ticks" in gate terms: on a time-ordered wire the links
  // take turns, so a healthy gate keeps every queue O(1); when one link has
  // T packages queued while another has none, the empty link has been
  // silent for T ticks' worth of wire. The lower threshold acts first
  // (park, the gentler policy, wins a tie).
  std::size_t max_pending = 0;
  for (const Link* link : slot_links_) {
    max_pending = std::max(max_pending, link->queue.size());
  }
  const bool park_first =
      park_enabled &&
      (!close_enabled || config_.park_after <= config_.close_after);
  const std::size_t threshold =
      park_first ? config_.park_after : config_.close_after;
  if (max_pending < threshold) return false;

  bool changed = false;
  for (std::size_t s = slots_.size(); s-- > 0;) {
    Link& link = *slot_links_[s];
    if (!link.queue.empty() || link.closed) continue;
    // Hysteresis: a link fresh out of a park needs park_hysteresis EXTRA
    // pending pressure before it may re-park — a flapping tap stops
    // churning through snapshot/restore cycles, yet liveness holds (queue
    // depth keeps growing while it blocks, so the raised bar is met
    // eventually).
    if (park_first && in_park_hysteresis(link) &&
        max_pending < threshold + config_.park_hysteresis) {
      continue;
    }
    if (park_first) {
      park(s);
    } else {
      link.closed = true;  // retire_drained drops it on the next pass
    }
    changed = true;
  }
  return changed;
}

bool MonitorEngine::wall_clock_sweep(double elapsed_ms) {
  if (config_.park_after_ms <= 0.0 && config_.close_after_ms <= 0.0) {
    return false;
  }
  bool changed = false;
  // Parked links age toward the close escalation on the same clock,
  // whether they were parked by queue depth or by an earlier sweep.
  if (config_.close_after_ms > 0.0 && parked_count_ > 0) {
    const double grace = config_.park_after_ms > 0.0
                             ? config_.close_after_ms - config_.park_after_ms
                             : config_.close_after_ms;
    for (auto& [id, link] : links_) {
      if (!link.parked) continue;
      link.parked_wall_ms += elapsed_ms;
      if (link.parked_wall_ms >= grace) {
        retire_parked(id, link);
        ++stats_.wall_clock_closes;
        changed = true;
      }
    }
  }
  // The block clock runs only while a straggler is actually blocking the
  // gate: some link holds pending work, another is silent. All-idle is not
  // a stall, and a gate that can tick will (maybe_tick already ran).
  bool any_pending = false;
  bool any_silent = false;
  for (const Link* link : slot_links_) {
    if (!link->queue.empty()) {
      any_pending = true;
    } else if (!link->closed) {
      any_silent = true;
    }
  }
  if (!any_pending || !any_silent) {
    gate_blocked_ms_ = 0.0;
    return changed;
  }
  gate_blocked_ms_ += elapsed_ms;
  const bool close_now = config_.close_after_ms > 0.0 &&
                         gate_blocked_ms_ >= config_.close_after_ms;
  const bool park_now = config_.park_after_ms > 0.0 &&
                        gate_blocked_ms_ >= config_.park_after_ms;
  if (close_now || park_now) {
    for (std::size_t s = slots_.size(); s-- > 0;) {
      Link& link = *slot_links_[s];
      if (!link.queue.empty() || link.closed) continue;
      if (!close_now && in_park_hysteresis(link)) continue;  // damped
      if (park_now && !close_now) {
        park(s);
        ++stats_.wall_clock_parks;
      } else {
        link.closed = true;
        ++stats_.wall_clock_closes;
      }
      changed = true;
    }
  }
  if (changed) maybe_tick();
  return changed;
}

void MonitorEngine::maybe_tick() {
  for (;;) {
    retire_drained();
    if (slots_.empty()) return;
    // Lockstep gate: a tick advances EVERY active stream, so it fires only
    // once each active link has its next package decoded. On a time-ordered
    // wire links take turns, so queues stay O(1); a link that stops
    // producing must be close()d for the others to keep flowing.
    const std::size_t n = slots_.size();
    bool ready = true;
    for (std::size_t s = 0; s < n && ready; ++s) {
      ready = !slot_links_[s]->queue.empty();
    }
    if (!ready) {
      // A silent link is blocking everyone: the straggler policy may take
      // it out of the gate, after which the tick can be retried.
      if (apply_straggler_policy()) continue;
      return;
    }

    std::uint64_t tick_start = 0;
    if (tele_.on()) {
      // One clock read covers the whole tick: every sampled front
      // package's queue wait (enqueue_ns != 0 marks the 1-in-N frames the
      // decode path stamped) is measured against the same instant.
      tick_start = obs::now_ns();
      for (std::size_t s = 0; s < n; ++s) {
        const Pending& p = slot_links_[s]->queue.front();
        if (p.enqueue_ns != 0) {
          tele_.queue_wait_ns->record(
              tick_start > p.enqueue_ns ? tick_start - p.enqueue_ns : 0);
        }
      }
    }
    tick_rows_.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      tick_rows_[s] = slot_links_[s]->queue.front().row;
    }
    Stopwatch sw;
    batch_.step(tick_rows_, verdicts_,
                config_.adapter != nullptr ? &package_verdicts_ : nullptr);
    stats_.classify_us += sw.elapsed_us();
    ++stats_.ticks;
    gate_blocked_ms_ = 0.0;  // the gate moved; the stall clock restarts
    escalate_parked();

    const std::uint64_t dispatch_start = tele_.on() ? obs::now_ns() : 0;
    for (std::size_t s = 0; s < n; ++s) {
      Link& link = *slot_links_[s];
      const Pending& pending = link.queue.front();
      dispatch(slots_[s], link, pending, verdicts_[s]);
      if (config_.rollback_window != 0) {
        rollback_observe(verdicts_[s].anomaly);
      }
      if (config_.adapter != nullptr) {
        config_.adapter->observe(slots_[s], package_verdicts_[s],
                                 verdicts_[s].anomaly, pending.decode_ok);
      }
      link.queue.pop_front();
    }
    if (tele_.on()) {
      const std::uint64_t tick_end = obs::now_ns();
      tele_.dispatch_ns->record(tick_end - dispatch_start);
      tele_.tick_ns->record(tick_end - tick_start);
      publish_stats();
    }
    // Tick boundary: an armed-and-tripped rollback executes BEFORE the next
    // adapt boundary, so the restored weights (not the bad ones) are what a
    // same-tick swap would be judged against.
    if (rollback_due_) perform_rollback();
    if (config_.adapter != nullptr &&
        stats_.ticks % config_.adapt_interval == 0) {
      adapt_boundary();
    }
  }
}

void MonitorEngine::adapt_boundary(bool request_next) {
  const std::uint64_t t0 = tele_.on() ? obs::now_ns() : 0;
  Stopwatch sw;
  if (const std::uint64_t version = config_.adapter->poll_and_apply();
      version != 0) {
    // New weights are live in the detector's model; rebuild the batch's
    // transposed-weight caches. Stream states (and each stream's standing
    // prediction) carry over — the first post-swap verdict of every link
    // still uses its pre-swap prediction, every later one the new model.
    batch_.refresh_weights();
    if (config_.rollback_window != 0) {
      // (Re)arm the rollback monitor: score the next rollback_window
      // packages against the same-length window that ends here. A newer
      // swap landing mid-evaluation restarts the judgment — only the
      // weights actually serving are worth judging.
      rollback_armed_ = true;
      rollback_due_ = false;
      rollback_from_ = version;
      rollback_to_ = stats_.model_version;
      pre_alarms_ = recent_alarm_count_;
      pre_window_ = recent_alarms_.size();
      post_packages_ = 0;
      post_alarms_ = 0;
    }
    stats_.model_version = version;
    ++stats_.model_swaps;
    if (sink_ != nullptr) sink_->on_model_swap(version, stats_.ticks);
  }
  if (request_next) config_.adapter->request_round();
  stats_.adapt_us += sw.elapsed_us();
  if (tele_.on()) tele_.adapt_ns->record(obs::now_ns() - t0);
}

void MonitorEngine::rollback_observe(bool anomaly) {
  if (rollback_armed_) {
    ++post_packages_;
    if (anomaly) ++post_alarms_;
    if (post_packages_ >= config_.rollback_window) {
      rollback_armed_ = false;
      // Scale a short pre-window up to window length so early swaps are
      // judged on rates; add-one smoothing keeps a spotless pre-window
      // from turning any post-swap alarm into a trigger, and a spotless
      // post-window can never trigger at all.
      const double pre_scaled =
          pre_window_ > 0
              ? static_cast<double>(pre_alarms_) *
                    (static_cast<double>(config_.rollback_window) /
                     static_cast<double>(pre_window_))
              : 0.0;
      if (static_cast<double>(post_alarms_) + 1.0 >
          config_.rollback_ratio * (pre_scaled + 1.0)) {
        rollback_due_ = true;
      }
    }
  }
  // The rolling window feeds the NEXT swap's pre-swap baseline.
  recent_alarms_.push_back(anomaly);
  if (anomaly) ++recent_alarm_count_;
  if (recent_alarms_.size() > config_.rollback_window) {
    if (recent_alarms_.front()) --recent_alarm_count_;
    recent_alarms_.pop_front();
  }
}

void MonitorEngine::perform_rollback() {
  rollback_due_ = false;
  if (!config_.adapter->rollback_to(rollback_to_)) return;  // evicted
  batch_.refresh_weights();
  const std::uint64_t from = rollback_from_;
  stats_.model_version = rollback_to_;
  ++stats_.rollbacks;
  if (sink_ != nullptr) {
    sink_->on_rollback(from, rollback_to_, stats_.ticks);
  }
}

void MonitorEngine::dispatch(ics::LinkId id, Link& link,
                             const Pending& pending,
                             const detect::CombinedVerdict& verdict) {
  LinkStats& ls = link.stats;
  if (ls.packages == 0) ls.first_time = pending.time;
  ls.last_time = pending.time;
  const std::uint64_t seq = ls.packages++;
  ++stats_.packages;
  if (!pending.decode_ok) {
    ++ls.decode_failures;
    ++stats_.decode_failures;
  }
  if (!verdict.anomaly) return;
  ++ls.alarms;
  ++stats_.alarms;
  if (verdict.package_level) {
    ++ls.package_level_alarms;
    ++stats_.package_level_alarms;
  }
  if (verdict.timeseries_level) {
    ++ls.timeseries_level_alarms;
    ++stats_.timeseries_level_alarms;
  }
  if (sink_ == nullptr) return;
  AlarmEvent event;
  event.link = id;
  event.seq = seq;
  event.time = pending.time;
  event.verdict = verdict;
  event.address = pending.address;
  event.function = pending.function;
  event.length = pending.length;
  event.decode_ok = pending.decode_ok;
  sink_->on_alarm(event);
}

void MonitorEngine::publish_stats() {
  const EngineStats& s = stats_;
  tele_.frames->set(s.frames);
  tele_.packages->set(s.packages);
  tele_.ticks->set(s.ticks);
  tele_.alarms->set(s.alarms);
  tele_.package_level_alarms->set(s.package_level_alarms);
  tele_.timeseries_level_alarms->set(s.timeseries_level_alarms);
  tele_.decode_failures->set(s.decode_failures);
  tele_.links_seen->set(s.links_seen);
  tele_.links_retired->set(s.links_retired);
  tele_.links_parked->set(s.links_parked);
  tele_.model_swaps->set(s.model_swaps);
  tele_.rollbacks->set(s.rollbacks);
  tele_.wall_clock_parks->set(s.wall_clock_parks);
  tele_.wall_clock_closes->set(s.wall_clock_closes);
  tele_.classify_us->set(static_cast<std::uint64_t>(s.classify_us));
  tele_.adapt_us->set(static_cast<std::uint64_t>(s.adapt_us));
  tele_.peak_links->set(s.peak_links);
  tele_.peak_pending->set(s.peak_pending);
  tele_.model_version->set(s.model_version);
}

std::vector<std::pair<ics::LinkId, LinkStats>> MonitorEngine::link_stats()
    const {
  std::vector<std::pair<ics::LinkId, LinkStats>> out;
  out.reserve(links_.size());
  for (const auto& [id, link] : links_) out.emplace_back(id, link.stats);
  return out;
}

}  // namespace mlad::serve

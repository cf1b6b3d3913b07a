#include "serve/monitor_engine.hpp"

#include <algorithm>
#include <cmath>
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
  const double park_ms = config_.park_after_ms;
  const double close_ms = config_.close_after_ms;
  if (!std::isfinite(park_ms) || !std::isfinite(close_ms) || park_ms < 0.0 ||
      close_ms < 0.0) {
    throw std::invalid_argument(
        "MonitorEngine: park_after_ms and close_after_ms must be finite and "
        ">= 0");
  }
  if (park_ms > 0.0 && close_ms > 0.0 && close_ms <= park_ms) {
    throw std::invalid_argument(
        "MonitorEngine: close_after_ms must exceed park_after_ms (a link is "
        "parked before it is closed)");
  }
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
    tele_.stats = obs::StatMirror<EngineStats>(reg, kEngineStatFields);
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
  } else if (link.closed) {
    // A frame arriving while the link is still draining a premature close
    // cancels it: the stream continues. Only a link that actually LEFT
    // rejoins as a fresh stream (slot == kNoSlot above).
    link.closed = false;
    --closed_links_;
  }
  if (link.queue.empty()) ++ready_links_;

  const ics::Package& p = demuxed.decoded.package;
  Pending& pending = link.queue.push_back();
  ics::to_raw_row_into(p, demuxed.interval, pending.row);
  pending.time = p.time;
  pending.address = p.address;
  pending.function = p.function;
  pending.length = static_cast<std::uint16_t>(frame_len);
  pending.decode_ok = demuxed.decoded.decode_ok;
  pending.enqueue_ns = enqueue_ns;
  stats_.peak_pending =
      std::max<std::uint64_t>(stats_.peak_pending, link.queue.size());
  maybe_tick();
}

MonitorEngine::Pending& MonitorEngine::PendingQueue::push_back() {
  if (size_ == slots_.size()) {
    std::vector<Pending> grown(std::max<std::size_t>(4, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }
  Pending& slot = slots_[(head_ + size_) & (slots_.size() - 1)];
  ++size_;
  return slot;
}

void MonitorEngine::join(ics::LinkId id, Link& link) {
  // A parked link re-enters through the same grow path but with its saved
  // stream state restored, so its verdict sequence continues as if the
  // silent gap never happened. Everyone else starts a fresh zero stream.
  const bool resuming = link.parked;
  link.slot = slots_.size();
  slots_.push_back(id);
  slot_links_.push_back(&link);
  // Not counted in closed_links_: that count was settled when the link
  // left.
  link.closed = false;
  link.block_start_ms.reset();
  batch_.grow(slots_.size());
  if (resuming) {
    batch_.restore_stream(link.slot, *link.parked_state);
    link.parked_state.reset();
  }
  link.parked = false;
  if (resuming) {
    --parked_count_;
    link.rejoined_ms = now_ms_;
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
  mark_closed(it->second);
  maybe_tick();
}

void MonitorEngine::mark_closed(Link& link) {
  if (link.closed) return;
  link.closed = true;
  ++closed_links_;
}

void MonitorEngine::finish() {
  for (auto& [id, link] : links_) {
    if (link.slot != kNoSlot) mark_closed(link);
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
  if (tele_.on()) tele_.stats.publish(stats_);
}

void MonitorEngine::retire_drained() {
  // Walk slots from the back so one pass can retire several links; each
  // retirement swaps the victim to the last slot and shrinks — streams are
  // independent, so the relabeling never changes anyone's verdicts.
  for (std::size_t s = slots_.size(); s-- > 0;) {
    const Link& link = *slot_links_[s];
    if (!link.closed || !link.queue.empty()) continue;
    const ics::LinkId id = slots_[s];
    release_slot(s);
    --closed_links_;
    ++stats_.links_retired;
    if (config_.adapter != nullptr) config_.adapter->stream_break(id);
  }
}

void MonitorEngine::swap_slots(std::size_t a, std::size_t b) {
  batch_.swap_streams(a, b);
  std::swap(slots_[a], slots_[b]);
  std::swap(slot_links_[a], slot_links_[b]);
  slot_links_[a]->slot = a;
  slot_links_[b]->slot = b;
}

void MonitorEngine::release_slot(std::size_t s) {
  const std::size_t last = slots_.size() - 1;
  if (s != last) swap_slots(s, last);
  batch_.shrink(last);
  slot_links_[last]->slot = kNoSlot;
  slots_.pop_back();
  slot_links_.pop_back();
}

void MonitorEngine::park(std::size_t s) {
  Link& link = *slot_links_[s];
  link.parked_state = batch_.extract_stream(s);
  release_slot(s);
  link.parked = true;
  link.parked_at_ms = now_ms_;
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

bool MonitorEngine::sweep(double now_ms) {
  const double park_ms = config_.park_after_ms;
  const double close_ms = config_.close_after_ms;
  if (park_ms == 0.0 && close_ms == 0.0) return false;
  const double prev_ms = now_ms_;
  now_ms_ = now_ms;
  bool changed = false;
  // Rung 4: a parked link is retired once it has been parked for the
  // close grace, whether or not the gate is blocked now.
  if (park_ms > 0.0 && close_ms > 0.0 && parked_count_ > 0) {
    for (auto& [id, link] : links_) {
      if (link.parked && now_ms - link.parked_at_ms >= close_ms - park_ms) {
        retire_parked(id, link);
        ++stats_.straggler_closes;
        changed = true;
      }
    }
  }
  // A silent link's block clock runs while the wire is held back: some
  // link has work pending behind the lockstep gate, or the batch is split
  // (ready-only ticks have left a link behind). A tick that steps the link
  // restarts its clock, so a link that keeps talking never reaches a
  // threshold. All-idle after a full tick is not a stall, and a gate that
  // can tick will (maybe_tick already ran).
  const bool held_back = ready_links_ > 0 || split_;
  for (std::size_t s = slots_.size(); s-- > 0;) {
    Link& link = *slot_links_[s];
    if (!held_back || !link.queue.empty() || link.closed) {
      link.block_start_ms.reset();
      continue;
    }
    // A block first seen now began after the previous sweep; crediting it
    // from there makes a clock that advances once per pushed frame count
    // exactly the packages queued behind the straggler.
    if (!link.block_start_ms) link.block_start_ms = prev_ms;
    const double blocked_ms = now_ms - *link.block_start_ms;
    if (park_ms > 0.0) {
      // Hysteresis: a block that starts within park_after_ms of the link's
      // last rejoin needs twice the block time to re-park it. Both stamps
      // are fixed once the block starts, so the raised bar is always met.
      const bool rejoined_recently =
          *link.block_start_ms - link.rejoined_ms < park_ms;
      if (blocked_ms < (rejoined_recently ? 2.0 : 1.0) * park_ms) continue;
      park(s);
    } else {
      if (blocked_ms < close_ms) continue;
      mark_closed(link);  // retire_drained drops it on the next pass
      ++stats_.straggler_closes;
    }
    changed = true;
  }
  if (changed) maybe_tick();
  return changed;
}

void MonitorEngine::maybe_tick() {
  for (;;) {
    if (closed_links_ > 0) retire_drained();
    // Lockstep gate: a tick advances EVERY active stream, so it fires only
    // once each active link has its next package decoded. On a time-ordered
    // wire links take turns, so queues stay O(1); a link that stops
    // producing blocks everyone until it is close()d, the caller runs
    // tick_ready(), or the straggler ladder's sweep() takes it out of the
    // gate.
    const std::size_t n = slots_.size();
    if (n == 0 || ready_links_ < n) return;
    tick(n);
  }
}

void MonitorEngine::tick_ready() {
  maybe_tick();
  // Every ready link lies in slots [0, scan): gather them at the front and
  // step that prefix. Nothing arrives meanwhile, so the next round's ready
  // links lie inside this round's prefix; a retirement reshuffles slots,
  // so after one the scan covers them all again.
  std::size_t scan = slots_.size();
  while (ready_links_ > 0) {
    std::size_t ready = 0;
    for (std::size_t s = 0; s < scan; ++s) {
      if (slot_links_[s]->queue.empty()) continue;
      if (s != ready) swap_slots(s, ready);
      ++ready;
    }
    tick(ready);
    scan = ready;
    if (closed_links_ > 0) {
      retire_drained();
      scan = slots_.size();
    }
  }
}

void MonitorEngine::tick(std::size_t n) {
  std::uint64_t tick_start = 0;
  if (tele_.on()) {
    // One clock read covers the whole tick: every sampled front package's
    // queue wait (enqueue_ns != 0 marks the 1-in-N frames the decode path
    // stamped) is measured against the same instant.
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
  stats_.classify_ns += sw.elapsed_ns();
  ++stats_.ticks;
  split_ = n < slots_.size();
  if (split_) ++stats_.partial_ticks;

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
    if (link.queue.empty()) --ready_links_;
    link.block_start_ms.reset();  // it moved; its block clock restarts
  }
  if (tele_.on()) {
    const std::uint64_t tick_end = obs::now_ns();
    tele_.dispatch_ns->record(tick_end - dispatch_start);
    tele_.tick_ns->record(tick_end - tick_start);
    tele_.stats.publish(stats_);
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
  stats_.adapt_ns += sw.elapsed_ns();
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

std::vector<std::pair<ics::LinkId, LinkStats>> MonitorEngine::link_stats()
    const {
  std::vector<std::pair<ics::LinkId, LinkStats>> out;
  out.reserve(links_.size());
  for (const auto& [id, link] : links_) out.emplace_back(id, link.stats);
  return out;
}

}  // namespace mlad::serve

// Pluggable alarm outputs for the serve layer (DESIGN.md §8): the monitor
// engine classifies packages and hands every anomaly to an AlarmSink — the
// operator console, a CSV/JSONL audit file, or a test double. Sinks see
// alarms in classification order (tick by tick, slot order within a tick),
// which for a fixed wire is deterministic.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "detect/combined.hpp"
#include "ics/link_mux.hpp"

namespace mlad::serve {

/// One anomalous package: the Fig. 3 verdict plus the wire metadata an
/// operator needs to act on it.
struct AlarmEvent {
  ics::LinkId link = 0;
  std::uint64_t seq = 0;  ///< 0-based package index within the link
  double time = 0.0;      ///< capture timestamp (seconds)
  detect::CombinedVerdict verdict;
  std::uint8_t address = 0;   ///< Modbus unit address (0 if unsalvageable)
  std::uint8_t function = 0;  ///< function code (0 if unsalvageable)
  std::uint16_t length = 0;   ///< raw frame length in bytes
  bool decode_ok = true;      ///< frame passed CRC + shape checks
};

/// The two audit-file line formats: JSONL
///   {"link": 3, "seq": 7, "time": 12.500000, "stage": "lstm", "address": 4,
///    "function": 16, "length": 19, "decode_ok": true}
/// and the CSV row "3,7,12.500000,lstm,4,16,19,1".
enum class AlarmLineFormat { kJsonl, kCsv };

/// Room for the longest line format_alarm_line writes: a time of any
/// magnitude in fixed notation plus every other field at its widest.
inline constexpr std::size_t kMaxAlarmLine = 512;

/// Formats `e` as one audit-file line, '\n' included, into `buf` (at least
/// kMaxAlarmLine bytes) and returns its length. std::to_chars writes the
/// bytes the historical snprintf format wrote ("%.6f" for time, "nan",
/// "-inf" and all), allocation- and locale-free.
std::size_t format_alarm_line(const AlarmEvent& e, AlarmLineFormat format,
                              char* buf);

class AlarmSink {
 public:
  virtual ~AlarmSink() = default;
  virtual void on_alarm(const AlarmEvent& event) = 0;
  /// The engine hot-swapped adapted weights (version v) between ticks; every
  /// alarm after this call was classified by the new model. Default: ignore
  /// (only audit-trail sinks need the provenance record).
  virtual void on_model_swap(std::uint64_t version, std::uint64_t tick) {
    (void)version;
    (void)tick;
  }
  /// The engine rolled the serving model back from version `from` to
  /// version `to` (DESIGN.md §12) because the post-swap alarm rate spiked.
  /// Default: ignore, like on_model_swap.
  virtual void on_rollback(std::uint64_t from, std::uint64_t to,
                           std::uint64_t tick) {
    (void)from;
    (void)to;
    (void)tick;
  }
  virtual void flush() {}
};

/// Operator console: prints `mlad monitor`'s historical alarm line for the
/// first `max_lines` alarms (with an optional `link=N` column for
/// multi-link wires), then stays silent but keeps counting.
class ConsoleAlarmSink final : public AlarmSink {
 public:
  explicit ConsoleAlarmSink(std::FILE* out = stdout,
                            std::size_t max_lines = 20,
                            bool show_link = false);
  void on_alarm(const AlarmEvent& event) override;
  void on_model_swap(std::uint64_t version, std::uint64_t tick) override;
  void flush() override;

  std::size_t printed() const { return printed_; }
  std::size_t total() const { return total_; }

 private:
  std::FILE* out_;
  std::size_t max_lines_;
  bool show_link_;
  std::size_t printed_ = 0;
  std::size_t total_ = 0;
};

/// One JSON object per alarm per line — the machine-readable audit trail.
/// Each line goes out in one write of format_alarm_line's bytes.
class JsonlAlarmSink final : public AlarmSink {
 public:
  explicit JsonlAlarmSink(const std::string& path);
  void on_alarm(const AlarmEvent& event) override;
  /// Emits `{"type": "swap", "version": v, "tick": t}` so the audit trail
  /// records which model produced every subsequent alarm.
  void on_model_swap(std::uint64_t version, std::uint64_t tick) override;
  /// Emits `{"type": "rollback", "from": f, "to": t, "tick": k}`.
  void on_rollback(std::uint64_t from, std::uint64_t to,
                   std::uint64_t tick) override;
  void flush() override;

  std::size_t written() const { return written_; }

 private:
  std::ofstream out_;
  std::size_t written_ = 0;
};

/// Header + one row per alarm (format_alarm_line's CSV form).
class CsvAlarmSink final : public AlarmSink {
 public:
  explicit CsvAlarmSink(const std::string& path);
  void on_alarm(const AlarmEvent& event) override;
  void flush() override;

  std::size_t written() const { return written_; }

 private:
  std::ofstream out_;
  std::size_t written_ = 0;
};

/// Test double: records every event (and model swap) in arrival order.
class CountingAlarmSink final : public AlarmSink {
 public:
  struct SwapRecord {
    std::uint64_t version = 0;
    std::uint64_t tick = 0;
    std::size_t alarms_before = 0;  ///< alarms emitted before the swap

    bool operator==(const SwapRecord&) const = default;
  };
  struct RollbackRecord {
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    std::uint64_t tick = 0;
    std::size_t alarms_before = 0;

    bool operator==(const RollbackRecord&) const = default;
  };

  void on_alarm(const AlarmEvent& event) override {
    events_.push_back(event);
  }
  void on_model_swap(std::uint64_t version, std::uint64_t tick) override {
    swaps_.push_back({version, tick, events_.size()});
  }
  void on_rollback(std::uint64_t from, std::uint64_t to,
                   std::uint64_t tick) override {
    rollbacks_.push_back({from, to, tick, events_.size()});
  }
  const std::vector<AlarmEvent>& events() const { return events_; }
  const std::vector<SwapRecord>& swaps() const { return swaps_; }
  const std::vector<RollbackRecord>& rollbacks() const { return rollbacks_; }
  std::size_t count() const { return events_.size(); }
  void clear() {
    events_.clear();
    swaps_.clear();
    rollbacks_.clear();
  }

 private:
  std::vector<AlarmEvent> events_;
  std::vector<SwapRecord> swaps_;
  std::vector<RollbackRecord> rollbacks_;
};

/// Thread-safe serializing wrapper (DESIGN.md §10): N shard engines share
/// one downstream sink, and a mutex serializes every delivery into it.
/// Each shard calls the sink in its own classification order and a link
/// lives on exactly one shard, so per-link alarm order is preserved
/// exactly; only the cross-link interleaving depends on scheduling (which
/// is why the sharded CI smoke sorts before diffing).
class SerializedAlarmSink final : public AlarmSink {
 public:
  explicit SerializedAlarmSink(AlarmSink* inner);
  void on_alarm(const AlarmEvent& event) override;
  void on_model_swap(std::uint64_t version, std::uint64_t tick) override;
  void on_rollback(std::uint64_t from, std::uint64_t to,
                   std::uint64_t tick) override;
  void flush() override;

 private:
  AlarmSink* inner_;
  std::mutex mutex_;
};

/// Fan one alarm stream out to several sinks (console + audit file).
class TeeAlarmSink final : public AlarmSink {
 public:
  explicit TeeAlarmSink(std::vector<AlarmSink*> sinks);
  void on_alarm(const AlarmEvent& event) override;
  void on_model_swap(std::uint64_t version, std::uint64_t tick) override;
  void on_rollback(std::uint64_t from, std::uint64_t to,
                   std::uint64_t tick) override;
  void flush() override;

 private:
  std::vector<AlarmSink*> sinks_;
};

/// File sink by extension: ".csv" → CSV, anything else → JSONL.
std::unique_ptr<AlarmSink> make_file_sink(const std::string& path);

}  // namespace mlad::serve

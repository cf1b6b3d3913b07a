// Ingestion front ends for the serve layer (DESIGN.md §10): a
// PackageSource produces the interleaved multi-link wire the sharded
// engine consumes — one (link, raw frame) pair at a time, in wire order.
//
// Sources are pull-based: the ingest pump calls next() on its own thread
// and routes each frame to an engine shard by link hash. Blocking inside
// next() (a paced replay sleeping out an inter-arrival gap, a socket
// waiting for a datagram) therefore back-pressures the pump, never an
// engine. The frame SEQUENCE a source yields — not its timing — is what
// determines every verdict downstream, so a paced and an unpaced replay of
// the same wire are bit-identical end to end.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ics/link_mux.hpp"
#include "obs/stat_fields.hpp"

namespace mlad::ingest {

/// Source-side fault/health counters (DESIGN.md §12), aggregated into
/// IngestStats by the serve pump so a front end's degradation is visible in
/// the closing stats. In-memory sources report all-zero.
struct SourceHealth {
  std::uint64_t malformed = 0;   ///< records dropped by framing checks
  std::uint64_t truncated = 0;   ///< records cut off mid-transfer
  std::uint64_t connections = 0; ///< transport connections accepted
  std::uint64_t reconnects = 0;  ///< resumed sessions (reconnect/resume)
  std::uint64_t duplicates_discarded = 0;  ///< resume-overlap records
  std::uint64_t records_lost = 0;          ///< resume gaps
  std::uint64_t faults_injected = 0;       ///< FaultySource decorations
};

/// SourceHealth's one field table (DESIGN.md §14): one `source_*_total`
/// counter per field, summed across owners.
inline constexpr std::array<obs::StatField<SourceHealth>, 7>
    kSourceHealthFields{{
        {"source_malformed_total", &SourceHealth::malformed,
         obs::Merge::kSum},
        {"source_truncated_total", &SourceHealth::truncated,
         obs::Merge::kSum},
        {"source_connections_total", &SourceHealth::connections,
         obs::Merge::kSum},
        {"source_reconnects_total", &SourceHealth::reconnects,
         obs::Merge::kSum},
        {"source_duplicates_discarded_total",
         &SourceHealth::duplicates_discarded, obs::Merge::kSum},
        {"source_records_lost_total", &SourceHealth::records_lost,
         obs::Merge::kSum},
        {"source_faults_injected_total", &SourceHealth::faults_injected,
         obs::Merge::kSum},
    }};
static_assert(obs::covers_every_field(kSourceHealthFields),
              "every SourceHealth field needs a kSourceHealthFields entry");

class PackageSource {
 public:
  virtual ~PackageSource() = default;

  /// Produce the next frame of the wire into `out`. Returns false once the
  /// source is exhausted (and keeps returning false — callers may poll a
  /// finished source harmlessly). May block while waiting for input.
  virtual bool next(ics::LinkFrame& out) = 0;

  /// Fault/health counters accumulated so far (zero for clean in-memory
  /// sources). Safe to call at any time from the pump thread.
  virtual SourceHealth health() const { return {}; }
};

/// A pre-merged wire held in memory — the `mlad serve --source capture`
/// path: captures are read from disk, interleaved with
/// ics::merge_captures, and drained at full speed.
class CaptureSource final : public PackageSource {
 public:
  explicit CaptureSource(std::vector<ics::LinkFrame> wire);

  bool next(ics::LinkFrame& out) override;

  std::size_t remaining() const { return wire_.size() - pos_; }

 private:
  std::vector<ics::LinkFrame> wire_;
  std::size_t pos_ = 0;
};

}  // namespace mlad::ingest

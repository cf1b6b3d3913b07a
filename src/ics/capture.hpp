// Raw wire-capture layer: timestamped Modbus RTU frames, a compact binary
// capture-file format (a pcap-style substitute for environments without
// libpcap), and the decoder that reconstructs Table-I Package records from
// raw bytes through the real codec.
//
// This closes the loop the paper assumes: the IDS taps the serial link,
// sees bytes, and derives features (function code, length, register
// payloads, CRC validity → crc rate, timestamps → time interval) from the
// frames themselves. The simulator can emit raw frames so the whole
// byte-level path is exercised end to end.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ics/features.hpp"
#include "ics/modbus.hpp"

namespace mlad::ics {

/// One captured frame: raw bytes + capture timestamp + direction.
struct RawFrame {
  double timestamp = 0.0;
  bool is_response = false;  ///< direction (slave → master)
  std::vector<std::uint8_t> bytes;

  bool operator==(const RawFrame&) const = default;
};

/// A capture is just an ordered frame list.
using Capture = std::vector<RawFrame>;

// ---- binary capture files ---------------------------------------------------

/// Write a capture ("MLADCAP1" magic, little-endian, length-prefixed).
void write_capture(std::ostream& out, const Capture& capture);
void write_capture_file(const std::string& path, const Capture& capture);

/// Read a capture. Throws std::runtime_error on malformed input.
Capture read_capture(std::istream& in);
Capture read_capture_file(const std::string& path);

// ---- frame ⇄ package --------------------------------------------------------

/// Encode a Package back to the raw frame it would have produced on the
/// wire (inverse of the simulator's feature extraction; used to generate
/// byte-level captures from package logs).
RawFrame package_to_frame(const Package& package);

/// Decoder state: reconstructs Package records from a frame stream,
/// tracking the rolling CRC-error rate (the `crc rate` feature) and pairing
/// write commands with the device state they announce.
class FrameDecoder {
 public:
  /// `crc_window` frames contribute to the rolling crc rate (§VII).
  explicit FrameDecoder(std::size_t crc_window = 50);

  /// Decode the next frame into a Package. Frames that fail CRC or shape
  /// checks still produce a Package (the monitor must classify them!) with
  /// whatever could be salvaged and `decode_ok == false`.
  struct Decoded {
    Package package;
    bool decode_ok = false;
  };
  Decoded next(const RawFrame& frame);

  /// Decode a whole capture in order.
  std::vector<Package> decode_all(const Capture& capture);

  double current_crc_rate() const;

 private:
  void push_crc(bool error);
  void apply_registers(const ModbusFrame& frame, Package& package);

  std::vector<bool> crc_errors_;
  std::size_t crc_error_count_ = 0;  ///< set entries of crc_errors_
  std::size_t crc_pos_ = 0;
  std::size_t crc_seen_ = 0;
  /// Decode target reused across frames (its register buffer stays warm).
  ModbusFrame scratch_;
  /// Last control block seen on the wire (write command payload), echoed
  /// into subsequent response packages like the testbed logger does.
  Package last_state_;
};

}  // namespace mlad::ics

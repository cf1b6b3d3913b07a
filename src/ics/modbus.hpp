// Minimal Modbus RTU codec for the gas-pipeline SCADA loop.
//
// The testbed's master cyclically reads the pressure register and writes the
// control block (setpoint, PID parameters, mode, pump, solenoid). We model
// the standard public function codes used for that plus raw frame
// encode/decode with real CRC-16, so attack types that tamper with function
// codes, lengths, or checksums exercise genuine parsing paths.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mlad::ics {

/// Public Modbus function codes used by the testbed (subset).
enum class FunctionCode : std::uint8_t {
  kReadHoldingRegisters = 0x03,
  kReadInputRegisters = 0x04,
  kWriteSingleRegister = 0x06,
  kWriteMultipleRegisters = 0x10,
  kReadWriteMultipleRegisters = 0x17,  // seen in the dataset's recon traffic
};

/// Is this one of the codes a healthy testbed exchange uses?
bool is_known_function(std::uint8_t code);

/// A decoded RTU frame (address + function + register payload).
struct ModbusFrame {
  std::uint8_t address = 0;
  std::uint8_t function = 0;
  std::uint16_t start_register = 0;
  std::vector<std::uint16_t> registers;  ///< payload words
  bool is_response = false;              ///< responses echo function codes

  bool operator==(const ModbusFrame&) const = default;
};

/// Serialize a frame to raw RTU bytes (appends correct CRC-16, low byte
/// first per the Modbus spec).
std::vector<std::uint8_t> encode_frame(const ModbusFrame& frame);

/// Decode raw RTU bytes. Returns nullopt on short frames or CRC mismatch.
/// (The simulator uses decode failures to derive the `crc rate` feature.)
std::optional<ModbusFrame> decode_frame(std::span<const std::uint8_t> bytes,
                                        bool is_response);

/// Validate only the trailing CRC of a raw frame.
bool frame_crc_ok(std::span<const std::uint8_t> bytes);

/// decode_frame's shape checks for a frame whose CRC the caller already
/// verified (frame_crc_ok(bytes) must hold): fills `out`, reusing its
/// register capacity, and returns false on a malformed body (`out` is then
/// unspecified). FrameDecoder checks each frame's CRC once through this.
bool decode_checked_frame(std::span<const std::uint8_t> bytes,
                          bool is_response, ModbusFrame& out);

/// Corrupt `bytes` in place by flipping `nbits` pseudo-random bits seeded by
/// `seed` (used by the channel-noise model that produces nonzero crc rate).
void flip_bits(std::span<std::uint8_t> bytes, unsigned nbits,
               std::uint64_t seed);

}  // namespace mlad::ics

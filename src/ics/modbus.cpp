#include "ics/modbus.hpp"

#include "bloom/hashing.hpp"
#include "ics/crc16.hpp"

namespace mlad::ics {

bool is_known_function(std::uint8_t code) {
  switch (code) {
    case 0x03:
    case 0x04:
    case 0x06:
    case 0x10:
    case 0x17:
      return true;
    default:
      return false;
  }
}

std::vector<std::uint8_t> encode_frame(const ModbusFrame& frame) {
  std::vector<std::uint8_t> out;
  out.push_back(frame.address);
  out.push_back(frame.function);
  if (frame.is_response) {
    // Response PDU: byte count + register words.
    out.push_back(static_cast<std::uint8_t>(frame.registers.size() * 2));
  } else {
    // Request PDU: start register + word count.
    out.push_back(static_cast<std::uint8_t>(frame.start_register >> 8));
    out.push_back(static_cast<std::uint8_t>(frame.start_register & 0xFF));
    out.push_back(static_cast<std::uint8_t>(frame.registers.size() >> 8));
    out.push_back(static_cast<std::uint8_t>(frame.registers.size() & 0xFF));
  }
  for (std::uint16_t reg : frame.registers) {
    out.push_back(static_cast<std::uint8_t>(reg >> 8));
    out.push_back(static_cast<std::uint8_t>(reg & 0xFF));
  }
  const std::uint16_t crc = crc16_modbus(out);
  out.push_back(static_cast<std::uint8_t>(crc & 0xFF));  // CRC low first
  out.push_back(static_cast<std::uint8_t>(crc >> 8));
  return out;
}

bool frame_crc_ok(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return false;
  const std::uint16_t stored = static_cast<std::uint16_t>(
      bytes[bytes.size() - 2] | (bytes[bytes.size() - 1] << 8));
  const std::uint16_t computed =
      crc16_modbus(bytes.subspan(0, bytes.size() - 2));
  return stored == computed;
}

std::optional<ModbusFrame> decode_frame(std::span<const std::uint8_t> bytes,
                                        bool is_response) {
  ModbusFrame f;
  if (!frame_crc_ok(bytes) || !decode_checked_frame(bytes, is_response, f)) {
    return std::nullopt;
  }
  return f;
}

bool decode_checked_frame(std::span<const std::uint8_t> bytes,
                          bool is_response, ModbusFrame& out) {
  out.is_response = is_response;
  out.address = bytes[0];
  out.function = bytes[1];
  out.start_register = 0;
  out.registers.clear();
  const auto body = bytes.subspan(2, bytes.size() - 4);
  if (is_response) {
    if (body.empty()) return false;
    const std::size_t count = body[0];
    if (count % 2 != 0 || body.size() != count + 1) return false;
    for (std::size_t i = 1; i + 1 < body.size(); i += 2) {
      out.registers.push_back(
          static_cast<std::uint16_t>((body[i] << 8) | body[i + 1]));
    }
  } else {
    if (body.size() < 4) return false;
    out.start_register = static_cast<std::uint16_t>((body[0] << 8) | body[1]);
    const std::size_t words = static_cast<std::size_t>((body[2] << 8) | body[3]);
    if (body.size() != 4 + words * 2) return false;
    for (std::size_t i = 4; i + 1 < body.size(); i += 2) {
      out.registers.push_back(
          static_cast<std::uint16_t>((body[i] << 8) | body[i + 1]));
    }
  }
  return true;
}

void flip_bits(std::span<std::uint8_t> bytes, unsigned nbits,
               std::uint64_t seed) {
  if (bytes.empty()) return;
  std::uint64_t state = seed;
  for (unsigned i = 0; i < nbits; ++i) {
    state = bloom::splitmix64(state);
    const std::size_t byte = state % bytes.size();
    const unsigned bit = (state >> 32) & 7u;
    bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
  }
}

}  // namespace mlad::ics

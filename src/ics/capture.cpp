#include "ics/capture.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace mlad::ics {
namespace {

constexpr char kMagic[8] = {'M', 'L', 'A', 'D', 'C', 'A', 'P', '1'};

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("read_capture: truncated stream");
  return v;
}

/// Fixed register map of the testbed (mirrors the simulator's layout).
constexpr std::uint16_t kControlBlockStart = 0x0000;
constexpr std::uint16_t kPressureRegister = 0x0010;

}  // namespace

void write_capture(std::ostream& out, const Capture& capture) {
  out.write(kMagic, sizeof(kMagic));
  write_u32(out, static_cast<std::uint32_t>(capture.size()));
  for (const RawFrame& f : capture) {
    out.write(reinterpret_cast<const char*>(&f.timestamp), sizeof(f.timestamp));
    const std::uint8_t dir = f.is_response ? 1 : 0;
    out.write(reinterpret_cast<const char*>(&dir), 1);
    write_u32(out, static_cast<std::uint32_t>(f.bytes.size()));
    out.write(reinterpret_cast<const char*>(f.bytes.data()),
              static_cast<std::streamsize>(f.bytes.size()));
  }
  if (!out) throw std::runtime_error("write_capture: write failure");
}

void write_capture_file(const std::string& path, const Capture& capture) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_capture_file: cannot open " + path);
  write_capture(out, capture);
}

Capture read_capture(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("read_capture: bad magic");
  }
  const std::uint32_t count = read_u32(in);
  Capture capture;
  capture.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RawFrame f;
    in.read(reinterpret_cast<char*>(&f.timestamp), sizeof(f.timestamp));
    std::uint8_t dir = 0;
    in.read(reinterpret_cast<char*>(&dir), 1);
    f.is_response = dir != 0;
    const std::uint32_t len = read_u32(in);
    if (len > (1u << 16)) throw std::runtime_error("read_capture: frame too big");
    f.bytes.resize(len);
    in.read(reinterpret_cast<char*>(f.bytes.data()),
            static_cast<std::streamsize>(len));
    if (!in) throw std::runtime_error("read_capture: truncated frame");
    capture.push_back(std::move(f));
  }
  return capture;
}

Capture read_capture_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_capture_file: cannot open " + path);
  return read_capture(in);
}

RawFrame package_to_frame(const Package& p) {
  ModbusFrame f;
  f.address = p.address;
  f.function = p.function;
  f.is_response = p.command_response == 0;

  const bool is_write = p.function ==
      static_cast<std::uint8_t>(FunctionCode::kWriteMultipleRegisters);
  if (!f.is_response && is_write) {
    // Control block write: setpoint, five PID parameters, packed state.
    f.start_register = kControlBlockStart;
    f.registers = {
        static_cast<std::uint16_t>(std::clamp(p.setpoint, 0.0, 650.0) * 100),
        static_cast<std::uint16_t>(std::clamp(p.pid.gain, 0.0, 650.0) * 100),
        static_cast<std::uint16_t>(std::clamp(p.pid.reset_rate, 0.0, 6500.0) * 10),
        static_cast<std::uint16_t>(std::clamp(p.pid.dead_band, 0.0, 650.0) * 100),
        static_cast<std::uint16_t>(std::clamp(p.pid.cycle_time, 0.0, 65.0) * 1000),
        static_cast<std::uint16_t>(std::clamp(p.pid.rate, 0.0, 65.0) * 1000),
        static_cast<std::uint16_t>(
            (static_cast<unsigned>(p.system_mode) << 8) |
            (static_cast<unsigned>(p.control_scheme) << 4) |
            (static_cast<unsigned>(p.pump) << 1) |
            static_cast<unsigned>(p.solenoid))};
  } else if (!f.is_response) {
    // Read (or foreign-function) request.
    f.start_register = kPressureRegister;
  } else if (is_write) {
    // Write acknowledgement: echo start + quantity.
    f.registers = {kControlBlockStart, 0x0007};
  } else {
    // Read response carrying the pressure register.
    f.registers = {static_cast<std::uint16_t>(
        std::clamp(p.pressure_measurement, 0.0, 650.0) * 100)};
  }

  RawFrame raw;
  raw.timestamp = p.time;
  raw.is_response = f.is_response;
  raw.bytes = encode_frame(f);
  if (p.frame_corrupted) {
    // Reproduce the channel error on the wire (deterministic in the
    // timestamp so captures are reproducible).
    flip_bits(raw.bytes, 2,
              static_cast<std::uint64_t>(p.time * 1e6) ^ 0xC0FFEEull);
  }
  return raw;
}

FrameDecoder::FrameDecoder(std::size_t crc_window)
    : crc_errors_(std::max<std::size_t>(crc_window, 1), false) {}

void FrameDecoder::push_crc(bool error) {
  crc_error_count_ -= crc_errors_[crc_pos_] ? 1 : 0;
  crc_error_count_ += error ? 1 : 0;
  crc_errors_[crc_pos_] = error;
  crc_pos_ = (crc_pos_ + 1) % crc_errors_.size();
  crc_seen_ = std::min(crc_seen_ + 1, crc_errors_.size());
}

double FrameDecoder::current_crc_rate() const {
  if (crc_seen_ == 0) return 0.0;
  return static_cast<double>(crc_error_count_) /
         static_cast<double>(crc_errors_.size());
}

void FrameDecoder::apply_registers(const ModbusFrame& frame, Package& p) {
  if (!frame.is_response &&
      frame.function ==
          static_cast<std::uint8_t>(FunctionCode::kWriteMultipleRegisters) &&
      frame.registers.size() == 7) {
    p.setpoint = frame.registers[0] / 100.0;
    p.pid.gain = frame.registers[1] / 100.0;
    p.pid.reset_rate = frame.registers[2] / 10.0;
    p.pid.dead_band = frame.registers[3] / 100.0;
    p.pid.cycle_time = frame.registers[4] / 1000.0;
    p.pid.rate = frame.registers[5] / 1000.0;
    const std::uint16_t packed = frame.registers[6];
    p.system_mode = static_cast<SystemMode>((packed >> 8) & 0x03);
    p.control_scheme = static_cast<ControlScheme>((packed >> 4) & 0x01);
    p.pump = (packed >> 1) & 0x01;
    p.solenoid = packed & 0x01;
    // Announce the new device state to subsequent responses.
    last_state_ = p;
  } else if (frame.is_response && frame.registers.size() == 1) {
    // Pressure read response: carries the device state announced by the
    // last control write, plus the fresh measurement.
    p.setpoint = last_state_.setpoint;
    p.pid = last_state_.pid;
    p.system_mode = last_state_.system_mode;
    p.control_scheme = last_state_.control_scheme;
    p.pump = last_state_.pump;
    p.solenoid = last_state_.solenoid;
    p.pressure_measurement = frame.registers[0] / 100.0;
    last_state_.pressure_measurement = p.pressure_measurement;
  } else if (frame.is_response) {
    // Write acknowledgement (or other response): echo device state and the
    // last known measurement, like the testbed's logger.
    p.setpoint = last_state_.setpoint;
    p.pid = last_state_.pid;
    p.system_mode = last_state_.system_mode;
    p.control_scheme = last_state_.control_scheme;
    p.pump = last_state_.pump;
    p.solenoid = last_state_.solenoid;
    p.pressure_measurement = last_state_.pressure_measurement;
  } else {
    // Plain read (or foreign-function) request: the Table-I fields it does
    // not carry are logged zeroed, exactly like the testbed's ARFF rows.
    p.system_mode = SystemMode::kOff;
    p.control_scheme = ControlScheme::kPump;
  }
}

FrameDecoder::Decoded FrameDecoder::next(const RawFrame& frame) {
  Decoded out;
  Package& p = out.package;
  p.time = frame.timestamp;
  p.length = static_cast<std::uint16_t>(frame.bytes.size());
  p.command_response = frame.is_response ? 0 : 1;

  const bool crc_ok = frame_crc_ok(frame.bytes);
  push_crc(!crc_ok);
  p.crc_rate = current_crc_rate();

  // Salvage the header even for broken frames — the monitor still needs a
  // feature vector for them.
  if (!frame.bytes.empty()) p.address = frame.bytes[0];
  if (frame.bytes.size() > 1) p.function = frame.bytes[1];

  // The CRC verdict above is decode_frame's first check; pass it through
  // instead of recomputing it.
  if (crc_ok &&
      decode_checked_frame(frame.bytes, frame.is_response, scratch_)) {
    apply_registers(scratch_, p);
    out.decode_ok = true;
  }
  return out;
}

std::vector<Package> FrameDecoder::decode_all(const Capture& capture) {
  std::vector<Package> out;
  out.reserve(capture.size());
  for (const RawFrame& f : capture) out.push_back(next(f).package);
  return out;
}

}  // namespace mlad::ics

#include "ics/capture.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <sstream>

#include "ics/crc16.hpp"
#include "ics/simulator.hpp"

namespace mlad::ics {
namespace {

std::vector<Package> simulated_packages(std::size_t cycles,
                                        bool attacks = false) {
  SimulatorConfig cfg;
  cfg.cycles = cycles;
  cfg.attacks_enabled = attacks;
  cfg.seed = 5;
  GasPipelineSimulator sim(cfg);
  return sim.run().packages;
}

TEST(Capture, FileFormatRoundTrip) {
  Capture capture;
  for (const Package& p : simulated_packages(20)) {
    capture.push_back(package_to_frame(p));
  }
  std::stringstream buf;
  write_capture(buf, capture);
  const Capture loaded = read_capture(buf);
  EXPECT_EQ(loaded, capture);
}

TEST(Capture, BadMagicThrows) {
  std::stringstream buf;
  buf << "not a capture file at all.........";
  EXPECT_THROW(read_capture(buf), std::runtime_error);
}

TEST(Capture, TruncatedThrows) {
  Capture capture = {package_to_frame(simulated_packages(2)[0])};
  std::stringstream buf;
  write_capture(buf, capture);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() - 4));
  EXPECT_THROW(read_capture(cut), std::runtime_error);
}

TEST(Capture, FileRoundTrip) {
  Capture capture;
  for (const Package& p : simulated_packages(5)) {
    capture.push_back(package_to_frame(p));
  }
  const std::string path = testing::TempDir() + "/mlad_test.cap";
  write_capture_file(path, capture);
  EXPECT_EQ(read_capture_file(path), capture);
}

TEST(Capture, MissingFileThrows) {
  EXPECT_THROW(read_capture_file("/no/such/file.cap"), std::runtime_error);
}

TEST(Capture, FramesCarryValidCrcUnlessCorrupted) {
  for (const Package& p : simulated_packages(200)) {
    const RawFrame f = package_to_frame(p);
    EXPECT_EQ(frame_crc_ok(f.bytes), !p.frame_corrupted);
    EXPECT_EQ(f.timestamp, p.time);
    EXPECT_EQ(f.is_response, p.command_response == 0);
  }
}

TEST(Capture, CorruptionFlagReproducedOnWire) {
  Package p;
  p.time = 3.25;
  p.function = 0x03;
  p.command_response = 1;
  p.frame_corrupted = true;
  const RawFrame f = package_to_frame(p);
  EXPECT_FALSE(frame_crc_ok(f.bytes));
  // Deterministic: the same package corrupts identically.
  EXPECT_EQ(package_to_frame(p), f);
}

TEST(Capture, DecoderRecoversHeaderFields) {
  const auto pkgs = simulated_packages(50);
  FrameDecoder decoder;
  for (const Package& p : pkgs) {
    if (p.frame_corrupted) continue;
    const auto d = decoder.next(package_to_frame(p));
    EXPECT_TRUE(d.decode_ok);
    EXPECT_EQ(d.package.address, p.address);
    EXPECT_EQ(d.package.function, p.function);
    EXPECT_EQ(d.package.command_response, p.command_response);
    EXPECT_EQ(d.package.length, p.length);
    EXPECT_DOUBLE_EQ(d.package.time, p.time);
  }
}

TEST(Capture, DecoderRecoversControlBlock) {
  const auto pkgs = simulated_packages(50);
  FrameDecoder decoder;
  for (const Package& p : pkgs) {
    if (p.frame_corrupted) continue;
    const auto d = decoder.next(package_to_frame(p));
    if (p.command_response == 1 && p.function == 0x10) {
      // Quantization: setpoint to 1/100, reset rate to 1/10, etc.
      EXPECT_NEAR(d.package.setpoint, p.setpoint, 0.011);
      EXPECT_NEAR(d.package.pid.gain, p.pid.gain, 0.011);
      EXPECT_NEAR(d.package.pid.reset_rate, p.pid.reset_rate, 0.11);
      EXPECT_NEAR(d.package.pid.dead_band, p.pid.dead_band, 0.011);
      EXPECT_NEAR(d.package.pid.cycle_time, p.pid.cycle_time, 0.0011);
      EXPECT_NEAR(d.package.pid.rate, p.pid.rate, 0.0011);
      EXPECT_EQ(d.package.system_mode, p.system_mode);
      EXPECT_EQ(d.package.control_scheme, p.control_scheme);
      EXPECT_EQ(d.package.pump, p.pump);
      EXPECT_EQ(d.package.solenoid, p.solenoid);
    }
  }
}

TEST(Capture, DecoderRecoversPressure) {
  const auto pkgs = simulated_packages(50);
  FrameDecoder decoder;
  for (const Package& p : pkgs) {
    if (p.frame_corrupted) continue;
    const auto d = decoder.next(package_to_frame(p));
    if (p.command_response == 0 && p.function == 0x03) {
      EXPECT_NEAR(d.package.pressure_measurement, p.pressure_measurement,
                  0.011);
    }
  }
}

TEST(Capture, CorruptedFrameStillYieldsPackage) {
  const auto pkgs = simulated_packages(3);
  FrameDecoder decoder;
  RawFrame f = package_to_frame(pkgs[0]);
  f.bytes[2] ^= 0xFF;  // break the payload → CRC mismatch
  const auto d = decoder.next(f);
  EXPECT_FALSE(d.decode_ok);
  EXPECT_EQ(d.package.address, pkgs[0].address);  // header salvaged
  EXPECT_GT(d.package.crc_rate, 0.0);             // error visible in crc rate
}

TEST(Capture, CrcRateRollsOverWindow) {
  FrameDecoder decoder(/*crc_window=*/10);
  const auto pkgs = simulated_packages(30);
  // First 5 frames corrupted, then clean: rate rises then decays to 0.
  for (std::size_t i = 0; i < pkgs.size(); ++i) {
    RawFrame f = package_to_frame(pkgs[i]);
    if (i < 5) f.bytes[1] ^= 0x40;
    decoder.next(f);
  }
  EXPECT_DOUBLE_EQ(decoder.current_crc_rate(), 0.0);
}

/// FrameDecoder::next as it was before it checked each CRC once: a full
/// window recount, a second CRC check inside decode_frame and a fresh
/// ModbusFrame per frame — the oracle for the decoder's outputs.
class ReferenceDecoder {
 public:
  explicit ReferenceDecoder(std::size_t window) : window_(window) {}

  FrameDecoder::Decoded next(const RawFrame& frame) {
    FrameDecoder::Decoded out;
    Package& p = out.package;
    p.time = frame.timestamp;
    p.length = static_cast<std::uint16_t>(frame.bytes.size());
    p.command_response = frame.is_response ? 0 : 1;
    errors_.push_back(!frame_crc_ok(frame.bytes));
    if (errors_.size() > window_) errors_.pop_front();
    std::size_t errors = 0;
    for (bool e : errors_) errors += e ? 1 : 0;
    p.crc_rate = static_cast<double>(errors) / static_cast<double>(window_);
    if (!frame.bytes.empty()) p.address = frame.bytes[0];
    if (frame.bytes.size() > 1) p.function = frame.bytes[1];
    const std::optional<ModbusFrame> f =
        decode_frame(frame.bytes, frame.is_response);
    if (!f) return out;
    out.decode_ok = true;
    const bool write =
        f->function ==
        static_cast<std::uint8_t>(FunctionCode::kWriteMultipleRegisters);
    if (!f->is_response && write && f->registers.size() == 7) {
      p.setpoint = f->registers[0] / 100.0;
      p.pid.gain = f->registers[1] / 100.0;
      p.pid.reset_rate = f->registers[2] / 10.0;
      p.pid.dead_band = f->registers[3] / 100.0;
      p.pid.cycle_time = f->registers[4] / 1000.0;
      p.pid.rate = f->registers[5] / 1000.0;
      const std::uint16_t packed = f->registers[6];
      p.system_mode = static_cast<SystemMode>((packed >> 8) & 0x03);
      p.control_scheme = static_cast<ControlScheme>((packed >> 4) & 0x01);
      p.pump = (packed >> 1) & 0x01;
      p.solenoid = packed & 0x01;
      last_ = p;
    } else if (f->is_response) {
      p.setpoint = last_.setpoint;
      p.pid = last_.pid;
      p.system_mode = last_.system_mode;
      p.control_scheme = last_.control_scheme;
      p.pump = last_.pump;
      p.solenoid = last_.solenoid;
      if (f->registers.size() == 1) {
        p.pressure_measurement = f->registers[0] / 100.0;
        last_.pressure_measurement = p.pressure_measurement;
      } else {
        p.pressure_measurement = last_.pressure_measurement;
      }
    } else {
      p.system_mode = SystemMode::kOff;
      p.control_scheme = ControlScheme::kPump;
    }
    return out;
  }

 private:
  std::size_t window_;
  std::deque<bool> errors_;
  Package last_;
};

TEST(Capture, DecoderMatchesTheTwoCrcCheckReference) {
  // Attack traffic plus heavy channel noise, and every 7th frame's CRC or
  // body broken by hand: crc_rate, decode_ok and every Table-I field must
  // equal the reference on every frame.
  SimulatorConfig cfg;
  cfg.cycles = 600;
  cfg.attacks_enabled = true;
  cfg.frame_corruption_prob = 0.05;
  cfg.seed = 17;
  const std::vector<Package> pkgs = GasPipelineSimulator(cfg).run().packages;
  for (const std::size_t window : {1u, 10u, 50u}) {
    FrameDecoder decoder(window);
    ReferenceDecoder reference(window);
    std::size_t failures = 0;
    for (std::size_t i = 0; i < pkgs.size(); ++i) {
      RawFrame f = package_to_frame(pkgs[i]);
      if (i % 7 == 3) f.bytes[f.bytes.size() - 1] ^= 0x01;  // CRC only
      if (i % 7 == 5 && f.bytes.size() > 4) {
        // Drop a body byte and re-seal the CRC: a well-formed CRC over a
        // malformed body.
        f.bytes.erase(f.bytes.begin() + 2);
        f.bytes.resize(f.bytes.size() - 2);
        const std::uint16_t crc = crc16_modbus(f.bytes);
        f.bytes.push_back(static_cast<std::uint8_t>(crc & 0xFF));
        f.bytes.push_back(static_cast<std::uint8_t>(crc >> 8));
      }
      const FrameDecoder::Decoded got = decoder.next(f);
      const FrameDecoder::Decoded want = reference.next(f);
      ASSERT_EQ(got.decode_ok, want.decode_ok) << "frame " << i;
      ASSERT_EQ(got.package.time, want.package.time) << "frame " << i;
      ASSERT_EQ(to_raw_row(got.package, 0.0), to_raw_row(want.package, 0.0))
          << "frame " << i << " window " << window;
      failures += got.decode_ok ? 0 : 1;
    }
    EXPECT_GT(failures, pkgs.size() / 7);  // both breakages were exercised
  }
}

TEST(Capture, EndToEndWirePathFeedsDetector) {
  // Full byte-level path: packages → frames → capture file → decode →
  // raw feature rows. Shapes and core features must survive.
  const auto pkgs = simulated_packages(100, /*attacks=*/true);
  Capture capture;
  for (const Package& p : pkgs) capture.push_back(package_to_frame(p));
  std::stringstream buf;
  write_capture(buf, capture);
  FrameDecoder decoder;
  const auto decoded = decoder.decode_all(read_capture(buf));
  ASSERT_EQ(decoded.size(), pkgs.size());
  const auto rows = to_raw_rows(decoded);
  ASSERT_EQ(rows.size(), pkgs.size());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_NEAR(rows[i][kColTimeInterval], pkgs[i].time - pkgs[i - 1].time,
                1e-9);
  }
}

}  // namespace
}  // namespace mlad::ics

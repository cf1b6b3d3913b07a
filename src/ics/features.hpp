// The Table-I package feature schema and the Package record.
//
// Every captured Modbus exchange is logged as one Package carrying the 17
// ARFF features of Table I plus the ground-truth attack label. Packages
// convert to the raw numeric rows the signature/detect layers consume; the
// derived `time interval` feature (difference of consecutive timestamps,
// §VIII-A-1) is computed at dataset assembly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/arff.hpp"
#include "ics/attack.hpp"
#include "ics/pid.hpp"
#include "signature/discretizer.hpp"

namespace mlad::ics {

/// System mode register values (Table I).
enum class SystemMode : std::uint8_t { kOff = 0, kManual = 1, kAuto = 2 };
/// Control scheme register values (Table I).
enum class ControlScheme : std::uint8_t { kPump = 0, kSolenoid = 1 };

/// One logged network package with the Table-I features.
struct Package {
  double time = 0.0;             ///< capture timestamp (seconds)
  std::uint8_t address = 0;      ///< Modbus slave station address
  double crc_rate = 0.0;         ///< CRC error rate observed on the link
  std::uint8_t function = 0;     ///< Modbus function code
  std::uint16_t length = 0;      ///< Modbus packet length (bytes)
  double setpoint = 0.0;         ///< pressure setpoint (auto mode)
  PidParams pid;                 ///< gain, reset rate, dead band, cycle time, rate
  SystemMode system_mode = SystemMode::kAuto;
  ControlScheme control_scheme = ControlScheme::kPump;
  std::uint8_t pump = 0;         ///< manual pump control (1 open / 0 off)
  std::uint8_t solenoid = 0;     ///< manual valve control (1 open / 0 closed)
  double pressure_measurement = 0.0;
  std::uint8_t command_response = 0;  ///< command (1) or response (0)

  /// Inter-arrival gap to the previous package of the *raw* capture.
  /// Set by dataset assembly (annotate_intervals / split_dataset) so the
  /// derived feature survives anomaly removal — the paper computes it from
  /// consecutive timestamps of the stream as captured.
  std::optional<double> time_interval;

  /// True if the frame was corrupted on the wire (drives the crc_rate
  /// feature; package_to_frame reproduces the corruption byte-for-byte).
  bool frame_corrupted = false;

  AttackType label = AttackType::kNormal;  ///< ground truth (not a feature)

  bool is_attack() const { return label != AttackType::kNormal; }
};

/// Index layout of the raw numeric feature vector fed to the Discretizer.
/// `time` is replaced by the derived inter-arrival interval.
enum RawColumn : std::size_t {
  kColAddress = 0,
  kColCrcRate,
  kColFunction,
  kColLength,
  kColSetpoint,
  kColGain,
  kColResetRate,
  kColDeadband,
  kColCycleTime,
  kColRate,
  kColSystemMode,
  kColControlScheme,
  kColPump,
  kColSolenoid,
  kColPressure,
  kColCommandResponse,
  kColTimeInterval,
  kRawColumnCount,
};

/// Human-readable raw column names, aligned with RawColumn.
std::span<const std::string_view> raw_column_names();

/// Convert one package to a raw row; `time_interval` is the gap to the
/// previous package (0 for the first of a capture).
sig::RawRow to_raw_row(const Package& pkg, double time_interval);
/// to_raw_row into a caller-owned row, reusing its capacity (the serve
/// engine recycles its pending rows through this).
void to_raw_row_into(const Package& pkg, double time_interval,
                     sig::RawRow& row);

/// Convert a package stream. A package's annotated `time_interval` wins;
/// otherwise the gap to the preceding package in `packages` is used
/// (0 for the first).
std::vector<sig::RawRow> to_raw_rows(std::span<const Package> packages);

/// Stamp every package's `time_interval` from consecutive raw timestamps.
void annotate_intervals(std::span<Package> packages);

/// The paper's discretization strategy (Table III): discrete features pass
/// through; time interval & crc rate 2-means; pressure/setpoint
/// even-interval (20/10 default); the five PID parameters one k-means group
/// (32 clusters default).
std::vector<sig::FeatureSpec> default_feature_specs(
    std::size_t pressure_bins = 20, std::size_t setpoint_bins = 10,
    std::size_t pid_clusters = 32, std::size_t interval_clusters = 2,
    std::size_t crc_clusters = 2);

/// ARFF round-trip (Table I schema, plus a nominal `label` column).
ArffDocument to_arff(std::span<const Package> packages);
std::vector<Package> from_arff(const ArffDocument& doc);

}  // namespace mlad::ics

#include "ics/features.hpp"

#include <array>
#include <stdexcept>

#include "common/strings.hpp"

namespace mlad::ics {

std::span<const std::string_view> raw_column_names() {
  static constexpr std::array<std::string_view, kRawColumnCount> kNames = {
      "address",        "crc_rate",     "function",      "length",
      "setpoint",       "gain",         "reset_rate",    "deadband",
      "cycle_time",     "rate",         "system_mode",   "control_scheme",
      "pump",           "solenoid",     "pressure_measurement",
      "command_response", "time_interval",
  };
  return kNames;
}

sig::RawRow to_raw_row(const Package& pkg, double time_interval) {
  sig::RawRow row;
  to_raw_row_into(pkg, time_interval, row);
  return row;
}

void to_raw_row_into(const Package& pkg, double time_interval,
                     sig::RawRow& row) {
  row.resize(kRawColumnCount);
  row[kColAddress] = pkg.address;
  row[kColCrcRate] = pkg.crc_rate;
  row[kColFunction] = pkg.function;
  row[kColLength] = pkg.length;
  row[kColSetpoint] = pkg.setpoint;
  row[kColGain] = pkg.pid.gain;
  row[kColResetRate] = pkg.pid.reset_rate;
  row[kColDeadband] = pkg.pid.dead_band;
  row[kColCycleTime] = pkg.pid.cycle_time;
  row[kColRate] = pkg.pid.rate;
  row[kColSystemMode] = static_cast<double>(pkg.system_mode);
  row[kColControlScheme] = static_cast<double>(pkg.control_scheme);
  row[kColPump] = pkg.pump;
  row[kColSolenoid] = pkg.solenoid;
  row[kColPressure] = pkg.pressure_measurement;
  row[kColCommandResponse] = pkg.command_response;
  row[kColTimeInterval] = time_interval;
}

std::vector<sig::RawRow> to_raw_rows(std::span<const Package> packages) {
  std::vector<sig::RawRow> rows;
  rows.reserve(packages.size());
  for (std::size_t i = 0; i < packages.size(); ++i) {
    const double fallback =
        i == 0 ? 0.0 : packages[i].time - packages[i - 1].time;
    rows.push_back(
        to_raw_row(packages[i], packages[i].time_interval.value_or(fallback)));
  }
  return rows;
}

void annotate_intervals(std::span<Package> packages) {
  for (std::size_t i = 0; i < packages.size(); ++i) {
    packages[i].time_interval =
        i == 0 ? 0.0 : packages[i].time - packages[i - 1].time;
  }
}

std::vector<sig::FeatureSpec> default_feature_specs(std::size_t pressure_bins,
                                                    std::size_t setpoint_bins,
                                                    std::size_t pid_clusters,
                                                    std::size_t interval_clusters,
                                                    std::size_t crc_clusters) {
  using sig::FeatureKind;
  using sig::FeatureSpec;
  std::vector<FeatureSpec> specs;
  auto discrete = [&](std::string name, RawColumn col) {
    specs.push_back({std::move(name), FeatureKind::kDiscrete, {col}, 0});
  };
  discrete("address", kColAddress);
  specs.push_back({"crc_rate", FeatureKind::kKmeans, {kColCrcRate}, crc_clusters});
  discrete("function", kColFunction);
  discrete("length", kColLength);
  specs.push_back(
      {"setpoint", FeatureKind::kInterval, {kColSetpoint}, setpoint_bins});
  specs.push_back({"pid_parameters",
                   FeatureKind::kKmeans,
                   {kColGain, kColResetRate, kColDeadband, kColCycleTime,
                    kColRate},
                   pid_clusters});
  discrete("system_mode", kColSystemMode);
  discrete("control_scheme", kColControlScheme);
  discrete("pump", kColPump);
  discrete("solenoid", kColSolenoid);
  specs.push_back(
      {"pressure_measurement", FeatureKind::kInterval, {kColPressure}, pressure_bins});
  discrete("command_response", kColCommandResponse);
  specs.push_back({"time_interval",
                   FeatureKind::kKmeans,
                   {kColTimeInterval},
                   interval_clusters});
  return specs;
}

namespace {

ArffAttribute numeric_attr(std::string name) {
  ArffAttribute a;
  a.name = std::move(name);
  a.type = ArffType::kNumeric;
  return a;
}

}  // namespace

ArffDocument to_arff(std::span<const Package> packages) {
  ArffDocument doc;
  doc.relation = "gas_pipeline";
  // Table I order, then the ground-truth label.
  for (const char* name :
       {"address", "crc_rate", "function", "length", "setpoint", "gain",
        "reset_rate", "deadband", "cycle_time", "rate", "system_mode",
        "control_scheme", "pump", "solenoid", "pressure_measurement",
        "command_response", "time"}) {
    doc.attributes.push_back(numeric_attr(name));
  }
  ArffAttribute label;
  label.name = "label";
  label.type = ArffType::kNominal;
  for (std::size_t i = 0; i < kAttackTypeCount; ++i) {
    label.nominal_values.emplace_back(
        attack_name(static_cast<AttackType>(i)));
  }
  doc.attributes.push_back(label);

  auto num = [](double v) {
    ArffValue a;
    a.number = v;
    return a;
  };
  for (const Package& p : packages) {
    std::vector<ArffValue> row;
    row.reserve(18);
    row.push_back(num(p.address));
    row.push_back(num(p.crc_rate));
    row.push_back(num(p.function));
    row.push_back(num(p.length));
    row.push_back(num(p.setpoint));
    row.push_back(num(p.pid.gain));
    row.push_back(num(p.pid.reset_rate));
    row.push_back(num(p.pid.dead_band));
    row.push_back(num(p.pid.cycle_time));
    row.push_back(num(p.pid.rate));
    row.push_back(num(static_cast<double>(p.system_mode)));
    row.push_back(num(static_cast<double>(p.control_scheme)));
    row.push_back(num(p.pump));
    row.push_back(num(p.solenoid));
    row.push_back(num(p.pressure_measurement));
    row.push_back(num(p.command_response));
    row.push_back(num(p.time));
    ArffValue lab;
    lab.symbol = std::string(attack_name(p.label));
    row.push_back(lab);
    doc.rows.push_back(std::move(row));
  }
  return doc;
}

std::vector<Package> from_arff(const ArffDocument& doc) {
  auto col = [&](const char* name) {
    const auto idx = doc.attribute_index(name);
    if (!idx) {
      throw std::runtime_error(std::string("from_arff: missing attribute ") +
                               name);
    }
    return *idx;
  };
  const std::size_t c_address = col("address");
  const std::size_t c_crc = col("crc_rate");
  const std::size_t c_function = col("function");
  const std::size_t c_length = col("length");
  const std::size_t c_setpoint = col("setpoint");
  const std::size_t c_gain = col("gain");
  const std::size_t c_reset = col("reset_rate");
  const std::size_t c_deadband = col("deadband");
  const std::size_t c_cycle = col("cycle_time");
  const std::size_t c_rate = col("rate");
  const std::size_t c_mode = col("system_mode");
  const std::size_t c_scheme = col("control_scheme");
  const std::size_t c_pump = col("pump");
  const std::size_t c_solenoid = col("solenoid");
  const std::size_t c_pressure = col("pressure_measurement");
  const std::size_t c_cmdresp = col("command_response");
  const std::size_t c_time = col("time");
  const auto c_label = doc.attribute_index("label");  // optional

  auto get = [](const ArffValue& v) { return v.number ? *v.number : 0.0; };

  std::vector<Package> out;
  out.reserve(doc.rows.size());
  for (const auto& row : doc.rows) {
    Package p;
    p.address = static_cast<std::uint8_t>(get(row[c_address]));
    p.crc_rate = get(row[c_crc]);
    p.function = static_cast<std::uint8_t>(get(row[c_function]));
    p.length = static_cast<std::uint16_t>(get(row[c_length]));
    p.setpoint = get(row[c_setpoint]);
    p.pid.gain = get(row[c_gain]);
    p.pid.reset_rate = get(row[c_reset]);
    p.pid.dead_band = get(row[c_deadband]);
    p.pid.cycle_time = get(row[c_cycle]);
    p.pid.rate = get(row[c_rate]);
    p.system_mode = static_cast<SystemMode>(
        static_cast<std::uint8_t>(get(row[c_mode])));
    p.control_scheme = static_cast<ControlScheme>(
        static_cast<std::uint8_t>(get(row[c_scheme])));
    p.pump = static_cast<std::uint8_t>(get(row[c_pump]));
    p.solenoid = static_cast<std::uint8_t>(get(row[c_solenoid]));
    p.pressure_measurement = get(row[c_pressure]);
    p.command_response = static_cast<std::uint8_t>(get(row[c_cmdresp]));
    p.time = get(row[c_time]);
    if (c_label && row[*c_label].symbol) {
      for (std::size_t i = 0; i < kAttackTypeCount; ++i) {
        if (iequals(*row[*c_label].symbol,
                    attack_name(static_cast<AttackType>(i)))) {
          p.label = static_cast<AttackType>(i);
          break;
        }
      }
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace mlad::ics

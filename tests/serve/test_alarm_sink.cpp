// Alarm sinks (serve/alarm_sink.hpp): console line format + cap, JSONL /
// CSV audit files, the counting test double, tee fan-out, and extension-
// based file-sink selection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/alarm_sink.hpp"

namespace mlad::serve {
namespace {

AlarmEvent event(std::uint64_t seq, bool bloom_stage) {
  AlarmEvent e;
  e.link = 3;
  e.seq = seq;
  e.time = 12.5 + static_cast<double>(seq);
  e.verdict.anomaly = true;
  e.verdict.package_level = bloom_stage;
  e.verdict.timeseries_level = !bloom_stage;
  e.address = 4;
  e.function = 0x10;
  e.length = 19;
  e.decode_ok = seq % 2 == 0;
  return e;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) n += c == '\n' ? 1 : 0;
  return n;
}

/// The snprintf formats the audit sinks used before format_alarm_line.
std::string snprintf_line(const AlarmEvent& e, AlarmLineFormat format) {
  const char* stage = e.verdict.package_level ? "bloom" : "lstm";
  char line[256];
  if (format == AlarmLineFormat::kJsonl) {
    std::snprintf(line, sizeof(line),
                  "{\"link\": %u, \"seq\": %llu, \"time\": %.6f, "
                  "\"stage\": \"%s\", \"address\": %u, \"function\": %u, "
                  "\"length\": %u, \"decode_ok\": %s}",
                  e.link, static_cast<unsigned long long>(e.seq), e.time,
                  stage, static_cast<unsigned>(e.address),
                  static_cast<unsigned>(e.function),
                  static_cast<unsigned>(e.length),
                  e.decode_ok ? "true" : "false");
  } else {
    std::snprintf(line, sizeof(line), "%u,%llu,%.6f,%s,%u,%u,%u,%d", e.link,
                  static_cast<unsigned long long>(e.seq), e.time, stage,
                  static_cast<unsigned>(e.address),
                  static_cast<unsigned>(e.function),
                  static_cast<unsigned>(e.length), e.decode_ok ? 1 : 0);
  }
  return std::string(line) + "\n";
}

/// Seeded events over every field's range, with the times printf handles
/// specially: zero and negative zero, values rounding to -0.000000, ties at
/// the sixth decimal, 1e12, NaN (either sign), ±inf and the extremes.
std::vector<AlarmEvent> seeded_events() {
  const double times[] = {
      0.0,
      -0.0,
      -1e-9,
      -12.5,
      1.0 / 128.0,  // 0.0078125: a tie at the sixth decimal
      3.0 / 128.0,
      -5.0 / 128.0,
      0.5e-6,
      1e12,
      123456789.987654321,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1e100,
  };
  Rng rng(2024);
  std::vector<AlarmEvent> events;
  for (std::size_t i = 0; i < 400; ++i) {
    AlarmEvent e;
    e.link = static_cast<ics::LinkId>(rng.uniform_int(0, 1u << 20));
    e.seq = rng.engine()() >> (i % 64);
    e.time = i < std::size(times)
                 ? times[i]
                 : rng.uniform(-1e7, 1e7) *
                       std::pow(10.0, -static_cast<double>(i % 9));
    e.verdict.package_level = i % 3 == 0;
    e.verdict.timeseries_level = !e.verdict.package_level;
    e.verdict.anomaly = true;
    e.address = static_cast<std::uint8_t>(rng.engine()());
    e.function = static_cast<std::uint8_t>(rng.engine()());
    e.length = static_cast<std::uint16_t>(rng.engine()());
    e.decode_ok = i % 4 != 1;
    events.push_back(e);
  }
  AlarmEvent widest;
  widest.link = std::numeric_limits<ics::LinkId>::max();
  widest.seq = std::numeric_limits<std::uint64_t>::max();
  widest.time = -1e12 - 0.1234565;
  widest.address = 255;
  widest.function = 255;
  widest.length = 65535;
  widest.decode_ok = false;
  events.push_back(widest);
  return events;
}

TEST(AlarmLineFormat, BytesEqualTheSnprintfFormats) {
  char buf[kMaxAlarmLine];
  for (const AlarmEvent& e : seeded_events()) {
    for (const AlarmLineFormat f : {AlarmLineFormat::kJsonl,
                                    AlarmLineFormat::kCsv}) {
      const std::size_t n = format_alarm_line(e, f, buf);
      ASSERT_EQ(std::string(buf, n), snprintf_line(e, f))
          << "seq " << e.seq << " time " << e.time;
    }
  }
}

TEST(AlarmLineFormat, AuditFilesEqualTheSnprintfLines) {
  const std::vector<AlarmEvent> events = seeded_events();
  const std::string jsonl_path = ::testing::TempDir() + "alarms_fmt.jsonl";
  const std::string csv_path = ::testing::TempDir() + "alarms_fmt.csv";
  std::string want_jsonl;
  std::string want_csv =
      "link,seq,time,stage,address,function,length,decode_ok\n";
  {
    JsonlAlarmSink jsonl(jsonl_path);
    CsvAlarmSink csv(csv_path);
    for (const AlarmEvent& e : events) {
      jsonl.on_alarm(e);
      csv.on_alarm(e);
      want_jsonl += snprintf_line(e, AlarmLineFormat::kJsonl);
      want_csv += snprintf_line(e, AlarmLineFormat::kCsv);
    }
  }
  EXPECT_EQ(read_file(jsonl_path), want_jsonl);
  EXPECT_EQ(read_file(csv_path), want_csv);
  std::remove(jsonl_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(AlarmLineFormat, HugeTimesAreNotTruncated) {
  // %.6f of 1e300 needs 308 characters, past the old 256-byte line buffer.
  AlarmEvent e;
  e.time = -1e300;
  char buf[kMaxAlarmLine];
  const std::string line(buf,
                         format_alarm_line(e, AlarmLineFormat::kJsonl, buf));
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"decode_ok\": true}"), std::string::npos);
  std::vector<char> wide(1024);
  std::snprintf(wide.data(), wide.size(), "%.6f", e.time);
  EXPECT_NE(line.find(wide.data()), std::string::npos);
}

TEST(ConsoleAlarmSink, PrintsMonitorFormatAndRespectsCap) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  ConsoleAlarmSink sink(tmp, /*max_lines=*/2);
  for (std::uint64_t i = 0; i < 5; ++i) sink.on_alarm(event(i, i == 0));
  sink.flush();
  EXPECT_EQ(sink.printed(), 2u);
  EXPECT_EQ(sink.total(), 5u);

  std::rewind(tmp);
  char buf[512] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, tmp);
  const std::string text(buf, n);
  std::fclose(tmp);
  EXPECT_EQ(count_lines(text), 2u);
  // The historical `mlad monitor` alarm line, stage-attributed.
  EXPECT_NE(text.find("t=    12.500  ALARM (bloom)  addr=4 fc=0x10 len=19"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ALARM (lstm)"), std::string::npos) << text;
  EXPECT_NE(text.find("[frame did not decode]"), std::string::npos) << text;
}

TEST(ConsoleAlarmSink, ShowsLinkColumnWhenAsked) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  ConsoleAlarmSink sink(tmp, 10, /*show_link=*/true);
  sink.on_alarm(event(0, true));
  sink.flush();
  std::rewind(tmp);
  char buf[256] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, tmp);
  std::fclose(tmp);
  EXPECT_NE(std::string(buf, n).find("link=3"), std::string::npos);
}

TEST(JsonlAlarmSink, OneObjectPerLine) {
  const std::string path = ::testing::TempDir() + "alarms_test.jsonl";
  {
    JsonlAlarmSink sink(path);
    sink.on_alarm(event(0, true));
    sink.on_alarm(event(1, false));
    sink.flush();
    EXPECT_EQ(sink.written(), 2u);
  }
  const std::string text = read_file(path);
  EXPECT_EQ(count_lines(text), 2u);
  EXPECT_NE(text.find("{\"link\": 3, \"seq\": 0, \"time\": 12.500000, "
                      "\"stage\": \"bloom\", \"address\": 4, \"function\": 16, "
                      "\"length\": 19, \"decode_ok\": true}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"stage\": \"lstm\""), std::string::npos);
  EXPECT_NE(text.find("\"decode_ok\": false"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JsonlAlarmSink, RecordsSwapAndRollbackEvents) {
  const std::string path = ::testing::TempDir() + "alarms_audit.jsonl";
  {
    JsonlAlarmSink sink(path);
    sink.on_model_swap(/*version=*/2, /*tick=*/300);
    sink.on_rollback(/*from=*/2, /*to=*/1, /*tick=*/360);
    sink.flush();
  }
  const std::string text = read_file(path);
  EXPECT_NE(text.find("{\"type\": \"swap\", \"version\": 2, \"tick\": 300}"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("{\"type\": \"rollback\", \"from\": 2, \"to\": 1, "
                "\"tick\": 360}"),
      std::string::npos)
      << text;
  std::remove(path.c_str());
}

TEST(CsvAlarmSink, HeaderPlusRows) {
  const std::string path = ::testing::TempDir() + "alarms_test.csv";
  {
    CsvAlarmSink sink(path);
    sink.on_alarm(event(0, true));
    sink.flush();
    EXPECT_EQ(sink.written(), 1u);
  }
  const std::string text = read_file(path);
  EXPECT_EQ(count_lines(text), 2u);
  EXPECT_EQ(text.rfind("link,seq,time,stage,address,function,length,decode_ok",
                       0),
            0u)
      << text;
  EXPECT_NE(text.find("3,0,12.500000,bloom,4,16,19,1"), std::string::npos)
      << text;
  std::remove(path.c_str());
}

TEST(CountingAlarmSink, RecordsArrivalOrder) {
  CountingAlarmSink sink;
  for (std::uint64_t i = 0; i < 4; ++i) sink.on_alarm(event(i, false));
  ASSERT_EQ(sink.count(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.events()[i].seq, i);
    EXPECT_EQ(sink.events()[i].link, 3u);
  }
  sink.clear();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(TeeAlarmSink, FansOutToEverySink) {
  CountingAlarmSink a, b;
  TeeAlarmSink tee({&a, nullptr, &b});
  tee.on_alarm(event(0, true));
  tee.on_alarm(event(1, false));
  tee.flush();  // must tolerate the null entry
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(b.count(), 2u);
}

TEST(MakeFileSink, PicksFormatByExtension) {
  const std::string csv_path = ::testing::TempDir() + "sink_pick.CSV";
  const std::string jsonl_path = ::testing::TempDir() + "sink_pick.jsonl";
  {
    auto csv = make_file_sink(csv_path);
    auto jsonl = make_file_sink(jsonl_path);
    csv->on_alarm(event(0, true));
    jsonl->on_alarm(event(0, true));
    csv->flush();
    jsonl->flush();
  }
  EXPECT_EQ(read_file(csv_path).rfind("link,seq", 0), 0u);
  EXPECT_EQ(read_file(jsonl_path).rfind("{\"link\"", 0), 0u);
  std::remove(csv_path.c_str());
  std::remove(jsonl_path.c_str());
}

}  // namespace
}  // namespace mlad::serve

#include "serve/alarm_sink.hpp"

#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/strings.hpp"

namespace mlad::serve {

namespace {

const char* stage_name(const detect::CombinedVerdict& v) {
  return v.package_level ? "bloom" : "lstm";
}

/// Appends text and numbers to a caller-sized buffer with std::to_chars:
/// the bytes printf's %s, %u/%llu and %.6f would write, without parsing a
/// format string or touching the locale.
class LineWriter {
 public:
  explicit LineWriter(char* buf) : begin_(buf), p_(buf) {}
  void text(std::string_view s) {
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }
  void uint(std::uint64_t v) { p_ = std::to_chars(p_, p_ + 20, v).ptr; }
  /// Fixed notation, 6 decimals; a finite double needs at most 309 integer
  /// digits, the sign and ".dddddd".
  void fixed6(double v) {
    p_ = std::to_chars(p_, p_ + 320, v, std::chars_format::fixed, 6).ptr;
  }
  std::size_t size() const { return static_cast<std::size_t>(p_ - begin_); }

 private:
  char* begin_;
  char* p_;
};

/// The text before each of the eight alarm fields, and after the last.
constexpr std::string_view kJsonlGlue[9] = {
    "{\"link\": ",      ", \"seq\": ",      ", \"time\": ",
    ", \"stage\": \"",  "\", \"address\": ", ", \"function\": ",
    ", \"length\": ",   ", \"decode_ok\": ", "}\n"};
constexpr std::string_view kCsvGlue[9] = {"",  ",", ",", ",", ",",
                                          ",", ",", ",", "\n"};

}  // namespace

std::size_t format_alarm_line(const AlarmEvent& e, AlarmLineFormat format,
                              char* buf) {
  const bool jsonl = format == AlarmLineFormat::kJsonl;
  const std::string_view* glue = jsonl ? kJsonlGlue : kCsvGlue;
  LineWriter w(buf);
  w.text(glue[0]);
  w.uint(e.link);
  w.text(glue[1]);
  w.uint(e.seq);
  w.text(glue[2]);
  w.fixed6(e.time);
  w.text(glue[3]);
  w.text(stage_name(e.verdict));
  w.text(glue[4]);
  w.uint(e.address);
  w.text(glue[5]);
  w.uint(e.function);
  w.text(glue[6]);
  w.uint(e.length);
  w.text(glue[7]);
  if (jsonl) {
    w.text(e.decode_ok ? "true" : "false");
  } else {
    w.text(e.decode_ok ? "1" : "0");
  }
  w.text(glue[8]);
  return w.size();
}

ConsoleAlarmSink::ConsoleAlarmSink(std::FILE* out, std::size_t max_lines,
                                   bool show_link)
    : out_(out), max_lines_(max_lines), show_link_(show_link) {}

void ConsoleAlarmSink::on_alarm(const AlarmEvent& e) {
  ++total_;
  if (printed_ >= max_lines_) return;
  // The historical `mlad monitor` alarm line, verbatim — plus an optional
  // link column when one console watches a multi-link wire.
  if (show_link_) {
    std::fprintf(out_, "t=%10.3f  link=%-3u  ALARM (%s)  addr=%u fc=0x%02X "
                       "len=%u%s\n",
                 e.time, e.link, stage_name(e.verdict),
                 static_cast<unsigned>(e.address),
                 static_cast<unsigned>(e.function),
                 static_cast<unsigned>(e.length),
                 e.decode_ok ? "" : "  [frame did not decode]");
  } else {
    std::fprintf(out_, "t=%10.3f  ALARM (%s)  addr=%u fc=0x%02X len=%u%s\n",
                 e.time, stage_name(e.verdict),
                 static_cast<unsigned>(e.address),
                 static_cast<unsigned>(e.function),
                 static_cast<unsigned>(e.length),
                 e.decode_ok ? "" : "  [frame did not decode]");
  }
  ++printed_;
}

void ConsoleAlarmSink::on_model_swap(std::uint64_t version,
                                     std::uint64_t tick) {
  std::fprintf(out_, "[adapt] weights v%llu hot-swapped at tick %llu\n",
               static_cast<unsigned long long>(version),
               static_cast<unsigned long long>(tick));
}

void ConsoleAlarmSink::flush() { std::fflush(out_); }

JsonlAlarmSink::JsonlAlarmSink(const std::string& path) : out_(path) {
  if (!out_) {
    throw std::runtime_error("JsonlAlarmSink: cannot open " + path);
  }
}

void JsonlAlarmSink::on_alarm(const AlarmEvent& e) {
  char line[kMaxAlarmLine];
  out_.write(line, static_cast<std::streamsize>(
                       format_alarm_line(e, AlarmLineFormat::kJsonl, line)));
  ++written_;
}

void JsonlAlarmSink::on_model_swap(std::uint64_t version, std::uint64_t tick) {
  char line[96];
  LineWriter w(line);
  w.text("{\"type\": \"swap\", \"version\": ");
  w.uint(version);
  w.text(", \"tick\": ");
  w.uint(tick);
  w.text("}\n");
  out_.write(line, static_cast<std::streamsize>(w.size()));
}

void JsonlAlarmSink::on_rollback(std::uint64_t from, std::uint64_t to,
                                 std::uint64_t tick) {
  char line[128];
  LineWriter w(line);
  w.text("{\"type\": \"rollback\", \"from\": ");
  w.uint(from);
  w.text(", \"to\": ");
  w.uint(to);
  w.text(", \"tick\": ");
  w.uint(tick);
  w.text("}\n");
  out_.write(line, static_cast<std::streamsize>(w.size()));
}

void JsonlAlarmSink::flush() { out_.flush(); }

CsvAlarmSink::CsvAlarmSink(const std::string& path) : out_(path) {
  if (!out_) {
    throw std::runtime_error("CsvAlarmSink: cannot open " + path);
  }
  out_ << "link,seq,time,stage,address,function,length,decode_ok\n";
}

void CsvAlarmSink::on_alarm(const AlarmEvent& e) {
  char line[kMaxAlarmLine];
  out_.write(line, static_cast<std::streamsize>(
                       format_alarm_line(e, AlarmLineFormat::kCsv, line)));
  ++written_;
}

void CsvAlarmSink::flush() { out_.flush(); }

SerializedAlarmSink::SerializedAlarmSink(AlarmSink* inner) : inner_(inner) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("SerializedAlarmSink: inner sink is null");
  }
}

void SerializedAlarmSink::on_alarm(const AlarmEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  inner_->on_alarm(event);
}

void SerializedAlarmSink::on_model_swap(std::uint64_t version,
                                        std::uint64_t tick) {
  std::lock_guard<std::mutex> lock(mutex_);
  inner_->on_model_swap(version, tick);
}

void SerializedAlarmSink::on_rollback(std::uint64_t from, std::uint64_t to,
                                      std::uint64_t tick) {
  std::lock_guard<std::mutex> lock(mutex_);
  inner_->on_rollback(from, to, tick);
}

void SerializedAlarmSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  inner_->flush();
}

TeeAlarmSink::TeeAlarmSink(std::vector<AlarmSink*> sinks)
    : sinks_(std::move(sinks)) {}

void TeeAlarmSink::on_alarm(const AlarmEvent& e) {
  for (AlarmSink* s : sinks_) {
    if (s != nullptr) s->on_alarm(e);
  }
}

void TeeAlarmSink::on_model_swap(std::uint64_t version, std::uint64_t tick) {
  for (AlarmSink* s : sinks_) {
    if (s != nullptr) s->on_model_swap(version, tick);
  }
}

void TeeAlarmSink::on_rollback(std::uint64_t from, std::uint64_t to,
                               std::uint64_t tick) {
  for (AlarmSink* s : sinks_) {
    if (s != nullptr) s->on_rollback(from, to, tick);
  }
}

void TeeAlarmSink::flush() {
  for (AlarmSink* s : sinks_) {
    if (s != nullptr) s->flush();
  }
}

std::unique_ptr<AlarmSink> make_file_sink(const std::string& path) {
  if (iequals(path.size() >= 4 ? path.substr(path.size() - 4) : "", ".csv")) {
    return std::make_unique<CsvAlarmSink>(path);
  }
  return std::make_unique<JsonlAlarmSink>(path);
}

}  // namespace mlad::serve

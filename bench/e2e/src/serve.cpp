// The workloads: one generator thread drives the whole serve path
//
//   source → LinkMux decode → gate + queues → signature lookup → LSTM step
//          → AlarmSink
//
// through MonitorEngine (serve-8link, and the test split of `train`),
// ShardedEngine with the generator as its pump (serve-256link-4shard), or a
// loopback TCP sender feeding TcpSource → ShardedEngine::run
// (tcp-64link-2shard). Every session of the traffic is served by a fresh
// engine. The model comes from train_framework on the decoded training
// capture, once per serve run and in repeated reps on `train`.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "detect/serialize.hpp"
#include "ingest/socket_source.hpp"
#include "obs/metrics.hpp"
#include "serve/alarm_sink.hpp"
#include "serve/monitor_engine.hpp"
#include "serve/sharded_engine.hpp"
#include "sigdb/sigdb_view.hpp"

namespace mlad::e2e {
namespace {

// A host's speed drifts over tens of seconds, so every measurement is spread
// over the whole run: saturated and paced reps alternate, set-up reps run in
// small batches between them, and `train` measures in rounds.
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kSetupPerRep = 10;
constexpr std::size_t kDecodePerRound = 11;
constexpr std::size_t kMinTrainReps = 3;
constexpr std::size_t kMinSaturatedReps = 5;
constexpr std::size_t kMinPacedReps = 2;
/// Plain and traced saturated reps of a traced run, interleaved, for the
/// tracing overhead.
constexpr std::size_t kOverheadReps = 3;
/// Paced sessions start this far in the future so the first frames are not
/// late.
constexpr std::uint64_t kPacedLeadNs = 2'000'000;
/// p99.9 is reported only where at least ten alarms lie beyond it: every
/// latency block holds this many samples, and a run has kMinBlocks blocks.
constexpr std::size_t kTailSamples = 10'000;
constexpr std::size_t kMinBlocks = 3;
/// The TCP listener gives up when no connection arrives for this long.
constexpr int kIdleTimeoutMs = 10'000;

// ---- spans ------------------------------------------------------------------

/// Calls at one layer boundary: every call is summed, and the spans of the
/// sampled packages are kept for trace.jsonl.
struct SpanLog {
  struct Span {
    std::uint32_t session;
    ics::LinkId link;
    std::uint64_t seq;
    std::uint64_t start;
    std::uint64_t end;
  };
  explicit SpanLog(const char* layer) : name(layer) {}

  const char* name;
  std::vector<Span> spans;
  std::uint64_t sum_ns = 0;
  std::uint64_t calls = 0;

  void add(std::size_t session, ics::LinkId link, std::uint64_t seq,
           std::uint64_t start, std::uint64_t end) {
    sum_ns += end - start;
    ++calls;
    if (sampled(session, link, seq)) {
      spans.push_back({static_cast<std::uint32_t>(session), link, seq, start, end});
    }
  }
  double mean_ns() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(calls);
  }
};

/// What the alarm stream says about a rep: per-link digests (order within a
/// link is fixed by the engine contract; order across links is not), ground
/// truth outcomes, and alarm latencies from each frame's due time.
struct AlarmRecord {
  std::vector<std::uint64_t> link_hash;    ///< [session * links + link]
  std::vector<std::uint64_t> link_alarms;  ///< same index
  std::uint64_t alarms = 0;
  std::uint64_t true_alarms = 0;
  std::uint64_t bloom = 0;
  std::uint64_t bloom_true = 0;
  std::uint64_t lstm = 0;
  std::uint64_t lstm_true = 0;
  std::uint64_t unknown = 0;  ///< alarms naming a (link, seq) not on the wire
  std::vector<double> latency_ms;
  std::vector<std::size_t> session_begin;  ///< session k's first latency_ms index

  bool same_alarms(const AlarmRecord& o) const {
    return link_hash == o.link_hash && link_alarms == o.link_alarms &&
           unknown == 0 && o.unknown == 0;
  }
  std::string digest() const { return format_digest(link_hash, link_alarms); }
};

/// The benchmark's sink: records each alarm, then hands it to the audit
/// sink (a JSONL file, as `mlad serve --sink` writes).
class RecordingSink final : public serve::AlarmSink {
 public:
  explicit RecordingSink(const Traffic& traffic) : traffic_(traffic) {}

  void begin_rep(serve::AlarmSink* audit, bool paced, SpanLog* audit_log) {
    audit_ = audit;
    audit_log_ = audit_log;
    paced_ = paced;
    rec_ = {};
    const std::size_t slots = traffic_.sessions.size() * traffic_.links;
    rec_.link_hash.assign(slots, 0);
    rec_.link_alarms.assign(slots, 0);
    if (paced) rec_.latency_ms.reserve(traffic_.frames / 2);
  }
  /// Called between sessions, while no engine is running.
  void begin_session(std::size_t session, std::uint64_t t0_ns) {
    session_ = session;
    t0_ = t0_ns;
    rec_.session_begin.push_back(rec_.latency_ms.size());
  }

  void on_alarm(const serve::AlarmEvent& e) override {
    const std::uint64_t t = now_ns();
    const Session& s = traffic_.sessions[session_];
    if (e.link >= traffic_.links || e.seq >= s.attack[e.link].size()) {
      ++rec_.unknown;
    } else {
      const bool bloom = e.verdict.package_level;
      const bool lstm = e.verdict.timeseries_level;
      const std::size_t slot = session_ * traffic_.links + e.link;
      rec_.link_hash[slot] = fold_alarm(rec_.link_hash[slot], e.seq, bloom, lstm);
      ++rec_.link_alarms[slot];
      ++rec_.alarms;
      const bool attack = s.attack[e.link][e.seq] != 0;
      rec_.true_alarms += attack ? 1 : 0;
      rec_.bloom += bloom ? 1 : 0;
      rec_.bloom_true += bloom && attack ? 1 : 0;
      rec_.lstm += lstm ? 1 : 0;
      rec_.lstm_true += lstm && attack ? 1 : 0;
      if (paced_) {
        const std::uint64_t due = t0_ + s.due_by_link[e.link][e.seq];
        rec_.latency_ms.push_back(
            t > due ? static_cast<double>(t - due) * 1e-6 : 0.0);
      }
    }
    if (audit_log_ != nullptr) {
      const std::uint64_t a = now_ns();
      audit_->on_alarm(e);
      audit_log_->add(session_, e.link, e.seq, a, now_ns());
    } else {
      audit_->on_alarm(e);
    }
  }

  void flush() override { audit_->flush(); }
  const AlarmRecord& record() const { return rec_; }

 private:
  const Traffic& traffic_;
  serve::AlarmSink* audit_ = nullptr;
  SpanLog* audit_log_ = nullptr;
  std::size_t session_ = 0;
  std::uint64_t t0_ = 0;
  bool paced_ = false;
  AlarmRecord rec_;
};

/// Wraps the TCP listener for the traced rep: times each next() call
/// (ingest.next) and the pump's time between two calls, which is its push
/// of the frame just returned (serve.push).
class TracedSource final : public ingest::PackageSource {
 public:
  TracedSource(ingest::PackageSource& inner, std::size_t session,
               std::size_t links, SpanLog& next_log, SpanLog& push_log)
      : inner_(inner), session_(session), seq_(links, 0),
        next_log_(next_log), push_log_(push_log) {}

  bool next(ics::LinkFrame& out) override {
    const std::uint64_t t0 = now_ns();
    if (have_prev_) {
      push_log_.add(session_, prev_link_, prev_seq_, prev_end_, t0);
    }
    have_prev_ = false;
    if (!inner_.next(out)) return false;
    const std::uint64_t t1 = now_ns();
    if (out.link < seq_.size()) {
      prev_link_ = out.link;
      prev_seq_ = seq_[out.link]++;
      prev_end_ = t1;
      have_prev_ = true;
      next_log_.add(session_, prev_link_, prev_seq_, t0, t1);
    }
    return true;
  }
  ingest::SourceHealth health() const override { return inner_.health(); }

 private:
  ingest::PackageSource& inner_;
  std::size_t session_;
  std::vector<std::uint64_t> seq_;
  SpanLog& next_log_;
  SpanLog& push_log_;
  bool have_prev_ = false;
  ics::LinkId prev_link_ = 0;
  std::uint64_t prev_seq_ = 0;
  std::uint64_t prev_end_ = 0;
};

// ---- TCP sender -------------------------------------------------------------

/// Each connection's MLF1 byte stream (links split by id mod connections),
/// and where every frame's record ends in its connection's stream.
struct TcpStreams {
  std::vector<std::vector<std::uint8_t>> bytes;
  std::vector<std::size_t> record_end;
};

TcpStreams encode_streams(const Session& s, std::size_t connections) {
  TcpStreams out;
  out.bytes.resize(connections);
  out.record_end.resize(s.frames.size());
  for (std::size_t i = 0; i < s.frames.size(); ++i) {
    std::vector<std::uint8_t>& conn = out.bytes[s.frames[i].link % connections];
    const std::vector<std::uint8_t> rec = ingest::encode_record(s.frames[i]);
    conn.insert(conn.end(), rec.begin(), rec.end());
    out.record_end[i] = conn.size();
  }
  return out;
}

/// Closes every socket it holds.
struct Sockets {
  std::vector<int> fds;
  Sockets() = default;
  Sockets(const Sockets&) = delete;
  Sockets& operator=(const Sockets&) = delete;
  ~Sockets() {
    for (const int fd : fds) ::close(fd);
  }
};

void send_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, data, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("tcp sender: send: ") +
                               std::strerror(errno));
    }
    data += k;
    n -= static_cast<std::size_t>(k);
  }
}

/// The load generator of tcp-64link-2shard, on its own thread: connects,
/// streams every record (saturated: as fast as the sockets accept; paced:
/// each record at its due time) and closes. Returns its thread CPU seconds.
double run_sender(std::uint16_t port, const Session& s,
                  const TcpStreams& streams, bool paced, std::uint64_t t0,
                  std::vector<double>* late_us) {
  const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::size_t conns = streams.bytes.size();
  Sockets socks;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // Every connection is open before the first byte, so the listener never
  // sees its last open connection end while others are still to come.
  for (std::size_t c = 0; c < conns; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("tcp sender: socket() failed");
    socks.fds.push_back(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      throw std::runtime_error(std::string("tcp sender: connect: ") +
                               std::strerror(errno));
    }
  }
  if (!paced) {
    // Round-robin 64 KiB chunks keep the connections in step.
    constexpr std::size_t kChunk = 64 * 1024;
    std::vector<std::size_t> off(conns, 0);
    for (bool more = true; more;) {
      more = false;
      for (std::size_t c = 0; c < conns; ++c) {
        const std::size_t left = streams.bytes[c].size() - off[c];
        if (left == 0) continue;
        const std::size_t n = std::min(kChunk, left);
        send_all(socks.fds[c], streams.bytes[c].data() + off[c], n);
        off[c] += n;
        more = more || off[c] < streams.bytes[c].size();
      }
    }
  } else {
    std::vector<std::size_t> sent(conns, 0);
    std::vector<std::size_t> upto(conns, 0);
    const std::size_t n = s.frames.size();
    for (std::size_t i = 0; i < n;) {
      wait_until(t0 + s.due_ns[i]);
      const std::uint64_t now = now_ns();
      for (; i < n && t0 + s.due_ns[i] <= now; ++i) {
        upto[s.frames[i].link % conns] = streams.record_end[i];
        late_us->push_back(static_cast<double>(now - t0 - s.due_ns[i]) * 1e-3);
      }
      for (std::size_t c = 0; c < conns; ++c) {
        if (upto[c] == sent[c]) continue;
        send_all(socks.fds[c], streams.bytes[c].data() + sent[c],
                 upto[c] - sent[c]);
        sent[c] = upto[c];
      }
    }
  }
  return cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
}

/// Joins a thread on every path out of a scope.
struct Joiner {
  std::thread& t;
  ~Joiner() {
    if (t.joinable()) t.join();
  }
};

// ---- reps -------------------------------------------------------------------

struct Rep {
  bool paced = false;
  std::vector<double> session_kpps;    ///< saturated: frames / wall per session
  std::vector<double> session_cpu_us;  ///< saturated: process CPU per package
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t classified = 0;
  std::uint64_t ticks = 0;
  AlarmRecord alarms;
  std::vector<double> late_us;
  bool source_clean = true;
  std::uint64_t frames_routed = 0;
  std::uint64_t producer_blocks = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t malformed = 0;
  std::vector<std::uint64_t> session_t0;
  // Traced reps only.
  std::optional<obs::MetricsSnapshot> snapshot;
  SpanLog push{"serve.push"};
  SpanLog next{"ingest.next"};
  SpanLog sink{"serve.on_alarm"};
};

struct ServeCtx {
  const Options& opt;
  const Traffic& traffic;
  const detect::CombinedDetector& detector;
  std::string alarm_path;
  std::vector<TcpStreams> tcp;  ///< per session
  RecordingSink sink;

  ServeCtx(const Options& o, const Traffic& t, const detect::CombinedDetector& d)
      : opt(o), traffic(t), detector(d), sink(t) {}
};

void run_session(ServeCtx& ctx, Rep& rep, std::size_t k, bool traced,
                 obs::MetricsRegistry* registry) {
  const WorkloadSpec& spec = ctx.opt.spec;
  const Session& s = ctx.traffic.sessions[k];
  const std::size_t n = s.frames.size();
  const bool paced = rep.paced;

  serve::MonitorEngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.metrics = registry;
  serve::ShardedEngineConfig scfg;
  scfg.shards = spec.shards;
  scfg.queue_capacity = kQueueCapacity;
  scfg.engine = ecfg;

  std::uint64_t t0 = 0;
  double cpu0 = 0.0;
  std::uint64_t w0 = 0;
  const auto start = [&] {
    t0 = now_ns() + (paced ? kPacedLeadNs : 0);
    ctx.sink.begin_session(k, t0);
    rep.session_t0.push_back(t0);
    cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    w0 = now_ns();
  };
  double sender_cpu = 0.0;
  const auto stop = [&](std::uint64_t packages) {
    const double wall = static_cast<double>(now_ns() - w0) * 1e-9;
    const double cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0 - sender_cpu;
    rep.wall_s += wall;
    rep.cpu_s += cpu;
    rep.offered += n;
    rep.classified += packages;
    if (!paced) {
      rep.session_kpps.push_back(static_cast<double>(packages) / wall * 1e-3);
      rep.session_cpu_us.push_back(
          cpu * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, packages)));
    }
  };
  // The generator: frame i goes out at its due time when paced.
  const auto drive = [&](auto&& push) {
    for (std::size_t i = 0; i < n; ++i) {
      if (paced) {
        rep.late_us.push_back(
            static_cast<double>(wait_until(t0 + s.due_ns[i])) * 1e-3);
      }
      if (traced) {
        const std::uint64_t a = now_ns();
        push(s.frames[i]);
        rep.push.add(k, s.frames[i].link, s.seq[i], a, now_ns());
      } else {
        push(s.frames[i]);
      }
    }
  };

  if (spec.driver == Driver::kEngine) {
    serve::MonitorEngine engine(ctx.detector, &ctx.sink, ecfg);
    start();
    drive([&](const ics::LinkFrame& lf) { engine.push(lf.link, lf.frame); });
    engine.finish();
    stop(engine.stats().packages);
    rep.ticks += engine.stats().ticks;
    return;
  }
  // Untraced reps call only push/run, finish and stats; the pump's queue
  // counters are read on traced reps.
  const auto pump_counters = [&](const serve::ShardedEngine& engine) {
    if (!traced) return;
    const serve::IngestStats in = engine.ingest_stats();
    rep.frames_routed += in.frames_routed;
    rep.producer_blocks += in.producer_blocks;
    rep.peak_queue_depth = std::max(rep.peak_queue_depth, in.peak_queue_depth);
  };
  if (spec.driver == Driver::kSharded) {
    serve::ShardedEngine engine(ctx.detector, &ctx.sink, scfg);
    start();
    drive([&](const ics::LinkFrame& lf) { engine.push(lf); });
    engine.finish();
    stop(engine.stats().packages);
    rep.ticks += engine.stats().ticks;
    pump_counters(engine);
    return;
  }

  std::exception_ptr sender_error;
  std::thread sender;
  const Joiner joiner{sender};  // joins after the listener below is gone
  ingest::TcpSource source(0, "127.0.0.1", spec.connections, kIdleTimeoutMs);
  serve::ShardedEngine engine(ctx.detector, &ctx.sink, scfg);
  start();
  sender = std::thread([&, port = source.port()] {
    try {
      sender_cpu = run_sender(port, s, ctx.tcp[k], paced, t0, &rep.late_us);
    } catch (...) {
      sender_error = std::current_exception();
    }
  });
  if (traced) {
    TracedSource traced_source(source, k, ctx.traffic.links, rep.next, rep.push);
    engine.run(traced_source);
  } else {
    engine.run(source);
  }
  sender.join();
  if (sender_error) std::rethrow_exception(sender_error);
  stop(engine.stats().packages);
  const ingest::SourceHealth h = source.health();
  rep.ticks += engine.stats().ticks;
  pump_counters(engine);
  rep.malformed += h.malformed + h.truncated;
  rep.source_clean = rep.source_clean && h.records_lost == 0 &&
                     h.malformed == 0 && h.truncated == 0 &&
                     h.connections == spec.connections;
}

Rep run_rep(ServeCtx& ctx, bool paced, bool traced) {
  Rep rep;
  rep.paced = paced;
  if (paced) rep.late_us.reserve(ctx.traffic.frames);
  std::unique_ptr<obs::MetricsRegistry> registry;
  if (traced) registry = std::make_unique<obs::MetricsRegistry>();
  serve::JsonlAlarmSink audit(ctx.alarm_path);
  ctx.sink.begin_rep(&audit, paced, traced ? &rep.sink : nullptr);
  for (std::size_t k = 0; k < ctx.traffic.sessions.size(); ++k) {
    run_session(ctx, rep, k, traced, registry.get());
  }
  audit.flush();
  rep.alarms = ctx.sink.record();
  if (registry) rep.snapshot = registry->snapshot();
  return rep;
}

// ---- setup ------------------------------------------------------------------

/// One serve set-up as a deployment pays it: load the model, open the
/// .sigdb, build the engine (and the listener). Returns seconds.
double time_setup(const Options& opt, const std::string& model_path,
                  const std::string& sigdb_path) {
  const WorkloadSpec& spec = opt.spec;
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<detect::CombinedDetector> detector =
      detect::load_framework_file(model_path);
  std::optional<sigdb::SigDbView> view;
  if (spec.sigdb) {
    view.emplace(sigdb::SigDbView::open(sigdb_path));
    detector->package_level().attach_sigdb(&*view);
  }
  serve::MonitorEngineConfig ecfg;
  ecfg.threads = 1;
  if (spec.driver == Driver::kEngine) {
    const serve::MonitorEngine engine(*detector, nullptr, ecfg);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }
  serve::ShardedEngineConfig scfg;
  scfg.shards = spec.shards;
  scfg.queue_capacity = kQueueCapacity;
  scfg.engine = ecfg;
  std::optional<ingest::TcpSource> listener;
  if (spec.driver == Driver::kTcp) {
    listener.emplace(0, "127.0.0.1", spec.connections, kIdleTimeoutMs);
  }
  serve::ShardedEngine engine(*detector, nullptr, scfg);
  const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  engine.finish();
  return seconds;
}

/// The §10 reference: one unsharded lockstep MonitorEngine per session over
/// the same wire, with in-RAM lookups.
AlarmRecord reference_pass(const Traffic& traffic,
                           detect::CombinedDetector& detector,
                           const std::string& alarm_path) {
  const sigdb::SigDbView* view = detector.package_level().attached_sigdb();
  detector.package_level().attach_sigdb(nullptr);
  RecordingSink sink(traffic);
  serve::JsonlAlarmSink audit(alarm_path);
  sink.begin_rep(&audit, false, nullptr);
  for (std::size_t k = 0; k < traffic.sessions.size(); ++k) {
    sink.begin_session(k, 0);
    serve::MonitorEngine engine(detector, &sink);
    for (const ics::LinkFrame& lf : traffic.sessions[k].frames) {
      engine.push(lf.link, lf.frame);
    }
    engine.finish();
  }
  detector.package_level().attach_sigdb(view);
  return sink.record();
}

void write_trace(const std::string& path, const std::vector<const Rep*>& reps,
                 const Traffic& traffic) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  struct Row {
    std::uint32_t session;
    ics::LinkId link;
    std::uint64_t seq;
    const char* name;
    std::uint64_t start;
    std::uint64_t end;
  };
  for (const Rep* rep : reps) {
    std::vector<Row> rows;
    for (const SpanLog* log : {&rep->next, &rep->push, &rep->sink}) {
      for (const SpanLog::Span& s : log->spans) {
        rows.push_back({s.session, s.link, s.seq, log->name, s.start, s.end});
      }
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return std::tie(a.session, a.link, a.seq, a.start) <
             std::tie(b.session, b.link, b.seq, b.start);
    });
    for (std::size_t i = 0; i < rows.size();) {
      const Row& head = rows[i];
      std::size_t end = i;
      while (end < rows.size() && rows[end].session == head.session &&
             rows[end].link == head.link && rows[end].seq == head.seq) {
        ++end;
      }
      const std::uint64_t t0 = rep->session_t0[head.session];
      out << "{\"rep\":\"" << (rep->paced ? "paced" : "saturated")
          << "\",\"session\":" << head.session << ",\"link\":" << head.link
          << ",\"seq\":" << head.seq;
      const Session& s = traffic.sessions[head.session];
      if (rep->paced && head.link < traffic.links &&
          head.seq < s.due_by_link[head.link].size()) {
        out << ",\"due_ns\":" << s.due_by_link[head.link][head.seq];
      }
      out << ",\"spans\":[";
      for (std::size_t j = i; j < end; ++j) {
        const Row& r = rows[j];
        out << (j == i ? "" : ",") << "{\"name\":\"" << r.name
            << "\",\"start_ns\":" << r.start - std::min(r.start, t0)
            << ",\"end_ns\":" << r.end - std::min(r.end, t0) << "}";
      }
      out << "]}\n";
      i = end;
    }
  }
}

double mean_ns(const obs::MetricsSnapshot& snap, const char* name) {
  const obs::HistogramSnapshot* h = snap.histogram(name);
  return h == nullptr ? 0.0 : h->mean_ns();
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double cpu_ns_per_pkg(const Rep& rep) {
  return rep.cpu_s * 1e9 /
         static_cast<double>(std::max<std::uint64_t>(1, rep.classified));
}

/// Deletes the run's scratch files on every path out of it.
struct RemoveOnExit {
  std::vector<std::string> paths;
  ~RemoveOnExit() {
    for (const std::string& p : paths) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
  }
};

/// The trained model and, per training rep, the capture's packages per
/// second of wall time and thread-CPU microseconds per package.
struct Model {
  detect::TrainedFramework fw;
  std::string bytes;
  std::vector<double> kpps;
  std::vector<double> cpu_us;
  bool identical_reps = true;
};

/// One train_framework rep on the decoded training capture, timed; every
/// rep after the first must train a byte-identical model.
void train_rep(const Options& opt, const TrainingData& training, Model& m) {
  const double packages = static_cast<double>(training.packages.size());
  const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::uint64_t t0 = now_ns();
  detect::TrainedFramework fw =
      detect::train_framework(training.packages, model_config(opt.spec, opt.seed));
  const double s = seconds_since(t0);
  const double cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  m.kpps.push_back(packages / s * 1e-3);
  m.cpu_us.push_back(cpu * 1e6 / packages);
  std::string bytes = model_bytes(*fw.detector);
  m.identical_reps = m.identical_reps && (m.bytes.empty() || bytes == m.bytes);
  m.bytes = std::move(bytes);
  m.fw = std::move(fw);
  std::printf("train rep %zu: %.3f s\n", m.kpps.size(), s);
}

/// Every rep against the reference alarm sequences, and the frames each
/// offered and classified.
struct RepChecks {
  std::optional<AlarmRecord> reference;
  bool alarms_match = true;
  bool all_classified = true;
  bool source_clean = true;

  void add(const Rep& rep, RunResult& res) {
    if (!reference) reference = rep.alarms;
    alarms_match = alarms_match && rep.alarms.same_alarms(*reference);
    all_classified = all_classified && rep.classified == rep.offered;
    source_clean = source_clean && rep.source_clean;
    res.attempted += rep.offered;
    res.failed += rep.offered - std::min(rep.offered, rep.classified);
  }
};

/// A paced rep's alarm latencies, one unit per session.
void add_latencies(const Rep& rep, LatencyBlocks& latency) {
  const std::vector<double>& lat = rep.alarms.latency_ms;
  const std::vector<std::size_t>& begin = rep.alarms.session_begin;
  for (std::size_t k = 0; k < begin.size(); ++k) {
    const std::size_t end = k + 1 < begin.size() ? begin[k + 1] : lat.size();
    latency.add(std::span<const double>(lat).subspan(begin[k], end - begin[k]));
  }
}

/// An untraced `train` run in rounds: a batch of decode_all reps (set-up),
/// paced reps of the test split until they hold one latency block, then the
/// next training rep; at least kMinTrainReps training reps and more while
/// `budget` lasts.
void measure_train(ServeCtx& ctx, const TrainingData& training, Model& model,
                   double budget, double f1, RepChecks& checks, RunResult& res) {
  const Options& opt = ctx.opt;
  std::vector<double> setup, late;
  LatencyBlocks latency(kTailSamples);
  bool one_per_frame = true;
  bool silent = false;  // a paced rep raised no alarm
  const std::uint64_t start = now_ns();
  for (double last_round = 0.0;;) {
    const std::uint64_t round0 = now_ns();
    for (std::size_t i = 0; i < kDecodePerRound; ++i) {
      ics::FrameDecoder decoder;
      const std::uint64_t t0 = now_ns();
      const std::vector<ics::Package> decoded = decoder.decode_all(training.frames);
      setup.push_back(seconds_since(t0));
      one_per_frame = one_per_frame && decoded.size() == training.frames.size();
    }
    for (std::size_t alarms = 0; !silent && alarms < (opt.smoke ? 1 : kTailSamples);) {
      Rep rep = run_rep(ctx, true, false);
      checks.add(rep, res);
      add_latencies(rep, latency);
      late.push_back(percentile(rep.late_us, 99.0));
      silent = rep.alarms.latency_ms.empty();
      alarms += rep.alarms.latency_ms.size();
    }
    if (model.kpps.size() >= kMinTrainReps &&
        (opt.smoke || silent || latency.blocks() >= kMinBlocks) &&
        seconds_since(start) + last_round > budget) {
      break;
    }
    train_rep(opt, training, model);
    last_round = seconds_since(round0);
  }
  res.check("models_identical_across_train_reps", model.identical_reps);
  res.check("decode_all_one_package_per_frame", one_per_frame);
  res.check("alarm_tail_supported", opt.smoke || latency.blocks() >= kMinBlocks);
  res.attempted += model.kpps.size() * training.packages.size();
  res.add_e2e("throughput_kpps", summarize(model.kpps));
  res.add_e2e("cpu_us_per_pkg", summarize(model.cpu_us));
  res.add_e2e("alarm_p50_ms", latency.summary(50.0));
  res.add_e2e("alarm_p999_ms", latency.summary(99.9));
  res.add_e2e("f1", summarize({f1}));
  res.add_e2e("setup_s", summarize(setup));
  res.note("generator_late_p99_us", summarize(late).median);
}

/// An untraced serve run: saturated reps (closed loop: throughput and CPU
/// per package of every session) and paced reps (open loop: alarm latency
/// from each frame's due time) alternate, each phase taking half of
/// `budget`, with a batch of set-up reps after every rep.
void measure_serve(ServeCtx& ctx, const std::string& model_path,
                   const std::string& sigdb_path, double budget, double f1,
                   RepChecks& checks, RunResult& res) {
  const bool smoke = ctx.opt.smoke;
  std::vector<double> kpps, cpu_us, late, setup;
  LatencyBlocks latency(kTailSamples);
  std::size_t sat_reps = 0;
  std::size_t paced_reps = 0;
  double sat_s = 0.0;
  double paced_s = 0.0;
  double last_sat = 0.0;
  double last_paced = 0.0;
  bool silent = false;  // a paced rep raised no alarm
  for (;;) {
    const bool sat_more = sat_reps < kMinSaturatedReps || sat_s + last_sat <= budget / 2;
    const bool paced_more =
        !silent && (paced_reps < kMinPacedReps ||
                    (!smoke && latency.blocks() < kMinBlocks) ||
                    paced_s + last_paced <= budget / 2);
    if (!sat_more && !paced_more) break;
    const bool paced = paced_more && (!sat_more || paced_s < sat_s);
    const std::uint64_t t0 = now_ns();
    Rep rep = run_rep(ctx, paced, false);
    const double s = seconds_since(t0);
    checks.add(rep, res);
    if (paced) {
      ++paced_reps;
      paced_s += s;
      last_paced = s;
      add_latencies(rep, latency);
      silent = rep.alarms.latency_ms.empty();
      late.push_back(percentile(rep.late_us, 99.0));
      std::printf("paced rep %zu: %zu alarms, generator late p99 %.1f us\n",
                  paced_reps, rep.alarms.latency_ms.size(), late.back());
    } else {
      ++sat_reps;
      sat_s += s;
      last_sat = s;
      kpps.insert(kpps.end(), rep.session_kpps.begin(), rep.session_kpps.end());
      cpu_us.insert(cpu_us.end(), rep.session_cpu_us.begin(), rep.session_cpu_us.end());
      std::printf("saturated rep %zu: %.1f kpkg/s, %.3f us/pkg CPU\n", sat_reps,
                  static_cast<double>(rep.classified) / rep.wall_s * 1e-3,
                  cpu_ns_per_pkg(rep) * 1e-3);
    }
    for (std::size_t i = 0; i < kSetupPerRep; ++i) {
      setup.push_back(time_setup(ctx.opt, model_path, sigdb_path));
    }
  }
  res.check("alarm_tail_supported", smoke || latency.blocks() >= kMinBlocks);
  res.add_e2e("throughput_kpps", summarize(kpps));
  res.add_e2e("cpu_us_per_pkg", summarize(cpu_us));
  res.add_e2e("alarm_p50_ms", latency.summary(50.0));
  res.add_e2e("alarm_p999_ms", latency.summary(99.9));
  res.add_e2e("f1", summarize({f1}));
  res.add_e2e("setup_s", summarize(setup));
  res.note("generator_late_p99_us", summarize(late).median);
}

/// The traced run: standalone layer passes, then plain and traced
/// saturated reps alternating (for the tracing overhead) and one traced
/// paced rep, whose spans go to trace.jsonl. Reports every per-layer metric.
void measure_layers(ServeCtx& ctx, const TrainingData& training,
                    const Model& model, const detect::EvaluationResult& eval,
                    const AlarmRecord& truth, RepChecks& checks, RunResult& res) {
  const Options& opt = ctx.opt;
  const WorkloadSpec& spec = opt.spec;
  const TrainBreakdown tb = train_breakdown(
      training.packages, model_config(spec, opt.seed), *model.fw.detector);
  res.check("train_breakdown_identical", tb.identical);
  const StandalonePasses sp = standalone_passes(ctx.detector, ctx.traffic, spec.shards);

  std::vector<Rep> traced;
  std::vector<double> plain_cpu, traced_cpu;
  for (std::size_t i = 0; i < kOverheadReps; ++i) {
    const Rep plain = run_rep(ctx, false, false);
    checks.add(plain, res);
    plain_cpu.push_back(cpu_ns_per_pkg(plain));
    traced.push_back(run_rep(ctx, false, true));
    checks.add(traced.back(), res);
    traced_cpu.push_back(cpu_ns_per_pkg(traced.back()));
  }
  const Rep& sat = traced.front();
  Rep paced = run_rep(ctx, true, true);
  checks.add(paced, res);
  write_trace(opt.trace_out, {&sat, &paced}, ctx.traffic);

  const obs::MetricsSnapshot& snap = *sat.snapshot;
  const double pkgs = static_cast<double>(std::max<std::uint64_t>(1, sat.classified));
  const double plain_cpu_ns = summarize(plain_cpu).median;
  const double traced_cpu_ns = summarize(traced_cpu).median;
  // Only the TCP listener has a next() of its own to span; the in-memory
  // wire's cost comes from the standalone CaptureSource pass.
  const double next_ns =
      spec.driver == Driver::kTcp ? sat.next.mean_ns() : sp.source_next_ns;
  // Standalone layer costs, not the registry's per-tick wall times: with
  // more threads than cores a tick's wall time includes preemption.
  const double accounted =
      sp.decode_ns + sp.step_ns_per_pkg + next_ns +
      sat.sink.mean_ns() * static_cast<double>(truth.alarms) / pkgs;
  const bool pumped = spec.driver != Driver::kEngine;

  res.add_layer("nn.step_us", mean_ns(snap, "stage_nn_ns") * 1e-3);
  res.add_layer("nn.step_ns_per_pkg", sp.step_ns_per_pkg - sp.lookup_ns_per_pkg);
  res.add_layer("nn.train_epoch_s", tb.epoch_s);
  res.add_layer("detect.choose_k_s", tb.choose_k_s);
  res.add_layer("detect.package_build_s", tb.package_build_s);
  res.add_layer("detect.eval_us_per_pkg", eval.avg_classify_us);
  res.add_layer("detect.lookup_us", mean_ns(snap, "stage_lookup_ns") * 1e-3);
  res.add_layer("detect.lookup_ns_per_pkg", sp.lookup_ns_per_pkg);
  res.add_layer("detect.bloom_alarm_frac", ratio(truth.bloom_true, truth.bloom));
  res.add_layer("detect.lstm_alarm_frac", ratio(truth.lstm_true, truth.lstm));
  res.add_layer("serve.queue_wait_us",
                mean_ns(*paced.snapshot, "stage_queue_wait_ns") * 1e-3);
  res.add_layer("serve.mean_batch", ratio(sat.classified, sat.ticks));
  res.add_layer("serve.tick_us", mean_ns(snap, "stage_tick_ns") * 1e-3);
  res.add_layer("serve.dispatch_us", mean_ns(snap, "stage_dispatch_ns") * 1e-3);
  res.add_layer("serve.push_ns", sat.push.mean_ns());
  res.add_layer("serve.producer_block_frac",
                pumped ? ratio(sat.producer_blocks, sat.frames_routed) : 0.0);
  res.add_layer("serve.peak_queue_depth",
                pumped ? static_cast<double>(sat.peak_queue_depth) : 0.0);
  res.add_layer("serve.sink_ns", sat.sink.mean_ns());
  res.add_layer("serve.residual_ns_per_pkg", plain_cpu_ns - accounted);
  res.add_layer("ingest.next_ns", next_ns);
  res.add_layer("ingest.malformed", static_cast<double>(sat.malformed));
  res.add_layer("ics.decode_ns", sp.decode_ns);
  res.add_layer("obs.trace_overhead_pct",
                (traced_cpu_ns - plain_cpu_ns) / plain_cpu_ns * 100.0);
  res.add_layer("gen.late_p99_us", percentile(paced.late_us, 99.0));
  res.note("untraced_cpu_ns_per_pkg", plain_cpu_ns);
  res.note("traced_cpu_ns_per_pkg", traced_cpu_ns);
}

}  // namespace

RunResult run_workload(const Options& opt) {
  const WorkloadSpec& spec = opt.spec;
  RunResult res;
  namespace fs = std::filesystem;
  const std::string model_path = (fs::path(opt.workdir) / "serve.model").string();
  const std::string sigdb_path = (fs::path(opt.workdir) / "serve.sigdb").string();
  const std::string alarm_path = (fs::path(opt.workdir) / "alarms.jsonl").string();
  const RemoveOnExit scratch{{model_path, sigdb_path, alarm_path}};
  const double budget = opt.smoke ? 0.0 : opt.seconds;

  std::uint64_t t0 = now_ns();
  const TrainingData training = make_training_data(spec.train_cycles);
  std::printf("training capture: %zu packages (%.1f s)\n",
              training.packages.size(), seconds_since(t0));

  // The model: trained on the decoded capture, saved, reloaded.
  Model model;
  train_rep(opt, training, model);
  const detect::CombinedDetector& trained = *model.fw.detector;
  detect::save_framework_file(model_path, trained);
  if (spec.sigdb) {
    sig::SigDbWriteOptions wopts;
    wopts.bloom = &trained.package_level().bloom();
    trained.package_level().database().save_compact(sigdb_path, wopts);
  }
  std::printf("model: |S|=%zu k=%zu\n", trained.package_level().database().size(),
              trained.chosen_k());
  std::unique_ptr<detect::CombinedDetector> detector =
      detect::load_framework_file(model_path);
  res.check("model_reload_identical", model_bytes(*detector) == model.bytes);
  std::optional<sigdb::SigDbView> view;
  if (spec.sigdb) {
    view.emplace(sigdb::SigDbView::open(sigdb_path));
    res.check("sigdb_size_matches",
              view->size() == detector->package_level().database().size());
    detector->package_level().attach_sigdb(&*view);
  }

  // The single-stream evaluator on the test split: the F1 of `train` and
  // the detect.eval_us_per_pkg layer.
  const std::span<const ics::Package> test = model.fw.split.test;
  t0 = now_ns();
  const detect::EvaluationResult eval = detect::evaluate_framework(trained, test);
  res.note("eval_s", seconds_since(t0));
  res.note("eval_f1", eval.confusion.f1());

  t0 = now_ns();
  const Traffic traffic = spec.train ? test_split_traffic(training, test, spec)
                                     : make_traffic(opt.seed, spec);
  std::printf("traffic: %zu sessions x %zu links = %zu frames (%zu attack), "
              "%.0f s of capture (%.1f s)\n",
              traffic.sessions.size(), traffic.links, traffic.frames,
              traffic.attacks, traffic.capture_seconds, seconds_since(t0));

  ServeCtx ctx(opt, traffic, *detector);
  ctx.alarm_path = alarm_path;
  if (spec.driver == Driver::kTcp) {
    for (const Session& s : traffic.sessions) {
      ctx.tcp.push_back(encode_streams(s, spec.connections));
    }
  }

  // Every rep must reproduce these per-link alarm sequences.
  RepChecks checks;
  if (spec.driver != Driver::kEngine) {
    t0 = now_ns();
    checks.reference = reference_pass(traffic, *detector, alarm_path);
    std::printf("reference: unsharded lockstep pass, %llu alarms (%.1f s)\n",
                static_cast<unsigned long long>(checks.reference->alarms),
                seconds_since(t0));
  }
  const Rep warm = run_rep(ctx, false, false);
  checks.add(warm, res);
  std::printf("warm-up: %.3f s, %llu alarms\n", warm.wall_s,
              static_cast<unsigned long long>(warm.alarms.alarms));

  // Serve: alarms scored against ground truth per (link, seq). Train: the
  // single-stream evaluator's F1 on the test split.
  const AlarmRecord& truth = warm.alarms;
  const double serve_f1 =
      traffic.attacks + truth.alarms == 0
          ? 0.0
          : 2.0 * static_cast<double>(truth.true_alarms) /
                static_cast<double>(traffic.attacks + truth.alarms);
  const double f1 = spec.train ? eval.confusion.f1() : serve_f1;
  if (opt.trace) {
    measure_layers(ctx, training, model, eval, truth, checks, res);
  } else if (spec.train) {
    measure_train(ctx, training, model, budget, f1, checks, res);
  } else {
    measure_serve(ctx, model_path, sigdb_path, budget, f1, checks, res);
  }

  res.check("alarms_identical_across_reps", checks.alarms_match);
  res.check("frames_offered_equal_classified", checks.all_classified);
  if (spec.driver == Driver::kTcp) res.check("tcp_source_clean", checks.source_clean);
  res.alarm_digest = checks.reference->digest();
  res.note("serve_f1", serve_f1);
  res.note("alarms", static_cast<double>(truth.alarms));
  res.note("attacks", static_cast<double>(traffic.attacks));
  res.note("frames", static_cast<double>(traffic.frames));
  return res;
}

}  // namespace mlad::e2e

// mlad — command-line front end for the full workflow:
//
//   mlad simulate --cycles 8000 --arff capture.arff [--capture wire.cap]
//   mlad train    --arff capture.arff --model ids.model [--epochs 15]
//   mlad evaluate --arff capture.arff --model ids.model
//   mlad monitor  --capture wire.cap --model ids.model [--max-alarms 20]
//   mlad serve    --captures a.cap,b.cap --model ids.model [--sink out.jsonl]
//
// `simulate` produces labeled traffic (ARFF package log and/or raw-frame
// capture); `train` builds and persists the two-level detector from the
// anomaly-free portion of a log; `evaluate` scores a labeled log; `serve`
// interleaves several captures (or a live socket feed) into one wire and
// monitors every link concurrently through the sharded batched serve
// engine (DESIGN.md §8, §10) — the deployed multi-link data path;
// `monitor` is the same pipeline over one raw byte capture, printing
// alarms.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "adapt/online_trainer.hpp"
#include "common/arff.hpp"
#include "common/histogram.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "detect/pipeline.hpp"
#include "detect/serialize.hpp"
#include "ics/capture.hpp"
#include "ics/features.hpp"
#include "ics/link_mux.hpp"
#include "ics/simulator.hpp"
#include "ingest/faulty_source.hpp"
#include "ingest/package_source.hpp"
#include "ingest/pcap_replay.hpp"
#include "ingest/socket_source.hpp"
#include "nn/kernel_backend.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_http.hpp"
#include "obs/stats_format.hpp"
#include "obs/stats_writer.hpp"
#include "serve/sharded_engine.hpp"
#include "sigdb/sigdb_view.hpp"

namespace {

using namespace mlad;

/// The flags each subcommand accepts (the `sigdb` subcommands are keyed
/// "sigdb build" / "sigdb check"). parse_flags rejects every other flag, so
/// a misspelling such as `serve --shard 4` fails instead of silently
/// running with the default.
const std::map<std::string, std::vector<std::string>> kCommandFlags = {
    {"simulate", {"cycles", "seed", "attacks", "arff", "capture"}},
    {"train",
     {"arff", "model", "epochs", "hidden", "seed", "batch", "threads",
      "adam-state", "resume", "captures"}},
    {"evaluate", {"arff", "model", "threads", "streams"}},
    {"monitor", {"capture", "model", "max-alarms"}},
    {"serve",
     {"captures", "model", "threads", "sink", "max-alarms", "sigdb",
      "shards", "queue-cap", "source", "speed", "listen", "bind",
      "max-conns", "idle-timeout-ms", "fault-spec", "park-after",
      "close-after", "park-hysteresis", "park-after-ms", "close-after-ms",
      "sweep-interval-ms", "adapt", "adapt-interval", "replay-cap",
      "adapt-window", "adapt-min-windows", "adapt-epochs", "adapt-max-steps",
      "adapt-threads", "adapt-seed", "adapt-history", "adapt-poison-round",
      "adapt-poison-scale", "adam-state", "rollback-window",
      "rollback-ratio", "metrics-port", "stats-out", "stats-interval"}},
    {"tap",
     {"captures", "port", "host", "token", "resend", "limit", "no-fin",
      "pace-us", "fault-spec"}},
    {"sigdb build", {"model", "out", "shard-bits", "prefilter-fpr"}},
    {"sigdb check", {"file"}},
    {"stats", {"ascii"}},
};

/// "--flag value" pairs after the subcommand `cmd`. A flag in
/// kBareSwitches may appear without a value and stores "on" (e.g.
/// `mlad serve --adapt --adapt-interval 256`); any other flag with its
/// value missing is still a hard error, not a silent "on".
constexpr const char* kBareSwitches[] = {"adapt", "no-fin", "ascii"};

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int start,
                                               const std::string& cmd) {
  const auto is_bare = [](const char* key) {
    for (const char* s : kBareSwitches) {
      if (std::strcmp(key, s) == 0) return true;
    }
    return false;
  };
  const std::vector<std::string>& accepted = kCommandFlags.at(cmd);
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc;) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::runtime_error(std::string("expected --flag, got ") + argv[i]);
    }
    const char* key = argv[i] + 2;
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      throw std::runtime_error(std::string("unknown flag --") + key +
                               " for " + cmd);
    }
    const bool has_value =
        i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    if (has_value) {
      flags[key] = argv[i + 1];
      i += 2;
    } else if (is_bare(key)) {
      flags[key] = "on";
      i += 1;
    } else {
      throw std::runtime_error(std::string("missing value for --") + key);
    }
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

std::string get_or(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Startup banner for the compute-heavy subcommands: which SIMD kernel
/// backend the cpuid dispatch (or MLAD_KERNEL_BACKEND) picked, and how many
/// worker threads will run. Neither changes results (DESIGN.md §5, §7) —
/// this is for performance triage from logs.
void print_compute_banner(std::size_t threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  std::printf("compute: %s kernels, %zu thread%s\n",
              nn::kernel_backend().name, threads, threads == 1 ? "" : "s");
}

/// --sigdb f.sigdb: mmap the compact signature index and route the serve
/// path's membership/id lookups through it (verdicts stay bit-identical —
/// the file embeds the model's verdict Bloom filter verbatim). `holder`
/// owns the mapping and must outlive the engine.
void maybe_attach_sigdb(const std::map<std::string, std::string>& flags,
                        detect::CombinedDetector& detector,
                        std::optional<sigdb::SigDbView>& holder) {
  const auto it = flags.find("sigdb");
  if (it == flags.end()) return;
  holder.emplace(sigdb::SigDbView::open(it->second));
  if (holder->size() != detector.package_level().database().size()) {
    throw std::runtime_error(
        "--sigdb: signature count mismatch with --model (" +
        std::to_string(holder->size()) + " vs " +
        std::to_string(detector.package_level().database().size()) +
        ") — rebuild with `mlad sigdb build`");
  }
  detector.package_level().attach_sigdb(&*holder);
  std::printf("sigdb: %s (%llu signatures, %u shard bits, %.1f MB mmap)\n",
              it->second.c_str(),
              static_cast<unsigned long long>(holder->size()),
              holder->shard_bits(),
              static_cast<double>(holder->file_bytes()) / (1024.0 * 1024.0));
}

int cmd_simulate(const std::map<std::string, std::string>& flags) {
  ics::SimulatorConfig cfg;
  cfg.cycles = std::stoul(get_or(flags, "cycles", "8000"));
  cfg.seed = std::stoull(get_or(flags, "seed", "42"));
  cfg.attacks_enabled = get_or(flags, "attacks", "on") != "off";
  ics::GasPipelineSimulator sim(cfg);
  const ics::SimulationResult result = sim.run();
  std::printf("simulated %zu packages (%zu attack) over %.0f s\n",
              result.packages.size(),
              result.packages.size() - result.census[0],
              result.duration_seconds);
  if (const auto it = flags.find("arff"); it != flags.end()) {
    write_arff_file(it->second, ics::to_arff(result.packages));
    std::printf("wrote package log: %s\n", it->second.c_str());
  }
  if (const auto it = flags.find("capture"); it != flags.end()) {
    ics::Capture capture;
    capture.reserve(result.packages.size());
    for (const auto& p : result.packages) {
      capture.push_back(ics::package_to_frame(p));
    }
    ics::write_capture_file(it->second, capture);
    std::printf("wrote raw-frame capture: %s\n", it->second.c_str());
  }
  return 0;
}

int cmd_train(const std::map<std::string, std::string>& flags) {
  const std::string model_path = need(flags, "model");
  const auto adam_it = flags.find("adam-state");

  if (const auto resume_it = flags.find("resume"); resume_it != flags.end()) {
    const auto packages = ics::from_arff(read_arff_file(need(flags, "arff")));
    // Offline resume: continue training a saved framework on this log with
    // its own discretizer / signature database, warm-starting Adam from the
    // sidecar when one is given (refused if it doesn't match the model).
    auto detector = detect::load_framework_file(resume_it->second);
    detect::TimeSeriesDetector& ts = detector->timeseries_level();
    detect::TimeSeriesConfig ts_cfg = ts.config();
    ts_cfg.epochs = std::stoul(get_or(flags, "epochs", "15"));
    ts_cfg.batch_size = std::stoul(get_or(flags, "batch", "1"));
    ts_cfg.threads = std::stoul(get_or(flags, "threads", "0"));
    ts.set_train_config(ts_cfg);
    print_compute_banner(ts_cfg.threads);
    if (adam_it != flags.end()) {
      ts.set_warm_start(nn::load_adam_state_file(adam_it->second));
    }

    const ics::DatasetSplit split = ics::split_dataset(packages);
    const auto discretize =
        [&](std::span<const ics::PackageFragment> fragments) {
          std::vector<detect::DiscreteFragment> out;
          out.reserve(fragments.size());
          for (const auto& f : fragments) {
            out.push_back(detector->package_level().discretizer().transform_all(
                ics::fragment_rows(f)));
          }
          return out;
        };
    Rng rng(std::stoull(get_or(flags, "seed", "5")));
    const auto losses = ts.train(discretize(split.train_fragments), rng);
    ts.choose_k(discretize(split.validation_fragments));
    std::printf("resumed %s for %zu epochs: final loss %.6f, k=%zu\n",
                resume_it->second.c_str(), losses.size(),
                losses.empty() ? 0.0 : losses.back(), ts.k());
    detect::save_framework_file(model_path, *detector);
    std::printf("model saved: %s\n", model_path.c_str());
    if (adam_it != flags.end()) {
      nn::save_adam_state_file(adam_it->second, *ts.adam_state());
      std::printf("optimizer state saved: %s\n", adam_it->second.c_str());
    }
    return 0;
  }

  detect::PipelineConfig cfg;
  cfg.combined.timeseries.epochs = std::stoul(get_or(flags, "epochs", "15"));
  cfg.combined.timeseries.hidden_dims = {
      std::stoul(get_or(flags, "hidden", "64"))};
  cfg.seed = std::stoull(get_or(flags, "seed", "5"));
  // Batched minibatch training on the worker pool. The default stays the
  // sequential per-window reference (--batch 1); with --batch B > 1 the
  // data-parallel engine runs, and --threads only changes scheduling —
  // results are bit-identical for any thread count (0 = all cores).
  cfg.combined.timeseries.batch_size = std::stoul(get_or(flags, "batch", "1"));
  cfg.combined.timeseries.threads = std::stoul(get_or(flags, "threads", "0"));
  print_compute_banner(cfg.combined.timeseries.threads);

  const auto finish = [&](const auto& fw) {
    std::printf("trained in %.1fs: |S|=%zu, k=%zu, validation error=%.4f\n",
                fw.train_seconds,
                fw.detector->package_level().database().size(),
                fw.detector->chosen_k(),
                fw.detector->package_validation_error());
    detect::save_framework_file(model_path, *fw.detector);
    std::printf("model saved: %s (%zu KB)\n", model_path.c_str(),
                fw.detector->memory_bytes() / 1024);
    if (adam_it != flags.end()) {
      // Sidecar for offline resume / `serve --adapt` warm start.
      nn::save_adam_state_file(
          adam_it->second, *fw.detector->timeseries_level().adam_state());
      std::printf("optimizer state saved: %s\n", adam_it->second.c_str());
    }
    return 0;
  };

  if (const auto caps_it = flags.find("captures"); caps_it != flags.end()) {
    // Multi-capture sharded training (DESIGN.md §11): every raw capture is
    // decoded to packages, split 6:2:2 on its own, and trained as one shard
    // with its own gradient lanes — one pooled model, results independent of
    // thread count and capture listing order (keys = the file paths).
    const std::vector<std::string> paths = split(caps_it->second, ',');
    if (paths.empty()) throw std::runtime_error("train: no captures given");
    std::vector<std::vector<ics::Package>> decoded;
    decoded.reserve(paths.size());
    for (const std::string& p : paths) {
      ics::FrameDecoder decoder;
      decoded.push_back(decoder.decode_all(
          ics::read_capture_file(std::string(trim(p)))));
    }
    std::vector<detect::CaptureInput> inputs;
    inputs.reserve(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      inputs.push_back({std::string(trim(paths[i])), decoded[i]});
    }
    const detect::MultiTrainedFramework fw =
        detect::train_framework(inputs, cfg);
    std::printf("sharded training over %zu captures\n", inputs.size());
    return finish(fw);
  }

  const auto packages = ics::from_arff(read_arff_file(need(flags, "arff")));
  const detect::TrainedFramework fw = detect::train_framework(packages, cfg);
  return finish(fw);
}

int cmd_evaluate(const std::map<std::string, std::string>& flags) {
  const auto packages = ics::from_arff(read_arff_file(need(flags, "arff")));
  const auto detector = detect::load_framework_file(need(flags, "model"));
  // Without --threads/--streams: the seed's exact single-stream evaluation.
  // With --threads: sharded evaluation, whose fixed shard boundaries keep
  // the metrics bit-identical for any thread count (see detect/pipeline.hpp)
  // but reset LSTM history at shard starts. With --streams S (> 1): batched
  // multi-stream inference — S segments advanced in lockstep through one
  // (S×dim) LSTM step per layer per tick; also thread-count-invariant.
  detect::EvaluationResult result;
  const auto threads_it = flags.find("threads");
  const auto streams_it = flags.find("streams");
  detect::EvalOptions opts;
  if (threads_it != flags.end()) {
    opts.threads = std::stoul(threads_it->second);
  }
  if (streams_it != flags.end()) {
    opts.streams = std::stoul(streams_it->second);
  }
  print_compute_banner(threads_it != flags.end() ? opts.threads : 1);
  // --streams 1 (or 0) means "one stream" — the exact single-stream
  // reference, not the sharded evaluator, which only --threads selects.
  if (threads_it != flags.end() || opts.streams > 1) {
    result = detect::evaluate_framework(*detector, packages, opts);
  } else {
    result = detect::evaluate_framework(*detector, packages);
  }
  std::printf("%zu packages: %s  (%.1f µs/package)\n", packages.size(),
              detect::to_string(result.confusion).c_str(),
              result.avg_classify_us);
  TablePrinter table({"attack", "packages", "detected ratio"});
  for (const ics::AttackType type : ics::kMaliciousTypes) {
    const auto idx = static_cast<std::size_t>(type);
    if (result.per_attack.total[idx] == 0) continue;
    table.add_row({std::string(ics::attack_name(type)),
                   std::to_string(result.per_attack.total[idx]),
                   fixed(result.per_attack.ratio(type), 2)});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

/// The capture wire: every --captures file replays as one PLC link on a
/// time-ordered interleaved wire; `monitor` reads its single --capture as
/// link 0.
std::vector<ics::LinkFrame> load_wire(
    const std::map<std::string, std::string>& flags, bool monitor) {
  std::vector<ics::Capture> captures;
  if (monitor) {
    captures.push_back(ics::read_capture_file(need(flags, "capture")));
    return ics::merge_captures(captures);
  }
  const std::vector<std::string> paths =
      split(need(flags, "captures"), ',');
  if (paths.empty()) throw std::runtime_error("no captures given");
  captures.reserve(paths.size());
  for (const std::string& p : paths) {
    captures.push_back(ics::read_capture_file(std::string(trim(p))));
  }
  return ics::merge_captures(captures);
}

void print_link_table(
    const std::vector<std::pair<ics::LinkId, serve::LinkStats>>& links) {
  TablePrinter table(
      {"link", "packages", "alarms", "bloom", "lstm", "decode-fail"});
  for (const auto& [id, ls] : links) {
    table.add_row({std::to_string(id), std::to_string(ls.packages),
                   std::to_string(ls.alarms),
                   std::to_string(ls.package_level_alarms),
                   std::to_string(ls.timeseries_level_alarms),
                   std::to_string(ls.decode_failures)});
  }
  std::printf("%s", table.str().c_str());
}

/// Serve telemetry (DESIGN.md §14): --metrics-port / --stats-out attach a
/// MetricsRegistry plus its exporters to the serve pipeline. Declared before
/// the engine so the registry outlives every instrument pointer.
struct TelemetryRig {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::MetricsHttpServer> http;
  std::unique_ptr<obs::StatsWriter> writer;
};

TelemetryRig setup_telemetry(const std::map<std::string, std::string>& flags) {
  TelemetryRig rig;
  const bool want_http = flags.count("metrics-port") != 0;
  const bool want_stats = flags.count("stats-out") != 0;
  if (!want_http && !want_stats) return rig;
  rig.registry = std::make_unique<obs::MetricsRegistry>();
  if (want_http) {
    rig.http = std::make_unique<obs::MetricsHttpServer>(
        *rig.registry,
        static_cast<std::uint16_t>(std::stoul(flags.at("metrics-port"))));
    std::printf("metrics: http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(rig.http->port()));
    std::fflush(stdout);  // smoke drivers parse the port before curling
  }
  if (want_stats) {
    rig.writer = std::make_unique<obs::StatsWriter>(
        *rig.registry, flags.at("stats-out"),
        std::stod(get_or(flags, "stats-interval", "1")));
  }
  return rig;
}

/// Stop the exporters once the run is over: the writer's final line then
/// carries end-of-run totals (the CI smoke diffs them against the engine's
/// own summary).
void finish_telemetry(TelemetryRig& rig) {
  if (rig.writer) rig.writer->stop();
  if (rig.http) rig.http->stop();
}

/// End-of-run source-health summary line, printed for EVERY source type
/// (all-zero counters for clean in-memory sources — silence would be
/// ambiguous between "healthy" and "not measured").
void print_source_health(const ingest::SourceHealth& h) {
  std::printf(
      "source health: %zu connections (%zu reconnects), %zu malformed, "
      "%zu truncated, %zu duplicates discarded, %zu records lost, "
      "%zu faults injected\n",
      static_cast<std::size_t>(h.connections),
      static_cast<std::size_t>(h.reconnects),
      static_cast<std::size_t>(h.malformed),
      static_cast<std::size_t>(h.truncated),
      static_cast<std::size_t>(h.duplicates_discarded),
      static_cast<std::size_t>(h.records_lost),
      static_cast<std::size_t>(h.faults_injected));
}

/// Front end for `serve` (DESIGN.md §10): an in-memory capture drain, a
/// paced pcap-style replay, or a live UDP/TCP socket listener receiving
/// MLF1 records.
std::unique_ptr<ingest::PackageSource> make_source(
    const std::map<std::string, std::string>& flags, bool monitor,
    const std::string& kind) {
  if (kind == "capture") {
    return std::make_unique<ingest::CaptureSource>(load_wire(flags, monitor));
  }
  if (kind == "replay") {
    return std::make_unique<ingest::PcapReplaySource>(
        load_wire(flags, monitor), std::stod(get_or(flags, "speed", "1")));
  }
  if (kind != "udp" && kind != "tcp") {
    throw std::runtime_error("--source must be capture, replay, udp or tcp");
  }
  const auto port = static_cast<std::uint16_t>(
      std::stoul(get_or(flags, "listen", "5502")));
  const std::string bind_addr = get_or(flags, "bind", "127.0.0.1");
  std::unique_ptr<ingest::SocketSource> sock;
  if (kind == "udp") {
    sock = std::make_unique<ingest::UdpSource>(port, bind_addr);
  } else {
    sock = std::make_unique<ingest::TcpSource>(
        port, bind_addr, std::stoul(get_or(flags, "max-conns", "16")),
        static_cast<int>(std::stoul(get_or(flags, "idle-timeout-ms", "0"))));
  }
  std::printf("listening on %s %s:%u (MLF1 records; FIN record ends the "
              "stream)\n",
              kind.c_str(), bind_addr.c_str(), sock->port());
  std::fflush(stdout);  // smoke drivers parse the port before connecting
  return sock;
}

/// --adapt: background incremental re-training with hot-swapped weights
/// (DESIGN.md §9), wired into `engine`. Null when --adapt is off, which
/// leaves the serve data path untouched.
std::unique_ptr<adapt::OnlineTrainer> make_adapter(
    const std::map<std::string, std::string>& flags,
    detect::CombinedDetector& detector, serve::MonitorEngineConfig& engine) {
  if (get_or(flags, "adapt", "off") == "off") return nullptr;
  adapt::AdaptConfig acfg;
  acfg.replay_capacity = std::stoul(get_or(flags, "replay-cap", "256"));
  acfg.window_len = std::stoul(get_or(flags, "adapt-window", "48"));
  acfg.min_windows = std::stoul(get_or(flags, "adapt-min-windows", "8"));
  acfg.epochs_per_round = std::stoul(get_or(flags, "adapt-epochs", "1"));
  acfg.max_steps_per_round =
      std::stoul(get_or(flags, "adapt-max-steps", "0"));
  acfg.threads = std::stoul(get_or(flags, "adapt-threads", "1"));
  acfg.seed = std::stoull(get_or(flags, "adapt-seed", "1"));
  acfg.swap_history = std::stoul(get_or(flags, "adapt-history", "4"));
  // Rollback-suite fault hook: corrupt the Nth published round's weights.
  acfg.poison_round = std::stoull(get_or(flags, "adapt-poison-round", "0"));
  acfg.poison_scale = std::stod(get_or(flags, "adapt-poison-scale", "8"));
  acfg.metrics = engine.metrics;
  std::optional<nn::AdamState> warm;
  if (const auto it = flags.find("adam-state"); it != flags.end()) {
    warm = nn::load_adam_state_file(it->second);
  }
  auto adapter = std::make_unique<adapt::OnlineTrainer>(
      detector, acfg, warm ? &*warm : nullptr);
  engine.adapter = adapter.get();
  engine.adapt_interval = std::stoul(get_or(flags, "adapt-interval", "512"));
  // Auto-rollback (DESIGN.md §12): score each swap's first N packages
  // against the N before it; roll back on an alarm-rate spike.
  engine.rollback_window = std::stoul(get_or(flags, "rollback-window", "0"));
  engine.rollback_ratio = std::stod(get_or(flags, "rollback-ratio", "4"));
  return adapter;
}

/// End-of-run `serve` summary. The CI smokes grep "links, N packages",
/// "straggler policy: N parks", "0 records lost" and "(N reconnects)".
void print_serve_summary(const serve::ShardedEngine& engine,
                         const std::string& source_kind,
                         std::size_t queue_capacity,
                         const ingest::FaultySource* faulty,
                         const adapt::OnlineTrainer* adapter) {
  const serve::EngineStats s = engine.stats();
  const serve::IngestStats in = engine.ingest_stats();
  std::printf(
      "serve[%zu shard%s, source=%s]: %zu links, %zu packages, "
      "%zu alarms (%.2f%%), %.2f µs/package (CPU), %zu ticks (mean batch "
      "%.2f)\n",
      engine.shards(), engine.shards() == 1 ? "" : "s", source_kind.c_str(),
      static_cast<std::size_t>(s.links_seen),
      static_cast<std::size_t>(s.packages),
      static_cast<std::size_t>(s.alarms),
      s.packages == 0 ? 0.0
                      : 100.0 * static_cast<double>(s.alarms) /
                            static_cast<double>(s.packages),
      s.us_per_package(), static_cast<std::size_t>(s.ticks), s.mean_batch());
  std::printf(
      "ingest: %zu frames routed, %zu producer stalls, peak queue depth "
      "%zu/%zu\n",
      static_cast<std::size_t>(in.frames_routed),
      static_cast<std::size_t>(in.producer_blocks),
      static_cast<std::size_t>(in.peak_queue_depth), queue_capacity);
  const std::vector<serve::EngineStats> per_shard = engine.shard_stats();
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    const serve::EngineStats& ss = per_shard[i];
    std::printf("  shard %zu: %zu links, %zu packages, %zu alarms, "
                "%.2f µs/package\n",
                i, static_cast<std::size_t>(ss.links_seen),
                static_cast<std::size_t>(ss.packages),
                static_cast<std::size_t>(ss.alarms), ss.us_per_package());
  }
  print_source_health(in.source_health);
  if (faulty != nullptr) {
    const ingest::FaultStats& fs = faulty->fault_stats();
    std::printf(
        "faults injected: %zu drops, %zu truncations, %zu corruptions, "
        "%zu stalls\n",
        static_cast<std::size_t>(fs.drops),
        static_cast<std::size_t>(fs.truncations),
        static_cast<std::size_t>(fs.corruptions),
        static_cast<std::size_t>(fs.stalls));
  }
  if (s.links_parked + s.wall_clock_parks + s.wall_clock_closes > 0) {
    std::printf(
        "straggler policy: %zu parks (%zu wall-clock), %zu wall-clock "
        "closes\n",
        static_cast<std::size_t>(s.links_parked),
        static_cast<std::size_t>(s.wall_clock_parks),
        static_cast<std::size_t>(s.wall_clock_closes));
  }
  if (adapter != nullptr) {
    const adapt::AdaptStats as = adapter->stats();
    std::printf(
        "adapt: %zu windows harvested (replay %zu), %zu rounds trained "
        "(%zu skipped), serving weights v%zu, %.2f s training off the "
        "tick path\n",
        static_cast<std::size_t>(as.windows_harvested), as.replay_size,
        static_cast<std::size_t>(as.rounds_completed),
        static_cast<std::size_t>(as.rounds_skipped),
        static_cast<std::size_t>(s.model_version), as.train_seconds);
    if (s.rollbacks > 0) {
      std::printf("rollbacks: %zu (now serving weights v%zu)\n",
                  static_cast<std::size_t>(s.rollbacks),
                  static_cast<std::size_t>(s.model_version));
    }
  }
  print_link_table(engine.link_stats());
}

/// `mlad serve`, and `mlad monitor` with `monitor` set: one --capture, the
/// console without its link column, and the historical closing line in
/// place of the serve summary. Every run goes through serve::ShardedEngine
/// (DESIGN.md §10), one shard unless --shards says otherwise, so every
/// serve flag applies to every --source; per-link verdicts are
/// bit-identical for any shard count.
int cmd_serve(const std::map<std::string, std::string>& flags,
              bool monitor = false) {
  const auto detector = detect::load_framework_file(need(flags, "model"));

  serve::ShardedEngineConfig cfg;
  cfg.shards = std::stoul(get_or(flags, "shards", "1"));
  cfg.queue_capacity = std::stoul(get_or(flags, "queue-cap", "4096"));
  cfg.engine.threads = std::stoul(get_or(flags, "threads", "1"));
  // Straggler policy: take a silent link out of the lockstep gate once some
  // other link has T packages queued behind it (DESIGN.md §9).
  cfg.engine.park_after = std::stoul(get_or(flags, "park-after", "0"));
  cfg.engine.close_after = std::stoul(get_or(flags, "close-after", "0"));
  cfg.engine.park_hysteresis =
      std::stoul(get_or(flags, "park-hysteresis", "0"));
  // Wall-clock straggler sweep (DESIGN.md §12): takes a live tap that goes
  // silent out of the gate by elapsed real time, not queue depth.
  cfg.engine.park_after_ms = std::stod(get_or(flags, "park-after-ms", "0"));
  cfg.engine.close_after_ms = std::stod(get_or(flags, "close-after-ms", "0"));
  cfg.sweep_interval_ms =
      static_cast<int>(std::stoul(get_or(flags, "sweep-interval-ms", "10")));

  const std::string source_kind = get_or(flags, "source", "capture");
  std::unique_ptr<ingest::PackageSource> source =
      make_source(flags, monitor, source_kind);
  // --fault-spec decorates ANY front end with a seeded fault schedule
  // (DESIGN.md §12), so CI and benches replay exact fault sequences.
  const ingest::FaultySource* faulty = nullptr;
  if (const auto it = flags.find("fault-spec"); it != flags.end()) {
    auto decorated = std::make_unique<ingest::FaultySource>(
        std::move(source), ingest::FaultSpec::parse(it->second));
    faulty = decorated.get();
    source = std::move(decorated);
  }

  // Console unless --sink names a file (.csv → CSV, else JSONL); the
  // console then only shows the closing stats.
  const std::size_t max_alarms =
      std::stoul(get_or(flags, "max-alarms", "20"));
  std::unique_ptr<serve::AlarmSink> file_sink;
  serve::ConsoleAlarmSink console(stdout, max_alarms, /*show_link=*/!monitor);
  serve::AlarmSink* sink = &console;
  if (const auto it = flags.find("sink"); it != flags.end()) {
    file_sink = serve::make_file_sink(it->second);
    sink = file_sink.get();
  }

  std::optional<sigdb::SigDbView> sigdb_view;
  maybe_attach_sigdb(flags, *detector, sigdb_view);
  TelemetryRig rig = setup_telemetry(flags);
  cfg.engine.metrics = rig.registry.get();
  const std::unique_ptr<adapt::OnlineTrainer> adapter =
      make_adapter(flags, *detector, cfg.engine);

  serve::ShardedEngine engine(*detector, sink, cfg);
  engine.run(*source);
  sink->flush();
  finish_telemetry(rig);

  if (monitor) {
    const serve::EngineStats s = engine.stats();
    std::printf("%zu alarms over %zu frames (%.2f%%)\n",
                static_cast<std::size_t>(s.alarms),
                static_cast<std::size_t>(s.frames),
                s.frames == 0 ? 0.0
                              : 100.0 * static_cast<double>(s.alarms) /
                                    static_cast<double>(s.frames));
    return 0;
  }
  print_serve_summary(engine, source_kind, cfg.queue_capacity, faulty,
                      adapter.get());
  return 0;
}

int tap_connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("tap: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("tap: bad host " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    throw std::runtime_error("tap: connect to " + host + " failed: " +
                             std::strerror(errno));
  }
  return fd;
}

void tap_send(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("tap: send failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

/// `mlad tap` — MLF1 replayer client for live-serve testing (DESIGN.md
/// §12): streams --captures as MLF1 records into a `mlad serve --source
/// tcp` listener. --fault-spec injects the frame-level faults before
/// encoding; its disconnect_every field is honored at the transport level —
/// the tap kills its own connection mid-record every N records, reconnects,
/// and resumes with a HELLO record (replaying --resend records of overlap
/// so the listener's duplicate discard is exercised too).
int cmd_tap(const std::map<std::string, std::string>& flags) {
  const std::string host = get_or(flags, "host", "127.0.0.1");
  const auto port =
      static_cast<std::uint16_t>(std::stoul(need(flags, "port")));
  const auto token =
      static_cast<std::uint32_t>(std::stoul(get_or(flags, "token", "0")));
  const std::size_t resend = std::stoul(get_or(flags, "resend", "8"));
  // Smoke-driver knobs: --limit streams only the first N records, --no-fin
  // leaves the stream open-ended — the listener sees a tap that went silent
  // (straggler), not a clean end — and --pace-us spaces the records out so
  // wall-clock park/close windows have real time to elapse against.
  const std::size_t limit = std::stoul(get_or(flags, "limit", "0"));
  const bool send_fin = flags.count("no-fin") == 0;
  const auto pace_us = std::stoul(get_or(flags, "pace-us", "0"));
  ingest::FaultSpec spec;
  if (const auto it = flags.find("fault-spec"); it != flags.end()) {
    spec = ingest::FaultSpec::parse(it->second);
  }

  std::unique_ptr<ingest::PackageSource> src =
      std::make_unique<ingest::CaptureSource>(load_wire(flags, false));
  if (spec.any_frame_faults()) {
    src = std::make_unique<ingest::FaultySource>(std::move(src), spec);
  }
  // Materialize the (post-fault) wire: the reconnect path rewinds to
  // resend the overlap, which needs random access.
  std::vector<ics::LinkFrame> wire;
  ics::LinkFrame lf;
  while (src->next(lf)) wire.push_back(lf);

  const std::size_t end =
      limit == 0 ? wire.size() : std::min(limit, wire.size());
  std::uint64_t records = 0;
  std::uint64_t reconnects = 0;
  int fd = tap_connect(host, port);
  tap_send(fd, ingest::encode_hello(token, 0));
  std::size_t i = 0;
  while (i < end) {
    tap_send(fd, ingest::encode_record(wire[i]));
    ++i;
    ++records;
    if (pace_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
    }
    if (spec.disconnect_every != 0 && records % spec.disconnect_every == 0 &&
        i < end) {
      // Die mid-record: half of the next record goes out, then the
      // connection drops without FIN — the listener must count one
      // truncated record and await the resume.
      const std::vector<std::uint8_t> partial =
          ingest::encode_record(wire[i]);
      tap_send(fd, std::span(partial).first(partial.size() / 2));
      ::close(fd);
      ++reconnects;
      const std::size_t back = std::min(resend, i);
      i -= back;
      fd = tap_connect(host, port);
      tap_send(fd, ingest::encode_hello(token, i));
    }
  }
  if (send_fin) tap_send(fd, ingest::encode_fin());
  ::close(fd);
  std::printf("tap: %zu records over %zu connection%s (%zu reconnects)\n",
              static_cast<std::size_t>(records),
              static_cast<std::size_t>(reconnects + 1),
              reconnects == 0 ? "" : "s",
              static_cast<std::size_t>(reconnects));
  return 0;
}

int cmd_sigdb_build(const std::map<std::string, std::string>& flags) {
  const auto detector = detect::load_framework_file(need(flags, "model"));
  const std::string out = need(flags, "out");
  const detect::PackageLevelDetector& pkg = detector->package_level();

  sig::SigDbWriteOptions opts;
  if (const auto it = flags.find("shard-bits"); it != flags.end()) {
    opts.shard_bits = static_cast<std::uint32_t>(std::stoul(it->second));
  }
  opts.prefilter_fpr = std::stod(get_or(flags, "prefilter-fpr", "0.01"));
  // Embed the trained verdict filter verbatim — the bit-identical-verdicts
  // contract (DESIGN.md §13) hinges on this, not on a rebuilt filter.
  opts.bloom = &pkg.bloom();
  pkg.database().save_compact(out, opts);

  const sigdb::SigDbView view = sigdb::SigDbView::open(out);
  std::printf(
      "sigdb: wrote %s\n"
      "  signatures   %llu (of %llu observations)\n"
      "  shards       2^%u\n"
      "  verdict bloom %llu bits, %llu hashes (embedded verbatim)\n"
      "  file         %.2f MB (%.1f bytes/signature)\n",
      out.c_str(), static_cast<unsigned long long>(view.size()),
      static_cast<unsigned long long>(view.total_observations()),
      view.shard_bits(),
      static_cast<unsigned long long>(view.bloom_bit_count()),
      static_cast<unsigned long long>(view.bloom_hash_count()),
      static_cast<double>(view.file_bytes()) / (1024.0 * 1024.0),
      view.size() > 0 ? static_cast<double>(view.file_bytes()) /
                            static_cast<double>(view.size())
                      : 0.0);
  return 0;
}

int cmd_sigdb_check(const std::map<std::string, std::string>& flags) {
  const std::string path = need(flags, "file");
  // Full validation: header CRC, section bounds, payload CRC (reads the
  // whole file, unlike a serve-time open).
  sigdb::SigDbView::verify_file(path);
  const sigdb::SigDbView view = sigdb::SigDbView::open(path);
  std::printf("sigdb: %s OK (%llu signatures, 2^%u shards, %.2f MB)\n",
              path.c_str(), static_cast<unsigned long long>(view.size()),
              view.shard_bits(),
              static_cast<double>(view.file_bytes()) / (1024.0 * 1024.0));
  return 0;
}

/// `mlad stats f.jsonl` — summarize a --stats-out stream (DESIGN.md §14).
/// Lines are cumulative, so the LAST record carries whole-run totals;
/// rates divide by its t_ns. --ascii re-bins each latency histogram onto a
/// log2(ns) axis and renders Histogram::ascii bars.
int cmd_stats(const std::string& path,
              const std::map<std::string, std::string>& flags) {
  const std::vector<obs::StatsRecord> records = obs::read_stats_file(path);
  if (records.empty()) {
    std::fprintf(stderr, "stats: %s holds no records\n", path.c_str());
    return 1;
  }
  const obs::StatsRecord& last = records.back();
  const double seconds = static_cast<double>(last.t_ns) / 1e9;
  std::printf("stats: %s — %zu snapshot%s covering %.2f s\n", path.c_str(),
              records.size(), records.size() == 1 ? "" : "s", seconds);

  auto rate = [&](std::uint64_t v) {
    return seconds > 0.0 ? fixed(static_cast<double>(v) / seconds, 1)
                         : std::string("-");
  };

  bool any_hist = false;
  TablePrinter stages(
      {"stage", "count", "p50 us", "p95 us", "p99 us", "mean us", "rate/s"});
  for (const auto& [name, h] : last.histograms) {
    if (h.count == 0) continue;
    any_hist = true;
    stages.add_row(
        {name, std::to_string(h.count),
         fixed(static_cast<double>(h.quantile_ns(0.50)) / 1000.0, 3),
         fixed(static_cast<double>(h.quantile_ns(0.95)) / 1000.0, 3),
         fixed(static_cast<double>(h.quantile_ns(0.99)) / 1000.0, 3),
         fixed(h.mean_ns() / 1000.0, 3), rate(h.count)});
  }
  if (any_hist) {
    std::printf("\nstage latencies (quantiles are bucket upper edges):\n%s",
                stages.str().c_str());
  }

  if (!last.counters.empty()) {
    TablePrinter counters({"counter", "total", "rate/s"});
    for (const auto& [name, v] : last.counters) {
      counters.add_row({name, std::to_string(v), rate(v)});
    }
    std::printf("\ncounters:\n%s", counters.str().c_str());
  }
  if (!last.gauges.empty()) {
    TablePrinter gauges({"gauge", "value"});
    for (const auto& [name, v] : last.gauges) {
      gauges.add_row({name, std::to_string(v)});
    }
    std::printf("\ngauges:\n%s", gauges.str().c_str());
  }

  if (flags.count("ascii") != 0) {
    for (const auto& [name, h] : last.histograms) {
      if (h.count == 0) continue;
      // Re-bin the power-of-2 buckets onto a log2(ns) axis: bucket b holds
      // latencies in [2^b, 2^(b+1)), so its center is b + 0.5.
      Histogram ascii_hist(0.0, 64.0, obs::LatencyHistogram::kBuckets);
      for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        if (h.buckets[b] != 0) {
          ascii_hist.add(static_cast<double>(b) + 0.5, h.buckets[b]);
        }
      }
      std::printf("\n%s (rows are log2 of nanoseconds):\n%s", name.c_str(),
                  ascii_hist.ascii(/*rows=*/16, /*width=*/40).c_str());
    }
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: mlad <simulate|train|evaluate|monitor|serve|tap|sigdb|stats> "
      "[--flag value]…\n"
      "  simulate --cycles N --seed S [--arff f] [--capture f]\n"
      "           [--attacks on|off]\n"
      "  train    --arff f --model f [--epochs N] [--hidden H] [--seed S]\n"
      "           [--batch B] [--threads N]   (batch>1 = parallel minibatch\n"
      "           engine; threads 0 = all cores, never changes results)\n"
      "           [--captures a.cap,b.cap,…]  instead of --arff: decode the\n"
      "           raw captures (assumed anomaly-free) and train ONE model\n"
      "           with per-capture gradient lanes — each optimizer step\n"
      "           consumes one round of windows from every capture; results\n"
      "           are bit-identical for any thread count or capture order\n"
      "           [--adam-state f]  write the Adam sidecar next to the model\n"
      "           [--resume old.model]  continue training a saved framework\n"
      "           on this log (with --adam-state: warm-start from, then\n"
      "           rewrite, the sidecar; refused if it mismatches the model)\n"
      "  evaluate --arff f --model f [--threads N] [--streams S]\n"
      "           (--threads: sharded parallel scoring; --streams S>1:\n"
      "           batched multi-stream inference, one (S×dim) LSTM step\n"
      "           per tick; both identical for any thread count)\n"
      "  monitor  --capture f --model f [--max-alarms N]   serve over one\n"
      "           capture: alarm lines without the link column, then an\n"
      "           \"N alarms over M frames\" closing line\n"
      "  sigdb    build --model f --out f.sigdb [--shard-bits N]\n"
      "           [--prefilter-fpr P]   write the compact mmap-able\n"
      "           signature index: sharded Eytzinger key blocks with\n"
      "           per-shard Bloom prefilters, the model's verdict Bloom\n"
      "           filter embedded verbatim, CRC-guarded header\n"
      "  sigdb    check --file f.sigdb   full CRC + bounds validation\n"
      "  serve    --captures a.cap,b.cap,… --model f [--threads N]\n"
      "           (each capture replays as one PLC link; one batched LSTM\n"
      "           step per tick advances every link — per-link verdicts\n"
      "           are bit-identical to monitoring that link alone; every\n"
      "           serve flag below applies to every --source)\n"
      "           [--sink out.jsonl|out.csv] [--max-alarms N]\n"
      "           [--sigdb f.sigdb]   mmap the compact signature index\n"
      "           (mlad sigdb build) and route membership/id lookups\n"
      "           through it — verdicts bit-identical to the in-RAM path\n"
      "           [--park-after T] [--close-after T]   straggler policy:\n"
      "           park (state kept across rejoin) or close a link that\n"
      "           stalls the gate for T ticks' worth of wire\n"
      "           [--shards N] [--queue-cap Q]   links hash onto N engine\n"
      "           shards (default 1), each fed by a bounded SPSC queue\n"
      "           (Q frames; a full queue back-pressures the pump);\n"
      "           per-link verdicts are bit-identical for any N\n"
      "           [--source capture|replay|udp|tcp]   front end (default\n"
      "           capture = drain --captures at full speed):\n"
      "             replay  paced pcap-style replay of --captures with\n"
      "                     original inter-arrival timing [--speed X]\n"
      "                     (X times faster than recorded; 0 = unpaced)\n"
      "             udp|tcp live socket listener for MLF1 frame records\n"
      "                     [--listen PORT] [--bind ADDR]  (default\n"
      "                     127.0.0.1:5502; a FIN record or TCP EOF ends\n"
      "                     the stream). tcp accepts up to [--max-conns N]\n"
      "                     (default 16) concurrent taps, each in its own\n"
      "                     HELLO-declared link namespace; a resumable tap\n"
      "                     may drop and reconnect mid-stream (HELLO resume\n"
      "                     deduplicates overlap). [--idle-timeout-ms T]\n"
      "                     ends the stream after T ms with no open\n"
      "                     connection\n"
      "           [--fault-spec k=v,…]   deterministic fault injection on\n"
      "           the source (keys: seed, drop, truncate, corrupt, stall,\n"
      "           stall_ms, disconnect_every); delivered well-formed\n"
      "           packages keep bit-identical verdicts\n"
      "           [--park-after-ms T] [--close-after-ms T]   wall-clock\n"
      "           straggler policy for live taps: a silent link blocking\n"
      "           the gate for T real ms is parked / closed\n"
      "           [--sweep-interval-ms T] [--park-hysteresis H]   sweep\n"
      "           granularity; a recently-rejoined link needs H extra ticks\n"
      "           of pressure before it re-parks\n"
      "           [--adapt] [--adapt-interval N] [--replay-cap M]\n"
      "           [--adapt-threads K] [--adapt-window L] [--adapt-epochs E]\n"
      "           [--adapt-min-windows W] [--adapt-max-steps S]\n"
      "           [--adapt-seed S] [--adam-state f]\n"
      "           online adaptation: harvest verdict-clean windows into a\n"
      "           seeded replay buffer, re-train on a background thread\n"
      "           (warm-start Adam), hot-swap weights every N ticks; a\n"
      "           round below W buffered windows is skipped (no swap);\n"
      "           requires --shards 1\n"
      "           [--rollback-window N] [--rollback-ratio R]\n"
      "           [--adapt-history H]   adaptation auto-rollback: after a\n"
      "           swap, compare the alarm rate over the next N packages\n"
      "           against the pre-swap rate; if it exceeds R× the engine\n"
      "           restores the previous weights (ring of H versions) at a\n"
      "           tick boundary and emits a rollback JSONL record\n"
      "           [--adapt-poison-round K] [--adapt-poison-scale X]\n"
      "           fault-injection hook: corrupt the K-th published round's\n"
      "           weights by X to exercise the rollback path\n"
      "           [--metrics-port P] [--stats-out f.jsonl]\n"
      "           [--stats-interval S]   serve telemetry (DESIGN.md §14):\n"
      "           --metrics-port exposes a live Prometheus /metrics\n"
      "           endpoint on 127.0.0.1:P (0 = pick a free port, printed\n"
      "           at startup); --stats-out appends one cumulative JSONL\n"
      "           snapshot every S seconds (default 1) plus a final\n"
      "           end-of-run line; verdicts stay bit-identical with\n"
      "           telemetry on or off\n"
      "  stats    f.jsonl [--ascii]   summarize a --stats-out stream:\n"
      "           per-stage latency quantiles (p50/p95/p99), counter\n"
      "           rates, gauges; --ascii adds log2-axis latency bars\n"
      "  tap      --captures a.cap,… --port P [--host H] [--token T]\n"
      "           [--fault-spec k=v,…] [--resend N]\n"
      "           [--limit N] [--no-fin] [--pace-us U]\n"
      "           MLF1 replayer client for a tcp-serve listener: streams\n"
      "           the captures as one tap (HELLO token T, default 0 =\n"
      "           identity link namespace). disconnect_every=N in the\n"
      "           fault spec kills the connection mid-record every N\n"
      "           records, reconnects, and resumes with N-record overlap\n"
      "           (default --resend 8) to exercise duplicate discard.\n"
      "           --limit N sends only the first N records, --no-fin\n"
      "           leaves the stream open-ended (a straggler for the\n"
      "           listener's wall-clock park policy), --pace-us U sleeps\n"
      "           U microseconds between records\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  int first_flag = 2;
  if (cmd == "sigdb") {
    if (argc < 3) return usage();
    cmd = cmd + " " + argv[2];
    first_flag = 3;
  } else if (cmd == "stats") {
    if (argc < 3 || std::string_view(argv[2]).starts_with("--")) {
      return usage();
    }
    first_flag = 3;
  }
  if (kCommandFlags.count(cmd) == 0) return usage();
  try {
    const auto flags = parse_flags(argc, argv, first_flag, cmd);
    if (cmd == "simulate") return cmd_simulate(flags);
    if (cmd == "train") return cmd_train(flags);
    if (cmd == "evaluate") return cmd_evaluate(flags);
    if (cmd == "monitor") return cmd_serve(flags, /*monitor=*/true);
    if (cmd == "serve") return cmd_serve(flags);
    if (cmd == "tap") return cmd_tap(flags);
    if (cmd == "sigdb build") return cmd_sigdb_build(flags);
    if (cmd == "sigdb check") return cmd_sigdb_check(flags);
    return cmd_stats(argv[2], flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mlad %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}

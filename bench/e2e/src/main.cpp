// mlad_bench — end-to-end benchmark of the mlad serve and training paths.
//
//   mlad_bench --workload W --seed S [--seconds T] [--trace 0|1]
//              [--json out.json] [--trace-out trace.jsonl]
//              [--workdir DIR] [--smoke]
//
// Inputs come from --seed alone. --seconds bounds the measured phases.
// Without --trace the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics and writes the sampled spans. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; --json writes the full record (host,
// medians and quartiles, checks, alarm digest). Exit status 0 means every
// in-run check passed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "nn/kernel_backend.hpp"

#ifndef MLAD_BENCH_BUILD_TYPE
#define MLAD_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mlad::e2e;

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

[[noreturn]] void usage(const std::string& why) {
  std::string names;
  for (const std::string& n : workload_names()) names += " " + n;
  throw std::invalid_argument(
      why + "\nusage: mlad_bench --workload W --seed S [--seconds T] "
            "[--trace 0|1] [--json F] [--trace-out F] [--workdir D] [--smoke]"
            "\nworkloads:" + names);
}

Options parse(int argc, char** argv, std::string& json_path) {
  Options opt;
  std::string workload;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    const auto value = [&]() -> std::string {
      if (!has_value) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      workload = value();
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value());
      if (!(opt.seconds >= 0.0)) usage("--seconds must be >= 0");
    } else if (flag == "--trace") {
      const std::string v = has_value ? value() : "1";
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (flag == "--json") {
      json_path = value();
    } else if (flag == "--trace-out") {
      opt.trace_out = value();
    } else if (flag == "--workdir") {
      opt.workdir = value();
    } else if (flag == "--smoke") {
      opt.smoke = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (workload.empty() || !have_seed) usage("--workload and --seed are required");
  opt.spec = workload_spec(workload, opt.smoke);
  if (opt.workdir.empty()) opt.workdir = ".bench_build/work";
  std::filesystem::create_directories(opt.workdir);
  if (opt.trace_out.empty()) {
    opt.trace_out = (std::filesystem::path(opt.workdir) / "trace.jsonl").string();
  }
  return opt;
}

std::string metrics_object(const std::vector<Metric>& metrics, bool full) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i == 0 ? "" : ", ") << quoted(m.name) << ": {";
    if (full) {
      out << "\"median\": " << number(m.value.median)
          << ", \"q1\": " << number(m.value.q1)
          << ", \"q3\": " << number(m.value.q3) << ", \"n\": " << m.value.n
          << ", \"better\": " << quoted(m.better) << ", ";
    } else {
      out << "\"value\": " << number(m.value.median) << ", ";
    }
    out << "\"unit\": " << quoted(m.unit) << "}";
  }
  out << "}";
  return out.str();
}

void write_json(const std::string& path, const Options& opt,
                const RunResult& res, const std::vector<Metric>& metrics) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  const WorkloadSpec& w = opt.spec;
  out << "{\n  \"bench\": \"mlad_bench\",\n  \"schema\": 1,\n"
      << "  \"workload\": " << quoted(w.name) << ",\n"
      << "  \"seed\": " << opt.seed << ",\n"
      << "  \"seconds\": " << number(opt.seconds) << ",\n"
      << "  \"trace\": " << (opt.trace ? "true" : "false") << ",\n"
      << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n"
      << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"kernel_backend\": " << quoted(mlad::nn::kernel_backend().name)
      << ", \"compiler\": " << quoted(compiler())
      << ", \"build_type\": " << quoted(MLAD_BENCH_BUILD_TYPE) << "},\n"
      << "  \"config\": {\"links\": " << w.links
      << ", \"sessions\": " << w.sessions << ", \"cycles\": " << w.cycles
      << ", \"shards\": " << w.shards << ", \"speed\": " << number(w.speed)
      << ", \"sigdb\": " << (w.sigdb ? "true" : "false")
      << ", \"connections\": " << w.connections
      << ", \"train_cycles\": " << w.train_cycles << ", \"epochs\": " << w.epochs
      << "},\n"
      << "  \"metrics\": " << metrics_object(metrics, true) << ",\n"
      << "  \"checks\": {";
  for (std::size_t i = 0; i < res.checks.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(res.checks[i].first) << ": "
        << (res.checks[i].second ? "true" : "false");
  }
  out << "},\n  \"alarm_digest\": " << quoted(res.alarm_digest) << ",\n"
      << "  \"info\": {";
  for (std::size_t i = 0; i < res.info.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(res.info[i].first) << ": "
        << number(res.info[i].second);
  }
  out << "},\n  \"correct\": " << (res.correct() ? "true" : "false")
      << ",\n  \"attempted\": " << res.attempted
      << ",\n  \"failed\": " << res.failed << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string json_path;
    const Options opt = parse(argc, argv, json_path);
    std::printf("mlad_bench: workload %s, seed %llu, %.0f s, trace %d%s; "
                "%u hardware threads, %s kernels, %s, %s build\n",
                opt.spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.smoke ? ", smoke" : "",
                std::thread::hardware_concurrency(),
                mlad::nn::kernel_backend().name, compiler().c_str(),
                MLAD_BENCH_BUILD_TYPE);
    std::fflush(stdout);

    RunResult res = run_workload(opt);
    const std::vector<Metric>& metrics = opt.trace ? res.per_layer : res.end_to_end;
    bool finite = true;
    for (const Metric& m : metrics) {
      finite = finite && std::isfinite(m.value.median) &&
               std::isfinite(m.value.q1) && std::isfinite(m.value.q3);
    }
    res.check("metrics_finite", finite);
    res.check("attempted_nonzero", res.attempted > 0);

    for (const auto& [name, ok] : res.checks) {
      std::printf("check %-42s %s\n", name.c_str(), ok ? "ok" : "FAILED");
    }
    std::printf("alarm digest %s\n", res.alarm_digest.c_str());
    for (const Metric& m : metrics) {
      std::printf("%-28s %14.6g %-7s (q1 %.6g, q3 %.6g, n=%zu)\n",
                  m.name.c_str(), m.value.median, m.unit.c_str(), m.value.q1,
                  m.value.q3, m.value.n);
    }
    if (!json_path.empty()) write_json(json_path, opt, res, metrics);

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                res.correct() ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                metrics_object(metrics, false).c_str());
    std::fflush(stdout);
    return res.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "mlad_bench: %s\n", e.what());
    return 2;
  }
}

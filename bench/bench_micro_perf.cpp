// Micro-benchmarks (google-benchmark) for the §VIII-A2 operational numbers:
// per-classification latency of each stage (the paper reports ~0.03 ms for
// the full two-level classification) plus the underlying primitives.
//
// `--json out.json` writes google-benchmark's JSON record to a file (it is
// shorthand for --benchmark_out=out.json --benchmark_out_format=json), so
// perf trackers get machine-readable output without knowing gbench flags.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "detect/pipeline.hpp"
#include "detect/stream_batch.hpp"
#include "ics/crc16.hpp"
#include "ics/dataset.hpp"
#include "ics/features.hpp"
#include "ics/modbus.hpp"
#include "ics/simulator.hpp"
#include "nn/kernel_backend.hpp"
#include "nn/kernels.hpp"
#include "signature/kmeans.hpp"

namespace {

using namespace mlad;

// ---- shared state built once --------------------------------------------

struct Fixture {
  ics::SimulationResult capture;
  detect::TrainedFramework framework;
  std::vector<sig::RawRow> test_rows;

  Fixture() {
    ics::SimulatorConfig sim_cfg;
    sim_cfg.cycles = 3000;
    sim_cfg.seed = 77;
    ics::GasPipelineSimulator sim(sim_cfg);
    capture = sim.run();

    detect::PipelineConfig cfg;
    cfg.combined.timeseries.hidden_dims = {48};
    cfg.combined.timeseries.epochs = 4;
    cfg.seed = 5;
    framework = detect::train_framework(capture.packages, cfg);
    test_rows = ics::to_raw_rows(framework.split.test);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// ---- primitives -----------------------------------------------------------

void BM_Crc16(benchmark::State& state) {
  std::vector<std::uint8_t> frame(static_cast<std::size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ics::crc16_modbus(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc16)->Arg(8)->Arg(64)->Arg(256);

void BM_ModbusRoundTrip(benchmark::State& state) {
  ics::ModbusFrame f;
  f.address = 4;
  f.function = 0x10;
  f.registers = {1, 2, 3, 4, 5, 6, 7};
  for (auto _ : state) {
    const auto bytes = ics::encode_frame(f);
    benchmark::DoNotOptimize(ics::decode_frame(bytes, false));
  }
}
BENCHMARK(BM_ModbusRoundTrip);

void BM_BloomInsert(benchmark::State& state) {
  bloom::BloomFilter bf = bloom::BloomFilter::with_capacity(100000, 1e-4);
  std::uint64_t key = 0;
  for (auto _ : state) {
    bf.insert(key++);
  }
}
BENCHMARK(BM_BloomInsert);

void BM_BloomLookup(benchmark::State& state) {
  bloom::BloomFilter bf = bloom::BloomFilter::with_capacity(1000, 1e-4);
  for (std::uint64_t k = 0; k < 613; ++k) bf.insert(k * 2654435761ull);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.contains(key++));
  }
}
BENCHMARK(BM_BloomLookup);

void BM_KmeansFit(benchmark::State& state) {
  Rng data_rng(1);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 2000; ++i) {
    points.push_back({data_rng.normal(i % 4 * 5.0, 0.3)});
  }
  for (auto _ : state) {
    Rng rng(2);
    sig::KmeansConfig cfg;
    cfg.clusters = static_cast<std::size_t>(state.range(0));
    benchmark::DoNotOptimize(sig::kmeans_fit(points, cfg, rng));
  }
}
BENCHMARK(BM_KmeansFit)->Arg(2)->Arg(8)->Arg(32);

// ---- detector stages -------------------------------------------------------

void BM_SignatureGeneration(benchmark::State& state) {
  const auto& f = fixture();
  const auto& disc = f.framework.detector->package_level().discretizer();
  const sig::SignatureGenerator gen(disc.cardinalities());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto row = disc.transform(f.test_rows[i % f.test_rows.size()]);
    benchmark::DoNotOptimize(gen.pack(row));
    ++i;
  }
}
BENCHMARK(BM_SignatureGeneration);

void BM_PackageLevelClassify(benchmark::State& state) {
  const auto& f = fixture();
  const auto& pkg = f.framework.detector->package_level();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkg.classify(f.test_rows[i % f.test_rows.size()]));
    ++i;
  }
}
BENCHMARK(BM_PackageLevelClassify);

void BM_CombinedClassify(benchmark::State& state) {
  // The paper's headline ~0.03 ms/classification includes the LSTM step.
  const auto& f = fixture();
  auto stream = f.framework.detector->make_stream();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.framework.detector->classify_and_consume(
        stream, f.test_rows[i % f.test_rows.size()]));
    ++i;
  }
}
BENCHMARK(BM_CombinedClassify);

// ---- kernel backends (DESIGN.md §7) ---------------------------------------
// Registered at runtime (main) once per backend usable on this host, so the
// same binary reports scalar vs AVX2/AVX-512 side by side.

void BM_KernelMatmulNN(benchmark::State& state, const std::string& backend) {
  nn::select_kernel_backend(backend);
  Rng rng(5);
  nn::Matrix a(64, 256), b(256, 256), out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    nn::matmul_nn(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          64 * 256 * 256);  // FLOPs
  nn::select_kernel_backend_from_env();
}

/// The matmul shapes the serve tick and whole-window training run on the
/// bench model (hidden 64, |S| ≈ 350; training lanes of micro_batch 4
/// windows × truncate_steps 64, so about 250 stacked rows), the ones the
/// AVX-512 tile shape was chosen on (DESIGN.md §7). Args: M, K, N and 1
/// for out += aᵀ·b (a: K×M), 0 for out += a·b.
void BM_KernelMatmulShapes(benchmark::State& state,
                           const std::string& backend) {
  nn::select_kernel_backend(backend);
  const auto M = static_cast<std::size_t>(state.range(0));
  const auto K = static_cast<std::size_t>(state.range(1));
  const auto N = static_cast<std::size_t>(state.range(2));
  const bool tn = state.range(3) != 0;
  Rng rng(5);
  nn::Matrix a(tn ? K : M, tn ? M : K), b(K, N), out(M, N);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    if (tn) {
      nn::matmul_tn_acc(a, b, out);
    } else {
      nn::matmul_nn_acc(a, b, out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(M * K * N));  // FLOPs
  nn::select_kernel_backend_from_env();
}

void register_matmul_shapes(const std::string& backend) {
  auto* bm = benchmark::RegisterBenchmark(
      ("BM_KernelMatmulShapes/" + backend).c_str(), BM_KernelMatmulShapes,
      backend);
  bm->ArgNames({"M", "K", "N", "tn"});
  // Serve ticks: H·Uᵀ (N = 4H) and the output logits, 5–8 and 64 rows.
  for (const std::int64_t m : {5, 7, 8, 64}) {
    bm->Args({m, 64, 256, 0});
    bm->Args({m, 64, 300, 0});
  }
  // Training, per step: H·Uᵀ and dA·U on the 1–4 rows still active.
  for (const std::int64_t m : {1, 2, 3, 4}) {
    bm->Args({m, 64, 256, 0});
    bm->Args({m, 256, 64, 0});
  }
  // Training, once per lane over its ~250 stacked rows: the logits, dH of
  // the output layer, and the output-layer and recurrent weight gradients.
  bm->Args({250, 64, 350, 0});
  bm->Args({250, 350, 64, 0});
  bm->Args({350, 250, 64, 1});
  bm->Args({256, 250, 64, 1});
}

/// transpose() of the bench model's three weights (DESIGN.md §11: the
/// transpose cache rebuilds them after every optimizer step): layer 0's
/// W (4H × input_dim), U (4H × H) and the output layer's W (|S| × H).
/// Args: rows, cols.
void BM_Transpose(benchmark::State& state, const std::string& backend) {
  nn::select_kernel_backend(backend);
  const auto R = static_cast<std::size_t>(state.range(0));
  const auto C = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  nn::Matrix a(R, C), out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    nn::transpose(a, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(R * C));  // elements
  nn::select_kernel_backend_from_env();
}

void register_transpose(const std::string& backend) {
  auto* bm = benchmark::RegisterBenchmark(
      ("BM_Transpose/" + backend).c_str(), BM_Transpose, backend);
  bm->ArgNames({"R", "C"});
  bm->Args({256, 111});
  bm->Args({256, 64});
  bm->Args({350, 64});
}

/// col_sum_acc over a training lane's stacked rows (about 250: micro_batch
/// 4 × truncate_steps 64) — the bias gradients of the gates (4H = 256) and
/// of the output layer (|S| = 350). Args: rows, cols.
void BM_ColSum(benchmark::State& state, const std::string& backend) {
  nn::select_kernel_backend(backend);
  const auto R = static_cast<std::size_t>(state.range(0));
  const auto C = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  nn::Matrix a(R, C), sums(1, C);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    nn::col_sum_acc(a, sums);
    benchmark::DoNotOptimize(sums.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(R * C));  // elements
  nn::select_kernel_backend_from_env();
}

void register_col_sum(const std::string& backend) {
  auto* bm = benchmark::RegisterBenchmark(("BM_ColSum/" + backend).c_str(),
                                          BM_ColSum, backend);
  bm->ArgNames({"R", "C"});
  bm->Args({250, 256});
  bm->Args({250, 350});
}

void BM_KernelLstmGates(benchmark::State& state, const std::string& backend) {
  nn::select_kernel_backend(backend);
  Rng rng(5);
  nn::Matrix a(64, 4 * 128), c_prev(64, 128);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  for (std::size_t i = 0; i < c_prev.size(); ++i) {
    c_prev.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  nn::Matrix gi, gf, go, gg, gc, gt, gh;
  for (auto _ : state) {
    nn::lstm_gates_forward(a, c_prev, gi, gf, go, gg, gc, gt, gh);
    benchmark::DoNotOptimize(gh.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          128);  // gate cells
  nn::select_kernel_backend_from_env();
}

// ---- batched multi-stream inference ---------------------------------------

void BM_MultiStreamClassify(benchmark::State& state) {
  // S lockstep streams through one (S×dim) LSTM step per layer per tick;
  // reported time is per tick — divide by S for the per-package figure the
  // single-stream BM_CombinedClassify reports.
  const auto& f = fixture();
  const std::size_t S = static_cast<std::size_t>(state.range(0));
  detect::StreamBatch batch(*f.framework.detector, S);
  std::vector<std::span<const double>> tick(S);
  std::vector<detect::CombinedVerdict> verdicts;
  std::size_t i = 0;
  const std::size_t n = f.test_rows.size();
  for (auto _ : state) {
    for (std::size_t s = 0; s < S; ++s) {
      tick[s] = f.test_rows[(i + s * 17) % n];
    }
    batch.step(tick, verdicts);
    benchmark::DoNotOptimize(verdicts.data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(S));  // packages
}
BENCHMARK(BM_MultiStreamClassify)->Arg(8)->Arg(32);

void BM_LstmTrainStep(benchmark::State& state) {
  auto& f = fixture();
  auto& ts = f.framework.detector->timeseries_level();
  const auto& disc = f.framework.detector->package_level().discretizer();
  // One BPTT window over real (anomaly-free) training traffic.
  const auto rows = ics::fragment_rows(f.framework.split.train_fragments.at(0));
  std::vector<detect::DiscreteFragment> frag = {disc.transform_all(
      std::span(rows).subspan(0, std::min<std::size_t>(rows.size(), 49)))};
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts.train(frag, rng));
  }
  state.SetLabel("48-step window x " +
                 std::to_string(ts.config().epochs) + " epochs");
}
BENCHMARK(BM_LstmTrainStep);

}  // namespace

int main(int argc, char** argv) {
  // Rewrite --json FILE into the native gbench output flags, pass the rest
  // through untouched.
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      args.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      args.push_back("--benchmark_out_format=json");
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  // Per-backend kernel benchmarks: one registration per backend that is
  // both compiled in and usable on this host (cpuid-gated).
  for (const std::string& backend : mlad::nn::available_kernel_backends()) {
    benchmark::RegisterBenchmark(("BM_KernelMatmulNN/" + backend).c_str(),
                                 BM_KernelMatmulNN, backend);
    benchmark::RegisterBenchmark(("BM_KernelLstmGates/" + backend).c_str(),
                                 BM_KernelLstmGates, backend);
    register_matmul_shapes(backend);
    register_transpose(backend);
    register_col_sum(backend);
  }

  std::vector<char*> raw;
  raw.reserve(args.size());
  for (std::string& a : args) raw.push_back(a.data());
  int raw_argc = static_cast<int>(raw.size());
  benchmark::Initialize(&raw_argc, raw.data());
  if (benchmark::ReportUnrecognizedArguments(raw_argc, raw.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Million-signature on-disk index (DESIGN.md §13): build a synthetic
// ≥10⁶-signature database, persist it with save_compact, mmap it back and
// measure the tick-path membership lookup three ways:
//
//   · map_probe       — per-key probes of the in-RAM unordered_map, the
//                       pre-sigdb tick path (S map probes per tick); kept
//                       for context next to the ~40% smaller mmap footprint.
//   · view_single     — scalar per-key SigDbView::query probes (prefilter +
//                       one serial Eytzinger descent per key, no batching).
//   · query_batch S=32 — the batched path: prefilter, then one
//                       level-synchronous Eytzinger walk per chunk.
//
// The acceptance criterion is the batched path ≥3× the scalar per-key
// probes of the same index at S=32 — the batch's level-synchronous walks
// keep tens of cache misses in flight where the scalar probe pays the full
// memory latency at every tree level. `verdicts_match_in_ram` is computed
// IN-RUN by sweeping the whole query stream through both paths (ids AND
// Bloom verdicts, including the filter's false positives — the file embeds
// the trained filter verbatim, so they must reproduce).
//
// Output: human table on stdout; `--json out.json` writes the committed
// BENCH_sigdb.json (validated in CI by tools/check_bench_json.py).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bloom/bloom_filter.hpp"
#include "bloom/hashing.hpp"
#include "common/stopwatch.hpp"
#include "sigdb/sigdb_view.hpp"
#include "signature/signature_db.hpp"

namespace {

using namespace mlad;

constexpr std::size_t kBatch = 32;           ///< S in the §13 contract
constexpr double kCriterionSpeedup = 3.0;    ///< batch vs scalar per-key probes
constexpr int kTimingReps = 5;               ///< best-of wall timings

/// DB sizes: ≥4M even at default scale so the index is genuinely
/// DRAM-resident — the regime the fleet-scale north star lives in. A
/// cache-resident toy DB would understate scalar probe cost and overstate
/// nothing; honest numbers need the big working set.
std::size_t signatures_for(const bench::Scale& scale) {
  const std::string name = scale.name;
  if (name == "paper") return std::size_t{1} << 25;  // 33.6M
  if (name == "big") return std::size_t{1} << 24;    // 16.8M
  return std::size_t{1} << 22;                       // 4,194,304 ≥ 10⁶
}

/// `n` distinct pseudo-random keys in the 2^63 key space of a
/// {2^15, 2^16, 2^16, 2^16} schema, counts 1 + (id % 7).
sig::SignatureDatabase make_db(std::size_t n) {
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  std::uint64_t x = 0;
  while (keys.size() < n) keys.push_back(bloom::splitmix64(++x) >> 1);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  while (keys.size() < n) keys.push_back(keys.back() + 1);
  std::vector<std::size_t> counts(keys.size());
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = 1 + i % 7;
  return sig::SignatureDatabase::from_parts(
      sig::SignatureGenerator({1u << 15, 1u << 16, 1u << 16, 1u << 16}),
      std::move(keys), std::move(counts));
}

/// Tick-realistic query mix: half hits, a quarter near-misses (stored key
/// ± 1, defeating any trivial range shortcut), a quarter random.
std::vector<std::uint64_t> make_queries(const sig::SignatureDatabase& db,
                                        std::size_t count) {
  std::vector<std::uint64_t> q(count);
  std::uint64_t x = 9000;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t r = bloom::splitmix64(++x);
    const std::size_t id = static_cast<std::size_t>(r % db.size());
    switch (i % 4) {
      case 0:
      case 1: q[i] = db.key_of(id); break;
      case 2: q[i] = db.key_of(id) + (i % 8 ? 1 : -1); break;
      default: q[i] = r; break;
    }
  }
  return q;
}

/// Best-of-N wall time of `fn` in nanoseconds per key.
template <typename Fn>
double best_ns_per_key(std::size_t keys, Fn&& fn) {
  double best = 1e30;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.elapsed_seconds());
  }
  return best * 1e9 / static_cast<double>(keys);
}

/// The batched path's timing. The JSON keeps its "backends" map (one entry
/// per timed lookup path) with this single entry.
struct BatchRun {
  std::string name = "levelsync";
  double batch_ns_per_key = 0.0;
  double speedup_vs_map = 0.0;
  double speedup_vs_view_single = 0.0;
  bool ids_match = false;
};

void write_json(const std::string& path, const bench::Scale& scale,
                std::size_t hw, std::size_t n, std::size_t file_bytes,
                std::uint32_t shard_bits, double build_s, double open_ms,
                std::size_t queries, double map_ns, double single_ns,
                const BatchRun& run, bool verdicts_match, bool met) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_sigdb\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.name);
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw);
  std::fprintf(f,
               "  \"measurement\": \"per-key ns over a hit/near-miss/random "
               "query mix, best of %d wall timings on one thread; map_probe "
               "is the pre-sigdb in-RAM unordered_map tick path, "
               "query_batch runs in S=%zu batches through the "
               "level-synchronous Eytzinger walk\",\n",
               kTimingReps, kBatch);
  std::fprintf(f, "  \"signatures\": %zu,\n", n);
  std::fprintf(f, "  \"file_bytes\": %zu,\n", file_bytes);
  std::fprintf(f, "  \"bytes_per_signature\": %.2f,\n",
               static_cast<double>(file_bytes) / static_cast<double>(n));
  std::fprintf(f, "  \"shard_bits\": %u,\n", shard_bits);
  std::fprintf(f, "  \"build_s\": %.3f,\n", build_s);
  std::fprintf(f, "  \"open_ms\": %.3f,\n", open_ms);
  std::fprintf(f, "  \"queries\": %zu,\n", queries);
  std::fprintf(f, "  \"batch_size\": %zu,\n", kBatch);
  std::fprintf(f, "  \"map_probe_ns_per_key\": %.2f,\n", map_ns);
  std::fprintf(f, "  \"view_single_ns_per_key\": %.2f,\n", single_ns);
  std::fprintf(f, "  \"backends\": {\n");
  std::fprintf(f,
               "    \"%s\": {\"batch_ns_per_key\": %.2f, "
               "\"speedup_vs_map\": %.3f, "
               "\"speedup_vs_view_single\": %.3f, \"ids_match\": %s}\n",
               run.name.c_str(), run.batch_ns_per_key, run.speedup_vs_map,
               run.speedup_vs_view_single, run.ids_match ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"best_backend\": \"%s\",\n", run.name.c_str());
  std::fprintf(f, "  \"verdicts_match_in_ram\": %s,\n",
               verdicts_match ? "true" : "false");
  std::fprintf(f, "  \"criterion\": {\n");
  std::fprintf(f, "    \"required_batch_speedup_vs_scalar\": %.1f,\n",
               kCriterionSpeedup);
  std::fprintf(f,
               "    \"baseline\": \"scalar per-key SigDbView::query probes "
               "of the same index (S=1)\",\n");
  std::fprintf(f, "    \"achieved\": %.3f,\n", run.speedup_vs_view_single);
  std::fprintf(f, "    \"met\": %s\n", met ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const bench::Scale scale = bench::scale_from_env();
  bench::print_header("bench_sigdb — mmap signature index vs in-RAM map",
                      scale);
  const std::size_t hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %zu\n", hw);

  const std::size_t n = signatures_for(scale);
  std::printf("building synthetic database: %zu signatures\n", n);
  const sig::SignatureDatabase db = make_db(n);
  const bloom::BloomFilter trained = db.make_bloom(1e-4);

  const std::string path = "/tmp/bench_sigdb.sigdb";
  sig::SigDbWriteOptions opts;
  opts.bloom = &trained;  // embed the trained filter verbatim
  Stopwatch build_sw;
  db.save_compact(path, opts);
  const double build_s = build_sw.elapsed_seconds();

  Stopwatch open_sw;
  const sigdb::SigDbView view = sigdb::SigDbView::open(path);
  const double open_ms = open_sw.elapsed_ms();
  std::printf(
      "  save_compact %.2fs · %zu bytes (%.1f B/sig) · shard_bits %u · "
      "open %.3fms (header-validated, payload pages faulted lazily)\n",
      build_s, view.file_bytes(),
      static_cast<double>(view.file_bytes()) / static_cast<double>(n),
      view.shard_bits(), open_ms);

  const std::size_t query_count = std::min<std::size_t>(n, 1u << 20);
  const std::vector<std::uint64_t> queries = make_queries(db, query_count);

  // Reference ids once, through the map — also the parity oracle.
  std::vector<std::uint32_t> expect(query_count);
  db.lookup_batch(queries, expect.data());

  std::printf("query workload: %zu keys (half hits), batch S=%zu\n",
              query_count, kBatch);

  volatile std::uint64_t sink = 0;  // defeat dead-code elimination
  const double map_ns = best_ns_per_key(query_count, [&] {
    std::uint64_t acc = 0;
    std::vector<std::uint32_t> ids(query_count);
    db.lookup_batch(queries, ids.data());
    for (std::uint32_t id : ids) acc += id;
    sink = acc;
  });
  std::printf("  map_probe     %8.2f ns/key\n", map_ns);

  const double single_ns = best_ns_per_key(query_count, [&] {
    std::uint64_t acc = 0;
    for (std::uint64_t k : queries) acc += view.query(k);
    sink = acc;
  });
  std::printf("  view_single   %8.2f ns/key\n", single_ns);

  std::vector<std::uint32_t> got(query_count);
  BatchRun run;
  run.batch_ns_per_key = best_ns_per_key(query_count, [&] {
    const std::span<const std::uint64_t> all(queries);
    for (std::size_t i = 0; i < query_count; i += kBatch) {
      const std::size_t s = std::min(kBatch, query_count - i);
      view.query_batch(all.subspan(i, s), got.data() + i);
    }
  });
  run.speedup_vs_map = map_ns / run.batch_ns_per_key;
  run.speedup_vs_view_single = single_ns / run.batch_ns_per_key;
  run.ids_match = std::equal(got.begin(), got.end(), expect.begin());
  std::printf("  query_batch   %8.2f ns/key · %5.2fx vs map · %5.2fx vs "
              "singles · ids %s\n",
              run.batch_ns_per_key, run.speedup_vs_map,
              run.speedup_vs_view_single, run.ids_match ? "match" : "MISMATCH");

  // Verdict parity IN-RUN: ids above, plus the package-level Bloom verdict
  // (F_p = 1 iff s(x) ∉ B) over the whole stream — false positives included.
  bool verdicts_match = run.ids_match;
  std::vector<std::uint8_t> in_bloom(query_count);
  view.bloom_contains_batch(queries, in_bloom.data());
  for (std::size_t i = 0; i < query_count; ++i) {
    if ((in_bloom[i] != 0) != trained.contains(queries[i])) {
      verdicts_match = false;
      break;
    }
  }
  std::printf("verdicts_match_in_ram: %s\n",
              verdicts_match ? "true" : "false");

  const bool met =
      run.speedup_vs_view_single >= kCriterionSpeedup && verdicts_match;
  std::printf(
      "criterion: %.2fx batched vs scalar per-key probes at S=%zu "
      "(threshold %.1fx) — %s\n",
      run.speedup_vs_view_single, kBatch, kCriterionSpeedup,
      met ? "MET" : "NOT MET");

  if (!json_path.empty()) {
    write_json(json_path, scale, hw, n, view.file_bytes(), view.shard_bits(),
               build_s, open_ms, query_count, map_ns, single_ns, run,
               verdicts_match, met);
  }
  std::remove(path.c_str());
  return met ? 0 : 1;
}

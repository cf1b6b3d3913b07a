// The paper harness (DESIGN.md §6): every table and figure of the shared
// capture from one run. It builds the capture once and trains the combined
// framework once per configuration — pipeline_config(scale) with the
// §V-A-3 probabilistic noise on and off — then computes everything from
// those two frameworks:
//
//   Table II   attack taxonomy and dataset census
//   Fig. 4     200-bin histograms of the four continuous features
//   Fig. 5     validation error vs discretization granularity (Table III)
//   Fig. 6     LSTM top-k error on train/validation, ±noise
//   Table IV   P/R/A/F1 of the framework and the six comparison models
//   Table V    detected ratio per attack type
//   Fig. 7     P/R/A/F1 vs k, ±noise
//   ablations  Bloom filter sizing; fixed vs dynamic k
//
// and a false-alarm attribution of the Table IV model (which level fired,
// how many packages after the last attack package).
//
// Usage: bench_paper [--json PATH]. `--json` writes the BENCH_quality.json
// record, whose `results` object holds only values fixed by code and seeds
// (ctest's paper_quality_guard compares it with the committed file).
// Timings are printed, never stored in `results`.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baseline_harness.hpp"
#include "bench_common.hpp"
#include "bloom/bloom_filter.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "detect/dynamic_k.hpp"
#include "ics/dataset.hpp"
#include "ics/features.hpp"
#include "signature/granularity.hpp"

namespace {

using namespace mlad;

constexpr std::size_t kFig7MaxK = 8;

/// False alarms by the level that raised them and by how many packages
/// separate them from the last attack package of the test stream.
constexpr const char* kGapBuckets[] = {"1",   "2",  "3",       "4",
                                       "5-8", ">8", "none_yet"};
constexpr std::size_t kGapBucketCount = std::size(kGapBuckets);

struct FalseAlarms {
  std::array<std::size_t, kGapBucketCount> package_level{};
  std::array<std::size_t, kGapBucketCount> timeseries_level{};
};

std::size_t gap_bucket(std::size_t i, std::optional<std::size_t> last_attack) {
  if (!last_attack) return kGapBucketCount - 1;
  const std::size_t gap = i - *last_attack;
  return gap <= 4 ? gap - 1 : gap <= 8 ? 4 : 5;
}

/// One single-stream pass of the test split at a fixed k.
struct Scored {
  detect::Confusion confusion;
  detect::PerAttackRecall per_attack;
  FalseAlarms false_alarms;
  double us_per_package = 0.0;
};

Scored score(const detect::CombinedDetector& detector,
             std::span<const ics::Package> test,
             std::span<const sig::RawRow> rows, std::size_t k) {
  Scored out;
  std::optional<std::size_t> last_attack;
  Stopwatch sw;
  detect::CombinedDetector::Stream stream = detector.make_stream();
  for (std::size_t i = 0; i < test.size(); ++i) {
    const detect::CombinedVerdict v =
        detector.classify_and_consume(stream, rows[i], k);
    out.confusion.record(test[i].is_attack(), v.anomaly);
    out.per_attack.record(test[i].label, v.anomaly);
    if (test[i].is_attack()) {
      last_attack = i;
    } else if (v.anomaly) {
      auto& level = v.package_level ? out.false_alarms.package_level
                                    : out.false_alarms.timeseries_level;
      ++level[gap_bucket(i, last_attack)];
    }
  }
  if (!test.empty()) {
    out.us_per_package = sw.elapsed_us() / static_cast<double>(test.size());
  }
  return out;
}

/// One trained framework and everything read from it alone.
struct Configuration {
  detect::TrainedFramework fw;
  bench::TopKCurves curves;  ///< Fig. 6
  /// [k-1] for k = 1..max(kFig7MaxK, chosen k): Fig. 7 and Table IV.
  std::vector<Scored> by_k;

  std::size_t chosen_k() const { return fw.detector->chosen_k(); }
  const Scored& at(std::size_t k) const { return by_k[k - 1]; }
};

Configuration run_configuration(const ics::SimulationResult& capture,
                                const bench::Scale& scale, bool noise) {
  detect::PipelineConfig cfg = bench::pipeline_config(scale);
  cfg.combined.timeseries.noise.enabled = noise;
  detect::TrainedFramework fw = detect::train_framework(capture.packages, cfg);
  bench::TopKCurves curves = bench::top_k_curves(*fw.detector, fw.split);
  const std::vector<sig::RawRow> rows = ics::to_raw_rows(fw.split.test);
  std::vector<Scored> by_k;
  const std::size_t max_k = std::max(kFig7MaxK, fw.detector->chosen_k());
  for (std::size_t k = 1; k <= max_k; ++k) {
    by_k.push_back(score(*fw.detector, fw.split.test, rows, k));
  }
  return {std::move(fw), std::move(curves), std::move(by_k)};
}

struct DynamicKRow {
  std::string label;
  std::string key;  ///< JSON member name
  detect::Confusion confusion;
  std::size_t final_k = 0;
  std::optional<std::size_t> adjustments;  ///< dynamic rows only
};

/// Fixed k = 1, chosen, 8 (read off the sweep), then the dynamic-k
/// controller under two alarm-rate budgets.
std::vector<DynamicKRow> dynamic_k_rows(const Configuration& c) {
  std::vector<DynamicKRow> rows;
  for (const std::size_t k : {std::size_t{1}, c.chosen_k(), kFig7MaxK}) {
    rows.push_back({"fixed k=" + std::to_string(k) +
                        (k == c.chosen_k() ? " (chosen)" : ""),
                    "fixed_k" + std::to_string(k), c.at(k).confusion, k,
                    std::nullopt});
  }
  const auto& test = c.fw.split.test;
  const std::vector<sig::RawRow> raw = ics::to_raw_rows(test);
  for (const double target : {0.05, 0.02}) {
    detect::DynamicKConfig dk;
    dk.target_rate = target;
    dk.k_max = 10;
    detect::DynamicKMonitor monitor(*c.fw.detector, dk);
    detect::Confusion confusion;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      confusion.record(test[i].is_attack(),
                       monitor.classify_and_consume(raw[i]).anomaly);
    }
    rows.push_back({"dynamic θ=" + fixed(target, 2), "dynamic_" +
                    fixed(target, 2), confusion, monitor.current_k(),
                    monitor.adjustments()});
  }
  return rows;
}

sig::GranularityResult fig5_grid(const ics::DatasetSplit& split,
                                 double theta) {
  auto collect = [](const std::vector<ics::PackageFragment>& longs,
                    const std::vector<ics::PackageFragment>& shorts) {
    std::vector<sig::RawRow> rows = ics::all_fragment_rows(longs);
    const auto extra = ics::all_fragment_rows(shorts);
    rows.insert(rows.end(), extra.begin(), extra.end());
    return rows;
  };
  const auto train_rows =
      collect(split.train_fragments, split.train_short_fragments);
  const auto val_rows =
      collect(split.validation_fragments, split.validation_short_fragments);

  const auto specs = ics::default_feature_specs();
  std::size_t pressure_idx = 0;
  std::size_t setpoint_idx = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == "pressure_measurement") pressure_idx = i;
    if (specs[i].name == "setpoint") setpoint_idx = i;
  }
  // The paper weights pressure discretization as more important.
  const std::vector<sig::Tunable> tunables = {
      {pressure_idx, {5, 10, 15, 20, 25, 30}, 2.0},
      {setpoint_idx, {5, 10, 15, 20}, 1.0},
  };
  Rng rng(7);
  return sig::search_granularity(train_rows, val_rows, specs, tunables, theta,
                                 rng);
}

// ---- Printed sections (each keeps its former binary's layout) ----------

void print_table2(const ics::SimulationResult& capture,
                  const ics::DatasetSplit& split, const bench::Scale& scale) {
  bench::print_header("Table II — attack types & dataset census", scale);
  TablePrinter table({"ID", "Type", "Description", "Packages", "Share"});
  const std::size_t total = capture.packages.size();
  for (std::size_t i = 1; i < ics::kAttackTypeCount; ++i) {
    const auto type = static_cast<ics::AttackType>(i);
    const std::size_t count = capture.census[i];
    table.add_row({std::to_string(i), std::string(ics::attack_name(type)),
                   std::string(ics::attack_description(type)),
                   std::to_string(count),
                   fixed(100.0 * static_cast<double>(count) /
                             static_cast<double>(total),
                         2) + "%"});
  }
  std::printf("%s", table.str().c_str());

  const std::size_t attacks = total - capture.census[0];
  std::printf("\nTotal packages: %zu  normal: %zu  attack: %zu (%.1f%%)\n",
              total, capture.census[0], attacks,
              100.0 * static_cast<double>(attacks) /
                  static_cast<double>(total));
  std::printf(
      "(paper: 214,580 normal / 60,048 attack ≈ 21.9%% attack share)\n");
  std::printf(
      "\n6:2:2 split — train: %zu pkgs in %zu fragments (+%zu short), "
      "validation: %zu pkgs in %zu fragments (+%zu short), test: %zu pkgs\n",
      split.train_size(), split.train_fragments.size(),
      split.train_short_fragments.size(), split.validation_size(),
      split.validation_fragments.size(),
      split.validation_short_fragments.size(), split.test.size());
  std::printf("Simulated wall-clock: %.1f s of traffic\n",
              capture.duration_seconds);
}

void print_fig4(const ics::DatasetSplit& split, const bench::Scale& scale) {
  bench::print_header("Figure 4 — continuous feature histograms (200 bins)",
                      scale);
  const std::vector<sig::RawRow> rows =
      ics::all_fragment_rows(split.train_fragments);
  struct Channel {
    const char* title;
    ics::RawColumn column;
  };
  const Channel channels[] = {
      {"time interval (s)", ics::kColTimeInterval},
      {"crc rate", ics::kColCrcRate},
      {"setpoint (PSI)", ics::kColSetpoint},
      {"pressure measurement (PSI)", ics::kColPressure},
  };
  for (const Channel& ch : channels) {
    std::vector<double> values;
    values.reserve(rows.size());
    for (const auto& r : rows) values.push_back(r[ch.column]);
    const Histogram h = Histogram::fit(values, 200);
    std::printf("\n--- %s  (n=%zu, range [%.4f, %.4f]) ---\n", ch.title,
                values.size(), h.lo(), h.hi());
    std::printf("%s", h.ascii(16, 48).c_str());
    // Cluster hint: how much mass sits in the top 2 bins → "natural
    // clusters" per the paper's reading of Fig. 4.
    std::size_t mass = 0;
    for (std::size_t b : h.top_bins(2)) mass += h.count(b);
    std::printf("mass in top-2 bins: %.1f%% %s\n",
                100.0 * static_cast<double>(mass) /
                    static_cast<double>(h.total()),
                mass > h.total() / 2 ? "(natural clusters → k-means)"
                                     : "(no natural clusters → intervals)");
  }
}

void print_fig5(const sig::GranularityResult& result, double theta,
                const bench::Scale& scale) {
  bench::print_header("Figure 5 — validation error vs granularity", scale);
  TablePrinter table({"pressure bins", "setpoint bins", "|S|",
                      "validation error", "objective", "feasible"});
  for (const auto& p : result.evaluated) {
    table.add_row({std::to_string(p.bins[0]), std::to_string(p.bins[1]),
                   std::to_string(p.unique_signatures),
                   fixed(p.validation_error, 4), fixed(p.objective, 1),
                   p.validation_error < theta ? "yes" : "no"});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nChosen granularity (argmax Σ wᵢnᵢ s.t. err < %.2f): "
              "pressure=%zu setpoint=%zu  →  |S|=%zu, err=%.4f%s\n",
              theta, result.best.bins[0], result.best.bins[1],
              result.best.unique_signatures, result.best.validation_error,
              result.feasible ? ""
                              : "  (no feasible point; min-error fallback)");
  std::printf("(paper Table III: pressure 20+1, setpoint 10+1, PID 32+1 "
              "k-means, interval/crc 2+1 k-means → 613 signatures, "
              "err<0.03)\n");
}

void print_fig6(const Configuration& on, const Configuration& off,
                const bench::Scale& scale) {
  bench::print_header("Figure 6 — top-k error, ±probabilistic noise", scale);
  TablePrinter table({"k", "train err (noise)", "val err (noise)",
                      "train err (no noise)", "val err (no noise)"});
  for (std::size_t k = 1; k <= on.curves.validation.max_k(); ++k) {
    table.add_row({std::to_string(k), fixed(on.curves.train.error(k), 4),
                   fixed(on.curves.validation.error(k), 4),
                   fixed(off.curves.train.error(k), 4),
                   fixed(off.curves.validation.error(k), 4)});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nChoice rule (min k with val err < %.2f): with noise k=%zu, "
              "without noise k=%zu  (paper: k=4)\n",
              on.fw.detector->timeseries_level().config().theta, on.chosen_k(),
              off.chosen_k());
  std::printf("Training time: %.1f s (noise) / %.1f s (no noise)  "
              "(paper: ~35 min at 2x256, 50 epochs on a 3.4 GHz CPU)\n",
              on.fw.train_seconds, off.fw.train_seconds);
}

void print_table4(const Configuration& on, const bench::BaselineSuite& suite,
                  const bench::Scale& scale) {
  bench::print_header("Table IV — model comparison", scale);
  const Scored& ours = on.at(on.chosen_k());
  TablePrinter table({"Model", "Precision", "Recall", "Accuracy", "F1-score"});
  auto row = [&](const std::string& name, const detect::Confusion& c) {
    table.add_row({name, fixed(c.precision(), 2), fixed(c.recall(), 2),
                   fixed(c.accuracy(), 2), fixed(c.f1(), 2)});
  };
  row("Our framework", ours.confusion);
  for (const auto& b : suite.rows) row(b.name, b.confusion);
  std::printf("%s", table.str().c_str());

  std::printf("\nOur framework details: k=%zu, package-level validation "
              "error=%.4f, train=%.1fs, classify=%.1fµs/pkg, model=%zu KB\n",
              on.chosen_k(), on.fw.detector->package_validation_error(),
              on.fw.train_seconds, ours.us_per_package,
              on.fw.detector->memory_bytes() / 1024);
  std::printf("(paper §VIII-A2: ~35 min training, ~30 µs/classification, "
              "684 KB combined model)\n");
  std::printf("(paper Table IV: ours .94/.78/.92/.85 | BF .97/.59/.87/.73 | "
              "BN .97/.59/.87/.73 | SVDD .95/.21/.76/.34 | IF .51/.13/.70/.20 "
              "| GMM .79/.44/.45/.59 | PCA-SVD .65/.28/.17/.27)\n");
}

void print_table5(const Configuration& on, const bench::BaselineSuite& suite,
                  const bench::Scale& scale) {
  bench::print_header("Table V — detected ratio per attack type", scale);
  const detect::PerAttackRecall& ours = on.at(on.chosen_k()).per_attack;
  std::vector<std::string> header = {"Attack", "n(test)", "Ours"};
  for (const auto& b : suite.rows) header.push_back(b.name);
  TablePrinter table(std::move(header));
  for (const ics::AttackType type : ics::kMaliciousTypes) {
    const auto idx = static_cast<std::size_t>(type);
    std::vector<std::string> row = {std::string(ics::attack_name(type)),
                                    std::to_string(ours.total[idx]),
                                    fixed(ours.ratio(type), 2)};
    for (const auto& b : suite.rows) {
      row.push_back(b.per_attack.total[idx] == 0
                        ? std::string("-")
                        : fixed(b.per_attack.ratio(type), 2));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.str().c_str());
  std::printf("\n(ours is scored per package; baselines per 4-package window "
              "— §VIII-C protocol)\n");
  std::printf("(paper Table V, ours/BF/BN/SVDD/IF/GMM/PCA-SVD: "
              "NMRI .88/.77/.77/.01/.13/.31/.45 | "
              "CMRI .67/.53/.53/.02/.08/.33/.19 | "
              "MSCI .62/.18/.53/.19/.46/.66/.62 | "
              "MPCI .80/.49/.34/.26/.08/.64/.66 | "
              "MFCI 1/1/1/1/0/.32/.54 | DoS .94/.93/.93/.40/.12/.15/.58 | "
              "Recon 1/1/1/1/.12/.72/.54)\n");
}

void print_fig7(const Configuration& on, const Configuration& off,
                const bench::Scale& scale) {
  bench::print_header("Figure 7 — metrics vs k, ±probabilistic noise", scale);
  for (const Configuration* c : {&on, &off}) {
    std::printf(
        "\n--- trained %s probabilistic noise (auto-chosen k=%zu) ---\n",
        c == &on ? "WITH" : "WITHOUT", c->chosen_k());
    TablePrinter table({"k", "precision", "recall", "accuracy", "F1"});
    for (std::size_t k = 1; k <= kFig7MaxK; ++k) {
      const detect::Confusion& res = c->at(k).confusion;
      table.add_row({std::to_string(k), fixed(res.precision(), 3),
                     fixed(res.recall(), 3), fixed(res.accuracy(), 3),
                     fixed(res.f1(), 3)});
    }
    std::printf("%s", table.str().c_str());
  }
  std::printf("\n(paper at k=4 with noise: P=0.94 R=0.78 Acc=0.92 F1=0.85; "
              "noise training mainly lifts precision at small k)\n");
}

/// Bloom filter bits-per-signature versus measured false-positive rate and
/// memory — the §IV-C memory/accuracy trade-off.
void print_bloom_ablation(const bench::Scale& scale) {
  bench::print_header("Ablation — Bloom filter sizing", scale);
  // A synthetic signature population comparable to the gas-pipeline
  // database (hundreds of distinct 64-bit keys).
  const std::size_t n = 1000;
  std::vector<std::uint64_t> members;
  Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    members.push_back(static_cast<std::uint64_t>(rng.uniform_int(
        0, std::numeric_limits<std::int64_t>::max())));
  }
  TablePrinter table({"target FPR", "bits", "bits/key", "k hashes",
                      "measured FPR", "estimated FPR", "memory"});
  for (const double target : {0.1, 0.03, 0.01, 1e-3, 1e-4, 1e-6}) {
    bloom::BloomFilter bf = bloom::BloomFilter::with_capacity(n, target);
    for (std::uint64_t key : members) bf.insert(key);
    std::size_t fp = 0;
    const std::size_t probes = 200000;
    for (std::size_t i = 0; i < probes; ++i) {
      const auto key = static_cast<std::uint64_t>(rng.uniform_int(
          0, std::numeric_limits<std::int64_t>::max()));
      fp += bf.contains(key) ? 1 : 0;
    }
    char target_str[32];
    std::snprintf(target_str, sizeof(target_str), "%g", target);
    table.add_row(
        {target_str, std::to_string(bf.bit_count()),
         fixed(static_cast<double>(bf.bit_count()) / n, 1),
         std::to_string(bf.hash_count()),
         fixed(static_cast<double>(fp) / static_cast<double>(probes), 6),
         fixed(bf.estimated_fpr(), 6),
         std::to_string(bf.memory_bytes()) + " B"});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\n(no false negatives by construction — verified in the test "
              "suite; the paper stores 613 signatures in a filter that is a "
              "negligible share of its 684 KB model budget)\n");
}

void print_dynamic_k(const std::vector<DynamicKRow>& rows,
                     const bench::Scale& scale) {
  bench::print_header("Ablation — fixed k vs dynamic k", scale);
  TablePrinter table({"policy", "precision", "recall", "accuracy", "F1",
                      "final k", "adjustments"});
  for (const DynamicKRow& r : rows) {
    const detect::Confusion& c = r.confusion;
    table.add_row({r.label, fixed(c.precision(), 3), fixed(c.recall(), 3),
                   fixed(c.accuracy(), 3), fixed(c.f1(), 3),
                   std::to_string(r.final_k),
                   r.adjustments ? std::to_string(*r.adjustments) : "-"});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\n(the paper leaves dynamic k as future work; this controller "
              "walks k inside [1,10] to hold the LSTM stage's alarm rate "
              "near the θ budget)\n");
}

void print_false_alarms(const Configuration& on, const bench::Scale& scale) {
  bench::print_header("False alarms by level × packages since last attack",
                      scale);
  const FalseAlarms& fa = on.at(on.chosen_k()).false_alarms;
  std::vector<std::string> header = {"level"};
  for (const char* b : kGapBuckets) header.push_back(b);
  header.push_back("total");
  TablePrinter table(std::move(header));
  const auto row = [&](const char* level,
                       const std::array<std::size_t, kGapBucketCount>& n) {
    std::vector<std::string> cells = {level};
    std::size_t total = 0;
    for (const std::size_t v : n) {
      cells.push_back(std::to_string(v));
      total += v;
    }
    cells.push_back(std::to_string(total));
    table.add_row(std::move(cells));
  };
  row("Bloom", fa.package_level);
  row("LSTM", fa.timeseries_level);
  std::printf("%s", table.str().c_str());
  std::printf("\n(Table IV model, k=%zu; a column counts normal packages "
              "flagged that many packages after an attack package)\n",
              on.chosen_k());
}

// ---- BENCH_quality.json ------------------------------------------------

/// Pretty-printed JSON object writer: members in call order, one per line.
class JsonWriter {
 public:
  void open(std::string_view key) {
    member(key);
    out_ += '{';
    first_.push_back(true);
  }
  void close() {
    first_.pop_back();
    out_ += '\n' + indent() + '}';
  }
  void count(std::string_view key, std::size_t v) {
    member(key);
    out_ += std::to_string(v);
  }
  void ratio(std::string_view key, double v) {
    member(key);
    out_ += fixed(v, 6);
  }
  void boolean(std::string_view key, bool v) {
    member(key);
    out_ += v ? "true" : "false";
  }
  void text(std::string_view key, std::string_view v) {
    member(key);
    out_ += '"';
    out_ += v;
    out_ += '"';
  }
  void counts(std::string_view key, const std::vector<std::size_t>& v) {
    member(key);
    out_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      out_ += (i ? ", " : "") + std::to_string(v[i]);
    }
    out_ += ']';
  }
  std::string finish() {
    close();
    return out_ + '\n';
  }

 private:
  void member(std::string_view key) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
    out_ += '\n' + indent() + '"';
    out_ += key;
    out_ += "\": ";
  }
  std::string indent() const { return std::string(2 * first_.size(), ' '); }

  std::string out_ = "{";
  std::vector<bool> first_ = {true};
};

void json_confusion(JsonWriter& j, std::string_view key,
                    const detect::Confusion& c) {
  j.open(key);
  j.count("tp", c.tp);
  j.count("fp", c.fp);
  j.count("tn", c.tn);
  j.count("fn", c.fn);
  j.ratio("precision", c.precision());
  j.ratio("recall", c.recall());
  j.ratio("accuracy", c.accuracy());
  j.ratio("f1", c.f1());
  j.close();
}

void json_per_attack(JsonWriter& j, std::string_view key,
                     const detect::PerAttackRecall& r) {
  j.open(key);
  for (const ics::AttackType type : ics::kMaliciousTypes) {
    const auto idx = static_cast<std::size_t>(type);
    j.open(ics::attack_name(type));
    j.count("detected", r.detected[idx]);
    j.count("total", r.total[idx]);
    j.close();
  }
  j.close();
}

void json_curve(JsonWriter& j, std::string_view key,
                const nn::TopKErrorCurve& curve) {
  j.open(key);
  j.count("targets", curve.total());
  std::vector<std::size_t> misses;
  for (std::size_t k = 1; k <= curve.max_k(); ++k) {
    misses.push_back(curve.misses(k));
  }
  j.counts("misses_k1_up", misses);
  j.close();
}

void json_configuration(JsonWriter& j, std::string_view key,
                        const Configuration& c) {
  j.open(key);
  j.count("chosen_k", c.chosen_k());
  j.ratio("package_validation_error",
          c.fw.detector->package_validation_error());
  j.open("fig6");
  json_curve(j, "train", c.curves.train);
  json_curve(j, "validation", c.curves.validation);
  j.close();
  j.open("fig7");
  for (std::size_t k = 1; k <= kFig7MaxK; ++k) {
    json_confusion(j, std::string("k").append(std::to_string(k)),
                   c.at(k).confusion);
  }
  j.close();
  j.close();
}

std::string quality_json(const bench::Scale& scale,
                         const ics::SimulationResult& capture,
                         const ics::DatasetSplit& split,
                         const sig::GranularityResult& grid,
                         const Configuration& on, const Configuration& off,
                         const bench::BaselineSuite& suite,
                         const std::vector<DynamicKRow>& dynamic_rows) {
  JsonWriter j;
  j.text("bench", "bench_paper");
  j.text("scale", scale.name);
  j.count("hardware_threads", std::thread::hardware_concurrency());
  j.open("results");

  j.open("table2");
  j.count("packages", capture.packages.size());
  j.open("census");
  for (std::size_t i = 0; i < ics::kAttackTypeCount; ++i) {
    j.count(ics::attack_name(static_cast<ics::AttackType>(i)),
            capture.census[i]);
  }
  j.close();
  j.count("train_packages", split.train_size());
  j.count("validation_packages", split.validation_size());
  j.count("test_packages", split.test.size());
  j.close();

  j.open("fig5");
  for (const auto& p : grid.evaluated) {
    j.open("pressure" + std::to_string(p.bins[0]) + "_setpoint" +
           std::to_string(p.bins[1]));
    j.count("unique_signatures", p.unique_signatures);
    j.ratio("validation_error", p.validation_error);
    j.close();
  }
  j.open("chosen");
  j.count("pressure_bins", grid.best.bins[0]);
  j.count("setpoint_bins", grid.best.bins[1]);
  j.boolean("feasible", grid.feasible);
  j.close();
  j.close();

  json_configuration(j, "noise_on", on);
  json_configuration(j, "noise_off", off);

  const Scored& ours = on.at(on.chosen_k());
  j.open("table4");
  json_confusion(j, "ours", ours.confusion);
  for (const auto& b : suite.rows) json_confusion(j, b.name, b.confusion);
  j.close();
  j.open("table5");
  json_per_attack(j, "ours", ours.per_attack);
  for (const auto& b : suite.rows) json_per_attack(j, b.name, b.per_attack);
  j.close();

  j.open("dynamic_k");
  for (const DynamicKRow& r : dynamic_rows) {
    j.open(r.key);
    j.count("tp", r.confusion.tp);
    j.count("fp", r.confusion.fp);
    j.count("tn", r.confusion.tn);
    j.count("fn", r.confusion.fn);
    j.count("final_k", r.final_k);
    if (r.adjustments) j.count("adjustments", *r.adjustments);
    j.close();
  }
  j.close();

  j.open("false_alarms");
  for (const auto& [level, n] :
       {std::pair{"package_level", ours.false_alarms.package_level},
        std::pair{"timeseries_level", ours.false_alarms.timeseries_level}}) {
    j.open(level);
    for (std::size_t b = 0; b < kGapBucketCount; ++b) {
      j.count(kGapBuckets[b], n[b]);
    }
    j.close();
  }
  j.close();

  j.close();  // results
  return j.finish();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  Stopwatch wall;
  const bench::Scale scale = bench::scale_from_env();
  const ics::SimulationResult capture = bench::make_capture(scale);

  // The two configurations share nothing mutable (only the const capture),
  // so they train on their own threads with the same results as in turn.
  const auto launch = [&](bool noise) {
    return std::async(std::launch::async, run_configuration,
                      std::cref(capture), std::cref(scale), noise);
  };
  std::future<Configuration> on_future = launch(true);
  std::future<Configuration> off_future = launch(false);

  // Everything that needs no trained framework runs meanwhile. The split
  // is the one train_framework makes (same capture, same SplitConfig).
  const ics::DatasetSplit split =
      ics::split_dataset(capture.packages, bench::pipeline_config(scale).split);
  const double fig5_theta = 0.03;
  const sig::GranularityResult grid = fig5_grid(split, fig5_theta);
  const bench::BaselineSuite suite = bench::run_baselines(capture, split);
  print_table2(capture, split, scale);
  print_fig4(split, scale);
  print_fig5(grid, fig5_theta, scale);

  const Configuration on = on_future.get();
  const Configuration off = off_future.get();
  const std::vector<DynamicKRow> dynamic_rows = dynamic_k_rows(on);

  print_fig6(on, off, scale);
  print_table4(on, suite, scale);
  print_table5(on, suite, scale);
  print_fig7(on, off, scale);
  print_bloom_ablation(scale);
  print_dynamic_k(dynamic_rows, scale);
  print_false_alarms(on, scale);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string doc = quality_json(scale, capture, split, grid, on, off,
                                         suite, dynamic_rows);
    const bool written = std::fputs(doc.c_str(), f) >= 0;
    if (std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  std::printf("\nbench_paper wall time: %.1f s\n", wall.elapsed_seconds());
  return 0;
}

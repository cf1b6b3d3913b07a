// One field table per mirrored stats struct (DESIGN.md §14). A stats
// struct that is all std::uint64_t fields (EngineStats, IngestStats,
// SourceHealth) declares, next to itself, one StatField per field: its
// registry name, its member pointer and its cross-owner merge rule. Every
// other view is derived from that table:
//
//   · StatMirror binds one registry instrument per field (kSum → Counter,
//     kMax → Gauge) and publishes the struct with one relaxed store each;
//   · merge_stats folds per-owner structs (shards, queues) field by field;
//   · MetricsRegistry::snapshot() folds same-name instruments with the same
//     merge_value(), so a registry snapshot of a sharded run equals the
//     merge_stats of its shards by construction.
//
// covers_every_field() goes into a static_assert beside each table: a field
// added to the struct without a table entry fails to compile.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"

namespace mlad::obs {

/// How same-name values of different owners combine: totals sum, peaks
/// (and the serving model version) take the max — summing per-shard peaks
/// would report a high-water mark no single owner ever saw.
enum class Merge { kSum, kMax };

/// The one merge rule, shared by merge_stats and MetricsRegistry::snapshot.
constexpr std::uint64_t merge_value(Merge merge, std::uint64_t acc,
                                    std::uint64_t v) {
  return merge == Merge::kSum ? acc + v : std::max(acc, v);
}

template <typename T>
struct StatField {
  std::string_view name;  ///< registry name
  std::uint64_t T::*member;
  Merge merge;
};

/// True when `table` names every field of T exactly once: T holds nothing
/// but N std::uint64_t fields, every entry has a member (an array declared
/// longer than its initializer leaves null ones), and no member repeats.
template <typename T, std::size_t N>
constexpr bool covers_every_field(const std::array<StatField<T>, N>& table) {
  if (sizeof(T) != N * sizeof(std::uint64_t)) return false;
  for (std::size_t i = 0; i < N; ++i) {
    if (table[i].member == nullptr) return false;
    for (std::size_t j = i + 1; j < N; ++j) {
      if (table[i].member == table[j].member) return false;
    }
  }
  return true;
}

/// Field-by-field merge of per-owner stats under each field's rule.
template <typename T, std::size_t N>
T merge_stats(std::span<const std::type_identity_t<T>> parts,
              const std::array<StatField<T>, N>& table) {
  T out{};
  for (const T& part : parts) {
    for (const StatField<T>& f : table) {
      out.*f.member = merge_value(f.merge, out.*f.member, part.*f.member);
    }
  }
  return out;
}

/// Registry mirror of one owner's stats struct. The struct stays the
/// hot-path store (plain increments on the owning thread); publish() copies
/// it into the owner's instruments with one relaxed store per field. A
/// default-constructed (unbound) mirror publishes nothing.
template <typename T>
class StatMirror {
 public:
  StatMirror() = default;

  template <std::size_t N>
  StatMirror(MetricsRegistry& registry,
             const std::array<StatField<T>, N>& table)
      : table_(table) {
    cells_.reserve(N);
    for (const StatField<T>& f : table) {
      cells_.push_back(f.merge == Merge::kSum
                           ? static_cast<Cell*>(&registry.counter(f.name))
                           : &registry.gauge(f.name));
    }
  }

  void publish(const T& stats) const {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i]->set(stats.*table_[i].member);
    }
  }

 private:
  std::span<const StatField<T>> table_;
  std::vector<Cell*> cells_;
};

}  // namespace mlad::obs

// Package (content) level anomaly detector (§IV): discretize x(t) → c(t),
// generate the signature s(x(t)), and test membership in the Bloom filter
// that stores the anomaly-free signature database.
//
//   F_p(x(t)) = 1  iff  s(x(t)) ∉ B
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include <cstdint>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "common/rng.hpp"
#include "signature/discretizer.hpp"
#include "signature/signature_db.hpp"

namespace mlad::sigdb {
class SigDbView;
}  // namespace mlad::sigdb

namespace mlad::detect {

struct PackageDetectorConfig {
  /// FPR budget of the Bloom filter itself, *on top of* the discretization
  /// validation error (kept tiny so the filter never dominates).
  double bloom_fpr = 1e-4;
};

/// Result of classifying one package at the content level.
struct PackageVerdict {
  bool anomaly = false;
  sig::DiscreteRow discrete;                ///< c(t)
  std::optional<std::size_t> signature_id;  ///< dense id when in the database
};

class PackageLevelDetector {
 public:
  /// Fit discretizer on `train_rows` with `specs`, build the signature
  /// database and its Bloom filter.
  PackageLevelDetector(std::span<const sig::RawRow> train_rows,
                       std::span<const sig::FeatureSpec> specs, Rng& rng,
                       const PackageDetectorConfig& config = {});

  /// Reassemble from persisted components (deserialization path).
  PackageLevelDetector(sig::Discretizer discretizer,
                       sig::SignatureDatabase database,
                       bloom::BloomFilter bloom);

  /// Classify one raw package feature vector.
  PackageVerdict classify(std::span<const double> raw) const;

  /// Reusable buffers for classify_batch (member of the caller, so the
  /// batch path allocates nothing per tick after warm-up).
  struct BatchScratch {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> ids;
    std::vector<std::uint8_t> in_bloom;
  };

  /// Batched classify: out[i] == classify(rows[i]) for i < rows.size()
  /// (same Bloom bits, same ids). `out` is grown to rows.size() but never
  /// shrunk: entries past it keep their row buffers, so batches of varying
  /// size allocate nothing once warm. The signature checks run as one
  /// batched membership + id-lookup pass — through the attached SigDbView's
  /// kernel-dispatched query_batch when present, else the in-RAM
  /// contains_batch / lookup_batch pair.
  void classify_batch(std::span<const std::span<const double>> rows,
                      std::vector<PackageVerdict>& out,
                      BatchScratch& scratch) const;

  /// Route signature membership + id lookups through an mmap-backed .sigdb
  /// view instead of the in-RAM map/filter. The view must embed the SAME
  /// verdict Bloom filter (save_compact with options.bloom = &bloom()) for
  /// verdicts to stay bit-identical, and must outlive this detector.
  /// Pass nullptr to detach.
  void attach_sigdb(const sigdb::SigDbView* view) { sigdb_ = view; }
  const sigdb::SigDbView* attached_sigdb() const { return sigdb_; }

  /// Validation error = estimated package-level FPR (§IV-B): fraction of
  /// (anomaly-free) rows whose signature misses the database.
  double validation_error(std::span<const sig::RawRow> rows) const;

  const sig::Discretizer& discretizer() const { return discretizer_; }
  const sig::SignatureDatabase& database() const { return database_; }
  const bloom::BloomFilter& bloom() const { return bloom_; }

  /// Bloom bit-array + discretizer footprint (paper §VIII-A2 reports the
  /// combined model at 684 KB).
  std::size_t memory_bytes() const;

 private:
  sig::Discretizer discretizer_;
  sig::SignatureDatabase database_;
  bloom::BloomFilter bloom_;
  const sigdb::SigDbView* sigdb_ = nullptr;  ///< not owned; nullable
};

}  // namespace mlad::detect

#include "detect/package_detector.hpp"

#include "sigdb/sigdb_view.hpp"

namespace mlad::detect {
namespace {

sig::SignatureDatabase build_database(const sig::Discretizer& discretizer,
                                      std::span<const sig::RawRow> rows) {
  sig::SignatureDatabase db{sig::SignatureGenerator(discretizer.cardinalities())};
  for (const auto& row : rows) db.add(discretizer.transform(row));
  return db;
}

}  // namespace

PackageLevelDetector::PackageLevelDetector(
    std::span<const sig::RawRow> train_rows,
    std::span<const sig::FeatureSpec> specs, Rng& rng,
    const PackageDetectorConfig& config)
    : discretizer_(sig::Discretizer::fit(train_rows, specs, rng)),
      database_(build_database(discretizer_, train_rows)),
      bloom_(database_.make_bloom(config.bloom_fpr)) {}

PackageLevelDetector::PackageLevelDetector(sig::Discretizer discretizer,
                                           sig::SignatureDatabase database,
                                           bloom::BloomFilter bloom)
    : discretizer_(std::move(discretizer)),
      database_(std::move(database)),
      bloom_(std::move(bloom)) {}

PackageVerdict PackageLevelDetector::classify(
    std::span<const double> raw) const {
  PackageVerdict v;
  v.discrete = discretizer_.transform(raw);
  const std::uint64_t key = database_.generator().pack(v.discrete);
  if (sigdb_ != nullptr) {
    const std::uint32_t id = sigdb_->query(key);
    if (id != sigdb::kNoId) v.signature_id = id;
    v.anomaly = !sigdb_->bloom_contains(key);
    return v;
  }
  v.signature_id = database_.id_of_key(key);
  // The Bloom filter is the deployed membership test (F_p); the id lookup
  // above resolves the LSTM class index for packages that pass.
  v.anomaly = !bloom_.contains(key);
  return v;
}

void PackageLevelDetector::classify_batch(
    std::span<const std::span<const double>> rows,
    std::vector<PackageVerdict>& out, BatchScratch& scratch) const {
  const std::size_t n = rows.size();
  if (out.size() < n) out.resize(n);
  scratch.keys.resize(n);
  scratch.ids.resize(n);
  scratch.in_bloom.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    discretizer_.transform_into(rows[i], out[i].discrete);
    scratch.keys[i] = database_.generator().pack(out[i].discrete);
  }
  const std::span<const std::uint64_t> keys{scratch.keys};
  if (sigdb_ != nullptr) {
    sigdb_->query_batch(keys, scratch.ids.data());
    sigdb_->bloom_contains_batch(keys, scratch.in_bloom.data());
  } else {
    database_.lookup_batch(keys, scratch.ids.data());
    bloom_.contains_batch(keys, scratch.in_bloom.data());
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (scratch.ids[i] != sig::SignatureDatabase::kNoId) {
      out[i].signature_id = scratch.ids[i];
    } else {
      out[i].signature_id.reset();
    }
    out[i].anomaly = scratch.in_bloom[i] == 0;
  }
}

double PackageLevelDetector::validation_error(
    std::span<const sig::RawRow> rows) const {
  if (rows.empty()) return 0.0;
  std::size_t misses = 0;
  for (const auto& row : rows) {
    if (classify(row).anomaly) ++misses;
  }
  return static_cast<double>(misses) / static_cast<double>(rows.size());
}

std::size_t PackageLevelDetector::memory_bytes() const {
  // Bit array + per-feature centroid tables (coarse but honest estimate).
  std::size_t bytes = bloom_.memory_bytes();
  for (std::size_t i = 0; i < discretizer_.feature_count(); ++i) {
    const auto& f = discretizer_.feature(i);
    bytes += f.observed_values.size() * sizeof(double);
    if (f.kmeans) {
      for (const auto& c : f.kmeans->centroids) bytes += c.size() * sizeof(double);
      bytes += f.kmeans->max_radius.size() * sizeof(double);
    }
  }
  return bytes;
}

}  // namespace mlad::detect

// Zero-copy mmap-backed reader for .sigdb signature indexes (DESIGN.md
// §13). Opening validates the header, its CRC, and every section-table
// bound, but touches none of the payload pages — a 10⁸-signature index
// opens in O(pages touched), and pages fault in lazily as shards are
// probed. Pass verify_payload=true (or run `mlad sigdb check`) to also fold
// the payload CRC, which reads the whole file once.
//
// Lifetime/ownership: the view owns the mapping (move-only, munmap in the
// destructor); every span/pointer accessor aliases the mapping and is
// invalidated when the view is destroyed or moved-from. Queries are const
// and lock-free — concurrent readers on one view are safe; a view must
// outlive any detector it is attached to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "sigdb/sigdb_format.hpp"

namespace mlad::sigdb {

class SigDbView {
 public:
  /// mmap `path` read-only and validate magic, version, header CRC and
  /// section bounds; verify_payload additionally folds the payload CRC.
  /// Throws std::runtime_error on any validation or I/O failure.
  static SigDbView open(const std::string& path, bool verify_payload = false);

  SigDbView(SigDbView&& other) noexcept;
  SigDbView& operator=(SigDbView&& other) noexcept;
  SigDbView(const SigDbView&) = delete;
  SigDbView& operator=(const SigDbView&) = delete;
  ~SigDbView();

  /// Number of distinct signatures n.
  std::uint64_t size() const { return n_; }
  std::uint64_t total_observations() const { return total_observations_; }
  std::uint32_t feature_count() const { return feature_count_; }
  std::uint32_t shard_bits() const { return shard_bits_; }
  std::uint64_t file_bytes() const { return bytes_; }
  std::span<const std::uint64_t> cardinalities() const { return cards_; }

  /// Dense id of `key`, or kNoId — per-shard Bloom prefilter, then an
  /// Eytzinger search of the shard block. Exact (the prefilter has no false
  /// negatives, and hits are confirmed by key comparison).
  std::uint32_t query(std::uint64_t key) const;

  /// Batched query: ids[i] = query(keys[i]) bitwise, executed as hoisted
  /// shard/prefilter resolution plus one level-synchronous Eytzinger walk
  /// (sigdb_lookup.hpp) over the surviving keys. Thread-safe (per-call
  /// stack scratch only).
  void query_batch(std::span<const std::uint64_t> keys,
                   std::uint32_t* ids) const;

  /// Probe of the embedded verdict Bloom filter — bit-identical to
  /// BloomFilter::contains on the filter save_compact embedded, including
  /// its false positives (the package-level verdict contract).
  bool bloom_contains(std::uint64_t key) const;

  /// Batched verdict probe: out[i] = bloom_contains(keys[i]) with hoisted
  /// hash setup and first-word prefetch (mirrors BloomFilter::contains_batch).
  void bloom_contains_batch(std::span<const std::uint64_t> keys,
                            std::uint8_t* out) const;

  std::uint64_t bloom_bit_count() const { return bloom_bits_; }
  std::uint64_t bloom_hash_count() const { return bloom_hashes_; }
  std::uint64_t bloom_inserted() const { return bloom_inserted_; }
  /// The embedded verdict filter's raw words (for parity checks).
  std::span<const std::uint64_t> bloom_words() const { return bloom_words_; }

  /// Reverse maps over dense ids (throw std::out_of_range beyond n).
  std::uint64_t key_of(std::uint32_t id) const;
  std::uint64_t count_of(std::uint32_t id) const;

  /// Full-file validation (header + payload CRC + section bounds) without
  /// keeping a mapping — the `mlad sigdb check` entry point.
  static void verify_file(const std::string& path);

 private:
  SigDbView() = default;

  void parse_and_validate(bool verify_payload, const std::string& path);
  void release();
  /// Shard of a key; 0 when shard_bits_ == 0 (>> 64 would be UB).
  std::uint64_t shard_of(std::uint64_t key) const;

  const unsigned char* base_ = nullptr;  ///< mapping base (nullptr = empty)
  std::size_t bytes_ = 0;
  int fd_ = -1;

  // Decoded header fields and section pointers (alias the mapping).
  std::uint64_t n_ = 0;
  std::uint64_t total_observations_ = 0;
  std::uint32_t feature_count_ = 0;
  std::uint32_t shard_bits_ = 0;
  std::span<const std::uint64_t> cards_;
  std::uint64_t bloom_bits_ = 0;
  std::uint64_t bloom_hashes_ = 0;
  std::uint64_t bloom_inserted_ = 0;
  std::span<const std::uint64_t> bloom_words_;
  const std::uint64_t* shard_dir_ = nullptr;  ///< {node_begin, count} pairs
  const std::uint64_t* keys_eytz_ = nullptr;
  const std::uint32_t* ids_eytz_ = nullptr;
  const std::uint64_t* keys_by_id_ = nullptr;
  const std::uint64_t* counts_by_id_ = nullptr;
  std::uint64_t prefilter_bits_ = 0;
  std::uint64_t prefilter_hashes_ = 0;
  std::uint64_t prefilter_blocks_ = 0;  ///< 512-bit blocks per shard
  std::uint64_t prefilter_words_per_shard_ = 0;
  const std::uint64_t* prefilter_words_ = nullptr;
};

}  // namespace mlad::sigdb

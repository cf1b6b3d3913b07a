#include "sigdb/sigdb_view.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "bloom/hashing.hpp"
#include "sigdb/sigdb_lookup.hpp"

namespace mlad::sigdb {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("SigDbView: " + path + ": " + what);
}

std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

SigDbView SigDbView::open(const std::string& path, bool verify_payload) {
  SigDbView v;
  v.fd_ = ::open(path.c_str(), O_RDONLY);
  if (v.fd_ < 0) fail(path, std::string("open: ") + std::strerror(errno));
  struct stat st{};
  if (fstat(v.fd_, &st) != 0) {
    fail(path, std::string("fstat: ") + std::strerror(errno));
  }
  if (st.st_size <= 0) fail(path, "empty file");
  v.bytes_ = static_cast<std::size_t>(st.st_size);
  void* map = mmap(nullptr, v.bytes_, PROT_READ, MAP_PRIVATE, v.fd_, 0);
  if (map == MAP_FAILED) {
    fail(path, std::string("mmap: ") + std::strerror(errno));
  }
  v.base_ = static_cast<const unsigned char*>(map);
  v.parse_and_validate(verify_payload, path);
  return v;
}

SigDbView::SigDbView(SigDbView&& other) noexcept {
  *this = std::move(other);
}

SigDbView& SigDbView::operator=(SigDbView&& other) noexcept {
  if (this != &other) {
    release();
    // All members are trivially copyable (raw pointers, integers, spans
    // aliasing the mapping); ownership transfers with base_/fd_.
    base_ = other.base_;
    bytes_ = other.bytes_;
    fd_ = other.fd_;
    n_ = other.n_;
    total_observations_ = other.total_observations_;
    feature_count_ = other.feature_count_;
    shard_bits_ = other.shard_bits_;
    cards_ = other.cards_;
    bloom_bits_ = other.bloom_bits_;
    bloom_hashes_ = other.bloom_hashes_;
    bloom_inserted_ = other.bloom_inserted_;
    bloom_words_ = other.bloom_words_;
    shard_dir_ = other.shard_dir_;
    keys_eytz_ = other.keys_eytz_;
    ids_eytz_ = other.ids_eytz_;
    keys_by_id_ = other.keys_by_id_;
    counts_by_id_ = other.counts_by_id_;
    prefilter_bits_ = other.prefilter_bits_;
    prefilter_hashes_ = other.prefilter_hashes_;
    prefilter_blocks_ = other.prefilter_blocks_;
    prefilter_words_per_shard_ = other.prefilter_words_per_shard_;
    prefilter_words_ = other.prefilter_words_;
    other.base_ = nullptr;
    other.bytes_ = 0;
    other.fd_ = -1;
  }
  return *this;
}

SigDbView::~SigDbView() { release(); }

void SigDbView::release() {
  if (base_ != nullptr) {
    munmap(const_cast<unsigned char*>(base_), bytes_);
    base_ = nullptr;
    bytes_ = 0;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SigDbView::parse_and_validate(bool verify_payload,
                                   const std::string& path) {
  if (bytes_ < kHeaderBytes + kSectionTableBytes) fail(path, "truncated header");
  if (std::memcmp(base_, kMagic, sizeof(kMagic)) != 0) fail(path, "bad magic");
  const std::uint32_t version = load_u32(base_ + 8);
  if (version != kVersion) {
    fail(path, "unsupported version " + std::to_string(version));
  }
  const std::uint32_t stored_header_crc = load_u32(base_ + 52);
  if (crc32(base_, 52) != stored_header_crc) fail(path, "header CRC mismatch");
  n_ = load_u64(base_ + 16);
  total_observations_ = load_u64(base_ + 24);
  feature_count_ = load_u32(base_ + 32);
  shard_bits_ = load_u32(base_ + 36);
  if (shard_bits_ > 32) fail(path, "implausible shard_bits");
  const std::uint64_t payload_bytes = load_u64(base_ + 40);
  if (payload_bytes != bytes_ - kHeaderBytes) {
    fail(path, "payload size mismatch (truncated or padded file)");
  }
  if (verify_payload) {
    const std::uint32_t stored_payload_crc = load_u32(base_ + 48);
    if (crc32(base_ + kHeaderBytes, bytes_ - kHeaderBytes) !=
        stored_payload_crc) {
      fail(path, "payload CRC mismatch");
    }
  }

  SectionEntry sec[kSectionCount];
  std::memcpy(sec, base_ + kHeaderBytes, kSectionTableBytes);
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    if (sec[i].offset % kSectionAlign != 0 ||
        sec[i].offset < kHeaderBytes + kSectionTableBytes ||
        sec[i].offset > bytes_ || sec[i].bytes > bytes_ - sec[i].offset) {
      fail(path, "section " + std::to_string(i) + " out of bounds");
    }
  }
  const auto sec_ptr = [&](Section s) { return base_ + sec[s].offset; };

  const std::uint64_t num_shards = 1ull << shard_bits_;
  if (sec[kSecCardinalities].bytes != feature_count_ * 8ull) {
    fail(path, "cardinalities size mismatch");
  }
  cards_ = {reinterpret_cast<const std::uint64_t*>(sec_ptr(kSecCardinalities)),
            feature_count_};

  if (sec[kSecBloomGeom].bytes != 24) fail(path, "bloom geometry size mismatch");
  bloom_bits_ = load_u64(sec_ptr(kSecBloomGeom));
  bloom_hashes_ = load_u64(sec_ptr(kSecBloomGeom) + 8);
  bloom_inserted_ = load_u64(sec_ptr(kSecBloomGeom) + 16);
  if (bloom_bits_ == 0 || bloom_hashes_ == 0) fail(path, "bad bloom geometry");
  const std::uint64_t bloom_words = (bloom_bits_ + 63) / 64;
  if (sec[kSecBloomWords].bytes != bloom_words * 8) {
    fail(path, "bloom words size mismatch");
  }
  bloom_words_ = {
      reinterpret_cast<const std::uint64_t*>(sec_ptr(kSecBloomWords)),
      static_cast<std::size_t>(bloom_words)};

  if (sec[kSecShardDir].bytes != num_shards * 16) {
    fail(path, "shard directory size mismatch");
  }
  shard_dir_ = reinterpret_cast<const std::uint64_t*>(sec_ptr(kSecShardDir));

  const std::uint64_t eytz_elems = sec[kSecKeysEytz].bytes / 8;
  if (sec[kSecKeysEytz].bytes % 8 != 0 || eytz_elems != num_shards + n_) {
    fail(path, "eytzinger key section size mismatch");
  }
  if (sec[kSecIdsEytz].bytes != eytz_elems * 4) {
    fail(path, "eytzinger id section size mismatch");
  }
  keys_eytz_ = reinterpret_cast<const std::uint64_t*>(sec_ptr(kSecKeysEytz));
  ids_eytz_ = reinterpret_cast<const std::uint32_t*>(sec_ptr(kSecIdsEytz));
  // Every shard block (sentinel + count nodes) must sit inside the section,
  // so a crafted directory cannot walk a query out of the mapping.
  for (std::uint64_t s = 0; s < num_shards; ++s) {
    const std::uint64_t begin = shard_dir_[2 * s];
    const std::uint64_t count = shard_dir_[2 * s + 1];
    if (begin >= eytz_elems || count > eytz_elems - begin - 1) {
      fail(path, "shard block out of bounds");
    }
  }

  if (sec[kSecKeysById].bytes != n_ * 8 || sec[kSecCountsById].bytes != n_ * 8) {
    fail(path, "dense-id section size mismatch");
  }
  keys_by_id_ = reinterpret_cast<const std::uint64_t*>(sec_ptr(kSecKeysById));
  counts_by_id_ =
      reinterpret_cast<const std::uint64_t*>(sec_ptr(kSecCountsById));

  if (sec[kSecShardBlooms].bytes < kPrefilterGeomBytes) {
    fail(path, "prefilter section truncated");
  }
  prefilter_bits_ = load_u64(sec_ptr(kSecShardBlooms));
  prefilter_hashes_ = load_u64(sec_ptr(kSecShardBlooms) + 8);
  if (prefilter_bits_ == 0 || prefilter_bits_ % kPrefilterBlockBits != 0 ||
      prefilter_hashes_ == 0 || prefilter_hashes_ > kPrefilterBlockBits) {
    fail(path, "bad prefilter geometry");
  }
  prefilter_blocks_ = prefilter_bits_ / kPrefilterBlockBits;
  prefilter_words_per_shard_ = prefilter_bits_ / 64;
  if (sec[kSecShardBlooms].bytes - kPrefilterGeomBytes !=
      num_shards * prefilter_words_per_shard_ * 8) {
    fail(path, "prefilter section size mismatch");
  }
  prefilter_words_ = reinterpret_cast<const std::uint64_t*>(
      sec_ptr(kSecShardBlooms) + kPrefilterGeomBytes);
}

std::uint64_t SigDbView::shard_of(std::uint64_t key) const {
  // base_hashes(key).h1 IS splitmix64(key); callers with the HashPair in
  // hand take hp.h1 >> (64 - shard_bits_) directly.
  return shard_bits_ == 0 ? 0
                          : bloom::splitmix64(key) >> (64 - shard_bits_);
}

std::uint32_t SigDbView::query(std::uint64_t key) const {
  const bloom::HashPair hp = bloom::base_hashes(key);
  const std::uint64_t s = shard_bits_ == 0 ? 0 : hp.h1 >> (64 - shard_bits_);
  const std::uint64_t* block =
      prefilter_words_ + s * prefilter_words_per_shard_ +
      prefilter_block_of(hp, prefilter_blocks_) * kPrefilterBlockWords;
  std::uint64_t mask[kPrefilterBlockWords];
  prefilter_mask_of(hp, prefilter_hashes_, mask);
  if (!prefilter_probe(block, mask)) {
    return kNoId;  // no false negatives ⇒ the key is definitely absent
  }
  const std::uint64_t begin = shard_dir_[2 * s];
  const std::uint64_t count = shard_dir_[2 * s + 1];
  const std::uint32_t pos =
      detail::sigdb_lookup_one(keys_eytz_ + begin, count, key);
  return pos == 0 ? kNoId : ids_eytz_[begin + pos];
}

void SigDbView::query_batch(std::span<const std::uint64_t> keys,
                            std::uint32_t* ids) const {
  // Per chunk: hoist every key's hash pair + shard (prefetching the first
  // prefilter word), run the prefilter, then hand the survivors to the
  // level-synchronous Eytzinger walk. The per-key decision sequence
  // is exactly query()'s, so results are bitwise identical to the singles.
  constexpr std::size_t kChunk = 64;
  bloom::HashPair hps[kChunk];
  std::uint64_t shard[kChunk];
  const std::uint64_t* block[kChunk];
  std::uint64_t nb[kChunk], nc[kChunk], ks[kChunk];
  std::uint32_t pos[kChunk];
  std::size_t qidx[kChunk];
  for (std::size_t at = 0; at < keys.size(); at += kChunk) {
    const std::size_t cn = std::min(kChunk, keys.size() - at);
    for (std::size_t i = 0; i < cn; ++i) {
      hps[i] = bloom::base_hashes(keys[at + i]);
      shard[i] = shard_bits_ == 0 ? 0 : hps[i].h1 >> (64 - shard_bits_);
      // The whole prefilter probe lives in ONE cache line — prefetch it so
      // the probe loop below runs at full memory-level parallelism.
      block[i] = prefilter_words_ + shard[i] * prefilter_words_per_shard_ +
                 prefilter_block_of(hps[i], prefilter_blocks_) *
                     kPrefilterBlockWords;
      __builtin_prefetch(block[i]);
    }
    std::size_t m = 0;
    for (std::size_t i = 0; i < cn; ++i) {
      std::uint64_t mask[kPrefilterBlockWords];
      prefilter_mask_of(hps[i], prefilter_hashes_, mask);
      if (!prefilter_probe(block[i], mask)) {
        ids[at + i] = kNoId;
        continue;
      }
      nb[m] = shard_dir_[2 * shard[i]];
      nc[m] = shard_dir_[2 * shard[i] + 1];
      ks[m] = keys[at + i];
      qidx[m] = at + i;
      __builtin_prefetch(&keys_eytz_[nb[m] + 1]);  // root of the block
      ++m;
    }
    detail::sigdb_lookup_levelsync(keys_eytz_, nb, nc, ks, pos, 0, m);
    for (std::size_t j = 0; j < m; ++j) {
      ids[qidx[j]] = pos[j] == 0 ? kNoId : ids_eytz_[nb[j] + pos[j]];
    }
  }
}

bool SigDbView::bloom_contains(std::uint64_t key) const {
  return bloom::bloom_probe_words(bloom_words_.data(), bloom_bits_,
                                  static_cast<std::uint32_t>(bloom_hashes_),
                                  bloom::base_hashes(key));
}

void SigDbView::bloom_contains_batch(std::span<const std::uint64_t> keys,
                                     std::uint8_t* out) const {
  constexpr std::size_t kChunk = 32;
  bloom::HashPair hp[kChunk];
  for (std::size_t at = 0; at < keys.size(); at += kChunk) {
    const std::size_t n = std::min(kChunk, keys.size() - at);
    for (std::size_t i = 0; i < n; ++i) {
      hp[i] = bloom::base_hashes(keys[at + i]);
      const std::uint64_t pos = bloom::nth_hash(hp[i], 0, bloom_bits_);
      __builtin_prefetch(&bloom_words_[pos >> 6]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[at + i] = bloom::bloom_probe_words(
                        bloom_words_.data(), bloom_bits_,
                        static_cast<std::uint32_t>(bloom_hashes_), hp[i])
                        ? 1
                        : 0;
    }
  }
}

std::uint64_t SigDbView::key_of(std::uint32_t id) const {
  if (id >= n_) throw std::out_of_range("SigDbView::key_of: id out of range");
  return keys_by_id_[id];
}

std::uint64_t SigDbView::count_of(std::uint32_t id) const {
  if (id >= n_) throw std::out_of_range("SigDbView::count_of: id out of range");
  return counts_by_id_[id];
}

void SigDbView::verify_file(const std::string& path) {
  (void)open(path, /*verify_payload=*/true);
}

}  // namespace mlad::sigdb

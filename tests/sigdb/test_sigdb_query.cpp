// Batched query determinism (DESIGN.md §13): query_batch must equal the
// per-key singles bit-for-bit — the Eytzinger walk is exact integer search,
// so unlike the float kernels there is no rounding latitude at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bloom/hashing.hpp"
#include "sigdb/sigdb_view.hpp"
#include "signature/signature_db.hpp"

namespace mlad::sigdb {
namespace {

sig::SignatureDatabase make_db(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  std::uint64_t x = seed;
  while (keys.size() < n) keys.push_back(bloom::splitmix64(++x) >> 1);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  while (keys.size() < n) keys.push_back(keys.back() + 1);
  std::vector<std::size_t> counts(keys.size(), 1);
  return sig::SignatureDatabase::from_parts(
      sig::SignatureGenerator({1u << 15, 1u << 16, 1u << 16, 1u << 16}),
      std::move(keys), std::move(counts));
}

/// Query mix: hits, near-misses (stored key ± 1) and far misses.
std::vector<std::uint64_t> make_queries(const sig::SignatureDatabase& db,
                                        std::size_t count,
                                        std::uint64_t seed) {
  std::vector<std::uint64_t> q(count);
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t r = bloom::splitmix64(++x);
    const std::size_t id = static_cast<std::size_t>(r % db.size());
    switch (i % 4) {
      case 0: q[i] = db.key_of(id); break;           // hit
      case 1: q[i] = db.key_of(id) + 1; break;       // near miss
      case 2: q[i] = db.key_of(id) - 1; break;       // near miss
      default: q[i] = r; break;                      // random
    }
  }
  return q;
}

struct SigDbQuery : ::testing::Test {
  void SetUp() override {
    db = std::make_unique<sig::SignatureDatabase>(make_db(20000, 99));
    path = ::testing::TempDir() + "query.sigdb";
    db->save_compact(path);
    view = std::make_unique<SigDbView>(SigDbView::open(path));
  }
  void TearDown() override {
    view.reset();
    std::remove(path.c_str());
  }
  std::unique_ptr<sig::SignatureDatabase> db;
  std::unique_ptr<SigDbView> view;
  std::string path;
};

TEST_F(SigDbQuery, BatchMatchesSinglesAndMap) {
  const auto queries = make_queries(*db, 4096, 7);
  // Reference: the in-RAM hash map.
  std::vector<std::uint32_t> expect(queries.size());
  db->lookup_batch(queries, expect.data());
  // Singles through the view agree with the map (exact search).
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(view->query(queries[i]), expect[i]) << "i=" << i;
  }
  std::vector<std::uint32_t> got(queries.size(), 0xABABABAB);
  view->query_batch(queries, got.data());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(got[i], expect[i]) << "i=" << i;
  }
}

TEST_F(SigDbQuery, BatchHandlesRemainderLanes) {
  // Sizes around the chunk width (64) exercise the partial last chunk.
  for (const std::size_t n :
       {0ul, 1ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 63ul, 64ul, 65ul, 130ul}) {
    const auto queries = make_queries(*db, n, 1000 + n);
    std::vector<std::uint32_t> got(n + 1, 0xCDCDCDCD);
    view->query_batch(queries, got.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], view->query(queries[i])) << "n=" << n << " i=" << i;
    }
    ASSERT_EQ(got[n], 0xCDCDCDCD);  // no write past the batch
  }
}

TEST_F(SigDbQuery, InRamLookupBatchMatchesIdOfKey) {
  const auto queries = make_queries(*db, 1000, 3);
  std::vector<std::uint32_t> ids(queries.size());
  db->lookup_batch(queries, ids.data());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expect = db->id_of_key(queries[i]);
    if (expect.has_value()) {
      ASSERT_EQ(ids[i], *expect);
    } else {
      ASSERT_EQ(ids[i], sig::SignatureDatabase::kNoId);
    }
  }
}

TEST_F(SigDbQuery, BloomBatchMatchesSingles) {
  const auto queries = make_queries(*db, 777, 5);
  std::vector<std::uint8_t> got(queries.size());
  view->bloom_contains_batch(queries, got.data());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(got[i] != 0, view->bloom_contains(queries[i])) << "i=" << i;
  }
}

}  // namespace
}  // namespace mlad::sigdb

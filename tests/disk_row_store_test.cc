// Disk row store tests: heap round trips, upsert/tombstone semantics,
// persistence across reopen, buffer-pool hit/miss/eviction accounting, the
// heap file format and pool counters pinned for a fixed sequence, and the
// page bound Put enforces.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "common/random.h"

#include "storage/disk_row_store.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64},
                 {"s", Type::kString}});
}

Row MakeRow(Key id, int64_t v, const std::string& s = "abc") {
  return Row{Value(id), Value(v), Value(s)};
}

class DiskRowStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/htap_heap_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".heap";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(DiskRowStoreTest, PutGetDelete) {
  DiskRowStore store(path_, TestSchema(), 16);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Put(MakeRow(1, 10)).ok());
  Row out;
  ASSERT_TRUE(store.Get(1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 10);
  ASSERT_TRUE(store.Delete(1).ok());
  EXPECT_TRUE(store.Get(1, &out).IsNotFound());
  EXPECT_TRUE(store.Delete(1).IsNotFound());
}

TEST_F(DiskRowStoreTest, UpsertKeepsNewestVersion) {
  DiskRowStore store(path_, TestSchema(), 16);
  ASSERT_TRUE(store.Open().ok());
  store.Put(MakeRow(1, 1));
  store.Put(MakeRow(1, 2));
  store.Put(MakeRow(1, 3));
  Row out;
  ASSERT_TRUE(store.Get(1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 3);
  EXPECT_EQ(store.live_keys(), 1u);
}

TEST_F(DiskRowStoreTest, PersistsAcrossReopen) {
  {
    DiskRowStore store(path_, TestSchema(), 16);
    ASSERT_TRUE(store.Open().ok());
    for (Key k = 0; k < 300; ++k)
      store.Put(MakeRow(k, k * 2, std::string(50, 'p')));
    store.Delete(7);
    store.Put(MakeRow(8, 999));
    ASSERT_TRUE(store.Flush().ok());
  }
  DiskRowStore reopened(path_, TestSchema(), 16);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.live_keys(), 299u);
  Row out;
  ASSERT_TRUE(reopened.Get(8, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 999);
  EXPECT_TRUE(reopened.Get(7, &out).IsNotFound());
  ASSERT_TRUE(reopened.Get(250, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 500);
}

TEST_F(DiskRowStoreTest, SpillsAcrossManyPages) {
  DiskRowStore store(path_, TestSchema(), 4);
  ASSERT_TRUE(store.Open().ok());
  // Wide rows: ~900 bytes each, so 8 or 9 per page -> hundreds of pages.
  for (Key k = 0; k < 2000; ++k)
    ASSERT_TRUE(store.Put(MakeRow(k, k, std::string(850, 'x'))).ok());
  EXPECT_GT(store.num_pages(), 100u);
  Row out;
  ASSERT_TRUE(store.Get(0, &out).ok());
  ASSERT_TRUE(store.Get(1999, &out).ok());
}

TEST_F(DiskRowStoreTest, BufferPoolEvictsUnderPressure) {
  DiskRowStore store(path_, TestSchema(), 4);  // tiny pool
  ASSERT_TRUE(store.Open().ok());
  for (Key k = 0; k < 1000; ++k)
    store.Put(MakeRow(k, k, std::string(800, 'y')));
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(store.pool_stats().evictions, 0u);
  EXPECT_LE(store.pool_stats().cached_pages, 4u);

  // A cold sweep misses; a re-read of one hot key hits.
  const uint64_t misses_before = store.pool_stats().misses;
  Row out;
  store.Get(0, &out);
  EXPECT_GT(store.pool_stats().misses, misses_before);
  const uint64_t hits_before = store.pool_stats().hits;
  store.Get(0, &out);
  EXPECT_GT(store.pool_stats().hits, hits_before);
}

// Rows land in the tail page through the pool, so evicting a written page
// must write it back. With a 2-page pool, point reads between the writes
// evict the tail page while it is still filling, and both the live store
// and a reopen must see exactly the reference state.
TEST_F(DiskRowStoreTest, TwoPagePoolKeepsEveryWriteAcrossEvictionsAndReopen) {
  constexpr Key kKeys = 600;
  std::map<Key, Row> expect;
  // Every key's Get: the rows found, and no error but NotFound.
  const auto read_all = [](DiskRowStore& store) {
    std::map<Key, Row> got;
    Row out;
    for (Key k = 0; k < kKeys; ++k) {
      const Status st = store.Get(k, &out);
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
      if (st.ok()) got.emplace(k, out);
    }
    return got;
  };
  {
    DiskRowStore store(path_, TestSchema(), 2);
    ASSERT_TRUE(store.Open().ok());
    Random rng(17);
    Row out;
    for (int i = 0; i < 10000; ++i) {
      const Key k = static_cast<Key>(rng.Uniform(kKeys));
      if (rng.Bernoulli(0.2)) {
        const auto it = expect.find(k);
        const Status st = store.Get(k, &out);
        ASSERT_EQ(st.ok(), it != expect.end()) << st.ToString();
        if (st.ok()) {
          EXPECT_EQ(out, it->second);
        }
      } else if (rng.Bernoulli(0.2)) {
        const Status st = store.Delete(k);
        ASSERT_EQ(st.ok(), expect.erase(k) == 1) << st.ToString();
      } else {
        Row row = MakeRow(k, i, std::string(rng.Uniform(400), 'a' + i % 26));
        ASSERT_TRUE(store.Put(row).ok());
        expect[k] = std::move(row);
      }
    }
    EXPECT_GT(store.pool_stats().evictions, 100u);
    EXPECT_LE(store.pool_stats().cached_pages, 2u);
    EXPECT_EQ(read_all(store), expect);
  }
  DiskRowStore reopened(path_, TestSchema(), 2);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.live_keys(), expect.size());
  EXPECT_EQ(read_all(reopened), expect);
}

// The heap file and the pool counters of a fixed sequence, pinned. The
// values were taken from the version whose AppendRecord copied the whole
// tail page into PutDirty; writing in place must change neither the bytes
// on disk nor a single hit, miss or eviction.
TEST_F(DiskRowStoreTest, FixedSequencePinsHeapBytesAndPoolCounters) {
  constexpr uint64_t kPinnedHits = 2400;  // one per append
  constexpr uint64_t kPinnedMisses = 100;  // one per cold Get
  constexpr uint64_t kPinnedEvictions = 156;
  constexpr size_t kPinnedFileBytes = 483328;  // 59 pages
  constexpr uint64_t kPinnedFileFnv = 0x0EB185B8EA0155CEULL;
  BufferPoolStats stats;
  {
    DiskRowStore store(path_, TestSchema(), 3);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 3000; ++i) {
      const Key k = static_cast<Key>(i * 7919 % 1000);
      if (i % 5 == 4) {
        store.Delete(k);  // NotFound for a dead key appends nothing
      } else {
        ASSERT_TRUE(store
                        .Put(MakeRow(k, i, std::string(i % 300,
                                                       static_cast<char>(
                                                           'a' + i % 26))))
                        .ok());
      }
    }
    Row out;
    for (Key k = 0; k < 1000; k += 10) store.Get(k, &out);
    ASSERT_TRUE(store.Flush().ok());
    stats = store.pool_stats();
  }
  EXPECT_EQ(stats.hits, kPinnedHits);
  EXPECT_EQ(stats.misses, kPinnedMisses);
  EXPECT_EQ(stats.evictions, kPinnedEvictions);

  std::ifstream in(path_, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  uint64_t fnv = 14695981039346656037ULL;  // FNV-1a 64 over the file
  for (const char c : bytes) {
    fnv ^= static_cast<uint8_t>(c);
    fnv *= 1099511628211ULL;
  }
  EXPECT_EQ(bytes.size(), kPinnedFileBytes);
  EXPECT_EQ(fnv, kPinnedFileFnv);
}

TEST_F(DiskRowStoreTest, RejectsOversizedRow) {
  DiskRowStore store(path_, TestSchema(), 4);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.Put(MakeRow(1, 1, std::string(kDiskPageSize, 'z')))
                  .IsInvalidArgument());
}

// Fits is the exact bound Put enforces: a record of one page fits, one
// byte more does not.
TEST_F(DiskRowStoreTest, FitsIsThePutBound) {
  DiskRowStore store(path_, TestSchema(), 4);
  ASSERT_TRUE(store.Open().ok());
  // Record: 13 header bytes, a 9-byte count, two 9-byte ints, then the
  // string's tag and length (9 bytes) and its bytes.
  const size_t max_string = kDiskPageSize - 13 - 9 - 9 - 9 - 9;
  const Row largest = MakeRow(1, 1, std::string(max_string, 'q'));
  const Row too_large = MakeRow(2, 2, std::string(max_string + 1, 'q'));
  EXPECT_TRUE(DiskRowStore::Fits(largest));
  EXPECT_FALSE(DiskRowStore::Fits(too_large));
  EXPECT_TRUE(store.Put(largest).ok());
  EXPECT_TRUE(store.Put(too_large).IsInvalidArgument());
  Row out;
  ASSERT_TRUE(store.Get(1, &out).ok());
  EXPECT_EQ(out, largest);
}

}  // namespace
}  // namespace htap

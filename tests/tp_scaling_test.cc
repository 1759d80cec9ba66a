// Concurrency stress for the scalable TP front end (DESIGN.md §15):
//
//  * OLC B+-tree under concurrent readers/writers/erasers — lookups see
//    exactly their writer's payloads, scans stay sorted and duplicate-free,
//    and a final value-sum invariant holds.
//  * Sharded-commit visibility: a snapshot's sum over accounts is always a
//    multiple of the invariant total — a snapshot can never observe a CSN
//    above the min per-shard frontier (i.e. a half-stamped transaction),
//    and commit-driven version GC never frees what a registered snapshot
//    still reads.
//  * Sink publication stays strictly CSN-ordered under concurrent commits.
//
// All tests here are in the TSan suite (ci.sh) and must stay clean with
// zero suppressions.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "index/btree.h"
#include "storage/mvcc_row_store.h"
#include "txn/txn_manager.h"

namespace htap {
namespace {

// ---------------------------------------------------------------------------
// OLC B+-tree stress
// ---------------------------------------------------------------------------

// Writers insert disjoint key ranges (payload = key), erasers remove a known
// subset of their own range, readers run point lookups and range scans the
// whole time. Order 8 keeps the tree deep so splits/merges/root growth are
// constantly exercised.
TEST(OlcBtreeStressTest, ConcurrentInsertEraseLookupScan) {
  BTree tree(/*order=*/8);
  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_failures{0};

  auto key_of = [](int writer, int i) {
    return static_cast<Key>(writer * 1'000'000 + i);
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t payload;
      while (!stop.load(std::memory_order_acquire)) {
        // Point lookups: a present key must carry payload == key.
        for (int w = 0; w < kWriters; ++w) {
          const Key k = key_of(w, (r * 37) % kKeysPerWriter);
          if (tree.Lookup(k, &payload) && payload != static_cast<uint64_t>(k))
            reader_failures.fetch_add(1, std::memory_order_relaxed);
        }
        // Scans: keys strictly ascending, payload always matching.
        Key prev = std::numeric_limits<Key>::min();
        tree.Scan(0, key_of(kWriters, 0), [&](Key k, uint64_t p) {
          if (k <= prev || p != static_cast<uint64_t>(k))
            reader_failures.fetch_add(1, std::memory_order_relaxed);
          prev = k;
          return true;
        });
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        const Key k = key_of(w, i);
        ASSERT_TRUE(tree.Insert(k, static_cast<uint64_t>(k)));
        // Erase every third key a beat later to keep merges firing.
        if (i % 3 == 2) ASSERT_TRUE(tree.Erase(key_of(w, i - 1)));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(reader_failures.load(), 0u);

  // Value-sum invariant: exactly the non-erased keys remain.
  __int128 expect_sum = 0;
  size_t expect_count = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      if (i % 3 == 1) continue;  // erased by its writer
      expect_sum += key_of(w, i);
      ++expect_count;
    }
  }
  __int128 sum = 0;
  size_t count = 0;
  Key prev = std::numeric_limits<Key>::min();
  tree.ScanAll([&](Key k, uint64_t p) {
    EXPECT_GT(k, prev);
    EXPECT_EQ(p, static_cast<uint64_t>(k));
    prev = k;
    sum += k;
    ++count;
    return true;
  });
  EXPECT_EQ(count, expect_count);
  EXPECT_EQ(tree.size(), expect_count);
  EXPECT_TRUE(sum == expect_sum);

  // Every erased key is really gone; every kept key is reachable.
  uint64_t payload;
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_FALSE(tree.Lookup(key_of(w, 1), &payload));
    EXPECT_TRUE(tree.Lookup(key_of(w, 0), &payload));
  }
}

// Insert/erase churn over one small hot range from many threads: exercises
// split-vs-merge races, root growth/collapse, and EBR retirement under
// contention. Keys are partitioned mod-thread so each key has one owner.
TEST(OlcBtreeStressTest, HotRangeChurn) {
  BTree tree(/*order=*/4);  // minimum order: maximum structural churn
  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  constexpr int kRange = 256;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t payload;
      for (int round = 0; round < kRounds; ++round) {
        for (int k = t; k < kRange; k += kThreads)
          tree.Insert(k, static_cast<uint64_t>(k) * 2);
        for (int k = t; k < kRange; k += kThreads) {
          if (tree.Lookup(k, &payload)) EXPECT_EQ(payload, uint64_t(k) * 2);
        }
        for (int k = t; k < kRange; k += kThreads) tree.Erase(k);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tree.size(), 0u);
  size_t seen = 0;
  tree.ScanAll([&](Key, uint64_t) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 0u);
}

// ---------------------------------------------------------------------------
// Sharded commit path
// ---------------------------------------------------------------------------

Schema AccountSchema() {
  return Schema({{"id", Type::kInt64}, {"balance", Type::kInt64}});
}

// Transfer workload: every committed transaction moves an amount between two
// accounts, preserving the total. Concurrent readers summing all accounts
// at one snapshot must always see exactly the initial total — if a snapshot
// could ever observe a CSN above the min per-shard frontier, it would catch
// a transaction with only one leg stamped and the sum would drift.
//
// The transfers also drive version GC (DESIGN.md §17) while three kinds of
// reader run: ReadView point reads, ReadView row-path scans, and read-only
// transactions from Begin(). A version freed while a registered snapshot
// still needs it shows up as a missing account.
TEST(ShardedCommitTest, SnapshotNeverSeesHalfStampedTransfer) {
  TransactionManager mgr(nullptr, /*commit_shards=*/8);
  MvccRowStore store(1, AccountSchema(), &mgr, nullptr);

  constexpr int kAccounts = 32;
  constexpr int64_t kInitial = 1000;
  constexpr int kWriters = 4;
  constexpr int kTransfersPerWriter = 1000;

  {
    auto txn = mgr.Begin();
    for (int a = 0; a < kAccounts; ++a)
      ASSERT_TRUE(
          store.Insert(txn.get(), Row{Value(Key(a)), Value(kInitial)}).ok());
    ASSERT_TRUE(mgr.Commit(txn.get()).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_sums{0};
  std::atomic<uint64_t> audits{0};
  auto check = [&](int seen, int64_t sum) {
    audits.fetch_add(1, std::memory_order_relaxed);
    if (seen != kAccounts || sum != kAccounts * kInitial)
      bad_sums.fetch_add(1, std::memory_order_relaxed);
  };
  auto sum_by_get = [&](const Snapshot& snap) {
    int64_t sum = 0;
    int seen = 0;
    Row out;
    for (int a = 0; a < kAccounts; ++a) {
      if (store.Get(snap, a, &out).ok()) {
        sum += out.Get(1).AsInt64();
        ++seen;
      }
    }
    check(seen, sum);
  };
  std::vector<std::thread> auditors;
  auditors.emplace_back([&] {  // point reads under a ReadView
    while (!stop.load(std::memory_order_acquire)) {
      const ReadView view(&mgr);
      sum_by_get(view.snapshot());
    }
  });
  auditors.emplace_back([&] {  // row-path scans under a ReadView
    while (!stop.load(std::memory_order_acquire)) {
      const ReadView view(&mgr);
      int64_t sum = 0;
      int seen = 0;
      store.Scan(view.snapshot(), [&](Key, const Row& r) {
        sum += r.Get(1).AsInt64();
        ++seen;
        return true;
      });
      check(seen, sum);
    }
  });
  auditors.emplace_back([&] {  // read-only transactions
    while (!stop.load(std::memory_order_acquire)) {
      auto txn = mgr.Begin();
      sum_by_get(txn->snapshot());
      ASSERT_TRUE(mgr.Commit(txn.get()).ok());
    }
  });

  std::vector<std::thread> writers;
  std::atomic<uint64_t> committed{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      uint64_t rng = 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(w + 1);
      for (int i = 0; i < kTransfersPerWriter; ++i) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        // Unsigned modular arithmetic throughout: a signed cast of rng >> 15
        // can go negative, and a negative remainder would allow to == from
        // (a self-transfer updates one key twice and mints money).
        const int from = static_cast<int>((rng >> 33) % kAccounts);
        const int to = static_cast<int>(
            (static_cast<uint64_t>(from) + 1 + (rng >> 15) % (kAccounts - 1)) %
            kAccounts);
        const int64_t amount = 1 + static_cast<int64_t>(rng % 7);
        auto txn = mgr.Begin();
        Row a, b;
        if (!store.Get(txn->snapshot(), from, &a).ok() ||
            !store.Get(txn->snapshot(), to, &b).ok()) {
          mgr.Abort(txn.get());
          continue;
        }
        if (!store
                 .Update(txn.get(), Row{Value(Key(from)),
                                        Value(a.Get(1).AsInt64() - amount)})
                 .ok() ||
            !store
                 .Update(txn.get(), Row{Value(Key(to)),
                                        Value(b.Get(1).AsInt64() + amount)})
                 .ok()) {
          mgr.Abort(txn.get());  // first-updater-wins conflict: retry later
          continue;
        }
        if (mgr.Commit(txn.get()).ok())
          committed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : auditors) t.join();

  EXPECT_EQ(bad_sums.load(), 0u);
  EXPECT_GT(audits.load(), 0u);
  EXPECT_GT(committed.load(), 0u);

  // An auditor descheduled mid-read can pin the watermark for the whole
  // run. With the readers gone, one window of commits gives every shard a
  // GC step, and every chain is pruned down to its recent updates.
  const size_t window =
      mgr.commit_shard_count() * TransactionManager::kGcEveryCommits;
  for (size_t i = 0; i < window; ++i) {
    auto txn = mgr.Begin();
    const Key k = static_cast<Key>(i % kAccounts);
    Row r;
    ASSERT_TRUE(store.Get(txn->snapshot(), k, &r).ok());
    ASSERT_TRUE(store.Update(txn.get(), r).ok());
    ASSERT_TRUE(mgr.Commit(txn.get()).ok());
  }
  EXPECT_LE(store.VersionCount(), kAccounts + window);

  // Quiesced: the watermark equals the allocation frontier and the final
  // sum is intact.
  EXPECT_EQ(mgr.LastCommittedCsn(), mgr.LastAllocatedCsn());
  int64_t sum = 0;
  Row out;
  for (int a = 0; a < kAccounts; ++a) {
    ASSERT_TRUE(store.Get(mgr.CurrentSnapshot(), a, &out).ok());
    sum += out.Get(1).AsInt64();
  }
  EXPECT_EQ(sum, kAccounts * kInitial);
}

// The published watermark can never run ahead of the allocation counter,
// and begin snapshots are monotone across sequential commits.
TEST(ShardedCommitTest, WatermarkBoundedByAllocation) {
  TransactionManager mgr(nullptr, /*commit_shards=*/4);
  MvccRowStore store(1, AccountSchema(), &mgr, nullptr);
  CSN last = mgr.LastCommittedCsn();
  for (int i = 0; i < 100; ++i) {
    auto txn = mgr.Begin();
    ASSERT_TRUE(
        store.Insert(txn.get(), Row{Value(Key(i)), Value(int64_t(i))}).ok());
    ASSERT_TRUE(mgr.Commit(txn.get()).ok());
    const CSN committed = mgr.LastCommittedCsn();
    EXPECT_GT(committed, last);
    EXPECT_LE(committed, mgr.LastAllocatedCsn());
    last = committed;
  }
  EXPECT_EQ(mgr.commits(), 100u);
}

// ---------------------------------------------------------------------------
// Ordered sink publication
// ---------------------------------------------------------------------------

class RecordingSink : public ChangeSink {
 public:
  void OnCommit(std::vector<ChangeEvent> events) override {
    // Called under publish_mu_, so plain fields are safe here.
    for (const ChangeEvent& ev : events) csns_.push_back(ev.csn);
  }
  std::vector<CSN> csns_;
};

TEST(ShardedCommitTest, SinkPublicationStaysCsnOrdered) {
  RecordingSink sink;
  TransactionManager mgr(nullptr, /*commit_shards=*/8, &sink);
  MvccRowStore store(1, AccountSchema(), &mgr, nullptr);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 250;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        auto txn = mgr.Begin();
        const Key key = Key(w) * 100000 + i;
        ASSERT_TRUE(
            store.Insert(txn.get(), Row{Value(key), Value(int64_t(i))}).ok());
        ASSERT_TRUE(mgr.Commit(txn.get()).ok());
      }
    });
  }
  for (auto& t : writers) t.join();

  ASSERT_EQ(sink.csns_.size(), size_t(kWriters) * kPerWriter);
  for (size_t i = 1; i < sink.csns_.size(); ++i) {
    EXPECT_LT(sink.csns_[i - 1], sink.csns_[i])
        << "publication order violated at index " << i;
  }
}

}  // namespace
}  // namespace htap

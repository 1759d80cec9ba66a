// Architecture (c)'s version cache (DESIGN.md §22): an MvccRowStore over a
// DiskRowStore heap keeps only the versions the heap does not hold yet, or
// that a snapshot still needs. Unit tests drive the store, the heap and a
// transaction manager directly, with a sink that writes through the way
// the local engine does; engine tests check (c) against (a) on one seeded
// DML stream, the heap's page bound, and the bulk load's delta bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "storage/disk_row_store.h"
#include "storage/mvcc_row_store.h"
#include "txn/txn_manager.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"val", Type::kInt64},
                 {"name", Type::kString}});
}

Row MakeRow(Key id, int64_t val) {
  return Row{Value(id), Value(val), Value("v" + std::to_string(val))};
}

/// Writes every commit through to the heap, then reports it to the store,
/// as LocalHtapEngine::OnCommit does.
class HeapSink : public ChangeSink {
 public:
  void OnCommit(std::vector<ChangeEvent> events) override {
    store->HeapWritten(events.front().csn,
                       !fail && heap->Apply(events).ok());
  }
  DiskRowStore* heap = nullptr;
  MvccRowStore* store = nullptr;
  bool fail = false;  // report every heap write as failed
};

class VersionCacheTest : public ::testing::Test {
 protected:
  VersionCacheTest()
      : path_("/tmp/htap_vcache_" +
              std::to_string(reinterpret_cast<uintptr_t>(this)) + ".heap"),
        mgr_(nullptr, TransactionManager::kDefaultCommitShards, &sink_) {
    std::remove(path_.c_str());
    heap_ = std::make_unique<DiskRowStore>(path_, TestSchema(), 4);
    EXPECT_TRUE(heap_->Open().ok());
    store_ = std::make_unique<MvccRowStore>(1, TestSchema(), &mgr_, nullptr,
                                            heap_.get());
    sink_.heap = heap_.get();
    sink_.store = store_.get();
  }
  ~VersionCacheTest() override {
    store_.reset();
    heap_.reset();
    std::remove(path_.c_str());
  }

  /// Inserts rows [0, n) with val = key, one transaction.
  void Load(Key n) {
    auto txn = mgr_.Begin();
    for (Key k = 0; k < n; ++k)
      ASSERT_TRUE(store_->Insert(txn.get(), MakeRow(k, k)).ok());
    ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
  }

  /// Evicts every version no registered snapshot needs.
  void Evict() { store_->Vacuum(mgr_.Watermark()); }

  int64_t ValAt(const Snapshot& snap, Key key) {
    Row out;
    const Status st = store_->Get(snap, key, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return st.ok() ? out.Get(1).AsInt64() : -1;
  }

  std::string path_;
  HeapSink sink_;
  TransactionManager mgr_;
  std::unique_ptr<DiskRowStore> heap_;
  std::unique_ptr<MvccRowStore> store_;
};

TEST_F(VersionCacheTest, EvictedRowsReadThroughTheHeap) {
  Load(200);
  Evict();
  EXPECT_EQ(store_->VersionCount(), 0u);
  EXPECT_EQ(store_->MemoryBytes(), 200 * sizeof(VersionChain));
  EXPECT_EQ(store_->ApproxRowCount(), 200u);

  const BufferPoolStats before = heap_->pool_stats();
  const ReadView view(&mgr_);
  for (Key k = 0; k < 200; ++k) {
    Row out;
    ASSERT_TRUE(store_->Get(view.snapshot(), k, &out).ok());
    EXPECT_EQ(out, MakeRow(k, k));
  }
  const BufferPoolStats after = heap_->pool_stats();
  EXPECT_EQ(after.hits + after.misses - before.hits - before.misses, 200u);
  EXPECT_EQ(store_->VersionCount(), 0u);  // reads do not fault rows back in

  Row out;
  EXPECT_TRUE(store_->Get(view.snapshot(), 200, &out).IsNotFound());
}

TEST_F(VersionCacheTest, TheCommitThatWritesEvicts) {
  // With no other snapshot open, the commit's own GC step evicts what it
  // wrote: the heap holds it and the watermark covers it.
  Load(50);
  EXPECT_EQ(store_->VersionCount(), 0u);
}

TEST_F(VersionCacheTest, NothingIsEvictedBeyondTheHeapCsn) {
  // CSNs start at 2, so the load below commits above CSN 1.
  store_->HeapWritten(1, true);
  EXPECT_EQ(store_->HeapCsn(), 1u);
  store_->HeapWritten(2, false);  // a failed heap write pins the bound
  store_->HeapWritten(3, true);
  EXPECT_EQ(store_->HeapCsn(), 1u);
  Load(10);
  EXPECT_EQ(store_->HeapCsn(), 1u);
  Evict();
  EXPECT_EQ(store_->VersionCount(), 10u);
  EXPECT_EQ(ValAt(mgr_.CurrentSnapshot(), 3), 3);
}

// After a failed heap write the store stops evicting, and its retire
// entries wait only for the watermark again: the retire lists stay as
// short as a store without a heap keeps them, however many commits follow.
TEST_F(VersionCacheTest, AFailedHeapWriteStopsEvictionAndRetiring) {
  constexpr Key kRows = 10;
  Load(kRows);
  ASSERT_EQ(store_->VersionCount(), 0u);
  sink_.fail = true;
  for (int i = 0; i < 2000; ++i) {
    auto txn = mgr_.Begin();
    const Key k = i % kRows;
    ASSERT_TRUE(store_->Update(txn.get(), MakeRow(k, k + i)).ok());
    ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
    if (i == 0) sink_.fail = false;  // one failure stops eviction for good
  }
  EXPECT_FALSE(store_->evicting());
  EXPECT_LE(mgr_.RetiredEntries(),
            mgr_.commit_shard_count() * TransactionManager::kGcEveryCommits);
  Evict();
  EXPECT_EQ(store_->VersionCount(), static_cast<size_t>(kRows));
  const ReadView view(&mgr_);
  for (Key k = 0; k < kRows; ++k)
    EXPECT_EQ(ValAt(view.snapshot(), k), k + 1990 + k);
}

TEST_F(VersionCacheTest, OldSnapshotReadsTheImageWhileAnUpdateCommits) {
  Load(4);
  Evict();
  ASSERT_EQ(store_->VersionCount(), 0u);

  auto old_view = std::make_unique<ReadView>(&mgr_);
  auto writer = mgr_.Begin();
  ASSERT_TRUE(store_->Update(writer.get(), MakeRow(1, 100)).ok());
  // The image came back as a version before the update replaced it.
  EXPECT_EQ(store_->VersionCount(), 2u);
  EXPECT_EQ(ValAt(old_view->snapshot(), 1), 1);
  EXPECT_EQ(ValAt(writer->snapshot(), 1), 100);
  {
    const ReadView during(&mgr_);
    EXPECT_EQ(ValAt(during.snapshot(), 1), 1);
  }
  ASSERT_TRUE(mgr_.Commit(writer.get()).ok());

  // The old view pins the image; a new one sees the update.
  Evict();
  EXPECT_EQ(store_->VersionCount(), 2u);
  EXPECT_EQ(ValAt(old_view->snapshot(), 1), 1);
  {
    const ReadView now(&mgr_);
    EXPECT_EQ(ValAt(now.snapshot(), 1), 100);
  }
  old_view.reset();
  Evict();
  EXPECT_EQ(store_->VersionCount(), 0u);
  const ReadView now(&mgr_);
  EXPECT_EQ(ValAt(now.snapshot(), 1), 100);
  EXPECT_EQ(ValAt(now.snapshot(), 2), 2);
}

TEST_F(VersionCacheTest, DeleteAbortAndReinsertOfEvictedRows) {
  Load(3);
  Evict();
  auto txn = mgr_.Begin();
  EXPECT_TRUE(store_->Insert(txn.get(), MakeRow(0, 9)).IsAlreadyExists());
  ASSERT_TRUE(store_->Delete(txn.get(), 0).ok());
  ASSERT_TRUE(store_->Update(txn.get(), MakeRow(1, 11)).ok());
  ASSERT_TRUE(mgr_.Abort(txn.get()).ok());
  EXPECT_EQ(ValAt(mgr_.CurrentSnapshot(), 0), 0);
  EXPECT_EQ(ValAt(mgr_.CurrentSnapshot(), 1), 1);

  txn = mgr_.Begin();
  ASSERT_TRUE(store_->Delete(txn.get(), 0).ok());
  ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
  Evict();
  EXPECT_EQ(store_->VersionCount(), 0u);  // the deleted row is dropped
  EXPECT_EQ(store_->ApproxRowCount(), 2u);
  Row out;
  EXPECT_TRUE(store_->Get(mgr_.CurrentSnapshot(), 0, &out).IsNotFound());

  txn = mgr_.Begin();
  ASSERT_TRUE(store_->Insert(txn.get(), MakeRow(0, 7)).ok());
  ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
  Evict();
  EXPECT_EQ(ValAt(mgr_.CurrentSnapshot(), 0), 7);
  EXPECT_EQ(heap_->live_keys(), 3u);
}

TEST_F(VersionCacheTest, ScanMixesResidentAndEvictedRows) {
  Load(100);
  Evict();
  auto old_view = std::make_unique<ReadView>(&mgr_);
  auto txn = mgr_.Begin();
  for (Key k = 0; k < 100; k += 10)
    ASSERT_TRUE(store_->Update(txn.get(), MakeRow(k, -k)).ok());
  ASSERT_TRUE(store_->Delete(txn.get(), 5).ok());
  ASSERT_TRUE(store_->Insert(txn.get(), MakeRow(500, 500)).ok());
  ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
  Evict();
  EXPECT_GT(store_->VersionCount(), 0u);

  const auto scan = [&](const Snapshot& snap) {
    std::map<Key, Row> got;
    EXPECT_TRUE(store_
                    ->Scan(snap,
                           [&](Key k, const Row& r) {
                             got.emplace(k, r);
                             return true;
                           })
                    .ok());
    return got;
  };
  std::map<Key, Row> before, after;
  for (Key k = 0; k < 100; ++k) {
    before.emplace(k, MakeRow(k, k));
    if (k != 5) after.emplace(k, MakeRow(k, k % 10 == 0 ? -k : k));
  }
  after.emplace(500, MakeRow(500, 500));
  EXPECT_EQ(scan(old_view->snapshot()), before);
  old_view.reset();
  const ReadView now(&mgr_);
  EXPECT_EQ(scan(now.snapshot()), after);
  Evict();
  EXPECT_EQ(store_->VersionCount(), 0u);
  EXPECT_EQ(scan(now.snapshot()), after);
}

TEST_F(VersionCacheTest, RejectsRowsTheHeapCannotHold) {
  Load(1);
  const Row big{Value(int64_t{1}), Value(int64_t{1}),
                Value(std::string(9000, 'z'))};
  auto txn = mgr_.Begin();
  EXPECT_TRUE(store_->Insert(txn.get(), Row{Value(int64_t{2}),
                                            Value(int64_t{2}),
                                            Value(std::string(9000, 'z'))})
                  .IsInvalidArgument());
  EXPECT_TRUE(store_->Update(txn.get(), big).IsInvalidArgument());
  ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
  EXPECT_EQ(ValAt(mgr_.CurrentSnapshot(), 0), 0);
}

// Readers hold a snapshot across many reads of rows that writers keep
// updating and the GC keeps evicting and the writers restoring: every read
// through one snapshot returns the same row (no torn or newer image), and
// the final sum counts every committed increment.
TEST_F(VersionCacheTest, RepeatableReadsWhileRowsAreEvictedAndRestored) {
  constexpr Key kRows = 16;
  Load(kRows);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> committed{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w)
    threads.emplace_back([&, w] {
      Random rng(100 + w);
      for (int i = 0; i < 400; ++i) {
        const Key k = static_cast<Key>(rng.Uniform(kRows));
        auto txn = mgr_.Begin();
        Row cur;
        Status st = store_->Get(txn->snapshot(), k, &cur);
        if (st.ok())
          st = store_->Update(txn.get(), MakeRow(k, cur.Get(1).AsInt64() + 1));
        if (st.ok() && mgr_.Commit(txn.get()).ok()) {
          committed.fetch_add(1);
        } else if (txn->active()) {
          mgr_.Abort(txn.get());
        }
        if (i % 16 == 0) Evict();
      }
    });
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&, r] {
      Random rng(200 + r);
      while (!stop.load()) {
        const ReadView view(&mgr_);
        std::map<Key, Row> first;
        for (int i = 0; i < 64; ++i) {
          const Key k = static_cast<Key>(rng.Uniform(kRows));
          Row out;
          ASSERT_TRUE(store_->Get(view.snapshot(), k, &out).ok());
          ASSERT_EQ(out.Get(2).AsString(),
                    "v" + std::to_string(out.Get(1).AsInt64()));
          const auto [it, fresh] = first.emplace(k, out);
          if (!fresh) ASSERT_EQ(out, it->second) << "key " << k;
        }
      }
    });
  threads[0].join();
  threads[1].join();
  stop.store(true);
  threads[2].join();
  threads[3].join();

  Evict();
  int64_t sum = 0;
  const ReadView view(&mgr_);
  for (Key k = 0; k < kRows; ++k) sum += ValAt(view.snapshot(), k);
  EXPECT_EQ(sum, kRows * (kRows - 1) / 2 + committed.load());
  EXPECT_EQ(store_->VersionCount(), 0u);
}

// Writers delete, re-insert and update rows that the GC keeps evicting, so
// a reader that found a chain evicted may read the heap after a writer
// restored it, deleted the row and committed the tombstone. Every read and
// scan through one snapshot gives the same answer, found or not, and no
// read or write fails with anything but a conflict or a missing row.
TEST_F(VersionCacheTest, RepeatableReadsWhileRowsAreDeletedAndReinserted) {
  constexpr Key kRows = 16;
  Load(kRows);
  const auto allowed = [](const Status& st) {
    return st.ok() || st.IsConflict() || st.IsNotFound() ||
           st.IsAlreadyExists();
  };
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w)
    threads.emplace_back([&, w] {
      Random rng(300 + w);
      for (int i = 0; i < 2000; ++i) {
        const Key k = static_cast<Key>(rng.Uniform(kRows));
        auto txn = mgr_.Begin();
        Row cur;
        Status st = store_->Get(txn->snapshot(), k, &cur);
        ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
        if (st.IsNotFound())
          st = store_->Insert(txn.get(), MakeRow(k, i));
        else if (rng.Bernoulli(0.5))
          st = store_->Delete(txn.get(), k);
        else
          st = store_->Update(txn.get(), MakeRow(k, cur.Get(1).AsInt64() + 1));
        ASSERT_TRUE(allowed(st)) << st.ToString();
        if (!st.ok() || !mgr_.Commit(txn.get()).ok()) mgr_.Abort(txn.get());
        if (i % 8 == 0) Evict();
      }
    });
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&, r] {
      Random rng(400 + r);
      while (!stop.load()) {
        const ReadView view(&mgr_);
        std::map<Key, Status::Code> first_status;
        std::map<Key, Row> first;
        for (int i = 0; i < 64; ++i) {
          const Key k = static_cast<Key>(rng.Uniform(kRows));
          Row out;
          const Status st = store_->Get(view.snapshot(), k, &out);
          ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
          const auto [it, fresh] = first_status.emplace(k, st.code());
          if (!fresh) ASSERT_EQ(st.code(), it->second) << "key " << k;
          if (!st.ok()) continue;
          const auto [row_it, row_fresh] = first.emplace(k, out);
          if (!row_fresh) ASSERT_EQ(out, row_it->second) << "key " << k;
        }
      }
    });
  threads.emplace_back([&] {
    while (!stop.load()) {
      const ReadView view(&mgr_);
      std::map<Key, Row> scans[2];
      for (auto& got : scans)
        ASSERT_TRUE(store_
                        ->Scan(view.snapshot(),
                               [&](Key k, const Row& row) {
                                 got.emplace(k, row);
                                 return true;
                               })
                        .ok());
      ASSERT_EQ(scans[0], scans[1]);
    }
  });
  threads[0].join();
  threads[1].join();
  stop.store(true);
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();

  // Quiesced: the store, evicted or not, agrees with its heap.
  Evict();
  EXPECT_EQ(store_->VersionCount(), 0u);
  const ReadView view(&mgr_);
  size_t live = 0;
  for (Key k = 0; k < kRows; ++k) {
    Row cached, stored;
    const Status st = store_->Get(view.snapshot(), k, &cached);
    ASSERT_EQ(st.ok(), heap_->Get(k, &stored).ok()) << "key " << k;
    if (st.ok()) EXPECT_EQ(cached, stored);
    live += st.ok();
  }
  EXPECT_EQ(store_->ApproxRowCount(), live);
  EXPECT_EQ(heap_->live_keys(), live);
}

// ---------------------------------------------------------------------------
// Engine: (c) against (a)
// ---------------------------------------------------------------------------

Schema OrdersSchema() {
  return Schema({{"id", Type::kInt64}, {"qty", Type::kInt64},
                 {"region", Type::kString}, {"amount", Type::kDouble}});
}

std::unique_ptr<Database> OpenDb(ArchitectureKind arch,
                                 bool background_sync = false,
                                 size_t sync_entry_threshold = 8192) {
  DatabaseOptions opts;
  opts.architecture = arch;
  opts.background_sync = background_sync;
  opts.sync_entry_threshold = sync_entry_threshold;
  opts.buffer_pool_pages = 4;  // small: reads of evicted rows miss
  auto db = std::move(*Database::Open(opts));
  EXPECT_TRUE(db->CreateTable("orders", OrdersSchema()).ok());
  return db;
}

/// COUNT(*), SUM(qty) and SUM(amount) over rows with qty > `min_qty`, on
/// the given path.
Row Aggregate(Database* db, PathHint path, int64_t min_qty) {
  QueryPlan plan;
  plan.table = "orders";
  plan.where = Predicate::Gt(1, Value(min_qty));
  plan.aggs = {AggSpec::Count("n"), AggSpec::Sum(1, "q"),
               AggSpec::Sum(3, "a")};
  plan.path = path;
  auto res = db->Query(plan);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return res.ok() ? res->rows.at(0) : Row{};
}

// One seeded DML stream on (a) and (c): after every round, point reads and
// forced-row and forced-column aggregates agree, while (c) keeps a fraction
// of (a)'s versions in memory and reads the rest through its buffer pool.
TEST(VersionCacheEngineTest, SeededDmlStreamMatchesRowStoreArchitecture) {
  auto a = OpenDb(ArchitectureKind::kRowPlusInMemoryColumn);
  auto c = OpenDb(ArchitectureKind::kDiskRowPlusDistributedColumn);
  Database* dbs[] = {a.get(), c.get()};
  Random rng(20);
  constexpr Key kKeys = 600;
  for (int round = 0; round < 8; ++round) {
    for (int t = 0; t < 60; ++t) {
      // Draw the transaction once, run it on both databases.
      struct Op {
        int kind;
        Key key;
        int64_t qty;
      };
      std::vector<Op> ops;
      for (int i = 0; i < 6; ++i)
        ops.push_back({static_cast<int>(rng.Uniform(4)),
                       static_cast<Key>(rng.Uniform(kKeys)),
                       static_cast<int64_t>(rng.Uniform(100))});
      const bool abort = rng.Bernoulli(0.1);
      for (Database* db : dbs) {
        auto txn = db->Begin();
        for (const Op& op : ops) {
          const Row row{Value(op.key), Value(op.qty),
                        Value(std::string(op.qty % 3 == 0 ? "" : "west")),
                        Value(static_cast<double>(op.qty) / 4)};
          Row out;
          switch (op.kind) {
            case 0: txn->Insert("orders", row); break;
            case 1: txn->Update("orders", row); break;
            case 2: txn->Delete("orders", op.key); break;
            default: txn->Get("orders", op.key, &out); break;
          }
        }
        ASSERT_TRUE(abort ? txn->Abort().ok() : txn->Commit().ok());
      }
    }
    for (Key k = 0; k < kKeys; ++k) {
      Row ra, rc;
      const Status sa = a->GetRow("orders", k, &ra);
      const Status sc = c->GetRow("orders", k, &rc);
      ASSERT_EQ(sa.ok(), sc.ok()) << "key " << k << ": " << sc.ToString();
      if (sa.ok()) ASSERT_EQ(ra, rc) << "key " << k;
    }
    for (const int64_t min_qty : {int64_t{-1}, int64_t{50}}) {
      const Row expect = Aggregate(a.get(), PathHint::kForceRow, min_qty);
      EXPECT_EQ(Aggregate(a.get(), PathHint::kForceColumn, min_qty), expect);
      EXPECT_EQ(Aggregate(c.get(), PathHint::kForceRow, min_qty), expect);
      EXPECT_EQ(Aggregate(c.get(), PathHint::kForceColumn, min_qty), expect);
    }
  }
  const EngineStats sa = a->Stats();
  const EngineStats sc = c->Stats();
  EXPECT_LT(sc.row_store_bytes, sa.row_store_bytes / 2);
  EXPECT_GT(sc.buffer_pool_misses, 0u);
}

// A row whose heap record would not fit in a page is refused on (c), so a
// commit is never acknowledged for a row the heap lacks: the row path and
// the column path count the same rows.
TEST(VersionCacheEngineTest, RowLargerThanAHeapPageIsRejected) {
  auto c = OpenDb(ArchitectureKind::kDiskRowPlusDistributedColumn);
  const auto order = [](Key k, size_t chars) {
    return Row{Value(k), Value(int64_t{1}), Value(std::string(chars, 'r')),
               Value(1.0)};
  };
  ASSERT_TRUE(c->InsertRow("orders", order(1, 10)).ok());
  EXPECT_TRUE(c->InsertRow("orders", order(2, 9000)).IsInvalidArgument());
  EXPECT_TRUE(c->UpdateRow("orders", order(1, 9000)).IsInvalidArgument());
  const Row expect{Value(int64_t{1}), Value(int64_t{1}), Value(1.0)};
  EXPECT_EQ(Aggregate(c.get(), PathHint::kForceRow, -1), expect);
  EXPECT_EQ(Aggregate(c.get(), PathHint::kForceColumn, -1), expect);
  // (a) has no page bound.
  auto a = OpenDb(ArchitectureKind::kRowPlusInMemoryColumn);
  EXPECT_TRUE(a->InsertRow("orders", order(2, 9000)).ok());
}

// With background_sync, (c)'s daemon merges the delta when
// sync_entry_threshold entries wait, and only then: no interval triggers
// it, so the run keeps merge-on-scan freshness. The load waits at each
// trigger until the daemon has merged, so the delta never holds more than
// one threshold plus one commit. (A load that does not wait runs on by as
// many commits as it makes during one 1 ms poll and one merge, which
// depends on how the host schedules the two threads.)
TEST(VersionCacheEngineTest, DaemonMergesTheLoadAtTheThreshold) {
  constexpr size_t kThreshold = 1024;
  constexpr size_t kPerCommit = 125;
  constexpr Key kLoad = 40000;
  auto c = OpenDb(ArchitectureKind::kDiskRowPlusDistributedColumn,
                  /*background_sync=*/true, kThreshold);
  const auto pending = [&] {
    return c->Freshness("orders").pending_delta_entries;
  };
  size_t since_merge = 0;
  size_t merges = 0;
  for (Key k = 0; k < kLoad;) {
    auto txn = c->Begin();
    for (size_t i = 0; i < kPerCommit; ++i, ++k)
      ASSERT_TRUE(txn->Insert("orders", Row{Value(k), Value(k % 7),
                                            Value("r"), Value(1.0)})
                      .ok());
    ASSERT_TRUE(txn->Commit().ok());
    since_merge += kPerCommit;
    if (since_merge < kThreshold) {
      // Below the threshold the daemon leaves the delta alone.
      ASSERT_EQ(pending(), since_merge);
      continue;
    }
    // At it, the daemon merges everything committed (its target is the
    // last committed CSN).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (pending() != 0 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(pending(), 0u) << "after merge " << merges;
    since_merge = 0;
    ++merges;
  }
  const size_t per_merge = (kThreshold + kPerCommit - 1) / kPerCommit;
  EXPECT_EQ(merges, kLoad / kPerCommit / per_merge);
  EXPECT_EQ(pending(), since_merge);
  // Merge-on-scan still makes a fresh column scan see every row.
  const Row agg = Aggregate(c.get(), PathHint::kForceColumn, -1);
  EXPECT_EQ(agg.Get(0).AsInt64(), kLoad);
}

}  // namespace
}  // namespace htap

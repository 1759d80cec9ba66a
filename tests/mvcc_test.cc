// MVCC row store + transaction manager tests: snapshot isolation
// semantics, write-write conflicts (first-updater-wins), aborts, own-write
// visibility, change publication, vacuum, recovery apply, and a randomized
// snapshot-consistency property test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "common/random.h"
#include "storage/mvcc_row_store.h"
#include "txn/txn_manager.h"
#include "wal/recovery.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"val", Type::kInt64},
                 {"name", Type::kString}});
}

Row MakeRow(Key id, int64_t val, const std::string& name = "n") {
  return Row{Value(id), Value(val), Value(name)};
}

class MvccTest : public ::testing::Test {
 protected:
  MvccTest() : store_(1, TestSchema(), &mgr_, nullptr) {}
  TransactionManager mgr_;
  MvccRowStore store_;
};

TEST_F(MvccTest, InsertCommitRead) {
  auto txn = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(txn.get(), MakeRow(1, 10)).ok());
  ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
  Row out;
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 10);
  EXPECT_EQ(store_.ApproxRowCount(), 1u);
}

TEST_F(MvccTest, UncommittedInvisibleToOthers) {
  auto writer = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(writer.get(), MakeRow(1, 10)).ok());
  Row out;
  EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).IsNotFound());
  // But visible to itself.
  EXPECT_TRUE(store_.Get(writer->snapshot(), 1, &out).ok());
  mgr_.Commit(writer.get());
}

TEST_F(MvccTest, SnapshotIgnoresLaterCommits) {
  auto t1 = mgr_.Begin();
  store_.Insert(t1.get(), MakeRow(1, 10));
  mgr_.Commit(t1.get());

  const Snapshot old_snap = mgr_.CurrentSnapshot();

  auto t2 = mgr_.Begin();
  Row row = MakeRow(1, 20);
  ASSERT_TRUE(store_.Update(t2.get(), row).ok());
  mgr_.Commit(t2.get());

  Row out;
  ASSERT_TRUE(store_.Get(old_snap, 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 10);  // the old version
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 20);
}

TEST_F(MvccTest, WriteWriteConflictAbortsSecondWriter) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 1));
  mgr_.Commit(t0.get());

  auto t1 = mgr_.Begin();
  auto t2 = mgr_.Begin();
  ASSERT_TRUE(store_.Update(t1.get(), MakeRow(1, 11)).ok());
  EXPECT_TRUE(store_.Update(t2.get(), MakeRow(1, 22)).IsConflict());
  EXPECT_GE(mgr_.conflicts(), 1u);
  mgr_.Commit(t1.get());
  mgr_.Abort(t2.get());
  Row out;
  store_.Get(mgr_.CurrentSnapshot(), 1, &out);
  EXPECT_EQ(out.Get(1).AsInt64(), 11);
}

TEST_F(MvccTest, ConflictWithCommittedWriterAfterSnapshot) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 1));
  mgr_.Commit(t0.get());

  auto t1 = mgr_.Begin();  // snapshot before t2's commit
  auto t2 = mgr_.Begin();
  store_.Update(t2.get(), MakeRow(1, 2));
  mgr_.Commit(t2.get());
  // First-committer-wins under SI: t1 must not clobber.
  EXPECT_TRUE(store_.Update(t1.get(), MakeRow(1, 3)).IsConflict());
  mgr_.Abort(t1.get());
}

TEST_F(MvccTest, AbortRollsBackInsertUpdateDelete) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 1));
  store_.Insert(t0.get(), MakeRow(2, 2));
  mgr_.Commit(t0.get());

  auto t1 = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(t1.get(), MakeRow(3, 3)).ok());
  ASSERT_TRUE(store_.Update(t1.get(), MakeRow(1, 100)).ok());
  ASSERT_TRUE(store_.Delete(t1.get(), 2).ok());
  ASSERT_TRUE(mgr_.Abort(t1.get()).ok());

  Row out;
  EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 3, &out).IsNotFound());
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 1);
  EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 2, &out).ok());
}

TEST_F(MvccTest, DeleteThenReinsert) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 1));
  mgr_.Commit(t0.get());

  auto t1 = mgr_.Begin();
  ASSERT_TRUE(store_.Delete(t1.get(), 1).ok());
  mgr_.Commit(t1.get());
  Row out;
  EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).IsNotFound());

  auto t2 = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(t2.get(), MakeRow(1, 2)).ok());
  mgr_.Commit(t2.get());
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 2);
}

TEST_F(MvccTest, InsertDuplicateFails) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 1));
  mgr_.Commit(t0.get());
  auto t1 = mgr_.Begin();
  EXPECT_TRUE(store_.Insert(t1.get(), MakeRow(1, 9)).IsAlreadyExists());
  mgr_.Abort(t1.get());
}

TEST_F(MvccTest, OwnWriteReadAndInPlaceUpdate) {
  auto t = mgr_.Begin();
  store_.Insert(t.get(), MakeRow(1, 1));
  ASSERT_TRUE(store_.Update(t.get(), MakeRow(1, 2)).ok());  // own uncommitted
  Row out;
  ASSERT_TRUE(store_.Get(t->snapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 2);
  ASSERT_TRUE(store_.Delete(t.get(), 1).ok());
  EXPECT_TRUE(store_.Get(t->snapshot(), 1, &out).IsNotFound());
  mgr_.Commit(t.get());
  EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).IsNotFound());
}

TEST_F(MvccTest, ScanSeesConsistentSnapshot) {
  auto t0 = mgr_.Begin();
  for (Key k = 0; k < 50; ++k) store_.Insert(t0.get(), MakeRow(k, k));
  mgr_.Commit(t0.get());
  const Snapshot snap = mgr_.CurrentSnapshot();

  auto t1 = mgr_.Begin();
  store_.Delete(t1.get(), 10);
  store_.Update(t1.get(), MakeRow(20, 999));
  store_.Insert(t1.get(), MakeRow(100, 100));
  mgr_.Commit(t1.get());

  size_t count = 0;
  int64_t sum = 0;
  store_.Scan(snap, [&](Key, const Row& r) {
    ++count;
    sum += r.Get(1).AsInt64();
    return true;
  });
  EXPECT_EQ(count, 50u);
  EXPECT_EQ(sum, 49 * 50 / 2);
}

TEST_F(MvccTest, ScanRangeBounds) {
  auto t0 = mgr_.Begin();
  for (Key k = 0; k < 100; ++k) store_.Insert(t0.get(), MakeRow(k, k));
  mgr_.Commit(t0.get());
  std::vector<Key> keys;
  store_.ScanRange(mgr_.CurrentSnapshot(), 10, 15, [&](Key k, const Row&) {
    keys.push_back(k);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<Key>{10, 11, 12, 13, 14, 15}));
}

// ---- Packed versions (DESIGN.md §21) --------------------------------------

// Same tag and bit-identical payload: stricter than Row ==, which equates
// -0.0 with 0.0, NaN with anything, and an INT64 with an equal DOUBLE.
void ExpectSameRow(const Row& a, const Row& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const Value& x = a.Get(i);
    const Value& y = b.Get(i);
    ASSERT_EQ(x.is_null(), y.is_null());
    ASSERT_EQ(x.is_int64(), y.is_int64());
    ASSERT_EQ(x.is_double(), y.is_double());
    ASSERT_EQ(x.is_string(), y.is_string());
    if (x.is_int64()) {
      EXPECT_EQ(x.AsInt64(), y.AsInt64());
    }
    if (x.is_double()) {
      const double dx = x.AsDouble(), dy = y.AsDouble();
      EXPECT_EQ(std::memcmp(&dx, &dy, sizeof(double)), 0);
    }
    if (x.is_string()) {
      EXPECT_EQ(x.AsString(), y.AsString());
    }
  }
}

Schema PackedSchema() {
  return Schema({{"id", Type::kInt64}, {"d", Type::kDouble},
                 {"s", Type::kString}, {"n", Type::kInt64}});
}

// Edge cells, one row each: NULL, INT64 min/max, DOUBLE -0.0/NaN/±inf, an
// INT64 in the DOUBLE column, strings of 0, 15, 16 and 1,000 bytes.
std::vector<Row> PackedEdgeRows() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {
      Row{Value(int64_t{1}), Value(-0.0), Value(std::string()),
          Value(std::numeric_limits<int64_t>::min())},
      Row{Value(int64_t{2}), Value(std::numeric_limits<double>::quiet_NaN()),
          Value(std::string(15, 'a')),
          Value(std::numeric_limits<int64_t>::max())},
      Row{Value(int64_t{3}), Value(kInf), Value(std::string(16, 'b')),
          Value::Null()},
      Row{Value(int64_t{4}), Value(-kInf), Value(std::string(1000, 'c')),
          Value(int64_t{0})},
      Row{Value(int64_t{5}), Value(int64_t{42}), Value::Null(),
          Value(2.5)},
  };
}

TEST(MvccPackedTest, InsertGetScanAndCommitEventsAreExact) {
  struct CollectingSink : ChangeSink {
    std::vector<ChangeEvent> events;
    void OnCommit(std::vector<ChangeEvent> evs) override {
      for (ChangeEvent& ev : evs) events.push_back(std::move(ev));
    }
  } sink;
  TransactionManager mgr(nullptr, TransactionManager::kDefaultCommitShards,
                         &sink);
  MvccRowStore store(1, PackedSchema(), &mgr, nullptr);
  const std::vector<Row> rows = PackedEdgeRows();

  auto t = mgr.Begin();
  for (const Row& r : rows) ASSERT_TRUE(store.Insert(t.get(), r).ok());
  for (const Row& r : rows) {  // own writes, before commit
    Row out;
    ASSERT_TRUE(store.Get(t->snapshot(), r.GetKey(PackedSchema()), &out).ok());
    ExpectSameRow(out, r);
  }
  ASSERT_TRUE(mgr.Commit(t.get()).ok());

  const Snapshot snap = mgr.CurrentSnapshot();
  for (const Row& r : rows) {
    Row out;
    ASSERT_TRUE(store.Get(snap, r.GetKey(PackedSchema()), &out).ok());
    ExpectSameRow(out, r);
  }
  size_t i = 0;
  store.Scan(snap, [&](Key k, const Row& r) {
    EXPECT_EQ(k, rows[i].GetKey(PackedSchema()));
    ExpectSameRow(r, rows[i]);
    ++i;
    return true;
  });
  EXPECT_EQ(i, rows.size());

  ASSERT_EQ(sink.events.size(), rows.size());
  for (size_t e = 0; e < rows.size(); ++e)
    ExpectSameRow(sink.events[e].row, rows[e]);
}

TEST(MvccPackedTest, ScanReusesItsRowAcrossStringNullString) {
  // One scratch row serves the whole scan: each key's cells must replace
  // the previous key's, whatever their kinds.
  TransactionManager mgr;
  MvccRowStore store(1, PackedSchema(), &mgr, nullptr);
  const std::vector<Row> rows = {
      Row{Value(int64_t{10}), Value(1.5), Value(std::string(40, 'x')),
          Value(int64_t{1})},
      Row{Value(int64_t{11}), Value::Null(), Value::Null(), Value::Null()},
      Row{Value(int64_t{12}), Value(int64_t{3}), Value(std::string("short")),
          Value(std::string("not an int"))},
      Row{Value(int64_t{13}), Value(2.0), Value(std::string()), Value(7.5)},
      Row{Value(int64_t{14}), Value(-1.0), Value(std::string(1000, 'y')),
          Value(int64_t{-1})},
      Row{Value(int64_t{15}), Value(0.0), Value(std::string(3, 'z')),
          Value::Null()},
  };
  auto t = mgr.Begin();
  for (const Row& r : rows) ASSERT_TRUE(store.Insert(t.get(), r).ok());
  ASSERT_TRUE(mgr.Commit(t.get()).ok());

  std::vector<Row> seen;
  store.Scan(mgr.CurrentSnapshot(), [&](Key, const Row& r) {
    seen.push_back(r);  // the reference is valid only during the call
    return true;
  });
  ASSERT_EQ(seen.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) ExpectSameRow(seen[i], rows[i]);
}

TEST(MvccPackedTest, OwnVersionUpdateGrowsThenShrinksAString) {
  TransactionManager mgr;
  MvccRowStore store(1, PackedSchema(), &mgr, nullptr);
  const Row small{Value(int64_t{1}), Value(1.0), Value(std::string("a")),
                  Value(int64_t{1})};
  const Row big{Value(int64_t{1}), Value(int64_t{2}),
                Value(std::string(500, 'g')), Value::Null()};
  const Row shrunk{Value(int64_t{1}), Value::Null(),
                   Value(std::string("b")), Value(3.0)};

  auto t = mgr.Begin();
  ASSERT_TRUE(store.Insert(t.get(), small).ok());
  const size_t bytes_small = store.MemoryBytes();
  ASSERT_TRUE(store.Update(t.get(), big).ok());  // in place: no new version
  EXPECT_EQ(store.VersionCount(), 1u);
  EXPECT_EQ(store.MemoryBytes(),
            bytes_small - Value::StringHeapBytes(std::string("a")) +
                Value::StringHeapBytes(std::string(500, 'g')));
  Row out;
  ASSERT_TRUE(store.Get(t->snapshot(), 1, &out).ok());
  ExpectSameRow(out, big);
  ASSERT_TRUE(store.Update(t.get(), shrunk).ok());
  EXPECT_EQ(store.VersionCount(), 1u);
  EXPECT_EQ(store.MemoryBytes(), bytes_small);
  ASSERT_TRUE(store.Get(t->snapshot(), 1, &out).ok());
  ExpectSameRow(out, shrunk);
  ASSERT_TRUE(mgr.Commit(t.get()).ok());
  ASSERT_TRUE(store.Get(mgr.CurrentSnapshot(), 1, &out).ok());
  ExpectSameRow(out, shrunk);
}

TEST(MvccPackedTest, AbortAndGcFreeEveryString) {
  // Under ASan/LSan a string a freed version kept would show as a leak;
  // the byte gauge must also come back to exactly the survivors.
  TransactionManager mgr;
  MvccRowStore store(1, PackedSchema(), &mgr, nullptr);
  auto row = [](Key k, size_t len) {
    return Row{Value(k), Value(0.5), Value(std::string(len, 's')),
               Value(std::string(len + 1, 't'))};
  };
  auto t0 = mgr.Begin();
  for (Key k = 0; k < 8; ++k)
    ASSERT_TRUE(store.Insert(t0.get(), row(k, 20)).ok());
  ASSERT_TRUE(mgr.Commit(t0.get()).ok());
  const size_t committed = store.MemoryBytes();

  auto t1 = mgr.Begin();  // aborted: inserts, updates, own updates
  for (Key k = 8; k < 12; ++k)
    ASSERT_TRUE(store.Insert(t1.get(), row(k, 30)).ok());
  for (Key k = 0; k < 8; ++k)
    ASSERT_TRUE(store.Update(t1.get(), row(k, 40)).ok());
  for (Key k = 0; k < 4; ++k)
    ASSERT_TRUE(store.Update(t1.get(), row(k, 100)).ok());
  ASSERT_TRUE(mgr.Abort(t1.get()).ok());
  EXPECT_EQ(store.VersionCount(), 8u);
  EXPECT_EQ(store.MemoryBytes(), committed + 4 * sizeof(VersionChain));

  for (size_t round = 0; round < 3; ++round) {  // superseded, then collected
    auto t = mgr.Begin();
    for (Key k = 0; k < 8; ++k)
      ASSERT_TRUE(store.Update(t.get(), row(k, 50 + round)).ok());
    ASSERT_TRUE(mgr.Commit(t.get()).ok());
  }
  EXPECT_EQ(store.Vacuum(mgr.Watermark()), 24u);
  EXPECT_EQ(store.VersionCount(), 8u);
  const size_t per_row = RowVersion::BlockBytes(4) +
                         Value::StringHeapBytes(std::string(52, 's')) +
                         Value::StringHeapBytes(std::string(53, 't'));
  EXPECT_EQ(store.MemoryBytes(), 12 * sizeof(VersionChain) + 8 * per_row);
}

TEST(MvccPackedTest, MemoryBytesIsTheSumOfWhatIsAllocated) {
  // The gauge counts each version's block plus its strings' heap bytes,
  // and one VersionChain per key: pinned here after a fixed sequence.
  TransactionManager mgr;
  MvccRowStore store(1, TestSchema(), &mgr, nullptr);
  const size_t chain = sizeof(VersionChain);
  const size_t block = RowVersion::BlockBytes(3);
  auto str = [](size_t len) {
    return Value::StringHeapBytes(std::string(len, 'n'));
  };
  auto row = [](Key k, size_t len) {
    return MakeRow(k, k, std::string(len, 'n'));
  };
  EXPECT_EQ(store.MemoryBytes(), 0u);

  auto t1 = mgr.Begin();  // insert two keys
  ASSERT_TRUE(store.Insert(t1.get(), row(1, 20)).ok());
  ASSERT_TRUE(store.Insert(t1.get(), row(2, 20)).ok());
  ASSERT_TRUE(mgr.Commit(t1.get()).ok());
  EXPECT_EQ(store.MemoryBytes(), 2 * chain + 2 * (block + str(20)));

  auto t2 = mgr.Begin();  // update: a second version of key 1
  ASSERT_TRUE(store.Update(t2.get(), row(1, 30)).ok());
  ASSERT_TRUE(mgr.Commit(t2.get()).ok());
  EXPECT_EQ(store.MemoryBytes(),
            2 * chain + 3 * block + 2 * str(20) + str(30));

  auto t3 = mgr.Begin();  // update, then own-version update in place
  ASSERT_TRUE(store.Update(t3.get(), row(2, 40)).ok());
  ASSERT_TRUE(store.Update(t3.get(), row(2, 17)).ok());
  ASSERT_TRUE(mgr.Commit(t3.get()).ok());
  EXPECT_EQ(store.MemoryBytes(),
            2 * chain + 4 * block + 2 * str(20) + str(30) + str(17));

  auto t4 = mgr.Begin();  // delete: stamps an end, allocates nothing
  ASSERT_TRUE(store.Delete(t4.get(), 1).ok());
  ASSERT_TRUE(mgr.Commit(t4.get()).ok());
  EXPECT_EQ(store.MemoryBytes(),
            2 * chain + 4 * block + 2 * str(20) + str(30) + str(17));

  auto t5 = mgr.Begin();  // abort: the new key's chain stays, versions go
  ASSERT_TRUE(store.Insert(t5.get(), row(3, 50)).ok());
  ASSERT_TRUE(store.Update(t5.get(), row(2, 60)).ok());
  ASSERT_TRUE(mgr.Abort(t5.get()).ok());
  EXPECT_EQ(store.MemoryBytes(),
            3 * chain + 4 * block + 2 * str(20) + str(30) + str(17));

  // GC keeps each latest version (key 1's is deleted but still latest).
  EXPECT_EQ(store.Vacuum(mgr.Watermark()), 2u);
  EXPECT_EQ(store.MemoryBytes(), 3 * chain + 2 * block + str(30) + str(17));
}

TEST_F(MvccTest, ChangeSinkReceivesCommitOrderedEvents) {
  struct CollectingSink : ChangeSink {
    std::vector<ChangeEvent> events;
    void OnCommit(std::vector<ChangeEvent> evs) override {
      for (ChangeEvent& ev : evs) events.push_back(std::move(ev));
    }
  } sink;
  TransactionManager mgr(nullptr, TransactionManager::kDefaultCommitShards,
                         &sink);
  MvccRowStore store(1, TestSchema(), &mgr, nullptr);

  auto t = mgr.Begin();
  store.Insert(t.get(), MakeRow(1, 1));
  store.Update(t.get(), MakeRow(1, 2));
  store.Insert(t.get(), MakeRow(2, 2));
  store.Delete(t.get(), 2);
  mgr.Commit(t.get());

  // Aborted transactions publish nothing.
  auto t2 = mgr.Begin();
  store.Insert(t2.get(), MakeRow(3, 3));
  mgr.Abort(t2.get());

  ASSERT_EQ(sink.events.size(), 4u);
  EXPECT_EQ(sink.events[0].op, ChangeOp::kInsert);
  EXPECT_EQ(sink.events[1].op, ChangeOp::kUpdate);
  EXPECT_EQ(sink.events[2].op, ChangeOp::kInsert);
  EXPECT_EQ(sink.events[3].op, ChangeOp::kDelete);
  for (const ChangeEvent& ev : sink.events) {
    EXPECT_EQ(ev.csn, sink.events[0].csn);
    EXPECT_EQ(ev.table_id, 1u);
  }
  EXPECT_GT(sink.events[0].csn, 0u);
  // Rows are decoded at commit from the versions the events name: key 1's
  // insert and its in-place update both carry the final image, key 2's
  // insert keeps the image its version held, and a delete carries no row.
  EXPECT_EQ(sink.events[0].row, MakeRow(1, 2));
  EXPECT_EQ(sink.events[1].row, MakeRow(1, 2));
  EXPECT_EQ(sink.events[2].row, MakeRow(2, 2));
  EXPECT_TRUE(sink.events[3].row.empty());
}

TEST_F(MvccTest, VacuumReclaimsDeadVersions) {
  // 21 commits spread over the commit shards: no shard reaches a GC step,
  // so every superseded version is still on the chain when Vacuum runs.
  static_assert(21 < TransactionManager::kGcEveryCommits);
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 0));
  mgr_.Commit(t0.get());
  for (int i = 1; i <= 20; ++i) {
    auto t = mgr_.Begin();
    store_.Update(t.get(), MakeRow(1, i));
    mgr_.Commit(t.get());
  }
  EXPECT_EQ(store_.VersionCount(), 21u);
  const size_t reclaimed = store_.Vacuum(mgr_.Watermark());
  EXPECT_EQ(reclaimed, 20u);
  EXPECT_EQ(store_.VersionCount(), 1u);
  Row out;
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 20);
}

TEST_F(MvccTest, VacuumPreservesVersionsVisibleToActiveTxns) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 0));
  mgr_.Commit(t0.get());

  auto reader = mgr_.Begin();  // holds the watermark down
  auto t1 = mgr_.Begin();
  store_.Update(t1.get(), MakeRow(1, 1));
  mgr_.Commit(t1.get());

  store_.Vacuum(mgr_.Watermark());
  Row out;
  ASSERT_TRUE(store_.Get(reader->snapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 0);  // old version survived
  mgr_.Commit(reader.get());
}

// Commit-driven GC: 10k updates of one key with no reader leave at most one
// GC window of superseded versions on the chain, not one per update.
TEST_F(MvccTest, CommitDrivenGcBoundsVersionsWithoutReaders) {
  const size_t window =
      mgr_.commit_shard_count() * TransactionManager::kGcEveryCommits;
  auto t0 = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(t0.get(), MakeRow(1, 0)).ok());
  ASSERT_TRUE(mgr_.Commit(t0.get()).ok());
  const size_t bytes_one_version = store_.MemoryBytes();
  size_t peak = 0;
  for (int i = 1; i <= 10000; ++i) {
    auto t = mgr_.Begin();
    ASSERT_TRUE(store_.Update(t.get(), MakeRow(1, i)).ok());
    ASSERT_TRUE(mgr_.Commit(t.get()).ok());
    peak = std::max(peak, store_.VersionCount());
  }
  EXPECT_LE(peak, window + 1);
  EXPECT_LE(store_.MemoryBytes(), bytes_one_version * (window + 1));
  Row out;
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 10000);
}

// An open transaction or ReadView keeps the version its snapshot reads
// alive through every GC step; once the last one closes, the next steps
// reclaim it. A ReadView's end is not counted as a commit.
TEST_F(MvccTest, ReadersPinVersionsUntilTheyClose) {
  const size_t window =
      mgr_.commit_shard_count() * TransactionManager::kGcEveryCommits;
  auto t0 = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(t0.get(), MakeRow(1, 0)).ok());
  ASSERT_TRUE(mgr_.Commit(t0.get()).ok());

  auto update_n = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      auto t = mgr_.Begin();
      Row cur;
      ASSERT_TRUE(store_.Get(t->snapshot(), 1, &cur).ok());
      ASSERT_TRUE(
          store_.Update(t.get(), MakeRow(1, cur.Get(1).AsInt64() + 1)).ok());
      ASSERT_TRUE(mgr_.Commit(t.get()).ok());
    }
  };

  auto txn_reader = mgr_.Begin();
  auto view = std::make_unique<ReadView>(&mgr_);
  update_n(4 * window);
  Row out;
  ASSERT_TRUE(store_.Get(txn_reader->snapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 0);
  ASSERT_TRUE(store_.Get(view->snapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 0);
  // Every superseded version ended after the pinned snapshot: none is
  // reclaimable yet.
  EXPECT_EQ(store_.VersionCount(), 4 * window + 1);

  // The transaction closes; the view alone still pins the old version.
  ASSERT_TRUE(mgr_.Commit(txn_reader.get()).ok());
  update_n(window);
  ASSERT_TRUE(store_.Get(view->snapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 0);
  EXPECT_EQ(store_.VersionCount(), 5 * window + 1);

  const uint64_t commits = mgr_.commits();
  view.reset();
  EXPECT_EQ(mgr_.commits(), commits);
  // One window of commits gives every shard a GC step.
  update_n(window);
  EXPECT_LE(store_.VersionCount(), window + 1);
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), static_cast<int64_t>(6 * window));
}

TEST_F(MvccTest, ApplyCommittedMatchesTransactionalPath) {
  MvccRowStore replica(1, TestSchema(), &mgr_, nullptr);
  replica.ApplyCommitted(ChangeOp::kInsert, 1, MakeRow(1, 10), 5);
  replica.ApplyCommitted(ChangeOp::kUpdate, 1, MakeRow(1, 20), 6);
  replica.ApplyCommitted(ChangeOp::kDelete, 2, Row{}, 7);

  Row out;
  ASSERT_TRUE(replica.Get(Snapshot{10, 0}, 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 20);
  // Time travel: at CSN 5 the first version is visible.
  ASSERT_TRUE(replica.Get(Snapshot{5, 0}, 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 10);
}

TEST_F(MvccTest, WalRecoveryReproducesCommittedState) {
  std::string tmpl = ::testing::TempDir() + "htap_mvcc_wal_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  auto opened =
      WalWriter::Open({.dir = dir, .stem = "wal", .sync_on_commit = true});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::unique_ptr<WalWriter> wal = std::move(opened).ValueOrDie();
  TransactionManager mgr(wal.get());
  MvccRowStore store(1, TestSchema(), &mgr, wal.get());

  auto t1 = mgr.Begin();
  store.Insert(t1.get(), MakeRow(1, 10));
  store.Insert(t1.get(), MakeRow(2, 20));
  mgr.Commit(t1.get());
  auto t2 = mgr.Begin();
  store.Update(t2.get(), MakeRow(1, 11));
  store.Delete(t2.get(), 2);
  mgr.Commit(t2.get());
  auto t3 = mgr.Begin();  // crash before commit: must not replay
  store.Insert(t3.get(), MakeRow(9, 99));
  // (no commit)

  ASSERT_TRUE(wal->Sync().ok());  // t3's records reach the log too

  TransactionManager mgr2;
  MvccRowStore recovered(1, TestSchema(), &mgr2, nullptr);
  auto read = WalReader::ReadLog(dir, "wal");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const std::vector<WalRecord>& records = *read;
  ReplayWal(records, [&](const WalRecord& r, CSN csn) {
    const ChangeOp op = r.type == WalRecordType::kInsert   ? ChangeOp::kInsert
                        : r.type == WalRecordType::kUpdate ? ChangeOp::kUpdate
                                                           : ChangeOp::kDelete;
    recovered.ApplyCommitted(op, r.key, r.row, csn);
  });

  Row out;
  ASSERT_TRUE(recovered.Get(Snapshot{kMaxCSN - 1, 0}, 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 11);
  EXPECT_TRUE(recovered.Get(Snapshot{kMaxCSN - 1, 0}, 2, &out).IsNotFound());
  EXPECT_TRUE(recovered.Get(Snapshot{kMaxCSN - 1, 0}, 9, &out).IsNotFound());
  mgr.Abort(t3.get());
  std::filesystem::remove_all(dir);
}

TEST_F(MvccTest, ConcurrentDisjointWritersAllCommit) {
  constexpr int kThreads = 4, kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto txn = mgr_.Begin();
        ASSERT_TRUE(
            store_.Insert(txn.get(), MakeRow(t * 1000 + i, i)).ok());
        ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store_.ApproxRowCount(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(mgr_.commits(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(MvccTest, ConcurrentContendedWritersSerialize) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 0));
  mgr_.Commit(t0.get());

  constexpr int kThreads = 4, kAttempts = 100;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttempts; ++i) {
        auto txn = mgr_.Begin();
        Row cur;
        if (!store_.Get(txn->snapshot(), 1, &cur).ok()) {
          mgr_.Abort(txn.get());
          continue;
        }
        Row next = MakeRow(1, cur.Get(1).AsInt64() + 1);
        if (store_.Update(txn.get(), next).ok() &&
            mgr_.Commit(txn.get()).ok()) {
          committed.fetch_add(1);
        } else if (txn->active()) {
          mgr_.Abort(txn.get());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Row out;
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  // Counter equals the number of successful increments: no lost updates.
  EXPECT_EQ(out.Get(1).AsInt64(), committed.load());
  EXPECT_GT(committed.load(), 0);
}

// Property: a snapshot taken at any point sees exactly the committed state
// as of that point, regardless of later activity — including the version
// reclamation that later commits drive, since each checkpoint is a ReadView.
TEST_F(MvccTest, PropertySnapshotStability) {
  Random rng(99);
  std::map<Key, int64_t> model;  // committed state
  std::vector<std::pair<std::unique_ptr<ReadView>, std::map<Key, int64_t>>>
      checkpoints;

  for (int step = 0; step < 500; ++step) {
    auto txn = mgr_.Begin();
    bool ok = true;
    std::map<Key, std::pair<bool, int64_t>> pending;  // key -> (del, val)
    const int ops = 1 + static_cast<int>(rng.Uniform(4));
    for (int o = 0; o < ops && ok; ++o) {
      const Key k = static_cast<Key>(rng.Uniform(30));
      const bool exists =
          pending.count(k) ? !pending[k].first : model.count(k) != 0;
      if (!exists) {
        ok = store_.Insert(txn.get(), MakeRow(k, step)).ok();
        if (ok) pending[k] = {false, step};
      } else if (rng.Bernoulli(0.3)) {
        ok = store_.Delete(txn.get(), k).ok();
        if (ok) pending[k] = {true, 0};
      } else {
        ok = store_.Update(txn.get(), MakeRow(k, step)).ok();
        if (ok) pending[k] = {false, step};
      }
    }
    if (ok && rng.Bernoulli(0.8)) {
      ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
      for (const auto& [k, change] : pending) {
        if (change.first)
          model.erase(k);
        else
          model[k] = change.second;
      }
    } else if (txn->active()) {
      mgr_.Abort(txn.get());
    }
    if (step % 50 == 0)
      checkpoints.emplace_back(std::make_unique<ReadView>(&mgr_), model);
  }

  // Every historical snapshot still reads its exact historical state.
  for (const auto& [view, expected] : checkpoints) {
    std::map<Key, int64_t> got;
    store_.Scan(view->snapshot(), [&](Key k, const Row& r) {
      got[k] = r.Get(1).AsInt64();
      return true;
    });
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace htap

// Data-synchronization tests: the three DS strategies converge the column
// store to the row-store state; the delta/column-union invariant holds
// under randomized interleavings of commits, merges, and scans; the
// freshness tracker reports lag correctly.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "exec/executor.h"
#include "sync/sync.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64}});
}

Row MakeRow(Key id, int64_t v) { return Row{Value(id), Value(v)}; }

/// Reads the column store + delta union into a map.
std::map<Key, int64_t> HtapState(const ColumnTable& table,
                                 const DeltaReader* delta, CSN snap) {
  std::map<Key, int64_t> out;
  for (const Row& r : ScanHtap(table, delta, snap, Predicate::True(), {}))
    out[r.Get(0).AsInt64()] = r.Get(1).AsInt64();
  return out;
}

std::map<Key, int64_t> RowState(const MvccRowStore& store, const Snapshot& s) {
  std::map<Key, int64_t> out;
  store.Scan(s, [&](Key k, const Row& r) {
    out[k] = r.Get(1).AsInt64();
    return true;
  });
  return out;
}

TEST(SyncTest, InMemoryMergeConvergesColumnStore) {
  TransactionManager mgr;
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  auto delta = std::make_unique<InMemoryDeltaStore>();
  InMemoryDeltaStore* delta_ptr = delta.get();
  ColumnTable table(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(delta.get()));

  struct Router : ChangeSink {
    InMemoryDeltaStore* d;
    void OnCommit(const std::vector<ChangeEvent>& evs) override {
      d->AppendBatch(evs);
    }
  } router;
  router.d = delta_ptr;
  mgr.RegisterSink(&router);

  for (int i = 0; i < 100; ++i) {
    auto t = mgr.Begin();
    ASSERT_TRUE(rows.Insert(t.get(), MakeRow(i, i * 2)).ok());
    ASSERT_TRUE(mgr.Commit(t.get()).ok());
  }
  EXPECT_EQ(delta_ptr->EntryCount(), 100u);
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(delta_ptr->EntryCount(), 0u);
  EXPECT_EQ(table.live_rows(), 100u);
  EXPECT_EQ(table.merged_csn(), mgr.LastCommittedCsn());
  EXPECT_EQ(sync.stats().merges, 1u);
  EXPECT_EQ(sync.stats().entries_merged, 100u);

  EXPECT_EQ(HtapState(table, delta_ptr, kMaxCSN - 1),
            RowState(rows, mgr.CurrentSnapshot()));
}

TEST(SyncTest, LogMergeConvergesColumnStore) {
  LogDeltaStore delta;
  ColumnTable table(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kLogMerge, &table,
      std::make_unique<DeltaSourceAdapter<LogDeltaStore>>(&delta));

  std::vector<DeltaEntry> file;
  for (CSN c = 1; c <= 50; ++c) {
    DeltaEntry e;
    e.op = ChangeOp::kInsert;
    e.key = static_cast<Key>(c);
    e.row = MakeRow(e.key, static_cast<int64_t>(c));
    e.csn = c;
    file.push_back(e);
  }
  delta.AppendFile(file);
  ASSERT_TRUE(sync.SyncTo(50).ok());
  EXPECT_EQ(table.live_rows(), 50u);
  EXPECT_EQ(delta.num_files(), 0u);
}

TEST(SyncTest, RebuildFromPrimaryMatchesRowStore) {
  TransactionManager mgr;
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  ColumnTable table(TestSchema());
  DataSynchronizer sync(&table, &rows);
  EXPECT_EQ(sync.strategy(), SyncStrategy::kRebuild);

  for (int i = 0; i < 60; ++i) {
    auto t = mgr.Begin();
    rows.Insert(t.get(), MakeRow(i, i));
    mgr.Commit(t.get());
  }
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(table.live_rows(), 60u);
  EXPECT_EQ(sync.stats().rows_loaded, 60u);

  // Mutate, rebuild again: the column store reflects the new state fully.
  auto t = mgr.Begin();
  rows.Delete(t.get(), 0);
  rows.Update(t.get(), MakeRow(1, 999));
  mgr.Commit(t.get());
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(HtapState(table, nullptr, kMaxCSN - 1),
            RowState(rows, mgr.CurrentSnapshot()));
}

TEST(SyncTest, ApplyEntriesFoldsBatch) {
  ColumnTable table(TestSchema());
  std::vector<DeltaEntry> entries;
  auto add = [&](ChangeOp op, Key k, int64_t v, CSN c) {
    DeltaEntry e;
    e.op = op;
    e.key = k;
    e.csn = c;
    if (op != ChangeOp::kDelete) e.row = MakeRow(k, v);
    entries.push_back(e);
  };
  add(ChangeOp::kInsert, 1, 1, 1);
  add(ChangeOp::kUpdate, 1, 2, 2);   // folded over the insert
  add(ChangeOp::kInsert, 2, 5, 3);
  add(ChangeOp::kDelete, 2, 0, 4);   // cancels the insert
  add(ChangeOp::kInsert, 3, 7, 5);
  ApplyEntriesToColumnTable(&table, entries, 5);
  EXPECT_EQ(table.live_rows(), 2u);
  size_t gi, off;
  ASSERT_TRUE(table.FindKey(1, &gi, &off));
  EXPECT_EQ(table.MaterializeRow(*table.group(gi), off).Get(1).AsInt64(), 2);
  EXPECT_FALSE(table.FindKey(2, &gi, &off));
}

TEST(SyncTest, SyncToIsIdempotent) {
  ColumnTable table(TestSchema());
  InMemoryDeltaStore delta;
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(&delta));
  DeltaEntry e;
  e.op = ChangeOp::kInsert;
  e.key = 1;
  e.row = MakeRow(1, 1);
  e.csn = 1;
  delta.Append(e);
  ASSERT_TRUE(sync.SyncTo(1).ok());
  ASSERT_TRUE(sync.SyncTo(1).ok());  // no-op: target already reached
  EXPECT_EQ(sync.stats().merges, 1u);
}

// The central HTAP invariant: at every point in a random interleaving of
// committed writes and merges, scan(main) ⊎ delta == row-store state.
TEST(SyncTest, PropertyDeltaColumnUnionEqualsRowStore) {
  TransactionManager mgr;
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  InMemoryDeltaStore delta;
  ColumnTable table(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(&delta));

  struct Router : ChangeSink {
    InMemoryDeltaStore* d;
    void OnCommit(const std::vector<ChangeEvent>& evs) override {
      d->AppendBatch(evs);
    }
  } router;
  router.d = &delta;
  mgr.RegisterSink(&router);

  Random rng(2024);
  std::map<Key, int64_t> live;
  for (int step = 0; step < 800; ++step) {
    auto t = mgr.Begin();
    const Key k = static_cast<Key>(rng.Uniform(40));
    Status st;
    if (live.count(k) == 0) {
      st = rows.Insert(t.get(), MakeRow(k, step));
      if (st.ok()) live[k] = step;
    } else if (rng.Bernoulli(0.25)) {
      st = rows.Delete(t.get(), k);
      if (st.ok()) live.erase(k);
    } else {
      st = rows.Update(t.get(), MakeRow(k, step));
      if (st.ok()) live[k] = step;
    }
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(mgr.Commit(t.get()).ok());

    if (rng.Bernoulli(0.1))
      ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());

    if (step % 37 == 0) {
      ASSERT_EQ(HtapState(table, &delta, mgr.LastCommittedCsn()), live)
          << "divergence at step " << step;
    }
  }
  // Final full merge: pure column scan (no delta) must also agree.
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(HtapState(table, nullptr, mgr.LastCommittedCsn()), live);
}

TEST(FreshnessTrackerTest, LagReflectsUnmergedCommits) {
  VirtualClock clock;
  FreshnessTracker tracker(&clock);
  std::vector<ChangeEvent> evs(1);
  evs[0].csn = 10;
  clock.AdvanceTo(1000);
  tracker.OnCommit(evs);
  clock.AdvanceTo(5000);

  EXPECT_EQ(tracker.TimeLagMicros(/*visible=*/9), 4000);
  EXPECT_EQ(tracker.TimeLagMicros(/*visible=*/10), 0);
  EXPECT_EQ(tracker.CsnLag(10, 4), 6u);
  EXPECT_EQ(tracker.CsnLag(10, 10), 0u);
}

}  // namespace
}  // namespace htap

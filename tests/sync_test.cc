// Data-synchronization tests: the three DS techniques (in-memory and
// log-based delta merge, rebuild from the primary row store) converge the
// column store to the row-store state; the delta/column-union invariant
// holds under randomized interleavings of commits, merges, and scans; the
// merge fold matches a last-write-wins model; the local engine's one merge
// counts its merges and keeps the catalog's stats current; the freshness
// tracker reports lag correctly.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "exec/executor.h"
#include "sync/sync.h"
#include "txn/txn_manager.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64}});
}

Row MakeRow(Key id, int64_t v) { return Row{Value(id), Value(v)}; }

/// A transaction manager's sink that stages every commit in one delta.
struct DeltaRouter : ChangeSink {
  explicit DeltaRouter(DeltaStore* d) : delta(d) {}
  void OnCommit(std::vector<ChangeEvent> events) override {
    delta->AppendBatch(events);
  }
  DeltaStore* delta;
};

/// Reads the column store + delta union into a map.
std::map<Key, int64_t> HtapState(const ColumnTable& table,
                                 const DeltaReader* delta, CSN snap) {
  std::map<Key, int64_t> out;
  for (const Row& r : BatchesToRows(ScanHtapBatches(
           table, delta, snap, Predicate::True(), {}, ExecContext{})))
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

/// One delta merge as the engine and the learners run it: drain and apply
/// as one step under the table's write latch.
void Merge(ColumnTable* table, DeltaStore* delta, CSN target) {
  WriteGuard g(table->latch());
  ApplyEntriesToColumnTableLocked(table, delta->DrainUpTo(target), target);
}

TEST(SyncTest, InMemoryMergeConvergesColumnStore) {
  InMemoryDeltaStore delta;
  DeltaRouter router(&delta);
  TransactionManager mgr(nullptr, TransactionManager::kDefaultCommitShards,
                         &router);
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  ColumnTable table(TestSchema());

  for (int i = 0; i < 100; ++i) {
    auto t = mgr.Begin();
    ASSERT_TRUE(rows.Insert(t.get(), MakeRow(i, i * 2)).ok());
    ASSERT_TRUE(mgr.Commit(t.get()).ok());
  }
  EXPECT_EQ(delta.EntryCount(), 100u);
  Merge(&table, &delta, mgr.LastCommittedCsn());
  EXPECT_EQ(delta.EntryCount(), 0u);
  EXPECT_EQ(table.live_rows(), 100u);
  EXPECT_EQ(table.merged_csn(), mgr.LastCommittedCsn());

  EXPECT_EQ(HtapState(table, &delta, kMaxCSN - 1),
            RowState(rows, mgr.CurrentSnapshot()));
}

TEST(SyncTest, LogMergeConvergesColumnStore) {
  LogDeltaStore delta;
  ColumnTable table(TestSchema());

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
  Merge(&table, &delta, 50);
  EXPECT_EQ(table.live_rows(), 50u);
  EXPECT_EQ(table.merged_csn(), 50u);
  EXPECT_EQ(delta.num_files(), 0u);
}

TEST(SyncTest, RebuildFromPrimaryMatchesRowStore) {
  TransactionManager mgr;
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);

  for (int i = 0; i < 60; ++i) {
    auto t = mgr.Begin();
    rows.Insert(t.get(), MakeRow(i, i));
    mgr.Commit(t.get());
  }
  auto built = RebuildColumnTable(rows, mgr.CurrentSnapshot(), {0, 1});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ((*built)->live_rows(), 60u);
  EXPECT_EQ((*built)->merged_csn(), mgr.LastCommittedCsn());

  // Mutate, rebuild again: the column store reflects the new state fully.
  auto t = mgr.Begin();
  rows.Delete(t.get(), 0);
  rows.Update(t.get(), MakeRow(1, 999));
  mgr.Commit(t.get());
  built = RebuildColumnTable(rows, mgr.CurrentSnapshot(), {0, 1});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(HtapState(**built, nullptr, kMaxCSN - 1),
            RowState(rows, mgr.CurrentSnapshot()));

  // A rebuild over a subset of the columns holds just those.
  built = RebuildColumnTable(rows, mgr.CurrentSnapshot(), {0});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ((*built)->schema().num_columns(), 1u);
  EXPECT_EQ((*built)->live_rows(), 59u);
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
  {
    WriteGuard g(table.latch());
    ApplyEntriesToColumnTableLocked(&table, entries, 5);
  }
  EXPECT_EQ(table.live_rows(), 2u);
  size_t gi, off;
  ASSERT_TRUE(table.FindKey(1, &gi, &off));
  EXPECT_EQ(table.MaterializeRow(*table.group(gi), off).Get(1).AsInt64(), 2);
  EXPECT_FALSE(table.FindKey(2, &gi, &off));
}

// The copy-free fold against a last-write-wins reference model, over
// random batches with repeated keys, delete-then-upsert and
// upsert-then-delete. Rows carry a long string so a row read after it was
// moved out would show up as an empty cell.
TEST(SyncTest, PropertyFoldMatchesLastWriteWinsModel) {
  const Schema schema(
      {{"id", Type::kInt64}, {"v", Type::kInt64}, {"s", Type::kString}});
  const auto payload = [](int64_t v) {
    return std::string(40, 'x') + std::to_string(v);
  };
  Random rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    ColumnTable table(schema);
    std::map<Key, int64_t> model;
    // A merged base for the batch to update and delete.
    std::vector<Row> base;
    for (Key k = 0; k < 16; k += 1 + static_cast<Key>(rng.Uniform(3))) {
      base.push_back(Row{Value(k), Value(k * 100), Value(payload(k * 100))});
      model[k] = k * 100;
    }
    table.AppendBatch(std::move(base), 1);

    // A random batch over a key space that overlaps the base.
    const size_t n = rng.Uniform(60);
    const Key key_space = 4 + static_cast<Key>(rng.Uniform(28));
    std::vector<DeltaEntry> entries;
    std::map<Key, size_t> first_upsert;  // key -> entry index
    for (size_t i = 0; i < n; ++i) {
      DeltaEntry e;
      e.key = static_cast<Key>(rng.Uniform(static_cast<uint64_t>(key_space)));
      e.csn = 2 + i;
      if (rng.Bernoulli(0.3)) {
        e.op = ChangeOp::kDelete;
        model.erase(e.key);
      } else {
        e.op = rng.Bernoulli(0.5) ? ChangeOp::kInsert : ChangeOp::kUpdate;
        const int64_t v = static_cast<int64_t>(1000 + i);
        e.row = Row{Value(e.key), Value(v), Value(payload(v))};
        model[e.key] = v;
        first_upsert.emplace(e.key, i);
      }
      entries.push_back(std::move(e));
    }
    // Keys whose last entry is an upsert, by their first upsert's index.
    std::vector<std::pair<size_t, Key>> expect_order;
    std::map<Key, ChangeOp> last_op;
    for (const DeltaEntry& e : entries) last_op[e.key] = e.op;
    for (const auto& [k, op] : last_op)
      if (op != ChangeOp::kDelete) expect_order.emplace_back(first_upsert[k], k);
    std::sort(expect_order.begin(), expect_order.end());

    const size_t groups_before = table.num_groups();
    {
      WriteGuard g(table.latch());
      ApplyEntriesToColumnTableLocked(&table, std::move(entries), 2 + n);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(table.merged_csn(), 2 + n);
    EXPECT_EQ(table.live_rows(), model.size());

    // The new group holds the survivors in first-upsert order.
    std::vector<Key> new_keys;
    if (table.num_groups() > groups_before)
      new_keys = table.group(groups_before)->keys;
    ASSERT_EQ(new_keys.size(), expect_order.size());
    for (size_t i = 0; i < expect_order.size(); ++i)
      EXPECT_EQ(new_keys[i], expect_order[i].second) << "position " << i;

    for (Key k = 0; k < 32; ++k) {
      size_t gi = 0, off = 0;
      const auto it = model.find(k);
      ASSERT_EQ(table.FindKey(k, &gi, &off), it != model.end()) << "key " << k;
      if (it == model.end()) continue;
      const Row r = table.MaterializeRow(*table.group(gi), off);
      EXPECT_EQ(r.Get(0).AsInt64(), k);
      EXPECT_EQ(r.Get(1).AsInt64(), it->second) << "key " << k;
      EXPECT_EQ(r.Get(2).AsString(), payload(it->second)) << "key " << k;
      if (last_op.count(k) != 0) {
        EXPECT_EQ(gi, groups_before) << "key " << k;
      }
    }
  }
}

// The central HTAP invariant: at every point in a random interleaving of
// committed writes and merges, scan(main) ⊎ delta == row-store state.
TEST(SyncTest, PropertyDeltaColumnUnionEqualsRowStore) {
  InMemoryDeltaStore delta;
  DeltaRouter router(&delta);
  TransactionManager mgr(nullptr, TransactionManager::kDefaultCommitShards,
                         &router);
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  ColumnTable table(TestSchema());

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

    if (rng.Bernoulli(0.1)) Merge(&table, &delta, mgr.LastCommittedCsn());

    if (step % 37 == 0) {
      ASSERT_EQ(HtapState(table, &delta, mgr.LastCommittedCsn()), live)
          << "divergence at step " << step;
    }
  }
  // Final full merge: pure column scan (no delta) must also agree.
  Merge(&table, &delta, mgr.LastCommittedCsn());
  EXPECT_EQ(HtapState(table, nullptr, mgr.LastCommittedCsn()), live);
}

// The local engine's one merge (LocalHtapEngine::MergeDelta), through the
// public API on each local preset.
class EngineMergeTest : public ::testing::TestWithParam<ArchitectureKind> {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.architecture = GetParam();
    opts.background_sync = false;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).ValueOrDie();
    ASSERT_TRUE(db_->CreateTable("t", TestSchema()).ok());
  }

  std::unique_ptr<Database> db_;
};

// One merge drains every committed entry; a second merge to the same CSN
// does nothing.
TEST_P(EngineMergeTest, ForceSyncMergesOnceAndIsIdempotent) {
  for (Key k = 0; k < 100; ++k)
    ASSERT_TRUE(db_->InsertRow("t", MakeRow(k, k * 2)).ok());
  ASSERT_TRUE(db_->ForceSync("t").ok());
  EXPECT_EQ(db_->Stats().merges, 1u);
  EXPECT_EQ(db_->Stats().entries_merged, 100u);
  const FreshnessInfo f = db_->Freshness("t");
  EXPECT_EQ(f.visible_csn, f.committed_csn);
  EXPECT_EQ(f.pending_delta_entries, 0u);
  ASSERT_TRUE(db_->ForceSync("t").ok());  // no-op: target already reached
  EXPECT_EQ(db_->Stats().merges, 1u);
  EXPECT_EQ(db_->Stats().entries_merged, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    LocalPresets, EngineMergeTest,
    ::testing::Values(ArchitectureKind::kRowPlusInMemoryColumn,
                      ArchitectureKind::kDiskRowPlusDistributedColumn,
                      ArchitectureKind::kColumnPlusDeltaRow));

// (a) and (d) maintain the catalog's stats from their merges; (c) samples
// them from the row store instead.
using MergeStatsTest = EngineMergeTest;

// The merge feeds the stats from the drained rows, which the apply then
// moves into the column table: the published stats must still see every
// row.
TEST_P(MergeStatsTest, PublishedStatsSeeMergedRows) {
  for (Key k = 1; k <= 40; ++k)
    ASSERT_TRUE(db_->InsertRow("t", MakeRow(k, 100 + k)).ok());
  ASSERT_TRUE(db_->ForceSync("t").ok());
  PublishedTableStats published;
  ASSERT_TRUE(db_->catalog()->GetStats("t", &published));
  EXPECT_EQ(published.as_of_csn, db_->Freshness("t").committed_csn);
  EXPECT_EQ(published.stats.row_count, 40u);
  ASSERT_EQ(published.stats.columns.size(), 2u);
  EXPECT_EQ(published.stats.columns[1].min.AsInt64(), 101);
  EXPECT_EQ(published.stats.columns[1].max.AsInt64(), 140);
  EXPECT_EQ(published.stats.columns[1].ndv, 40);
}

// A merge that drains nothing still publishes: a table no commit writes
// keeps stats as of the commit frontier, not of its last write.
TEST_P(MergeStatsTest, UnwrittenTablePublishesAtTheMergedCsn) {
  ASSERT_TRUE(db_->CreateTable("idle", TestSchema()).ok());
  for (Key k = 0; k < 5; ++k)
    ASSERT_TRUE(db_->InsertRow("t", MakeRow(k, k)).ok());
  ASSERT_TRUE(db_->ForceSyncAll().ok());
  const CSN c = db_->Freshness("t").committed_csn;
  PublishedTableStats idle;
  ASSERT_TRUE(db_->catalog()->GetStats("idle", &idle));
  EXPECT_EQ(idle.as_of_csn, c);
  EXPECT_EQ(idle.stats.row_count, 0u);

  ASSERT_TRUE(db_->InsertRow("t", MakeRow(5, 5)).ok());
  ASSERT_TRUE(db_->ForceSyncAll().ok());
  ASSERT_TRUE(db_->catalog()->GetStats("idle", &idle));
  EXPECT_EQ(idle.as_of_csn, c + 1);
}

INSTANTIATE_TEST_SUITE_P(
    MergeMaintainedPresets, MergeStatsTest,
    ::testing::Values(ArchitectureKind::kRowPlusInMemoryColumn,
                      ArchitectureKind::kColumnPlusDeltaRow));

TEST(FreshnessTrackerTest, LagReflectsUnmergedCommits) {
  VirtualClock clock;
  FreshnessTracker tracker(&clock);
  clock.AdvanceTo(1000);
  tracker.RecordCommit(10);
  clock.AdvanceTo(5000);

  EXPECT_EQ(tracker.TimeLagMicros(/*visible=*/9), 4000);
  EXPECT_EQ(tracker.TimeLagMicros(/*visible=*/10), 0);
  EXPECT_EQ(tracker.CsnLag(10, 4), 6u);
  EXPECT_EQ(tracker.CsnLag(10, 10), 0u);
}

// TimeLagMicros' binary search agrees with a linear walk from the oldest
// sample on random CSN streams and random visible CSNs.
TEST(FreshnessTrackerTest, TimeLagMatchesLinearReference) {
  Random rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    VirtualClock clock;
    FreshnessTracker tracker(&clock);
    std::vector<std::pair<CSN, Micros>> samples;
    CSN csn = rng.Uniform(5);
    Micros now = 0;
    const size_t n = rng.Uniform(300);
    for (size_t i = 0; i < n; ++i) {
      csn += 1 + rng.Uniform(4);
      now += static_cast<Micros>(rng.Uniform(50));
      clock.AdvanceTo(now);
      tracker.RecordCommit(csn);
      samples.emplace_back(csn, now);
    }
    now += 1000;
    clock.AdvanceTo(now);
    for (CSN visible = 0; visible <= csn + 2; ++visible) {
      Micros expect = 0;
      for (const auto& [c, t] : samples) {
        if (c > visible) {
          expect = now - t;
          break;
        }
      }
      ASSERT_EQ(tracker.TimeLagMicros(visible), expect)
          << "trial " << trial << " visible " << visible;
    }
  }
}

}  // namespace
}  // namespace htap

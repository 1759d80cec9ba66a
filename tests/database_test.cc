// Cross-architecture facade tests: the same API contract holds on all four
// presets (parameterized), plus architecture-specific behaviors.

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/database.h"

namespace htap {
namespace {

Schema OrdersSchema() {
  return Schema({{"id", Type::kInt64}, {"qty", Type::kInt64},
                 {"region", Type::kString}, {"amount", Type::kDouble}});
}

Row Order(Key id, int64_t qty, const std::string& region, double amount) {
  return Row{Value(id), Value(qty), Value(region), Value(amount)};
}

class DatabaseTest : public ::testing::TestWithParam<ArchitectureKind> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/htap_dbtest_XXXXXX";
    dir_ = mkdtemp(tmpl);
    DatabaseOptions opts;
    opts.architecture = GetParam();
    opts.data_dir = dir_;
    opts.background_sync = false;  // tests drive syncs explicitly
    opts.dist.num_shards = 2;
    opts.dist.learner_merge_interval = 0;
    auto res = Database::Open(opts);
    ASSERT_TRUE(res.ok());
    db_ = std::move(*res);
    ASSERT_TRUE(db_->CreateTable("orders", OrdersSchema()).ok());
  }

  void TearDown() override {
    db_.reset();
    std::system(("rm -rf " + dir_).c_str());
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_P(DatabaseTest, InsertAndPointRead) {
  ASSERT_TRUE(db_->InsertRow("orders", Order(1, 5, "west", 9.5)).ok());
  Row out;
  ASSERT_TRUE(db_->GetRow("orders", 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 5);
  EXPECT_TRUE(db_->GetRow("orders", 42, &out).IsNotFound());
}

TEST_P(DatabaseTest, TransactionCommitGroupsWrites) {
  auto txn = db_->Begin();
  ASSERT_TRUE(txn->Insert("orders", Order(1, 1, "a", 1.0)).ok());
  ASSERT_TRUE(txn->Insert("orders", Order(2, 2, "b", 2.0)).ok());
  ASSERT_TRUE(txn->Commit().ok());
  Row out;
  EXPECT_TRUE(db_->GetRow("orders", 1, &out).ok());
  EXPECT_TRUE(db_->GetRow("orders", 2, &out).ok());
}

TEST_P(DatabaseTest, AbortDiscardsWrites) {
  auto txn = db_->Begin();
  ASSERT_TRUE(txn->Insert("orders", Order(7, 1, "a", 1.0)).ok());
  ASSERT_TRUE(txn->Abort().ok());
  Row out;
  EXPECT_TRUE(db_->GetRow("orders", 7, &out).IsNotFound());
}

TEST_P(DatabaseTest, DestructorAbortsOpenTransaction) {
  {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn->Insert("orders", Order(8, 1, "a", 1.0)).ok());
    // no Commit
  }
  Row out;
  EXPECT_TRUE(db_->GetRow("orders", 8, &out).IsNotFound());
}

TEST_P(DatabaseTest, ReadYourOwnWrites) {
  ASSERT_TRUE(db_->InsertRow("orders", Order(1, 1, "a", 1.0)).ok());
  auto txn = db_->Begin();
  ASSERT_TRUE(txn->Insert("orders", Order(2, 2, "b", 2.0)).ok());
  Row out;
  ASSERT_TRUE(txn->Get("orders", 2, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 2);
  ASSERT_TRUE(txn->Commit().ok());
}

TEST_P(DatabaseTest, UpdateAndDelete) {
  ASSERT_TRUE(db_->InsertRow("orders", Order(1, 1, "a", 1.0)).ok());
  ASSERT_TRUE(db_->UpdateRow("orders", Order(1, 9, "a", 1.0)).ok());
  Row out;
  ASSERT_TRUE(db_->GetRow("orders", 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 9);
  ASSERT_TRUE(db_->DeleteRow("orders", 1).ok());
  EXPECT_TRUE(db_->GetRow("orders", 1, &out).IsNotFound());
}

TEST_P(DatabaseTest, AnalyticalQuerySeesCommittedData) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db_->InsertRow("orders", Order(i, i % 4,
                                               i % 2 ? "west" : "east",
                                               i * 1.0))
                    .ok());
  }
  ASSERT_TRUE(db_->ForceSync("orders").ok());
  QueryPlan plan;
  plan.table = "orders";
  plan.where = Predicate::Eq(2, Value("west"));
  plan.aggs = {AggSpec::Count("n"), AggSpec::Sum(3, "total")};
  auto res = db_->Query(plan);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 20);
  double expected = 0;
  for (int i = 1; i < 40; i += 2) expected += i;
  EXPECT_DOUBLE_EQ(res->rows[0].Get(1).AsDouble(), expected);
}

TEST_P(DatabaseTest, FreshQueriesSeeUnmergedWrites) {
  // Without any ForceSync, require_fresh=true must still see everything
  // (delta union / log union), on every architecture.
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(db_->InsertRow("orders", Order(i, 1, "x", 1.0)).ok());
  if (GetParam() == ArchitectureKind::kDistributedRowPlusColumnReplica) {
    // Replication is asynchronous: give the learner its log.
    ASSERT_TRUE(db_->ForceSync("orders").ok());
  }
  QueryPlan plan;
  plan.table = "orders";
  plan.aggs = {AggSpec::Count("n")};
  plan.require_fresh = true;
  auto res = db_->Query(plan);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 10);
}

TEST_P(DatabaseTest, FreshAggregateRightAfterCommitMatchesMerged) {
  // One transaction spanning every shard on (b); no sync, no point reads
  // in between: the fresh answer must already count every row.
  auto txn = db_->Begin();
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(txn->Insert("orders", Order(i, i % 5, i % 2 ? "w" : "e",
                                            i * 0.5))
                    .ok());
  ASSERT_TRUE(txn->Commit().ok());
  QueryPlan plan;
  plan.table = "orders";
  plan.where = Predicate::Gt(1, Value(int64_t{1}));
  plan.aggs = {AggSpec::Count("n"), AggSpec::Sum(3, "total")};
  plan.require_fresh = true;
  auto fresh = db_->Query(plan);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE(db_->ForceSync("orders").ok());
  auto merged = db_->Query(plan);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->rows[0].Get(0).AsInt64(), 120);
  EXPECT_EQ(fresh->rows[0].ToString(), merged->rows[0].ToString());
}

TEST_P(DatabaseTest, FreshnessImprovesWithSync) {
  for (int i = 0; i < 25; ++i)
    ASSERT_TRUE(db_->InsertRow("orders", Order(i, 1, "x", 1.0)).ok());
  ASSERT_TRUE(db_->ForceSync("orders").ok());
  const FreshnessInfo after = db_->Freshness("orders");
  EXPECT_EQ(after.csn_lag, 0u) << "visible=" << after.visible_csn
                               << " committed=" << after.committed_csn;
}

TEST_P(DatabaseTest, JoinQuery) {
  ASSERT_TRUE(db_->CreateTable(
                     "region_info",
                     Schema({{"r_id", Type::kInt64},
                             {"r_name", Type::kString},
                             {"r_tax", Type::kDouble}}))
                  .ok());
  ASSERT_TRUE(db_->InsertRow("region_info",
                             Row{Value(int64_t{1}), Value("west"),
                                 Value(0.1)})
                  .ok());
  ASSERT_TRUE(db_->InsertRow("region_info",
                             Row{Value(int64_t{2}), Value("east"),
                                 Value(0.2)})
                  .ok());
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(db_->InsertRow("orders", Order(i, i % 2 + 1, "r", 10.0)).ok());
  ASSERT_TRUE(db_->ForceSyncAll().ok());

  QueryPlan plan;
  plan.table = "orders";
  plan.has_join = true;
  plan.join_table = "region_info";
  plan.left_col = 1;   // qty joins r_id (1 or 2)
  plan.right_col = 0;
  plan.group_by = {5};  // r_name in combined layout (4 orders cols + 1)
  plan.aggs = {AggSpec::Count("n")};
  auto res = db_->Query(plan);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 2u);
}

TEST_P(DatabaseTest, SqlEndToEnd) {
  auto create = db_->ExecuteSql(
      "CREATE TABLE kv (k INT64 PRIMARY KEY, v INT64, tag STRING)");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  ASSERT_TRUE(db_->ExecuteSql(
                     "INSERT INTO kv VALUES (1, 10, 'a'), (2, 20, 'b'), "
                     "(3, 30, 'a')")
                  .ok());
  ASSERT_TRUE(db_->ForceSync("kv").ok());
  auto res = db_->ExecuteSql(
      "SELECT tag, COUNT(*) AS n, SUM(v) AS total FROM kv "
      "GROUP BY tag ORDER BY tag");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 2u);
  EXPECT_EQ(res->rows[0].Get(0).AsString(), "a");
  EXPECT_EQ(res->rows[0].Get(1).AsInt64(), 2);
  EXPECT_DOUBLE_EQ(res->rows[0].Get(2).AsDouble(), 40.0);

  auto upd = db_->ExecuteSql("UPDATE kv SET v = 99 WHERE k = 2");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  Row out;
  ASSERT_TRUE(db_->GetRow("kv", 2, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 99);

  ASSERT_TRUE(db_->ExecuteSql("DELETE FROM kv WHERE tag = 'a'").ok());
  EXPECT_TRUE(db_->GetRow("kv", 1, &out).IsNotFound());
  EXPECT_TRUE(db_->GetRow("kv", 2, &out).ok());
}

TEST_P(DatabaseTest, StatsReflectActivity) {
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(db_->InsertRow("orders", Order(i, 1, "x", 1.0)).ok());
  const EngineStats stats = db_->Stats();
  EXPECT_GE(stats.commits, 5u);
}

TEST_P(DatabaseTest, DuplicateTableRejected) {
  EXPECT_TRUE(db_->CreateTable("orders", OrdersSchema()).IsAlreadyExists());
}

TEST_P(DatabaseTest, CommitStagesChangesOnlyInTheTablesItWrites) {
  for (const char* name : {"t1", "t2", "t3"})
    ASSERT_TRUE(db_->CreateTable(name, OrdersSchema()).ok());
  const auto pending = [&](const char* t) {
    return db_->Freshness(t).pending_delta_entries;
  };
  auto txn = db_->Begin();
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(txn->Insert("t1", Order(i, 1, "a", 1.0)).ok());
  for (int i = 0; i < 2; ++i)
    ASSERT_TRUE(txn->Insert("t2", Order(i, 1, "b", 1.0)).ok());
  ASSERT_TRUE(txn->Commit().ok());
  if (GetParam() == ArchitectureKind::kDistributedRowPlusColumnReplica) {
    // Replication is asynchronous: point reads advance the simulated clock
    // until the learners have staged the commit.
    Row row;
    for (int i = 0; i < 100000 && pending("t1") + pending("t2") < 5; ++i)
      db_->GetRow("t1", 0, &row);
  }
  EXPECT_EQ(pending("t1"), 3u);
  EXPECT_EQ(pending("t2"), 2u);
  EXPECT_EQ(pending("t3"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, DatabaseTest,
    ::testing::Values(ArchitectureKind::kRowPlusInMemoryColumn,
                      ArchitectureKind::kDistributedRowPlusColumnReplica,
                      ArchitectureKind::kDiskRowPlusDistributedColumn,
                      ArchitectureKind::kColumnPlusDeltaRow),
    [](const ::testing::TestParamInfo<ArchitectureKind>& info) {
      switch (info.param) {
        case ArchitectureKind::kRowPlusInMemoryColumn: return "RowPlusIMC";
        case ArchitectureKind::kDistributedRowPlusColumnReplica:
          return "DistRowColReplica";
        case ArchitectureKind::kDiskRowPlusDistributedColumn:
          return "DiskRowIMCS";
        case ArchitectureKind::kColumnPlusDeltaRow: return "ColPlusDeltaRow";
      }
      return "Unknown";
    });

// ---- Architecture-specific behaviors -------------------------------------

TEST(InMemoryEngineTest, WriteWriteConflictSurfacesAsConflict) {
  DatabaseOptions opts;
  opts.background_sync = false;
  auto db = std::move(*Database::Open(opts));
  ASSERT_TRUE(db->CreateTable("orders", OrdersSchema()).ok());
  ASSERT_TRUE(db->InsertRow("orders", Order(1, 1, "a", 1.0)).ok());
  auto t1 = db->Begin();
  auto t2 = db->Begin();
  ASSERT_TRUE(t1->Update("orders", Order(1, 2, "a", 1.0)).ok());
  EXPECT_TRUE(t2->Update("orders", Order(1, 3, "a", 1.0)).IsConflict());
  ASSERT_TRUE(t1->Commit().ok());
  ASSERT_TRUE(t2->Abort().ok());
}

TEST(InMemoryEngineTest, HybridPathPicksIndexForPointAndColumnForScan) {
  DatabaseOptions opts;
  opts.background_sync = false;
  auto db = std::move(*Database::Open(opts));
  ASSERT_TRUE(db->CreateTable("orders", OrdersSchema()).ok());
  for (int i = 0; i < 2000; ++i)
    ASSERT_TRUE(db->InsertRow("orders", Order(i, i % 7, "r", 1.0)).ok());
  ASSERT_TRUE(db->ForceSync("orders").ok());

  QueryPlan point;
  point.table = "orders";
  point.where = Predicate::Eq(0, Value(int64_t{42}));
  QueryExecInfo info;
  ASSERT_TRUE(db->Query(point, &info).ok());
  EXPECT_EQ(info.access_path, "row-index-lookup");

  QueryPlan wide;
  wide.table = "orders";
  wide.where = Predicate::Eq(1, Value(int64_t{3}));
  wide.aggs = {AggSpec::Count("n")};
  QueryExecInfo info2;
  auto res = db->Query(wide, &info2);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(info2.access_path, "column-scan");
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 2000 / 7 + (3 < 2000 % 7 ? 1 : 0));

  // (a) keeps every column loaded; only (c) reselects them.
  auto* engine = static_cast<LocalHtapEngine*>(db->engine());
  EXPECT_TRUE(engine->RefreshColumnSelection(*db->catalog()->Find("orders"))
                  .status()
                  .IsNotSupported());
}

TEST(DeltaMainEngineTest, ScansGoThroughMainPlusDelta) {
  DatabaseOptions opts;
  opts.architecture = ArchitectureKind::kColumnPlusDeltaRow;
  opts.background_sync = false;
  opts.l1_spill_threshold = 4;  // force L1->L2 spills
  auto db = std::move(*Database::Open(opts));
  ASSERT_TRUE(db->CreateTable("orders", OrdersSchema()).ok());
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(db->InsertRow("orders", Order(i, 1, "x", 1.0)).ok());
  QueryPlan plan;
  plan.table = "orders";
  plan.aggs = {AggSpec::Count("n")};
  QueryExecInfo info;
  auto res = db->Query(plan, &info);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(info.access_path, "main+l2+l1-scan");
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 10);
}

TEST(DiskEngineTest, ColumnSelectionGatesPushdown) {
  char tmpl[] = "/tmp/htap_diskeng_XXXXXX";
  std::string dir = mkdtemp(tmpl);
  DatabaseOptions opts;
  opts.architecture = ArchitectureKind::kDiskRowPlusDistributedColumn;
  opts.data_dir = dir;
  opts.background_sync = false;
  opts.column_memory_budget_bytes = 1 << 20;
  auto db = std::move(*Database::Open(opts));
  ASSERT_TRUE(db->CreateTable("orders", OrdersSchema()).ok());
  for (int i = 0; i < 500; ++i)
    ASSERT_TRUE(db->InsertRow("orders", Order(i, i % 5, "r", 2.0)).ok());

  auto* engine = static_cast<LocalHtapEngine*>(db->engine());
  // Build heat on columns {0,1} only, then re-select under the budget.
  QueryPlan warm;
  warm.table = "orders";
  warm.where = Predicate::Gt(1, Value(int64_t{-1}));
  warm.projection = {0, 1};
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(db->Query(warm).ok());
  const TableInfo* info = db->catalog()->Find("orders");
  auto sel = engine->RefreshColumnSelection(*info);
  ASSERT_TRUE(sel.ok());
  const auto loaded = engine->LoadedColumns(info->id);
  EXPECT_EQ(loaded, (std::vector<int>{0, 1}));

  // A query over loaded columns pushes down; one touching cold columns
  // falls back to the disk heap.
  QueryExecInfo xi;
  ASSERT_TRUE(db->Query(warm, &xi).ok());
  EXPECT_EQ(xi.access_path, "imcs-pushdown");
  QueryPlan cold;
  cold.table = "orders";
  cold.where = Predicate::Gt(3, Value(0.0));  // amount is not loaded
  cold.aggs = {AggSpec::Count("n")};
  QueryExecInfo xi2;
  auto res = db->Query(cold, &xi2);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(xi2.access_path, "disk-heap-scan");
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 500);
  db.reset();
  std::system(("rm -rf " + dir).c_str());
}

TEST(DiskEngineTest, EmptyDataDirKeepsHeapsPrivate) {
  // With no data_dir, (c) keeps its WAL in memory and its heap files in a
  // directory of its own: databases open together, or one after another,
  // never see each other's rows.
  DatabaseOptions opts;
  opts.architecture = ArchitectureKind::kDiskRowPlusDistributedColumn;
  opts.background_sync = false;
  const auto open_with_rows = [&](Key first_key, int n) {
    auto db = std::move(*Database::Open(opts));
    EXPECT_TRUE(db->CreateTable("orders", OrdersSchema()).ok());
    for (Key k = first_key; k < first_key + n; ++k)
      EXPECT_TRUE(db->InsertRow("orders", Order(k, 1, "x", 1.0)).ok());
    return db;
  };
  const auto heap_rows = [](Database* db) {
    QueryPlan plan;
    plan.table = "orders";
    plan.path = PathHint::kForceRow;
    plan.aggs = {AggSpec::Count("n")};
    QueryExecInfo info;
    auto res = db->Query(plan, &info);
    EXPECT_EQ(info.access_path, "disk-heap-scan");
    return res.ok() ? res->rows[0].Get(0).AsInt64() : -1;
  };
  {
    auto first = open_with_rows(0, 5);
    auto second = open_with_rows(100, 3);
    EXPECT_EQ(heap_rows(first.get()), 5);
    EXPECT_EQ(heap_rows(second.get()), 3);
  }
  auto third = open_with_rows(200, 2);
  EXPECT_EQ(heap_rows(third.get()), 2);
}

TEST(DistEngineTest, StaleColumnScanLagsWithoutSync) {
  DatabaseOptions opts;
  opts.architecture = ArchitectureKind::kDistributedRowPlusColumnReplica;
  opts.background_sync = false;
  opts.dist.num_shards = 2;
  opts.dist.learner_merge_interval = 0;
  auto db = std::move(*Database::Open(opts));
  ASSERT_TRUE(db->CreateTable("orders", OrdersSchema()).ok());
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(db->InsertRow("orders", Order(i, 1, "x", 1.0)).ok());
  QueryPlan stale;
  stale.table = "orders";
  stale.aggs = {AggSpec::Count("n")};
  stale.require_fresh = false;  // pure column scan on unmerged learners
  auto res = db->Query(stale);
  ASSERT_TRUE(res.ok());
  EXPECT_LT(res->rows[0].Get(0).AsInt64(), 8);  // lags behind commits
  ASSERT_TRUE(db->ForceSync("orders").ok());
  res = db->Query(stale);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 8);
}

}  // namespace
}  // namespace htap

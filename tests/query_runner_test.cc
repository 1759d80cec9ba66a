// Query-runner tests: output schemas, the aggregate projection-pushdown
// remapping, join + aggregate composition, ORDER BY/LIMIT interplay, and
// scan-request contents observed through a spy scan function.

#include <gtest/gtest.h>

#include "core/query_runner.h"

namespace htap {
namespace {

class QueryRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .AddTable("sales",
                              Schema({{"id", Type::kInt64},
                                      {"cust", Type::kInt64},
                                      {"qty", Type::kInt64},
                                      {"price", Type::kDouble},
                                      {"note", Type::kString}}),
                              nullptr)
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddTable("cust", Schema({{"c_id", Type::kInt64},
                                              {"c_name", Type::kString}}),
                              nullptr)
                    .ok());
    // 20 sales rows: cust in {1,2}, qty = i%5, price = i.
    for (int i = 0; i < 20; ++i)
      sales_.push_back(Row{Value(static_cast<int64_t>(i)),
                           Value(static_cast<int64_t>(i % 2 + 1)),
                           Value(static_cast<int64_t>(i % 5)),
                           Value(static_cast<double>(i)),
                           Value("n" + std::to_string(i))});
    cust_.push_back(Row{Value(int64_t{1}), Value("alice")});
    cust_.push_back(Row{Value(int64_t{2}), Value("bob")});
  }

  /// Scan function that serves the in-memory rows honoring the projection
  /// and records what was requested.
  ScanFn MakeScan() {
    return [this](const ScanRequest& req, ScanStats*,
                  std::string*) -> Result<std::vector<ColumnBatch>> {
      last_projection_ = req.projection;
      scan_csns_.push_back(req.csn);
      const auto& source = req.table->name == "sales" ? sales_ : cust_;
      std::vector<Row> out;
      for (const Row& r : source) {
        if (!req.pred->Eval(r)) continue;
        if (req.projection.empty()) {
          out.push_back(r);
        } else {
          Row p;
          for (int c : req.projection) p.Append(r.Get(static_cast<size_t>(c)));
          out.push_back(std::move(p));
        }
      }
      return RowsToBatches(out, req.table->schema, req.projection, 8);
    };
  }

  Catalog catalog_;
  std::vector<Row> sales_, cust_;
  std::vector<int> last_projection_;
  std::vector<CSN> scan_csns_;
};

TEST_F(QueryRunnerTest, SimpleScanPushesUserProjection) {
  QueryPlan plan;
  plan.table = "sales";
  plan.projection = {4, 0};
  auto res = RunPlan(plan, catalog_, MakeScan(), nullptr);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(last_projection_, (std::vector<int>{4, 0}));
  EXPECT_EQ(res->schema.column(0).name, "note");
  EXPECT_EQ(res->rows.size(), 20u);
}

TEST_F(QueryRunnerTest, AggregatePushesOnlyNeededColumnsAndRemaps) {
  QueryPlan plan;
  plan.table = "sales";
  plan.where = Predicate::Ge(0, Value(int64_t{0}));
  plan.group_by = {1};  // cust
  plan.aggs = {AggSpec::Sum(3, "revenue"), AggSpec::Count("n")};
  auto res = RunPlan(plan, catalog_, MakeScan(), nullptr);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  // Scan saw only {cust, price}, sorted.
  EXPECT_EQ(last_projection_, (std::vector<int>{1, 3}));
  ASSERT_EQ(res->rows.size(), 2u);
  auto rows = res->rows;
  SortLimit(&rows, 0, false, 0);
  // cust 1: ids 0,2,...,18 -> sum of even i = 90; count 10.
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 1);
  EXPECT_DOUBLE_EQ(rows[0].Get(1).AsDouble(), 90.0);
  EXPECT_EQ(rows[0].Get(2).AsInt64(), 10);
  // cust 2: odd i -> 100.
  EXPECT_DOUBLE_EQ(rows[1].Get(1).AsDouble(), 100.0);
  // Output schema names come from the ORIGINAL table layout.
  EXPECT_EQ(res->schema.column(0).name, "cust");
  EXPECT_EQ(res->schema.column(1).name, "revenue");
}

TEST_F(QueryRunnerTest, CountStarOnlyStillWorksWithPushdown) {
  QueryPlan plan;
  plan.table = "sales";
  plan.aggs = {AggSpec::Count("n")};
  auto res = RunPlan(plan, catalog_, MakeScan(), nullptr);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 20);
  // COUNT(*) consumes no column: the scan reads the primary key alone
  // rather than every column (an empty projection).
  EXPECT_EQ(last_projection_, (std::vector<int>{0}));
}

TEST_F(QueryRunnerTest, EveryScanOfAJoinReadsTheQueryCsn) {
  QueryPlan plan;
  plan.table = "sales";
  JoinClause by_cust;
  by_cust.table = "cust";
  by_cust.left_col = 1;   // sales.cust
  by_cust.right_col = 0;  // cust.c_id
  JoinClause again = by_cust;
  again.left_col = 5;  // the first join's c_id
  plan.joins = {by_cust, again};
  ExecContext exec;
  exec.committed_csn = 42;
  auto res = RunPlan(plan, catalog_, MakeScan(), nullptr, exec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 20u);
  EXPECT_EQ(scan_csns_, (std::vector<CSN>{42, 42, 42}));
}

TEST_F(QueryRunnerTest, JoinThenAggregateUsesCombinedLayout) {
  QueryPlan plan;
  plan.table = "sales";
  // sales.cust = cust.c_id.
  plan.joins.push_back(JoinClause{"cust", Predicate::True(), 1, 0});
  plan.group_by = {6};  // cust.c_name in combined layout (5 + 1)
  plan.aggs = {AggSpec::Sum(2, "total_qty")};
  plan.order_by = 0;
  auto res = RunPlan(plan, catalog_, MakeScan(), nullptr);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 2u);
  EXPECT_EQ(res->rows[0].Get(0).AsString(), "alice");
  EXPECT_EQ(res->schema.column(0).name, "c_name");
}

TEST_F(QueryRunnerTest, JoinWherePushedToRightSide) {
  QueryPlan plan;
  plan.table = "sales";
  // The join's predicate is in the right table's own layout.
  plan.joins.push_back(
      JoinClause{"cust", Predicate::Eq(1, Value("bob")), 1, 0});
  plan.aggs = {AggSpec::Count("n")};
  auto res = RunPlan(plan, catalog_, MakeScan(), nullptr);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 10);  // only bob's sales
}

TEST_F(QueryRunnerTest, OrderByDescWithLimit) {
  QueryPlan plan;
  plan.table = "sales";
  plan.projection = {0, 3};
  plan.order_by = 1;  // price, in the projected layout
  plan.order_desc = true;
  plan.limit = 3;
  auto res = RunPlan(plan, catalog_, MakeScan(), nullptr);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 3u);
  EXPECT_DOUBLE_EQ(res->rows[0].Get(1).AsDouble(), 19.0);
  EXPECT_DOUBLE_EQ(res->rows[2].Get(1).AsDouble(), 17.0);
}

TEST_F(QueryRunnerTest, LimitWithoutOrderTruncates) {
  QueryPlan plan;
  plan.table = "sales";
  plan.limit = 5;
  auto res = RunPlan(plan, catalog_, MakeScan(), nullptr);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 5u);
}

TEST_F(QueryRunnerTest, UnknownTablesError) {
  QueryPlan plan;
  plan.table = "missing";
  EXPECT_TRUE(RunPlan(plan, catalog_, MakeScan(), nullptr).status()
                  .IsNotFound());
  plan.table = "sales";
  plan.joins.push_back(JoinClause{"nope", Predicate::True(), 1, 0});
  EXPECT_TRUE(RunPlan(plan, catalog_, MakeScan(), nullptr).status()
                  .IsNotFound());
}

TEST_F(QueryRunnerTest, PlanOutputSchemaMatchesResult) {
  QueryPlan plan;
  plan.table = "sales";
  plan.group_by = {1};
  plan.aggs = {AggSpec::Avg(3, "avg_price"), AggSpec::Max(2, "max_qty")};
  auto schema = PlanOutputSchema(plan, catalog_);
  ASSERT_TRUE(schema.ok());
  auto res = RunPlan(plan, catalog_, MakeScan(), nullptr);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(schema->num_columns(), res->schema.num_columns());
  for (size_t i = 0; i < schema->num_columns(); ++i) {
    EXPECT_EQ(schema->column(i).name, res->schema.column(i).name);
    EXPECT_EQ(schema->column(i).type, res->schema.column(i).type);
  }
  // MAX over an INT64 column keeps its input type; AVG is DOUBLE.
  EXPECT_EQ(schema->column(1).type, Type::kDouble);
  EXPECT_EQ(schema->column(2).type, Type::kInt64);
}

}  // namespace
}  // namespace htap

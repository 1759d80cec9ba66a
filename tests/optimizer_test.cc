// Optimizer tests: statistics, selectivity estimation (including where the
// uniformity assumption breaks — the survey's learned-optimizer motivation),
// hybrid access-path choice, and the column advisor.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "core/query_runner.h"
#include "opt/column_advisor.h"
#include "opt/optimizer.h"
#include "opt/stats_builder.h"
#include "reference_eval.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64},
                 {"s", Type::kString}});
}

std::vector<Row> UniformRows(size_t n) {
  std::vector<Row> rows;
  Random rng(1);
  for (size_t i = 0; i < n; ++i)
    rows.push_back(Row{Value(static_cast<int64_t>(i)),
                       Value(static_cast<int64_t>(rng.Uniform(100))),
                       Value("s" + std::to_string(rng.Uniform(10)))});
  return rows;
}

TEST(TableStatsTest, ComputesShape) {
  const auto stats = TableStats::Compute(TestSchema(), UniformRows(1000));
  EXPECT_EQ(stats.row_count, 1000u);
  ASSERT_EQ(stats.columns.size(), 3u);
  EXPECT_EQ(stats.columns[0].min.AsInt64(), 0);
  EXPECT_EQ(stats.columns[0].max.AsInt64(), 999);
  EXPECT_NEAR(stats.columns[0].ndv, 1000, 1);
  EXPECT_NEAR(stats.columns[1].ndv, 100, 5);
  EXPECT_NEAR(stats.columns[2].ndv, 10, 1);
}

TEST(SelectivityTest, EqualityUsesNdv) {
  const auto stats = TableStats::Compute(TestSchema(), UniformRows(1000));
  const double sel =
      EstimateSelectivity(Predicate::Eq(1, Value(int64_t{5})), stats);
  EXPECT_NEAR(sel, 0.01, 0.002);
}

TEST(SelectivityTest, RangeInterpolates) {
  const auto stats = TableStats::Compute(TestSchema(), UniformRows(1000));
  // id < 250 over [0, 999]: about a quarter.
  const double sel =
      EstimateSelectivity(Predicate::Lt(0, Value(int64_t{250})), stats);
  EXPECT_NEAR(sel, 0.25, 0.01);
  const double sel_hi =
      EstimateSelectivity(Predicate::Ge(0, Value(int64_t{900})), stats);
  EXPECT_NEAR(sel_hi, 0.1, 0.01);
}

TEST(SelectivityTest, ConjunctionAssumesIndependence) {
  const auto stats = TableStats::Compute(TestSchema(), UniformRows(1000));
  const auto p = Predicate::And({Predicate::Lt(0, Value(int64_t{500})),
                                 Predicate::Eq(1, Value(int64_t{7}))});
  EXPECT_NEAR(EstimateSelectivity(p, stats), 0.5 * 0.01, 0.005);
}

TEST(SelectivityTest, MisestimatesCorrelatedData) {
  // v == id % 100: perfectly correlated with id. The conjunction
  // (id < 100 AND v = id) has true selectivity 0.001 but the independence
  // assumption predicts 0.1 * 0.01 — this documented failure is the
  // survey's "learned HTAP optimizer" open problem.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 1000; ++i)
    rows.push_back(Row{Value(i), Value(i % 100), Value("x")});
  const auto stats = TableStats::Compute(TestSchema(), rows);
  const auto p = Predicate::And({Predicate::Lt(0, Value(int64_t{100})),
                                 Predicate::Eq(1, Value(int64_t{42}))});
  const double est = EstimateSelectivity(p, stats);
  const double truth = 1.0 / 1000.0;
  EXPECT_GT(est / truth, 0.5);  // it IS off; assert the direction and size
  EXPECT_NEAR(est, 0.1 * 0.01, 0.005);
}

TEST(AccessPathTest, PointLookupPrefersIndex) {
  AccessQuery q;
  q.row_count = 1000;
  q.columns_needed = 3;
  q.total_columns = 3;
  q.pk_point_lookup = true;
  EXPECT_EQ(ChooseAccessPath(q).path, AccessPath::kRowIndexLookup);
}

TEST(AccessPathTest, WideAnalyticalScanPrefersColumns) {
  AccessQuery q;
  q.row_count = 1000000;
  q.columns_needed = 1;  // touches 1 of 20 columns
  q.total_columns = 20;
  const auto choice = ChooseAccessPath(q);
  EXPECT_EQ(choice.path, AccessPath::kColumnScan);
  EXPECT_LT(choice.cost, 1000000.0 * 1.0);  // cheaper than the row scan
}

TEST(AccessPathTest, ColumnUnavailableFallsBackToRows) {
  AccessQuery q;
  q.row_count = 100;
  q.columns_needed = 1;
  q.total_columns = 3;
  q.column_store_available = false;
  EXPECT_EQ(ChooseAccessPath(q).path, AccessPath::kRowFullScan);
}

TEST(AccessPathTest, HugeDeltaPenalizesColumnScan) {
  AccessQuery q;
  q.row_count = 1000;
  q.columns_needed = 1;
  q.total_columns = 3;
  q.delta_entries = 0;
  EXPECT_EQ(ChooseAccessPath(q).path, AccessPath::kColumnScan);
  q.delta_entries = 1000000;  // unmerged backlog makes the union expensive
  EXPECT_EQ(ChooseAccessPath(q).path, AccessPath::kRowFullScan);
}

// An empty table scans its rows, and a column scan wins only while it
// reads less per row than a row read does (fewer than 12.5 columns).
TEST(AccessPathTest, RowCountAndWidthDecideRowVersusColumn) {
  AccessQuery q;
  q.columns_needed = 12;
  q.total_columns = 12;
  EXPECT_EQ(ChooseAccessPath(q).path, AccessPath::kRowFullScan);
  q.columns_needed = 2;
  q.row_count = 10;
  EXPECT_EQ(ChooseAccessPath(q).path, AccessPath::kColumnScan);
  q.columns_needed = 13;  // 13 x 0.08 per row is more than one row read
  q.row_count = 1000000;
  EXPECT_EQ(ChooseAccessPath(q).path, AccessPath::kRowFullScan);
}

TEST(ColumnAdvisorTest, SelectsHotColumnsUnderBudget) {
  ColumnAdvisor advisor;
  // Columns 1 and 3 are hot; all columns cost 100 bytes.
  for (int i = 0; i < 50; ++i) advisor.RecordAccess("t", {1, 3});
  advisor.RecordAccess("t", {0});
  const auto sel = advisor.Advise("t", {100, 100, 100, 100}, 250);
  // Budget fits the two hot columns; the barely-touched column 0 misses out.
  EXPECT_EQ(sel.columns, (std::vector<int>{1, 3}));
  EXPECT_EQ(sel.bytes_used, 200u);
}

TEST(ColumnAdvisorTest, BudgetExcludesExpensiveColdColumns) {
  ColumnAdvisor advisor;
  for (int i = 0; i < 50; ++i) advisor.RecordAccess("t", {1});
  advisor.RecordAccess("t", {2});
  // Column 2 is huge and barely used: it must not evict the hot column.
  const auto sel = advisor.Advise("t", {10, 10, 1000}, 100);
  EXPECT_EQ(sel.columns, (std::vector<int>{1}));
  EXPECT_GT(sel.heat_covered, 0.9);
}

TEST(ColumnAdvisorTest, ColdColumnsNeverSelected) {
  ColumnAdvisor advisor;
  advisor.RecordAccess("t", {0});
  const auto sel = advisor.Advise("t", {10, 10, 10}, 1000);
  EXPECT_EQ(sel.columns, (std::vector<int>{0}));
}

TEST(ColumnAdvisorTest, DecayFollowsWorkloadDrift) {
  ColumnAdvisor advisor(/*decay=*/0.1);
  for (int i = 0; i < 100; ++i) advisor.RecordAccess("t", {0});
  for (int i = 0; i < 5; ++i) advisor.Decay();
  for (int i = 0; i < 10; ++i) advisor.RecordAccess("t", {1});
  const auto heat = advisor.Heat("t");
  EXPECT_GT(heat[1], heat[0]);  // recent column 1 beats decayed column 0
}

TEST(ColumnAdvisorTest, EstimateColumnBytesScalesWithWidthAndRows) {
  auto stats = TableStats::Compute(
      TestSchema(), {Row{Value(int64_t{1}), Value(int64_t{2}),
                         Value(std::string(100, 'x'))}});
  stats.row_count = 1000;
  const auto bytes = EstimateColumnBytes(TestSchema(), stats);
  ASSERT_EQ(bytes.size(), 3u);
  EXPECT_GT(bytes[2], bytes[0] * 5);  // the wide string column dominates
}

// ---- Incremental statistics (stats_builder) ------------------------------

TEST(KmvSketchTest, ExactBelowKApproximateAbove) {
  KmvSketch small(256);
  for (int64_t i = 0; i < 100; ++i) small.Add(Value(i).Hash());
  EXPECT_DOUBLE_EQ(small.Estimate(), 100.0);
  // Re-adding the same hashes is idempotent.
  for (int64_t i = 0; i < 100; ++i) small.Add(Value(i).Hash());
  EXPECT_DOUBLE_EQ(small.Estimate(), 100.0);

  KmvSketch big(256);
  for (int64_t i = 0; i < 100000; ++i) big.Add(Value(i).Hash());
  EXPECT_NEAR(big.Estimate(), 100000.0, 100000.0 * 0.15);

  big.Reset();
  EXPECT_DOUBLE_EQ(big.Estimate(), 0.0);
}

TEST(TableStatsBuilderTest, IncrementalMatchesBatchCompute) {
  const auto rows = UniformRows(1000);
  const auto batch = TableStats::Compute(TestSchema(), rows);

  TableStatsBuilder builder(3);
  for (const Row& r : rows) builder.AddRow(r);
  const TableStats inc = builder.Snapshot(rows.size());

  EXPECT_EQ(inc.row_count, batch.row_count);
  ASSERT_EQ(inc.columns.size(), 3u);
  EXPECT_EQ(inc.columns[0].min.AsInt64(), batch.columns[0].min.AsInt64());
  EXPECT_EQ(inc.columns[0].max.AsInt64(), batch.columns[0].max.AsInt64());
  EXPECT_NEAR(inc.columns[0].ndv, batch.columns[0].ndv, 100);
  EXPECT_NEAR(inc.columns[1].ndv, 100, 5);
  EXPECT_NEAR(inc.columns[2].ndv, 10, 1);
}

TEST(TableStatsBuilderTest, DeletesAccumulateDriftUntilRecompute) {
  TableStatsBuilder builder(3);
  std::vector<DeltaEntry> entries;
  for (int64_t i = 0; i < 10; ++i) {
    DeltaEntry e;
    e.op = ChangeOp::kInsert;
    e.key = i;
    e.row = Row{Value(i), Value(i % 3), Value("x")};
    entries.push_back(std::move(e));
  }
  DeltaEntry del;
  del.op = ChangeOp::kDelete;
  del.key = 3;
  entries.push_back(std::move(del));
  builder.ApplyEntries(entries);

  EXPECT_EQ(builder.deletes_since_recompute(), 1u);
  // Deletes cannot shrink incremental estimates: bounds still span all
  // upserts.
  const TableStats st = builder.Snapshot(9);
  EXPECT_EQ(st.columns[0].min.AsInt64(), 0);
  EXPECT_EQ(st.columns[0].max.AsInt64(), 9);

  ColumnTable survivors(TestSchema());
  survivors.AppendBatch({Row{Value(int64_t{5}), Value(int64_t{1}), Value("y")}},
                        1);
  builder.RecomputeFromColumnTable(survivors, {0, 1, 2});
  EXPECT_EQ(builder.deletes_since_recompute(), 0u);
  const TableStats st2 = builder.Snapshot(1);
  EXPECT_EQ(st2.columns[0].min.AsInt64(), 5);
  EXPECT_EQ(st2.columns[0].max.AsInt64(), 5);
}

TEST(CatalogStatsTest, PublishVersionsAndMissingLookup) {
  Catalog catalog;
  EXPECT_FALSE(catalog.GetStats("t", nullptr));

  TableStats st;
  st.row_count = 10;
  catalog.PublishStats("t", st, /*as_of_csn=*/5);
  PublishedTableStats p;
  ASSERT_TRUE(catalog.GetStats("t", &p));
  EXPECT_EQ(p.stats.row_count, 10u);
  EXPECT_EQ(p.as_of_csn, 5u);
  EXPECT_EQ(p.version, 1u);

  st.row_count = 20;
  catalog.PublishStats("t", st, /*as_of_csn=*/9);
  ASSERT_TRUE(catalog.GetStats("t", &p));
  EXPECT_EQ(p.stats.row_count, 20u);
  EXPECT_EQ(p.version, 2u);
}

// ---- Plan-time join ordering (zero extra scans) --------------------------

/// Harness for multi-join RunPlan tests: three tables whose actual sizes
/// disagree with the published statistics, so the chosen join order reveals
/// which source the planner consulted.
class PlanTimeJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .AddTable("fact", Schema({{"f_id", Type::kInt64},
                                              {"f_a", Type::kInt64},
                                              {"f_b", Type::kInt64}}),
                              nullptr)
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddTable("dim_a", Schema({{"a_id", Type::kInt64},
                                               {"a_val", Type::kInt64}}),
                              nullptr)
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddTable("dim_b", Schema({{"b_id", Type::kInt64},
                                               {"b_val", Type::kInt64}}),
                              nullptr)
                    .ok());
    // Actual contents: dim_a tiny (2 rows), dim_b bigger (50 rows). The
    // exact-count fallback therefore joins dim_a first (tie on estimate 20,
    // lowest clause index wins... see estimates below) while lying stats
    // say dim_b first.
    for (int64_t i = 0; i < 20; ++i)
      data_["fact"].push_back(
          Row{Value(i), Value(1 + i % 2), Value(1 + i % 50)});
    for (int64_t i = 1; i <= 2; ++i)
      data_["dim_a"].push_back(Row{Value(i), Value(i * 100)});
    for (int64_t i = 1; i <= 50; ++i)
      data_["dim_b"].push_back(Row{Value(i), Value(i * 10)});

    plan_.table = "fact";
    JoinClause ja;
    ja.table = "dim_a";
    ja.left_col = 1;   // f_a
    ja.right_col = 0;  // a_id
    JoinClause jb;
    jb.table = "dim_b";
    jb.left_col = 2;   // f_b
    jb.right_col = 0;  // b_id
    plan_.joins = {ja, jb};
  }

  /// Publishes deliberately wrong stats: dim_a looks huge with few distinct
  /// keys (est 20 * 1000 / 10 = 2000 rows) and dim_b looks cheap
  /// (est 20 * 100 / 100 = 20 rows), so the stats-driven greedy order is
  /// [dim_b, dim_a] = clause order [1, 0]. The exact counts over the real
  /// data estimate 20 rows for both and tie-break to [0, 1].
  void PublishLyingStats(CSN as_of) {
    TableStats fact;
    fact.row_count = 20;
    fact.columns.resize(3);
    catalog_.PublishStats("fact", fact, as_of);

    TableStats dim_a;
    dim_a.row_count = 1000;
    dim_a.columns.resize(2);
    dim_a.columns[0].ndv = 10;
    catalog_.PublishStats("dim_a", dim_a, as_of);

    TableStats dim_b;
    dim_b.row_count = 100;
    dim_b.columns.resize(2);
    dim_b.columns[0].ndv = 100;
    catalog_.PublishStats("dim_b", dim_b, as_of);
  }

  ScanFn CountingScan() {
    return [this](const ScanRequest& req, ScanStats*,
                  std::string*) -> Result<std::vector<ColumnBatch>> {
      ++scan_calls_[req.table->name];
      scan_sequence_.push_back(req.table->name);
      std::vector<Row> out;
      for (const Row& r : data_[req.table->name]) {
        if (!req.pred->Eval(r)) continue;
        if (req.projection.empty()) {
          out.push_back(r);
          continue;
        }
        Row proj;
        for (int c : req.projection)
          proj.Append(r.Get(static_cast<size_t>(c)));
        out.push_back(std::move(proj));
      }
      return RowsToBatches(out, req.table->schema, req.projection, 8);
    };
  }

  Catalog catalog_;
  std::map<std::string, std::vector<Row>> data_;
  std::map<std::string, int> scan_calls_;
  std::vector<std::string> scan_sequence_;
  QueryPlan plan_;
};

TEST_F(PlanTimeJoinTest, FreshStatsOrderJoinsWithoutExtraScans) {
  PublishLyingStats(/*as_of=*/1);
  QueryExecInfo xi;
  ExecContext exec;
  exec.committed_csn = 1;  // stats age 0: fresh
  auto res = RunPlan(plan_, catalog_, CountingScan(), &xi, exec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 20u);

  // The order followed the (deliberately wrong) stats, proving no table was
  // scanned to make the decision — and each table was scanned exactly once,
  // lazily, in execution order.
  EXPECT_TRUE(xi.join_used_catalog_stats);
  EXPECT_EQ(xi.join_stats_age_csns, 0u);
  EXPECT_EQ(xi.join_order, (std::vector<size_t>{1, 0}));
  EXPECT_EQ(scan_calls_["fact"], 1);
  EXPECT_EQ(scan_calls_["dim_a"], 1);
  EXPECT_EQ(scan_calls_["dim_b"], 1);
  EXPECT_EQ(scan_sequence_,
            (std::vector<std::string>{"fact", "dim_b", "dim_a"}));
  ASSERT_EQ(xi.join_est_rows.size(), 2u);
  EXPECT_DOUBLE_EQ(xi.join_est_rows[0], 20.0);    // dim_b step
  EXPECT_DOUBLE_EQ(xi.join_est_rows[1], 2000.0);  // dim_a step
  ASSERT_EQ(xi.join_actual_rows.size(), 2u);
  EXPECT_EQ(xi.join_actual_rows[0], 20u);
  EXPECT_EQ(xi.join_actual_rows[1], 20u);
}

TEST_F(PlanTimeJoinTest, StaleStatsFallBackToExactCounts) {
  PublishLyingStats(/*as_of=*/1);
  QueryExecInfo xi;
  ExecContext exec;
  exec.committed_csn = 1 + kStatsStalenessCsns + 1;  // too old
  auto res = RunPlan(plan_, catalog_, CountingScan(), &xi, exec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 20u);

  // Fallback: exact counts over the real data (both steps estimate 20,
  // tie-break to plan order), still one scan per table.
  EXPECT_FALSE(xi.join_used_catalog_stats);
  EXPECT_EQ(xi.join_order, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(scan_calls_["fact"], 1);
  EXPECT_EQ(scan_calls_["dim_a"], 1);
  EXPECT_EQ(scan_calls_["dim_b"], 1);
}

TEST_F(PlanTimeJoinTest, MissingStatsFallBackToExactCounts) {
  // Only two of the three tables ever published: the stats path needs all
  // of them, so the planner falls back.
  TableStats fact;
  fact.row_count = 20;
  fact.columns.resize(3);
  catalog_.PublishStats("fact", fact, 1);
  QueryExecInfo xi;
  auto res = RunPlan(plan_, catalog_, CountingScan(), &xi, ExecContext{});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 20u);
  EXPECT_FALSE(xi.join_used_catalog_stats);
  EXPECT_EQ(xi.join_order, (std::vector<size_t>{0, 1}));
}

TEST_F(PlanTimeJoinTest, StatsAndFallbackOrdersProduceIdenticalRows) {
  // The plan-order lineage sort makes the output independent of the chosen
  // order; run both paths and compare byte-for-byte.
  PublishLyingStats(/*as_of=*/1);
  ExecContext fresh;
  fresh.committed_csn = 1;
  auto with_stats = RunPlan(plan_, catalog_, CountingScan(), nullptr, fresh);
  ExecContext stale;
  stale.committed_csn = 1 + kStatsStalenessCsns + 1;
  auto without = RunPlan(plan_, catalog_, CountingScan(), nullptr, stale);
  ASSERT_TRUE(with_stats.ok());
  ASSERT_TRUE(without.ok());
  ASSERT_EQ(with_stats->rows.size(), without->rows.size());
  for (size_t i = 0; i < with_stats->rows.size(); ++i)
    EXPECT_EQ(with_stats->rows[i].ToString(), without->rows[i].ToString())
        << "row " << i;
}

TEST_F(PlanTimeJoinTest, ReorderedFanOutJoinsMatchReference) {
  // Duplicate every dimension key so each join step fans out: executed in
  // the stats' order [dim_b, dim_a], the joined rows come out grouped by
  // dim_b match, and only the plan-order fixup restores nested-loop order.
  for (const char* dim : {"dim_a", "dim_b"}) {
    std::vector<Row>& rows = data_[dim];
    const size_t n = rows.size();
    for (size_t i = 0; i < n; ++i)
      rows.push_back(
          Row{rows[i].Get(0), Value(int64_t{-1} - static_cast<int64_t>(i))});
  }
  PublishLyingStats(/*as_of=*/1);
  ExecContext exec;
  exec.committed_csn = 1;
  for (size_t batch_rows : {size_t{3}, size_t{4096}}) {
    exec.batch_rows = batch_rows;
    QueryExecInfo xi;
    auto res = RunPlan(plan_, catalog_, CountingScan(), &xi, exec);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(xi.join_order, (std::vector<size_t>{1, 0}));
    EXPECT_EQ(res->rows.size(), 80u);
    EXPECT_EQ(res->rows, ref::Eval(plan_, data_)) << batch_rows;
  }
}

}  // namespace
}  // namespace htap

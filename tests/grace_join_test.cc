// Grace (out-of-core) hash join tests (DESIGN.md §9): with a spill budget
// below the build-side footprint the join must write partition runs to
// disk, join them partition-at-a-time — recursing on skewed partitions —
// and still produce output byte-identical to the nested-loop reference at
// every thread count. The join runs on batch keys, as the query runner
// runs it. Also covers the planner layer riding on the pair API:
// build-side selection (swap fixup) and greedy join-order selection
// (hidden-index fixup), plus spill-file cleanup. Runs under
// ThreadSanitizer via ./ci.sh.

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "batch_join.h"
#include "core/database.h"
#include "exec/executor.h"
#include "opt/join_planner.h"
#include "reference_eval.h"
#include "storage/spill_file.h"

namespace htap {
namespace {

using ref::NestedLoopJoin;

Schema ProbeSchema() {
  return Schema({{"id", Type::kInt64}, {"fk", Type::kInt64},
                 {"amount", Type::kDouble}});
}

/// A DOUBLE join key, so the INT64 probe keys compare across types — on
/// the resident path and after both sides' keys round-trip through spill
/// pages of different types.
Schema BuildSchema() {
  return Schema({{"key", Type::kDouble}, {"payload", Type::kString},
                 {"weight", Type::kDouble}});
}

struct Dataset {
  std::vector<Row> left;
  std::vector<Row> right;
  std::vector<ColumnBatch> left_batches;
  std::vector<ColumnBatch> right_batches;
};

Dataset MakeDataset(std::vector<Row> left, std::vector<Row> right) {
  Dataset d;
  d.left_batches = test::Batches(left, ProbeSchema());
  d.right_batches = test::Batches(right, BuildSchema());
  d.left = std::move(left);
  d.right = std::move(right);
  return d;
}

/// Duplicate keys, NULLs, cross-type numeric keys (every 13th build key is
/// off by a half and matches nothing), and a fat string payload on the
/// build side so the footprint dwarfs a kilobyte-scale budget.
Dataset SpillDataset(int64_t build_rows = 2000, int64_t key_mod = 97) {
  std::vector<Row> left, right;
  for (int64_t i = 0; i < 3000; ++i) {
    Row r{Value(i), Value(i % key_mod), Value(i * 0.25)};
    if (i % 31 == 0) r.Set(1, Value::Null());
    left.push_back(std::move(r));
  }
  const std::string pad(96, 'x');
  for (int64_t i = 0; i < build_rows; ++i) {
    double key = static_cast<double>(i % key_mod);
    if (i % 13 == 0) key += 0.5;
    Row r{Value(key), Value(pad + std::to_string(i)), Value(i * 1.5)};
    if (i % 41 == 0) r.Set(0, Value::Null());
    right.push_back(std::move(r));
  }
  return MakeDataset(std::move(left), std::move(right));
}

/// The dataset's probe.fk = build.key join under `exec`.
std::vector<Row> Join(const Dataset& d, const ExecContext& exec,
                      JoinStats* stats = nullptr) {
  return test::JoinBatches(d.left_batches, d.right_batches, 1, 0, exec, stats);
}

class GraceJoinTest : public ::testing::Test {
 protected:
  GraceJoinTest() : pool_(8, "test-grace-ap") {
    dir_ = ::testing::TempDir() + "grace_join_test";
    std::filesystem::create_directories(dir_);
  }

  /// Context with a spill budget; threads == 1 leaves the pool out (serial).
  ExecContext Spill(size_t budget, size_t threads,
                    uint64_t hash_mask = ~0ull) {
    ExecContext exec;
    if (threads > 1) {
      exec.pool = &pool_;
      exec.max_parallelism = threads;
    }
    exec.min_parallel_join_build = 1;
    exec.join_hash_mask = hash_mask;
    exec.join_spill_budget_bytes = budget;
    exec.join_spill_dir = dir_;
    return exec;
  }

  size_t SpillFilesInDir() const {
    size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_))
      if (e.path().filename().string().rfind("htap-spill-", 0) == 0) ++n;
    return n;
  }

  ThreadPool pool_;
  std::string dir_;
};

TEST_F(GraceJoinTest, ForcedSpillMatchesNestedLoopAcrossThreadCounts) {
  const Dataset d = SpillDataset();
  const auto reference = NestedLoopJoin(d.left, d.right, 1, 0);
  ASSERT_FALSE(reference.empty());
  const size_t build_bytes = test::BuildBytes(d.right_batches);
  const size_t budget = build_bytes / 16;
  ASSERT_GT(budget, 0u);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    JoinStats stats;
    const auto out = Join(d, Spill(budget, threads), &stats);
    EXPECT_EQ(reference, out) << threads << " threads";
    EXPECT_EQ(stats.parallel, threads > 1);
    EXPECT_GT(stats.partitions, 1u);
    EXPECT_GT(stats.partitions_spilled, 0u) << threads << " threads";
    EXPECT_GT(stats.spill_rows_written, 0u);
    EXPECT_GT(stats.spill_bytes_written, 0u);
    EXPECT_GT(stats.spill_bytes_read, 0u);
    EXPECT_EQ(stats.output_rows, reference.size());
  }
  EXPECT_EQ(SpillFilesInDir(), 0u);  // every run discarded after its join
}

TEST_F(GraceJoinTest, BudgetAboveBuildSizeNeverSpills) {
  const Dataset d = SpillDataset();
  const auto reference = NestedLoopJoin(d.left, d.right, 1, 0);
  JoinStats stats;
  const auto out =
      Join(d, Spill(test::BuildBytes(d.right_batches) + 1, 4), &stats);
  EXPECT_EQ(reference, out);
  EXPECT_EQ(stats.partitions_spilled, 0u);
  EXPECT_EQ(stats.spill_rows_written, 0u);
  EXPECT_EQ(SpillFilesInDir(), 0u);
}

TEST_F(GraceJoinTest, MaskedHashesForceRecursiveRepartition) {
  // Zeroing the low 8 hash bits funnels every build row into top-level
  // partition 0 (the partition cap keeps the radix at <= 8 bits), so the
  // oversized partition must re-partition on higher bits to get under
  // budget.
  const Dataset d = SpillDataset();
  const auto reference = NestedLoopJoin(d.left, d.right, 1, 0);
  const size_t budget = test::BuildBytes(d.right_batches) / 8;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    JoinStats stats;
    const auto out = Join(d, Spill(budget, threads, ~0xFFull), &stats);
    EXPECT_EQ(reference, out) << threads << " threads";
    EXPECT_EQ(stats.partitions_spilled, 1u);
    EXPECT_GE(stats.spill_max_recursion, 1u) << threads << " threads";
  }
  EXPECT_EQ(SpillFilesInDir(), 0u);
}

TEST_F(GraceJoinTest, SingleHotKeyBottomsOutAtRecursionCap) {
  // Every build row carries the same key: no amount of re-partitioning
  // shrinks the partition, so recursion must hit its bound and build the
  // oversized partition anyway.
  std::vector<Row> left, right;
  const std::string pad(200, 'y');
  for (int64_t i = 0; i < 120; ++i)
    left.push_back(Row{Value(i), Value(int64_t{7}), Value(i * 0.5)});
  for (int64_t i = 0; i < 300; ++i)
    right.push_back(Row{Value(7.0), Value(pad), Value(i * 1.0)});
  const Dataset d = MakeDataset(std::move(left), std::move(right));
  const auto reference = NestedLoopJoin(d.left, d.right, 1, 0);
  ASSERT_EQ(reference.size(), d.left.size() * d.right.size());

  JoinStats stats;
  const auto out =
      Join(d, Spill(test::BuildBytes(d.right_batches) / 8, 4), &stats);
  EXPECT_EQ(reference, out);
  EXPECT_GE(stats.spill_max_recursion, 2u);
  EXPECT_EQ(SpillFilesInDir(), 0u);
}

TEST_F(GraceJoinTest, ConcurrentGraceJoinsShareTheSpillDir) {
  const Dataset d = SpillDataset(1200);
  const auto reference = NestedLoopJoin(d.left, d.right, 1, 0);
  const size_t budget = test::BuildBytes(d.right_batches) / 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      for (int iter = 0; iter < 3; ++iter) {
        JoinStats stats;
        const auto out = Join(d, Spill(budget, 4), &stats);
        EXPECT_EQ(reference, out);
        EXPECT_GT(stats.partitions_spilled, 0u);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(SpillFilesInDir(), 0u);
}

TEST(JoinPlannerTest, BuildSideChoice) {
  EXPECT_TRUE(ChooseBuildSideLeft(10, 100));
  EXPECT_FALSE(ChooseBuildSideLeft(100, 10));
  EXPECT_FALSE(ChooseBuildSideLeft(10, 10));  // ties keep build-on-right
}

TEST(JoinPlannerTest, GreedyOrderPicksMostSelectiveFirst) {
  // Clause 0 expands (low NDV), clause 1 filters (unique keys, few rows).
  const std::vector<JoinRelEstimate> rels = {{400, 40}, {50, 50}};
  const auto order = ChooseJoinOrder(300, rels, {{}, {}});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
}

TEST(JoinPlannerTest, DependenciesConstrainTheOrder) {
  // Clause 1 would win on cardinality but depends on clause 0's output.
  const std::vector<JoinRelEstimate> rels = {{400, 40}, {50, 50}};
  const auto order = ChooseJoinOrder(300, rels, {{}, {0}});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

TEST(JoinPlannerTest, TiesBreakTowardPlanOrder) {
  const std::vector<JoinRelEstimate> rels = {{50, 50}, {50, 50}, {50, 50}};
  const auto order = ChooseJoinOrder(100, rels, {{}, {}, {}});
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
}

TEST(JoinPlannerTest, CountDistinctKeysIgnoresNulls) {
  const auto count = [](Type type, const std::vector<Value>& keys) {
    std::vector<Row> rows;
    for (const Value& k : keys) rows.push_back(Row{k});
    return CountDistinctKeys(ExtractJoinKeys(
        test::Batches(rows, Schema({{"k", type}}), /*batch_rows=*/2), 0));
  };
  EXPECT_EQ(count(Type::kInt64, {Value(int64_t{1}), Value(int64_t{1}),
                                 Value(int64_t{2}), Value::Null()}),
            2u);
  EXPECT_EQ(count(Type::kDouble,
                  {Value(1.0), Value(2.5), Value(1.0), Value::Null()}),
            2u);
  EXPECT_EQ(count(Type::kString, {Value("a"), Value::Null(), Value("a")}),
            1u);
  EXPECT_EQ(count(Type::kInt64, {Value::Null(), Value::Null()}), 0u);
}

// --------------------------------------------------------------------------
// End-to-end: planner decisions through Database::Query.
// --------------------------------------------------------------------------

Schema FactSchema() {
  return Schema({{"id", Type::kInt64}, {"a_fk", Type::kInt64},
                 {"b_fk", Type::kInt64}, {"amount", Type::kDouble}});
}

Schema DimASchema() {
  // Unique pk, duplicated join key: joining on `key` expands the output.
  return Schema({{"id", Type::kInt64}, {"key", Type::kInt64},
                 {"payload", Type::kString}});
}

Schema DimBSchema() {
  return Schema({{"id", Type::kInt64}, {"name", Type::kString}});
}

std::unique_ptr<Database> OpenDb(size_t threads, size_t spill_budget = 0,
                                 const std::string& spill_dir = "") {
  DatabaseOptions opts;
  opts.architecture = ArchitectureKind::kRowPlusInMemoryColumn;
  opts.background_sync = false;
  opts.parallel_scan_threads = threads;
  opts.parallel_join_min_build_rows = 1;
  opts.join_spill_budget_bytes = spill_budget;
  opts.join_spill_dir = spill_dir;
  auto res = Database::Open(opts);
  EXPECT_TRUE(res.ok());
  return std::move(*res);
}

void PopulateJoinTables(Database* db) {
  ASSERT_TRUE(db->CreateTable("fact", FactSchema()).ok());
  ASSERT_TRUE(db->CreateTable("dim_a", DimASchema()).ok());
  ASSERT_TRUE(db->CreateTable("dim_b", DimBSchema()).ok());
  for (int64_t i = 0; i < 300; ++i)
    ASSERT_TRUE(db->InsertRow("fact", Row{Value(i), Value(i % 40),
                                          Value(i % 50), Value(i * 0.25)})
                    .ok());
  // dim_a: 400 rows, join keys 0..39 each ~10 times — joining it expands.
  for (int64_t i = 0; i < 400; ++i)
    ASSERT_TRUE(db->InsertRow("dim_a", Row{Value(i), Value(i % 40),
                                           Value("a" + std::to_string(i))})
                    .ok());
  // dim_b: 50 rows, unique keys — joining it is selective.
  for (int64_t i = 0; i < 50; ++i)
    ASSERT_TRUE(db->InsertRow("dim_b", Row{Value(i),
                                           Value("b" + std::to_string(i))})
                    .ok());
  ASSERT_TRUE(db->ForceSyncAll().ok());
}

std::vector<Row> ScanAll(Database* db, const std::string& table) {
  QueryPlan p;
  p.table = table;
  auto res = db->Query(p, nullptr);
  EXPECT_TRUE(res.ok());
  return res->rows;
}

TEST(GraceJoinDatabaseTest, BuildSideSwapKeepsNestedLoopOrder) {
  // Probe (fact) much smaller than build (dim_a): the planner must build on
  // the left side, and the result must still equal the conventional
  // build-on-right nested-loop order.
  auto db = OpenDb(4);
  ASSERT_TRUE(db->CreateTable("fact", FactSchema()).ok());
  ASSERT_TRUE(db->CreateTable("dim_a", DimASchema()).ok());
  for (int64_t i = 0; i < 60; ++i)
    ASSERT_TRUE(db->InsertRow("fact", Row{Value(i), Value(i % 40),
                                          Value(i % 50), Value(i * 0.25)})
                    .ok());
  for (int64_t i = 0; i < 3000; ++i)
    ASSERT_TRUE(db->InsertRow("dim_a", Row{Value(i), Value(i % 40),
                                           Value("a" + std::to_string(i))})
                    .ok());
  ASSERT_TRUE(db->ForceSyncAll().ok());

  const auto fact = ScanAll(db.get(), "fact");
  const auto dim = ScanAll(db.get(), "dim_a");
  const auto reference = NestedLoopJoin(fact, dim, 1, 1);

  QueryPlan plan;
  plan.table = "fact";
  plan.joins.push_back(JoinClause{"dim_a", Predicate::True(), 1, 1});
  QueryExecInfo info;
  auto res = db->Query(plan, &info);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(info.join.build_swapped);
  EXPECT_EQ(reference, res->rows);
}

TEST(GraceJoinDatabaseTest, GreedyJoinOrderIsInvisibleInResults) {
  // dim_b (selective) should execute before dim_a (expanding) even though
  // the plan lists dim_a first; the output must equal plan-order
  // nested-loop execution, serial and parallel alike.
  auto serial_db = OpenDb(1);
  auto par_db = OpenDb(4);
  for (auto* db : {serial_db.get(), par_db.get()}) PopulateJoinTables(db);

  const auto fact = ScanAll(serial_db.get(), "fact");
  const auto dim_a = ScanAll(serial_db.get(), "dim_a");
  const auto dim_b = ScanAll(serial_db.get(), "dim_b");
  const auto reference =
      NestedLoopJoin(NestedLoopJoin(fact, dim_a, 1, 1), dim_b, 2, 0);
  ASSERT_FALSE(reference.empty());

  QueryPlan plan;
  plan.table = "fact";
  // fact.a_fk = dim_a.key.
  plan.joins.push_back(JoinClause{"dim_a", Predicate::True(), 1, 1});
  plan.joins.push_back(JoinClause{"dim_b", Predicate::True(), 2, 0});

  for (auto* db : {serial_db.get(), par_db.get()}) {
    QueryExecInfo info;
    auto res = db->Query(plan, &info);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(reference, res->rows);
    ASSERT_EQ(info.join_steps.size(), 2u);
    ASSERT_EQ(info.join_order.size(), 2u);
    EXPECT_EQ(info.join_order[0], 1u);  // dim_b first
    EXPECT_EQ(info.join_order[1], 0u);
  }
}

TEST(GraceJoinDatabaseTest, SpillBudgetOptionReachesTheJoin) {
  const std::string dir = ::testing::TempDir() + "grace_join_db_test";
  std::filesystem::create_directories(dir);
  auto plain_db = OpenDb(4);
  auto spill_db = OpenDb(4, /*spill_budget=*/8 * 1024, dir);
  for (auto* db : {plain_db.get(), spill_db.get()}) {
    ASSERT_TRUE(db->CreateTable("fact", FactSchema()).ok());
    ASSERT_TRUE(db->CreateTable("dim_a", DimASchema()).ok());
    for (int64_t i = 0; i < 500; ++i)
      ASSERT_TRUE(db->InsertRow("fact", Row{Value(i), Value(i % 40),
                                            Value(i % 50), Value(i * 0.25)})
                      .ok());
    for (int64_t i = 0; i < 2000; ++i)
      ASSERT_TRUE(
          db->InsertRow("dim_a", Row{Value(i), Value(i % 40),
                                     Value("payload_" + std::to_string(i))})
              .ok());
    ASSERT_TRUE(db->ForceSyncAll().ok());
  }

  QueryPlan plan;
  plan.table = "fact";
  plan.joins.push_back(JoinClause{"dim_a", Predicate::True(), 1, 1});

  QueryExecInfo plain_info, spill_info;
  auto a = plain_db->Query(plan, &plain_info);
  auto b = spill_db->Query(plan, &spill_info);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows, b->rows);
  EXPECT_EQ(plain_info.join.partitions_spilled, 0u);
  EXPECT_GT(spill_info.join.partitions_spilled, 0u);
  EXPECT_GT(spill_info.join.spill_bytes_written, 0u);
  size_t leaked = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().filename().string().rfind("htap-spill-", 0) == 0) ++leaked;
  EXPECT_EQ(leaked, 0u);
}

}  // namespace
}  // namespace htap

// Radix-partitioned parallel hash join tests: the join over batch keys
// must equal a nested-loop reference, row order included, at every thread
// count and across key pathologies (duplicate keys, null keys, an int64
// key column joined to a double key column, forced hash collisions, empty
// build side), and must stay correct while writers churn the scanned
// tables. Runs under ThreadSanitizer via ./ci.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "batch_join.h"
#include "core/database.h"
#include "exec/executor.h"
#include "reference_eval.h"

namespace htap {
namespace {

Schema FactSchema() {
  return Schema({{"id", Type::kInt64}, {"fk", Type::kInt64},
                 {"amount", Type::kDouble}});
}

Schema DimSchema() {
  return Schema({{"id", Type::kInt64}, {"name", Type::kString},
                 {"weight", Type::kDouble}});
}

using ref::NestedLoopJoin;

/// The pathological build side's schema: a DOUBLE join key, so joining it
/// to FactSchema's INT64 `fk` runs the cross-type numeric comparison.
Schema DoubleKeyDimSchema() {
  return Schema({{"key", Type::kDouble}, {"name", Type::kString},
                 {"weight", Type::kDouble}});
}

struct Dataset {
  std::vector<Row> left;
  std::vector<Row> right;
  std::vector<ColumnBatch> left_batches;
  std::vector<ColumnBatch> right_batches;
};

/// Duplicate keys on both sides, nulls sprinkled on both sides, and
/// cross-type numeric keys: int64 fact keys join double dimension keys,
/// some of which are fractional and so equal no int64.
Dataset PathologicalDataset() {
  Dataset d;
  for (int64_t i = 0; i < 3000; ++i) {
    Row r{Value(i), Value(i % 97), Value(i * 0.25)};
    if (i % 31 == 0) r.Set(1, Value::Null());
    d.left.push_back(std::move(r));
  }
  for (int64_t i = 0; i < 2000; ++i) {
    // Keys 0..96 each appear ~20 times; every 41st key is NULL and every
    // 13th is off by a half.
    double key = static_cast<double>(i % 97);
    if (i % 13 == 0) key += 0.5;
    Row r{Value(key), Value("dim_" + std::to_string(i)), Value(i * 1.5)};
    if (i % 41 == 0) r.Set(0, Value::Null());
    d.right.push_back(std::move(r));
  }
  d.left_batches = test::Batches(d.left, FactSchema());
  d.right_batches = test::Batches(d.right, DoubleKeyDimSchema());
  return d;
}

class ParallelJoinTest : public ::testing::Test {
 protected:
  ParallelJoinTest() : pool_(8, "test-join-ap") {}

  /// Parallel context forcing the partitioned path regardless of build size.
  ExecContext Par(size_t threads, uint64_t hash_mask = ~0ull) {
    ExecContext exec{&pool_, threads};
    exec.min_parallel_join_build = 1;
    exec.join_hash_mask = hash_mask;
    return exec;
  }

  /// The dataset's fact ⋈ dim join (fact.fk = dim.key) under `exec`.
  static std::vector<Row> Join(const Dataset& d, const ExecContext& exec,
                               JoinStats* stats = nullptr) {
    return test::JoinBatches(d.left_batches, d.right_batches, 1, 0, exec,
                             stats);
  }

  ThreadPool pool_;
};

TEST_F(ParallelJoinTest, MatchesNestedLoopReferenceAcrossThreadCounts) {
  const Dataset d = PathologicalDataset();
  const auto reference = NestedLoopJoin(d.left, d.right, 1, 0);
  ASSERT_FALSE(reference.empty());

  EXPECT_EQ(reference, Join(d, ExecContext{}));

  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    JoinStats stats;
    const auto par = Join(d, Par(threads), &stats);
    // Exact equality including row order: probe morsels concatenate in
    // morsel order and per-key chains preserve build input order.
    EXPECT_EQ(reference, par) << threads << " threads";
    EXPECT_TRUE(stats.parallel);
    EXPECT_GT(stats.partitions, 1u);
    EXPECT_EQ(stats.build_rows, d.right.size());
    EXPECT_EQ(stats.probe_rows, d.left.size());
    EXPECT_EQ(stats.output_rows, reference.size());
  }
}

TEST_F(ParallelJoinTest, ForcedHashCollisionsStillConfirmKeys) {
  // A 4-bit hash mask funnels all keys into 16 hash values, so nearly every
  // probe hits hash matches with unequal keys — the collision-confirm
  // compare must reject them, serially and in parallel.
  const Dataset d = PathologicalDataset();
  const auto reference = NestedLoopJoin(d.left, d.right, 1, 0);
  for (uint64_t mask : {uint64_t{0xF}, uint64_t{0x1}, uint64_t{0}}) {
    ExecContext serial_masked;
    serial_masked.join_hash_mask = mask;
    EXPECT_EQ(reference, Join(d, serial_masked)) << "serial, mask " << mask;
    for (size_t threads : {size_t{2}, size_t{4}}) {
      EXPECT_EQ(reference, Join(d, Par(threads, mask)))
          << threads << " threads, mask " << mask;
    }
  }
}

TEST_F(ParallelJoinTest, EmptySidesAndNoMatches) {
  const Dataset d = PathologicalDataset();
  // Empty build side.
  EXPECT_TRUE(test::JoinBatches(d.left_batches, {}, 1, 0, Par(4)).empty());
  // Empty probe side.
  EXPECT_TRUE(test::JoinBatches({}, d.right_batches, 1, 0, Par(4)).empty());
  // Disjoint key domains.
  std::vector<Row> far;
  for (int64_t i = 0; i < 100; ++i)
    far.push_back(Row{Value(i + 100000), Value("far"), Value(0.0)});
  EXPECT_TRUE(test::JoinBatches(d.left_batches,
                                test::Batches(far, DimSchema()), 1, 0, Par(4))
                  .empty());
}

TEST_F(ParallelJoinTest, SmallBuildFallsBackToSerial) {
  const Dataset d = PathologicalDataset();
  ExecContext exec{&pool_, 4};  // default min_parallel_join_build = 4096
  ASSERT_LT(d.right.size(), exec.min_parallel_join_build);
  JoinStats stats;
  const auto out = Join(d, exec, &stats);
  EXPECT_FALSE(stats.parallel);
  EXPECT_EQ(stats.partitions, 1u);
  EXPECT_EQ(out, NestedLoopJoin(d.left, d.right, 1, 0));
}

TEST_F(ParallelJoinTest, QuotaThrottledPoolStaysCorrect) {
  // The resource scheduler shrinks the AP pool's concurrency quota to
  // throttle OLAP; join morsels must queue, not wedge or corrupt.
  const Dataset d = PathologicalDataset();
  const auto reference = NestedLoopJoin(d.left, d.right, 1, 0);
  pool_.SetConcurrencyQuota(1);
  EXPECT_EQ(reference, Join(d, Par(8)));
  pool_.SetConcurrencyQuota(0);
}

// Reader/writer stress: parallel joins over ScanHtapBatches snapshots while a
// writer churns the fact table with AppendBatch/DeleteKey/Compact. Every
// fact row carries fk = id % kDimRows and the dimension is static with
// unique keys, so each scanned fact row must join to exactly one dimension
// row whose payload is a pure function of the key.
TEST_F(ParallelJoinTest, ConcurrentJoinsAgainstChurningFactTable) {
  constexpr int64_t kDimRows = 200;
  ColumnTable fact(FactSchema());
  ColumnTable dim(DimSchema());
  std::vector<Row> dim_rows;
  for (int64_t i = 0; i < kDimRows; ++i)
    dim_rows.push_back(
        Row{Value(i), Value("dim_" + std::to_string(i)), Value(i * 2.0)});
  dim.AppendBatch(dim_rows, 1);

  std::vector<Row> seed;
  for (int64_t id = 0; id < 512; ++id)
    seed.push_back(Row{Value(id), Value(id % kDimRows), Value(id * 0.5)});
  fact.AppendBatch(seed, 1);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    CSN csn = 100;
    for (int iter = 0; iter < 120; ++iter) {
      std::vector<Row> batch;
      const int64_t base = 1000 + (iter % 10) * 100;
      for (int64_t id = base; id < base + 40; ++id)
        batch.push_back(Row{Value(id), Value(id % kDimRows), Value(iter * 1.0)});
      fact.AppendBatch(batch, ++csn);
      for (int64_t id = base; id < base + 10; ++id) fact.DeleteKey(id, csn);
      if (iter % 16 == 15) fact.Compact();
    }
    done.store(true);
  });

  auto reader = [&] {
    ExecContext exec{&pool_, 4};
    exec.min_parallel_join_build = 1;
    do {
      const auto facts = ScanHtapBatches(fact, nullptr, kMaxCSN - 1,
                                         Predicate::True(), {}, exec);
      const auto dims = ScanHtapBatches(dim, nullptr, kMaxCSN - 1,
                                        Predicate::True(), {}, exec);
      ASSERT_EQ(TotalActiveRows(dims), static_cast<size_t>(kDimRows));
      const auto joined = test::JoinBatches(facts, dims, 1, 0, exec);
      // Unique dimension keys: every fact row matches exactly once.
      EXPECT_EQ(joined, NestedLoopJoin(BatchesToRows(facts),
                                       BatchesToRows(dims), 1, 0));
      EXPECT_EQ(joined.size(), TotalActiveRows(facts));
      for (const Row& r : joined) {
        const int64_t fk = r.Get(1).AsInt64();
        EXPECT_EQ(r.Get(3).AsInt64(), fk);  // dim id == fact fk
        EXPECT_EQ(r.Get(4).AsString(), "dim_" + std::to_string(fk));
        EXPECT_DOUBLE_EQ(r.Get(5).AsDouble(), fk * 2.0);
      }
    } while (!done.load());
  };
  std::thread r1(reader), r2(reader);
  writer.join();
  r1.join();
  r2.join();
}

// End-to-end: a parallel-join database and a serial database must return
// identical rows for join queries (join + filter pushdown + aggregate +
// order, and a plain join whose output order is itself deterministic).
TEST(ParallelJoinDatabaseTest, ParallelAndSerialEnginesAgreeOnJoins) {
  auto open = [](size_t threads) {
    DatabaseOptions opts;
    opts.architecture = ArchitectureKind::kRowPlusInMemoryColumn;
    opts.background_sync = false;
    opts.parallel_scan_threads = threads;
    opts.parallel_join_min_build_rows = 1;  // exercise the radix path
    auto res = Database::Open(opts);
    EXPECT_TRUE(res.ok());
    return std::move(*res);
  };
  auto serial_db = open(1);
  auto par_db = open(4);
  for (auto* db : {serial_db.get(), par_db.get()}) {
    ASSERT_TRUE(db->CreateTable("fact", FactSchema()).ok());
    ASSERT_TRUE(db->CreateTable("dim", DimSchema()).ok());
    for (int64_t i = 0; i < 600; ++i)
      ASSERT_TRUE(db->InsertRow("fact", Row{Value(i), Value(i % 50),
                                            Value(i * 0.25)})
                      .ok());
    for (int64_t i = 0; i < 50; ++i)
      ASSERT_TRUE(db->InsertRow("dim", Row{Value(i),
                                           Value("d" + std::to_string(i)),
                                           Value(i * 3.0)})
                      .ok());
    ASSERT_TRUE(db->ForceSyncAll().ok());
  }

  // Join + group + order.
  QueryPlan grouped;
  grouped.table = "fact";
  grouped.joins.push_back(JoinClause{"dim", Predicate::True(), 1, 0});
  grouped.group_by = {4};  // dim.name in the combined layout
  grouped.aggs = {AggSpec::Count("n"), AggSpec::Sum(2, "amt")};
  grouped.order_by = 0;

  // Join with right-side predicate pushdown, no aggregation: the plain
  // join's output order is deterministic (left scan order), so rows must
  // match exactly.
  QueryPlan filtered;
  filtered.table = "fact";
  filtered.where = Predicate::Ge(0, Value(int64_t{100}));
  filtered.joins.push_back(JoinClause{
      "dim", Predicate::Lt(2, Value(60.0)) /* dim.weight */, 1, 0});

  for (const QueryPlan& plan : {grouped, filtered}) {
    QueryExecInfo serial_info, par_info;
    auto a = serial_db->Query(plan, &serial_info);
    auto b = par_db->Query(plan, &par_info);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->rows, b->rows);
    EXPECT_FALSE(serial_info.join.parallel);
    EXPECT_TRUE(par_info.join.parallel);
    EXPECT_EQ(serial_info.join.output_rows, par_info.join.output_rows);
  }
}

}  // namespace
}  // namespace htap

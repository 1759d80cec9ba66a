// Batch-native join tests (DESIGN.md §13): the batch join pipeline — keys
// extracted from column batches, lineage-only intermediates, columnar spill
// pages, late payload gather — must be byte-identical to the row join path
// across thread counts, forced-spill budgets, batch sizes, hash-collision
// masks, NULL keys, and multi-join SQL chains. Runs under ASan and TSan via
// ./ci.sh.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "storage/spill_file.h"

namespace htap {
namespace {

Schema FactSchema() {
  return Schema({{"id", Type::kInt64},
                 {"fk", Type::kInt64},
                 {"tag", Type::kString},
                 {"amount", Type::kDouble}});
}

Schema DimSchema() {
  return Schema({{"id", Type::kInt64},
                 {"name", Type::kString},
                 {"weight", Type::kDouble}});
}

/// Duplicate keys, NULL keys on both sides, and string payloads (so the
/// spill pages and late gather both carry heap data).
std::vector<Row> FactRows(int64_t n) {
  std::vector<Row> out;
  for (int64_t i = 0; i < n; ++i) {
    Row r{Value(i), Value(i % 97), Value("tag_" + std::to_string(i % 7)),
          Value(i * 0.25)};
    if (i % 31 == 0) r.Set(1, Value::Null());
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Row> DimRows(int64_t n) {
  std::vector<Row> out;
  for (int64_t i = 0; i < n; ++i) {
    Row r{Value(i % 97), Value("dim_" + std::to_string(i)), Value(i * 1.5)};
    if (i % 41 == 0) r.Set(0, Value::Null());
    out.push_back(std::move(r));
  }
  return out;
}

TEST(RowsToBatchesTest, RoundTripsAtEveryBatchSize) {
  const std::vector<Row> rows = FactRows(257);
  for (size_t batch_rows : {size_t{0}, size_t{1}, size_t{64}, size_t{1000}}) {
    const auto batches = RowsToBatches(rows, FactSchema(), {}, batch_rows);
    EXPECT_EQ(rows, BatchesToRows(batches)) << "batch_rows=" << batch_rows;
    if (batch_rows == 0) EXPECT_EQ(batches.size(), 1u);
  }
  EXPECT_TRUE(RowsToBatches({}, FactSchema(), {}, 64).empty());
}

// The grace-join budget makes the same spill decision on the row and batch
// routes only if the batch-side estimate mirrors Row::MemoryBytes exactly.
TEST(RowsToBatchesTest, BatchRowBytesMirrorRowMemoryBytes) {
  const Schema schema({{"id", Type::kInt64},
                       {"score", Type::kDouble},
                       {"tag", Type::kString},
                       {"note", Type::kString}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 203; ++i) {
    // Strings from empty through short (in-buffer) to long (heap) lengths.
    Row r{Value(i), Value(i * 0.5), Value(std::string(i % 40, 'a')),
          Value("n" + std::to_string(i))};
    if (i % 5 == 0) r.Set(1, Value::Null());
    if (i % 7 == 0) r.Set(2, Value::Null());
    if (i % 11 == 0) r.Set(3, Value::Null());
    rows.push_back(std::move(r));
  }
  for (size_t batch_rows : {size_t{0}, size_t{1}, size_t{16}, size_t{64},
                            size_t{1000}}) {
    const std::vector<size_t> est =
        EstimateBatchRowBytes(RowsToBatches(rows, schema, {}, batch_rows));
    ASSERT_EQ(est.size(), rows.size()) << "batch_rows=" << batch_rows;
    for (size_t i = 0; i < rows.size(); ++i)
      ASSERT_EQ(est[i], rows[i].MemoryBytes())
          << "batch_rows=" << batch_rows << " row " << i;
  }
}

TEST(SpillPageTest, EncodeDecodeRoundTripsEveryKind) {
  const auto round_trip = [](const SpillPage& page) {
    std::string buf;
    EncodeSpillPage(page, &buf);
    SpillPage got;
    size_t pos = 0;
    ASSERT_TRUE(DecodeSpillPage(buf, &pos, &got));
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(page.idx, got.idx);
    EXPECT_EQ(page.boxed, got.boxed);
    if (page.boxed) {
      EXPECT_EQ(page.vals, got.vals);
    } else {
      EXPECT_EQ(page.type, got.type);
      EXPECT_EQ(page.ints, got.ints);
      EXPECT_EQ(page.doubles, got.doubles);
      EXPECT_EQ(page.strs, got.strs);
    }
  };
  SpillPage ints;
  ints.idx = {5, 0, 7};
  ints.type = Type::kInt64;
  ints.ints = {-1, 42, 1 << 20};
  round_trip(ints);

  SpillPage doubles;
  doubles.idx = {1, 2};
  doubles.type = Type::kDouble;
  doubles.doubles = {-0.5, 1e18};
  round_trip(doubles);

  SpillPage strs;
  strs.idx = {9, 3, 3};
  strs.type = Type::kString;
  strs.strs = {"", "a", std::string(5000, 'x')};
  round_trip(strs);

  SpillPage boxed;
  boxed.idx = {0, 1, 2, 3};
  boxed.boxed = true;
  boxed.vals = {Value(int64_t{7}), Value(2.5), Value("mix"), Value::Null()};
  round_trip(boxed);

  // Truncated input is rejected, not mis-decoded.
  std::string buf;
  EncodeSpillPage(strs, &buf);
  for (size_t cut : {size_t{0}, size_t{3}, buf.size() - 1}) {
    SpillPage got;
    size_t pos = 0;
    EXPECT_FALSE(DecodeSpillPage(buf.substr(0, cut), &pos, &got)) << cut;
  }
}

class VectorizedJoinKernelTest : public ::testing::Test {
 protected:
  VectorizedJoinKernelTest() : pool_(8, "test-vjoin-ap") {}

  ExecContext Ctx(size_t threads, size_t spill_budget, uint64_t mask) {
    ExecContext exec;
    if (threads > 1) {
      exec.pool = &pool_;
      exec.max_parallelism = threads;
      exec.min_parallel_join_build = 1;
    }
    exec.join_spill_budget_bytes = spill_budget;
    exec.join_hash_mask = mask;
    return exec;
  }

  ThreadPool pool_;
};

TEST_F(VectorizedJoinKernelTest, BatchKeysMatchRowPairsEveryRegime) {
  // The same join computed two ways: the row overload (keys extracted from
  // rows) and the batch route (keys extracted from column batches). Pairs
  // must be identical — order included — in the serial, parallel, and grace
  // regimes, with and without forced hash collisions.
  const std::vector<Row> probe = FactRows(3000);
  const std::vector<Row> build = DimRows(2000);
  for (size_t batch_rows : {size_t{0}, size_t{113}, size_t{4096}}) {
    const auto pbatches = RowsToBatches(probe, FactSchema(), {}, batch_rows);
    const auto bbatches = RowsToBatches(build, DimSchema(), {}, batch_rows);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t budget : {size_t{0}, size_t{1}, size_t{64 << 10}}) {
        for (uint64_t mask : {~uint64_t{0}, uint64_t{0xF}}) {
          const ExecContext exec = Ctx(threads, budget, mask);
          JoinStats row_js, batch_js;
          const JoinPairs expect =
              HashJoinPairs(probe, build, 1, 0, exec, &row_js);
          const std::vector<size_t> weights = EstimateBatchRowBytes(bbatches);
          const JoinPairs got = HashJoinPairsKeys(
              ExtractJoinKeys(pbatches, 1), ExtractJoinKeys(bbatches, 0),
              exec, &batch_js, budget > 0 ? &weights : nullptr);
          ASSERT_EQ(expect, got)
              << "batch_rows=" << batch_rows << " threads=" << threads
              << " budget=" << budget << " mask=" << mask;
          EXPECT_EQ(row_js.partitions_spilled, batch_js.partitions_spilled);
          if (budget == 1) {
            // Everything spills: pages flowed both directions and carried
            // every spilled key exactly once.
            EXPECT_GT(batch_js.spill_pages_written, 0u);
            EXPECT_EQ(batch_js.spill_pages_read, batch_js.spill_pages_written);
            EXPECT_GT(batch_js.spill_rows_written, 0u);
          }
        }
      }
    }
  }
}

/// End-to-end identity: the same plans executed with the batch join
/// pipeline on and off must return byte-identical results — across
/// architectures, batch sizes, thread counts, and forced-spill budgets.
class VectorizedJoinPlanTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Database> Open(ArchitectureKind arch,
                                        bool vectorized_join,
                                        size_t batch_rows, size_t threads,
                                        size_t spill_budget) {
    DatabaseOptions opts;
    opts.architecture = arch;
    opts.background_sync = false;
    opts.vectorized_join = vectorized_join;
    opts.vectorized_batch_rows = batch_rows;
    opts.parallel_scan_threads = threads;
    opts.parallel_join_min_build_rows = 1;
    opts.join_spill_budget_bytes = spill_budget;
    auto db = std::move(*Database::Open(opts));
    Seed(db.get());
    return db;
  }

  static void Seed(Database* db) {
    ASSERT_TRUE(db->ExecuteSql("CREATE TABLE item (i_id INT64 PRIMARY KEY, "
                               "name STRING, price DOUBLE)")
                    .ok());
    ASSERT_TRUE(db->ExecuteSql("CREATE TABLE sale (s_id INT64 PRIMARY KEY, "
                               "item_id INT64, qty INT64)")
                    .ok());
    ASSERT_TRUE(db->ExecuteSql("CREATE TABLE promo (p_id INT64 PRIMARY KEY, "
                               "p_item INT64, bonus INT64)")
                    .ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db->ExecuteSql("INSERT INTO item VALUES (" +
                                 std::to_string(i) + ", 'item_" +
                                 std::to_string(i % 5) + "', " +
                                 std::to_string(i) + ".5)")
                      .ok());
      ASSERT_TRUE(db->ExecuteSql("INSERT INTO promo VALUES (" +
                                 std::to_string(1000 + i) + ", " +
                                 std::to_string(i % 13) + ", " +
                                 std::to_string(i % 3) + ")")
                      .ok());
    }
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db->ExecuteSql("INSERT INTO sale VALUES (" +
                                 std::to_string(10000 + i) + ", " +
                                 std::to_string(i % 40) + ", " +
                                 std::to_string(i % 7) + ")")
                      .ok());
    }
    ASSERT_TRUE(db->ForceSyncAll().ok());
  }

  static std::vector<std::string> Queries() {
    return {
        // Two-table join, full output (late gather of every column).
        "SELECT * FROM sale JOIN item ON sale.item_id = item.i_id",
        // Projection-only output: late materialization gathers 2 columns.
        "SELECT item.name, sale.qty FROM sale "
        "JOIN item ON sale.item_id = item.i_id WHERE sale.qty > 2",
        // Three-table chain into an aggregate (scan -> join -> aggregate
        // without intermediate row materialization).
        "SELECT item.name, SUM(sale.qty) AS sold, COUNT(*) AS n FROM sale "
        "JOIN item ON sale.item_id = item.i_id "
        "JOIN promo ON item.i_id = promo.p_item "
        "GROUP BY item.name ORDER BY sold DESC",
        // Chain with predicates on every input and a global aggregate.
        "SELECT COUNT(*) AS n, AVG(item.price) AS p FROM sale "
        "JOIN item ON sale.item_id = item.i_id "
        "JOIN promo ON item.i_id = promo.p_item "
        "WHERE sale.qty > 1 AND promo.bonus > 0 AND item.price < 30.0",
    };
  }

  static void ExpectSameResults(Database* row_db, Database* batch_db,
                                const std::string& label) {
    for (const std::string& q : Queries()) {
      auto expect = row_db->ExecuteSql(q);
      ASSERT_TRUE(expect.ok()) << expect.status().ToString() << " " << q;
      QueryExecInfo info;
      auto got = batch_db->ExecuteSql(q, &info);
      ASSERT_TRUE(got.ok()) << got.status().ToString() << " " << q;
      EXPECT_EQ(expect->rows, got->rows) << label << " query: " << q;
    }
  }
};

TEST_F(VectorizedJoinPlanTest, BatchJoinMatchesRowJoinAcrossKnobs) {
  for (ArchitectureKind arch : {ArchitectureKind::kRowPlusInMemoryColumn,
                                ArchitectureKind::kColumnPlusDeltaRow}) {
    for (size_t batch_rows : {size_t{7}, size_t{4096}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (size_t budget : {size_t{0}, size_t{1}}) {
          auto row_db = Open(arch, /*vectorized_join=*/false, batch_rows,
                             threads, budget);
          auto batch_db = Open(arch, /*vectorized_join=*/true, batch_rows,
                               threads, budget);
          ExpectSameResults(
              row_db.get(), batch_db.get(),
              "arch=" + std::to_string(static_cast<int>(arch)) +
                  " batch_rows=" + std::to_string(batch_rows) + " threads=" +
                  std::to_string(threads) + " budget=" +
                  std::to_string(budget));
        }
      }
    }
  }
}

TEST_F(VectorizedJoinPlanTest, DistributedLearnerServesBatchJoins) {
  // Architecture (b) now offers its learner batch scan: the batch pipeline
  // must produce the row pipeline's results there too.
  auto row_db = Open(ArchitectureKind::kDistributedRowPlusColumnReplica,
                     /*vectorized_join=*/false, 4096, 1, 0);
  auto batch_db = Open(ArchitectureKind::kDistributedRowPlusColumnReplica,
                       /*vectorized_join=*/true, 4096, 1, 0);
  ExpectSameResults(row_db.get(), batch_db.get(), "arch=b");
}

TEST_F(VectorizedJoinPlanTest, BatchPipelineReportsJoinCounters) {
  auto db = Open(ArchitectureKind::kRowPlusInMemoryColumn,
                 /*vectorized_join=*/true, 4096, 1, 0);
  QueryExecInfo info;
  auto res = db->ExecuteSql(
      "SELECT item.name, SUM(sale.qty) AS sold FROM sale "
      "JOIN item ON sale.item_id = item.i_id "
      "JOIN promo ON item.i_id = promo.p_item GROUP BY item.name",
      &info);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(info.vectorized);
  EXPECT_GT(info.join.join_batches, 0u);
  EXPECT_GT(info.join.rows_late_materialized, 0u);
  EXPECT_EQ(info.join_steps.size(), 2u);

  // With the knob off the same plan reports the row pipeline.
  auto off = Open(ArchitectureKind::kRowPlusInMemoryColumn,
                  /*vectorized_join=*/false, 4096, 1, 0);
  QueryExecInfo off_info;
  ASSERT_TRUE(off->ExecuteSql(
                     "SELECT item.name, SUM(sale.qty) AS sold FROM sale "
                     "JOIN item ON sale.item_id = item.i_id "
                     "JOIN promo ON item.i_id = promo.p_item "
                     "GROUP BY item.name",
                     &off_info)
                  .ok());
  EXPECT_EQ(off_info.join.join_batches, 0u);
  EXPECT_EQ(off_info.join.rows_late_materialized, 0u);
}

TEST_F(VectorizedJoinPlanTest, ForcedSpillStaysIdenticalEndToEnd) {
  // A 1-byte budget forces every join step through the grace path's
  // columnar spill pages; results and reported spill activity must agree
  // with the row pipeline's spill.
  auto row_db = Open(ArchitectureKind::kRowPlusInMemoryColumn,
                     /*vectorized_join=*/false, 64, 1, 1);
  auto batch_db = Open(ArchitectureKind::kRowPlusInMemoryColumn,
                       /*vectorized_join=*/true, 64, 1, 1);
  for (const std::string& q : Queries()) {
    auto expect = row_db->ExecuteSql(q);
    ASSERT_TRUE(expect.ok());
    QueryExecInfo info;
    auto got = batch_db->ExecuteSql(q, &info);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(expect->rows, got->rows) << q;
    EXPECT_GT(info.join.spill_pages_written, 0u) << q;
    EXPECT_GT(info.join.spill_pages_read, 0u) << q;
  }
}

}  // namespace
}  // namespace htap

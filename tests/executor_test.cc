// Execution-layer tests: predicate evaluation and zone-map skipping,
// row/HTAP scans, hash join, hash aggregation, sort/limit, projection.
// Scans are checked against a plain-row model (ref::HtapTableModel), joins
// against the nested-loop reference.

#include <gtest/gtest.h>

#include "batch_join.h"
#include "exec/executor.h"
#include "reference_eval.h"
#include "txn/txn_manager.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64},
                 {"cat", Type::kString}, {"price", Type::kDouble}});
}

Row TRow(Key id, int64_t v, const std::string& cat, double price) {
  return Row{Value(id), Value(v), Value(cat), Value(price)};
}

TEST(PredicateTest, EvalBasics) {
  const Row r = TRow(1, 10, "a", 2.5);
  EXPECT_TRUE(Predicate::Eq(0, Value(int64_t{1})).Eval(r));
  EXPECT_FALSE(Predicate::Eq(0, Value(int64_t{2})).Eval(r));
  EXPECT_TRUE(Predicate::Gt(3, Value(2.0)).Eval(r));
  EXPECT_TRUE(Predicate::Eq(2, Value("a")).Eval(r));
  EXPECT_TRUE(Predicate::And({Predicate::Ge(1, Value(int64_t{10})),
                              Predicate::Le(1, Value(int64_t{10}))})
                  .Eval(r));
  EXPECT_TRUE(Predicate::Or({Predicate::Eq(0, Value(int64_t{9})),
                             Predicate::Eq(2, Value("a"))})
                  .Eval(r));
  EXPECT_TRUE(Predicate::Not(Predicate::Eq(0, Value(int64_t{9}))).Eval(r));
  EXPECT_TRUE(Predicate::True().Eval(r));
  EXPECT_TRUE(Predicate::Between(1, Value(int64_t{5}), Value(int64_t{15})).Eval(r));
}

TEST(PredicateTest, NullComparisonsAreFalse) {
  Row r{Value(int64_t{1}), Value::Null(), Value("a"), Value(1.0)};
  EXPECT_FALSE(Predicate::Eq(1, Value(int64_t{0})).Eval(r));
  EXPECT_FALSE(Predicate::Ne(1, Value(int64_t{0})).Eval(r));
  EXPECT_FALSE(Predicate::Lt(1, Value(int64_t{100})).Eval(r));
}

TEST(PredicateTest, ConjunctsFlattenNestedAnds) {
  auto p = Predicate::And(
      {Predicate::Eq(0, Value(int64_t{1})),
       Predicate::And({Predicate::Gt(1, Value(int64_t{2})),
                       Predicate::Lt(1, Value(int64_t{9}))})});
  EXPECT_EQ(p.Conjuncts().size(), 3u);
  EXPECT_EQ(Predicate::True().Conjuncts().size(), 0u);
}

TEST(PredicateTest, ReferencedColumnsDeduplicated) {
  auto p = Predicate::And({Predicate::Gt(1, Value(int64_t{0})),
                           Predicate::Lt(1, Value(int64_t{9})),
                           Predicate::Eq(3, Value(1.0))});
  const auto cols = p.ReferencedColumns();
  EXPECT_EQ(cols.size(), 2u);
}

TEST(PredicateTest, ToStringReadable) {
  Schema s = TestSchema();
  auto p = Predicate::And({Predicate::Ge(1, Value(int64_t{5})),
                           Predicate::Eq(2, Value("x"))});
  EXPECT_EQ(p.ToString(&s), "(v >= 5 AND cat = x)");
}

class ScanTest : public ::testing::Test {
 protected:
  ScanTest()
      : store_(1, TestSchema(), &mgr_, nullptr),
        table_(TestSchema()),
        model_(TestSchema()) {
    auto t = mgr_.Begin();
    for (int i = 0; i < 100; ++i) {
      const Row r = TRow(i, i % 10, i % 2 ? "odd" : "even", i * 1.5);
      store_.Insert(t.get(), r);
      rows_.push_back(r);
    }
    mgr_.Commit(t.get());
    // Column store gets the same rows in two groups.
    table_.AppendBatch({rows_.begin(), rows_.begin() + 50}, 1);
    table_.AppendBatch({rows_.begin() + 50, rows_.end()}, 2);
    model_.Append(rows_);
  }

  void AddDelta(InMemoryDeltaStore* delta, const DeltaEntry& e) {
    delta->Append(e);
    model_.AddDelta(e);
  }

  static std::vector<Row> Scan(const ColumnTable& table,
                               const DeltaReader* delta, CSN snapshot,
                               const Predicate& pred,
                               ScanStats* stats = nullptr) {
    ExecContext exec;
    exec.batch_rows = 16;
    return BatchesToRows(
        ScanHtapBatches(table, delta, snapshot, pred, {}, exec, stats));
  }

  TransactionManager mgr_;
  MvccRowStore store_;
  ColumnTable table_;
  std::vector<Row> rows_;
  ref::HtapTableModel model_;
};

TEST_F(ScanTest, RowScanWithPredicateAndProjection) {
  const auto out = BatchesToRows(
      ScanRowStore(store_, mgr_.CurrentSnapshot(),
                   Predicate::Eq(1, Value(int64_t{3})), {0, 3}, ExecContext{})
          .ValueOrDie());
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(out[0].size(), 2u);
}

TEST_F(ScanTest, ColumnScanMatchesRowScan) {
  const auto pred = Predicate::And({Predicate::Ge(0, Value(int64_t{20})),
                                    Predicate::Eq(2, Value("even"))});
  auto row_out = BatchesToRows(
      ScanRowStore(store_, mgr_.CurrentSnapshot(), pred, {}, ExecContext{})
          .ValueOrDie());
  auto col_out = Scan(table_, nullptr, kMaxCSN - 1, pred);
  EXPECT_EQ(col_out, model_.Rows(kMaxCSN - 1, pred));
  auto key_of = [](const Row& r) { return r.Get(0).AsInt64(); };
  std::sort(row_out.begin(), row_out.end(),
            [&](const Row& a, const Row& b) { return key_of(a) < key_of(b); });
  std::sort(col_out.begin(), col_out.end(),
            [&](const Row& a, const Row& b) { return key_of(a) < key_of(b); });
  EXPECT_EQ(row_out, col_out);
}

TEST_F(ScanTest, ZoneMapSkipsGroups) {
  ScanStats stats;
  // Keys 0..49 in group 0, 50..99 in group 1: id >= 80 skips group 0.
  const Predicate pred = Predicate::Ge(0, Value(int64_t{80}));
  const auto out = Scan(table_, nullptr, kMaxCSN - 1, pred, &stats);
  EXPECT_EQ(out, model_.Rows(kMaxCSN - 1, pred));
  EXPECT_EQ(out.size(), 20u);
  EXPECT_EQ(stats.groups_total, 2u);
  EXPECT_EQ(stats.groups_skipped, 1u);
}

TEST_F(ScanTest, DeltaUnionOverridesMain) {
  InMemoryDeltaStore delta;
  DeltaEntry upd;
  upd.op = ChangeOp::kUpdate;
  upd.key = 10;
  upd.row = TRow(10, 777, "patched", 0.0);
  upd.csn = 50;
  AddDelta(&delta, upd);
  DeltaEntry del;
  del.op = ChangeOp::kDelete;
  del.key = 11;
  del.csn = 51;
  AddDelta(&delta, del);
  DeltaEntry ins;
  ins.op = ChangeOp::kInsert;
  ins.key = 1000;
  ins.row = TRow(1000, 1, "new", 9.9);
  ins.csn = 52;
  AddDelta(&delta, ins);

  ScanStats stats;
  const auto out = Scan(table_, &delta, kMaxCSN - 1, Predicate::True(),
                        &stats);
  EXPECT_EQ(out, model_.Rows(kMaxCSN - 1, Predicate::True()));
  EXPECT_EQ(out.size(), 100u);  // 100 - 1 delete + 1 insert
  EXPECT_EQ(stats.delta_rows_emitted, 2u);
  bool saw_patched = false, saw_11 = false;
  for (const Row& r : out) {
    if (r.Get(0).AsInt64() == 10) {
      EXPECT_EQ(r.Get(1).AsInt64(), 777);
      saw_patched = true;
    }
    if (r.Get(0).AsInt64() == 11) saw_11 = true;
  }
  EXPECT_TRUE(saw_patched);
  EXPECT_FALSE(saw_11);
}

TEST_F(ScanTest, DeltaSnapshotCutoff) {
  InMemoryDeltaStore delta;
  DeltaEntry del;
  del.op = ChangeOp::kDelete;
  del.key = 5;
  del.csn = 100;
  AddDelta(&delta, del);
  // Snapshot below the delete's CSN: row 5 still visible.
  const Predicate pred = Predicate::Eq(0, Value(int64_t{5}));
  const auto out = Scan(table_, &delta, 99, pred);
  EXPECT_EQ(out, model_.Rows(99, pred));
  EXPECT_EQ(out.size(), 1u);
  const auto out2 = Scan(table_, &delta, 100, pred);
  EXPECT_EQ(out2.size(), 0u);
}

Schema LeftSchema() {
  return Schema({{"k", Type::kInt64}, {"s", Type::kString}});
}

Schema RightSchema() {
  return Schema({{"k", Type::kInt64}, {"d", Type::kDouble}});
}

TEST(HashJoinTest, InnerEquiJoin) {
  std::vector<Row> left = {Row{Value(int64_t{1}), Value("a")},
                           Row{Value(int64_t{2}), Value("b")},
                           Row{Value(int64_t{2}), Value("b2")}};
  std::vector<Row> right = {Row{Value(int64_t{2}), Value(10.0)},
                            Row{Value(int64_t{3}), Value(30.0)}};
  const auto out =
      test::JoinBatches(test::Batches(left, LeftSchema()),
                        test::Batches(right, RightSchema()), 0, 0, {});
  EXPECT_EQ(out, ref::NestedLoopJoin(left, right, 0, 0));
  ASSERT_EQ(out.size(), 2u);
  for (const Row& r : out) {
    EXPECT_EQ(r.size(), 4u);
    EXPECT_EQ(r.Get(0).AsInt64(), 2);
    EXPECT_DOUBLE_EQ(r.Get(3).AsDouble(), 10.0);
  }
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  std::vector<Row> left = {Row{Value::Null(), Value("a")}};
  std::vector<Row> right = {Row{Value::Null(), Value(1.0)}};
  EXPECT_TRUE(test::JoinBatches(test::Batches(left, LeftSchema()),
                                test::Batches(right, RightSchema()), 0, 0, {})
                  .empty());
}

TEST(HashAggregateTest, GlobalAggregates) {
  std::vector<Row> rows;
  for (int i = 1; i <= 10; ++i)
    rows.push_back(Row{Value(static_cast<int64_t>(i))});
  const auto out = HashAggregate(
      RowsToBatches(rows, Schema({{"v", Type::kInt64}}), {}, 4),
      {},
      {AggSpec::Count("n"), AggSpec::Sum(0, "s"), AggSpec::Min(0, "mn"),
       AggSpec::Max(0, "mx"), AggSpec::Avg(0, "avg")},
      ExecContext{});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get(0).AsInt64(), 10);
  EXPECT_DOUBLE_EQ(out[0].Get(1).AsDouble(), 55.0);
  EXPECT_EQ(out[0].Get(2).AsInt64(), 1);
  EXPECT_EQ(out[0].Get(3).AsInt64(), 10);
  EXPECT_DOUBLE_EQ(out[0].Get(4).AsDouble(), 5.5);
}

TEST(HashAggregateTest, GroupByWithNullsAndEmptyInput) {
  std::vector<Row> rows = {Row{Value("a"), Value(int64_t{1})},
                           Row{Value("a"), Value::Null()},
                           Row{Value("b"), Value(int64_t{5})}};
  const Schema schema({{"k", Type::kString}, {"v", Type::kInt64}});
  auto out = HashAggregate(RowsToBatches(rows, schema, {}, 2), {0},
                           {AggSpec::Count("n"), AggSpec::Sum(1, "s")},
                           ExecContext{});
  ASSERT_EQ(out.size(), 2u);
  SortLimit(&out, 0, false, 0);
  EXPECT_EQ(out[0].Get(0).AsString(), "a");
  EXPECT_EQ(out[0].Get(1).AsInt64(), 2);       // COUNT counts null rows too
  EXPECT_DOUBLE_EQ(out[0].Get(2).AsDouble(), 1.0);  // SUM skips nulls

  const auto empty = HashAggregate(
      {}, {}, {AggSpec::Count("n"), AggSpec::Sum(0, "s")}, ExecContext{});
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].Get(0).AsInt64(), 0);
  EXPECT_TRUE(empty[0].Get(1).is_null());
  EXPECT_TRUE(
      HashAggregate({}, {0}, {AggSpec::Count("n")}, ExecContext{}).empty());
}

TEST(SortLimitTest, OrdersAndTruncates) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i)
    rows.push_back(Row{Value(static_cast<int64_t>((i * 7) % 10))});
  SortLimit(&rows, 0, /*desc=*/true, /*limit=*/3);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 9);
  EXPECT_EQ(rows[2].Get(0).AsInt64(), 7);
}

}  // namespace
}  // namespace htap

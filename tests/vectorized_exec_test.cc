// Vectorized execution tests (DESIGN.md §12): compressed-domain predicate
// evaluation must make exactly the scalar Value::Compare decisions on every
// encoding, gather must materialize selections losslessly, and the batch
// pipeline (ScanHtapBatches -> FilterBatch / batch HashAggregate / extracted
// join keys) must equal plain-row references — a model of the table and
// delta, the reference aggregate, nested-loop join pairs — serial and
// parallel, plus the compression advisor's size-based encoding picks.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "columnar/compression_advisor.h"
#include "common/random.h"
#include "core/database.h"
#include "exec/executor.h"
#include "exec/segment_filter.h"
#include "reference_eval.h"
#include "sql/sql.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64},
                 {"v", Type::kInt64},
                 {"cat", Type::kString},
                 {"price", Type::kDouble}});
}

Row TRow(Key id, int64_t v, const std::string& cat, double price) {
  return Row{Value(id), Value(v), Value(cat), Value(price)};
}

std::vector<uint32_t> AllSel(size_t n) {
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

// The scalar reference the compressed-domain paths must reproduce exactly.
std::vector<uint32_t> RefFilter(const ColumnVector& v,
                                const std::vector<uint32_t>& sel, CmpOp op,
                                const Value& lit) {
  std::vector<uint32_t> out;
  for (uint32_t i : sel) {
    if (v.IsNull(i) || lit.is_null()) continue;
    if (CmpKeep(v.GetValue(i).Compare(lit), op)) out.push_back(i);
  }
  return out;
}

const CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
const EncodingType kAllEncodings[] = {EncodingType::kPlain,
                                      EncodingType::kDictionary,
                                      EncodingType::kRle,
                                      EncodingType::kForBitPack};

ColumnVector IntShape() {
  ColumnVector v(Type::kInt64);
  for (int i = 0; i < 600; ++i) {
    if (i % 13 == 5)
      v.AppendNull();
    else
      v.AppendInt64((i / 25) % 12);  // runs + narrow range + repeats
  }
  return v;
}

ColumnVector StringShape() {
  ColumnVector v(Type::kString);
  const char* tags[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 400; ++i) {
    if (i % 17 == 2)
      v.AppendNull();
    else
      v.AppendString(tags[(i / 20) % 3]);
  }
  return v;
}

ColumnVector DoubleShape() {
  ColumnVector v(Type::kDouble);
  for (int i = 0; i < 300; ++i) {
    if (i % 11 == 7)
      v.AppendNull();
    else
      v.AppendDouble((i % 40) * 0.25);
  }
  return v;
}

TEST(SegmentFilterTest, MatchesScalarReferenceOnEveryEncoding) {
  struct Case {
    ColumnVector values;
    std::vector<Value> literals;
  };
  std::vector<Case> cases;
  cases.push_back({IntShape(),
                   {Value(int64_t{0}), Value(int64_t{7}), Value(int64_t{99}),
                    Value(4.5), Value(5.0), Value::Null()}});
  cases.push_back({StringShape(),
                   {Value("beta"), Value("aaaa"), Value("zzz"),
                    Value::Null()}});
  cases.push_back({DoubleShape(),
                   {Value(0.25), Value(5.0), Value(-1.0), Value(int64_t{3}),
                    Value::Null()}});
  for (const Case& c : cases) {
    // A partial input selection exercises the refinement contract.
    std::vector<uint32_t> sparse;
    for (size_t i = 0; i < c.values.size(); i += 3)
      sparse.push_back(static_cast<uint32_t>(i));
    for (EncodingType e : kAllEncodings) {
      const Segment seg = Segment::BuildWithEncoding(c.values, e);
      for (CmpOp op : kAllOps) {
        for (const Value& lit : c.literals) {
          SCOPED_TRACE(std::string(EncodingName(e)) + " " + CmpOpName(op) +
                       " " + lit.ToString());
          for (const std::vector<uint32_t>* base :
               {static_cast<const std::vector<uint32_t>*>(&sparse),
                static_cast<const std::vector<uint32_t>*>(nullptr)}) {
            std::vector<uint32_t> sel =
                base != nullptr ? *base : AllSel(c.values.size());
            const std::vector<uint32_t> expect =
                RefFilter(c.values, sel, op, lit);
            FilterSegmentSelection(seg, op, lit, &sel);
            ASSERT_EQ(sel, expect);
            // The zone-map skip test may only claim "skip" when the
            // exhaustive result is empty.
            if (SegmentCanSkip(seg, op, lit)) EXPECT_TRUE(expect.empty());
          }
        }
      }
    }
  }
}

TEST(SegmentFilterTest, GatherMaterializesSelectionLosslessly) {
  const ColumnVector shapes[] = {IntShape(), StringShape(), DoubleShape()};
  for (const ColumnVector& v : shapes) {
    std::vector<uint32_t> sel;
    for (size_t i = 0; i < v.size(); ++i)
      if (i % 3 == 0 || i % 13 == 5) sel.push_back(static_cast<uint32_t>(i));
    for (EncodingType e : kAllEncodings) {
      const Segment seg = Segment::BuildWithEncoding(v, e);
      ColumnVector out(v.type());
      GatherSegment(seg, sel, &out);
      ASSERT_EQ(out.size(), sel.size()) << EncodingName(e);
      for (size_t k = 0; k < sel.size(); ++k)
        ASSERT_EQ(out.GetValue(k), v.GetValue(sel[k]))
            << EncodingName(e) << " pos " << sel[k];
    }
  }
}

TEST(BatchTest, FilterBatchMatchesPredicateEval) {
  ColumnBatch batch;
  batch.columns.emplace_back(IntShape());
  ColumnVector s(Type::kString);
  ColumnVector d(Type::kDouble);
  const char* tags[] = {"x", "y", "z"};
  for (size_t i = 0; i < batch.columns[0].size(); ++i) {
    if (i % 19 == 4)
      s.AppendNull();
    else
      s.AppendString(tags[i % 3]);
    d.AppendDouble(static_cast<double>(i % 50) * 0.5);
  }
  batch.columns.push_back(std::move(s));
  batch.columns.push_back(std::move(d));

  struct F {
    int col;
    CmpOp op;
    Value lit;
  };
  const std::vector<F> filters = {{0, CmpOp::kGe, Value(int64_t{4})},
                                  {1, CmpOp::kEq, Value("y")},
                                  {2, CmpOp::kLt, Value(12.0)},
                                  {1, CmpOp::kNe, Value::Null()}};
  for (const F& f : filters) {
    ColumnBatch b = batch;  // fresh all-active selection each time
    std::vector<uint32_t> expect =
        RefFilter(b.columns[f.col], AllSel(b.rows()), f.op, f.lit);
    FilterBatch(&b, f.col, f.op, f.lit);
    EXPECT_EQ(b.sel, expect);
    EXPECT_EQ(b.active(), expect.size());
  }
  // Chained filters refine the same selection.
  ColumnBatch b = batch;
  FilterBatch(&b, 0, CmpOp::kGe, Value(int64_t{4}));
  FilterBatch(&b, 1, CmpOp::kEq, Value("y"));
  std::vector<uint32_t> expect =
      RefFilter(batch.columns[0], AllSel(batch.rows()), CmpOp::kGe,
                Value(int64_t{4}));
  expect = RefFilter(batch.columns[1], expect, CmpOp::kEq, Value("y"));
  EXPECT_EQ(b.sel, expect);
}

// Shared fixture: a multi-group table with positional deletes and a delta
// carrying updates, a delete, and inserts — the full HTAP union shape.
class VectorizedScanTest : public ::testing::Test {
 protected:
  VectorizedScanTest()
      : table_(TestSchema()), model_(TestSchema()), pool_(4, "vec-ap") {
    std::vector<Row> batch;
    for (Key id = 0; id < 512; ++id) {
      batch.push_back(TRow(id, id % 13, id % 2 ? "odd" : "even", id * 0.25));
      if (batch.size() == 64) {
        table_.AppendBatch(batch, 1);
        model_.Append(batch);
        batch.clear();
      }
    }
    for (Key id = 7; id < 512; id += 31) {
      table_.DeleteKey(id, 2);
      model_.Delete(id);
    }
    for (Key id = 3; id < 512; id += 97) {
      DeltaEntry e;
      e.op = ChangeOp::kUpdate;
      e.key = id;
      e.row = TRow(id, 7777, "patched", 1.5);
      e.csn = 10;
      AddDelta(e);
    }
    DeltaEntry del;
    del.op = ChangeOp::kDelete;
    del.key = 20;
    del.csn = 11;
    AddDelta(del);
    for (Key id = 9000; id < 9008; ++id) {
      DeltaEntry ins;
      ins.op = ChangeOp::kInsert;
      ins.key = id;
      ins.row = TRow(id, 1, "new", 2.0);
      ins.csn = 12;
      AddDelta(ins);
    }
  }

  void AddDelta(const DeltaEntry& e) {
    delta_.Append(e);
    model_.AddDelta(e);
  }

  ExecContext Serial(size_t batch_rows = 4096) {
    ExecContext e;
    e.batch_rows = batch_rows;
    return e;
  }
  ExecContext Par(size_t batch_rows = 4096) {
    ExecContext e{&pool_, 4};
    e.batch_rows = batch_rows;
    return e;
  }

  ColumnTable table_;
  ref::HtapTableModel model_;
  InMemoryDeltaStore delta_;
  ThreadPool pool_;
};

TEST_F(VectorizedScanTest, BatchesMatchModelByteForByte) {
  const std::vector<Predicate> preds = {
      Predicate::True(),
      Predicate::Ge(0, Value(int64_t{100})),
      Predicate::And({Predicate::Ge(1, Value(int64_t{3})),
                      Predicate::Eq(2, Value("odd"))}),
      Predicate::Eq(2, Value("patched")),
      Predicate::Gt(3, Value(100.0)),
      Predicate::Between(0, Value(int64_t{60}), Value(int64_t{70})),
  };
  for (const Predicate& pred : preds) {
    for (const std::vector<int>& proj :
         {std::vector<int>{}, std::vector<int>{0, 3}, std::vector<int>{2}}) {
      const auto model = model_.Scan(kMaxCSN - 1, pred, proj);
      const auto& rows = model.rows;
      ScanStats first_st;
      bool first = true;
      for (size_t batch_rows : {size_t{4096}, size_t{7}, size_t{0}}) {
        for (bool parallel : {false, true}) {
          SCOPED_TRACE(pred.ToString(nullptr) + " batch_rows=" +
                       std::to_string(batch_rows) +
                       (parallel ? " par" : " ser"));
          ScanStats st;
          const auto batches = ScanHtapBatches(
              table_, &delta_, kMaxCSN - 1, pred, proj,
              parallel ? Par(batch_rows) : Serial(batch_rows), &st);
          EXPECT_EQ(BatchesToRows(batches), rows);
          EXPECT_EQ(TotalActiveRows(batches), rows.size());
          EXPECT_EQ(st.main_rows_emitted, model.main_rows);
          EXPECT_EQ(st.delta_rows_emitted, model.delta_rows);
          EXPECT_EQ(st.groups_total, 8u);
          // Zone-map skips do not depend on batch size or thread count.
          if (first) first_st = st;
          first = false;
          EXPECT_EQ(st.groups_skipped, first_st.groups_skipped);
          if (batch_rows != 0) {
            for (const ColumnBatch& b : batches)
              EXPECT_LE(b.rows(), batch_rows);
          }
        }
      }
    }
  }
}

// Satellite of the typed-filter work: int64 and string columns must take
// the same decisions as generic row-at-a-time Predicate::Eval (the double
// fast path has this coverage in parallel_scan_test).
TEST_F(VectorizedScanTest, Int64AndStringFastPathsMatchGenericEval) {
  const std::vector<Predicate> preds = {
      Predicate::Lt(1, Value(int64_t{4})), Predicate::Ge(0, Value(int64_t{400})),
      Predicate::Eq(1, Value(int64_t{0})), Predicate::Ne(1, Value(int64_t{7})),
      Predicate::Gt(1, Value(2.5)),  // double literal vs int column
      Predicate::Eq(2, Value("odd")), Predicate::Ne(2, Value("even")),
      Predicate::Lt(2, Value("f")),  Predicate::Ge(2, Value("odd")),
  };
  const auto all = model_.Rows(kMaxCSN - 1, Predicate::True());
  for (const Predicate& pred : preds) {
    std::vector<Row> expect;
    for (const Row& r : all)
      if (pred.Eval(r)) expect.push_back(r);
    EXPECT_EQ(BatchesToRows(ScanHtapBatches(table_, &delta_, kMaxCSN - 1,
                                            pred, {}, Serial())),
              expect)
        << pred.ToString(nullptr);
  }
}

TEST_F(VectorizedScanTest, BatchAggregateMatchesReference) {
  const auto batches = ScanHtapBatches(table_, &delta_, kMaxCSN - 1,
                                       Predicate::True(), {}, Serial(100));
  const auto rows = BatchesToRows(batches);
  const std::vector<AggSpec> aggs = {
      AggSpec::Count("n"), AggSpec::Sum(1, "s"), AggSpec::Min(3, "mn"),
      AggSpec::Max(3, "mx"), AggSpec::Avg(1, "avg")};
  auto less = [](const Row& a, const Row& b) {
    return a.ToString() < b.ToString();
  };
  for (const std::vector<int>& groups :
       {std::vector<int>{}, std::vector<int>{2}, std::vector<int>{1, 2}}) {
    auto expect = ref::Aggregate(rows, groups, aggs);
    std::sort(expect.begin(), expect.end(), less);
    for (bool parallel : {false, true}) {
      auto got =
          HashAggregate(batches, groups, aggs, parallel ? Par() : Serial());
      std::sort(got.begin(), got.end(), less);
      EXPECT_EQ(got, expect) << (parallel ? "parallel" : "serial");
    }
  }
  // Batches with refined selections aggregate only active positions.
  auto filtered = batches;
  for (ColumnBatch& b : filtered)
    FilterBatch(&b, 1, CmpOp::kGe, Value(int64_t{5}));
  std::vector<Row> kept;
  for (const Row& r : rows)
    if (Predicate::Ge(1, Value(int64_t{5})).Eval(r)) kept.push_back(r);
  auto expect = ref::Aggregate(kept, {2}, aggs);
  auto got = HashAggregate(filtered, {2}, aggs, Serial());
  std::sort(expect.begin(), expect.end(), less);
  std::sort(got.begin(), got.end(), less);
  EXPECT_EQ(got, expect);
  // Empty input still yields the one global-aggregate row.
  const auto empty = HashAggregate(std::vector<ColumnBatch>{}, {},
                                   {AggSpec::Count("n")}, Serial());
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].Get(0).AsInt64(), 0);
}

TEST_F(VectorizedScanTest, ExtractedJoinKeysMatchNestedLoopPairs) {
  std::vector<Row> probe, build;
  for (Key id = 0; id < 700; ++id) {
    Row r = TRow(id, id % 43, id % 2 ? "odd" : "even", id * 0.5);
    if (id % 19 == 6) r.Set(1, Value::Null());
    probe.push_back(std::move(r));
  }
  for (Key id = 0; id < 300; ++id) {
    Row r = TRow(id, id % 43, "b" + std::to_string(id % 5), 1.0);
    if (id % 23 == 3) r.Set(1, Value::Null());
    build.push_back(std::move(r));
  }
  const auto pbatches = RowsToBatches(probe, TestSchema(), {}, 64);
  const auto bbatches = RowsToBatches(build, TestSchema(), {}, 64);
  for (int key_col : {1, 2}) {  // int keys and string keys
    const auto expect = ref::NestedLoopPairs(probe, build, key_col, key_col);
    const JoinKeyColumn pk = ExtractJoinKeys(pbatches, key_col);
    const JoinKeyColumn bk = ExtractJoinKeys(bbatches, key_col);
    for (bool parallel : {false, true}) {
      ExecContext exec = parallel ? Par() : Serial();
      exec.min_parallel_join_build = 1;
      JoinStats js;
      EXPECT_EQ(HashJoinPairsKeys(pk, bk, exec, &js), expect)
          << "col " << key_col << (parallel ? " par" : " ser");
      EXPECT_EQ(js.build_rows, build.size());
      EXPECT_EQ(js.probe_rows, probe.size());
    }
    // Narrow hash mask: collisions force the key-confirm path.
    ExecContext masked;
    masked.join_hash_mask = 0x7;
    EXPECT_EQ(HashJoinPairsKeys(pk, bk, masked, nullptr), expect);
  }
  // Keys extracted from HTAP scan batches (delta rows included) join as
  // the plain rows do.
  const auto batches = ScanHtapBatches(table_, &delta_, kMaxCSN - 1,
                                       Predicate::True(), {}, Serial(64));
  const auto scan_rows = BatchesToRows(batches);
  EXPECT_EQ(HashJoinPairsKeys(ExtractJoinKeys(batches, 2),
                              ExtractJoinKeys(bbatches, 2), Serial()),
            ref::NestedLoopPairs(scan_rows, build, 2, 2));
}

TEST(JoinKeyColumnTest, CrossTypeKeyColumnsFollowValueEquality) {
  // An INT64 key column joined to a DOUBLE one compares numerically; a
  // numeric key never equals a STRING key; NULLs never match.
  const Schema ints({{"k", Type::kInt64}});
  const Schema doubles({{"k", Type::kDouble}});
  const Schema strs({{"k", Type::kString}});
  const std::vector<Row> int_rows = {Row{Value(int64_t{5})},
                                     Row{Value::Null()},
                                     Row{Value(int64_t{2})},
                                     Row{Value(int64_t{5})}};
  const std::vector<Row> double_rows = {Row{Value(5.0)}, Row{Value(2.5)},
                                        Row{Value::Null()}, Row{Value(2.0)}};
  const std::vector<Row> str_rows = {Row{Value("5")}, Row{Value("2")}};
  const auto keys = [](const std::vector<Row>& rows, const Schema& schema) {
    return ExtractJoinKeys(RowsToBatches(rows, schema, {}, 2), 0);
  };
  const JoinKeyColumn ik = keys(int_rows, ints);
  const JoinKeyColumn dk = keys(double_rows, doubles);
  const JoinKeyColumn sk = keys(str_rows, strs);
  EXPECT_EQ(ik.type, Type::kInt64);
  EXPECT_EQ(dk.type, Type::kDouble);
  for (uint64_t mask : {~uint64_t{0}, uint64_t{0}}) {
    ExecContext exec;
    exec.join_hash_mask = mask;
    EXPECT_EQ(HashJoinPairsKeys(ik, dk, exec),
              ref::NestedLoopPairs(int_rows, double_rows, 0, 0));
    EXPECT_EQ(HashJoinPairsKeys(dk, ik, exec),
              ref::NestedLoopPairs(double_rows, int_rows, 0, 0));
    EXPECT_TRUE(HashJoinPairsKeys(ik, sk, exec).empty());
  }
  EXPECT_EQ(ref::NestedLoopPairs(int_rows, double_rows, 0, 0).size(), 3u);
}

TEST(CompressionAdvisorTest, CollectSegmentStatsCounts) {
  ColumnVector v(Type::kString);
  v.AppendString("a");
  v.AppendString("a");
  v.AppendNull();
  v.AppendString("b");
  v.AppendString("b");
  v.AppendString("a");
  const SegmentValueStats st = CollectSegmentStats(v);
  EXPECT_EQ(st.rows, 6u);
  EXPECT_EQ(st.nulls, 1u);
  // Raw slot values: "a","a","","b","b","a" -> distinct {a, "", b}.
  EXPECT_EQ(st.distinct, 3u);
  EXPECT_EQ(st.runs, 4u);
  EXPECT_EQ(st.string_bytes, 5u);

  ColumnVector ints(Type::kInt64);
  for (int64_t x : {40, 40, 40, 55, 55, 70}) ints.AppendInt64(x);
  const SegmentValueStats si = CollectSegmentStats(ints);
  EXPECT_EQ(si.distinct, 3u);
  EXPECT_EQ(si.runs, 3u);
  EXPECT_EQ(si.int_min, 40);
  EXPECT_EQ(si.int_max, 70);
}

TEST(CompressionAdvisorTest, PicksEncodingBySmallestEstimatedFootprint) {
  // Cycling low-cardinality strings: no runs to exploit, tiny dictionary.
  ColumnVector cyc(Type::kString);
  const char* tags[] = {"red", "green", "blue"};
  for (int i = 0; i < 512; ++i) cyc.AppendString(tags[i % 3]);
  EXPECT_EQ(AdviseEncoding(cyc).chosen, EncodingType::kDictionary);

  // Long runs: RLE beats everything.
  ColumnVector runs(Type::kInt64);
  for (int i = 0; i < 1000; ++i) runs.AppendInt64(i / 100);
  EXPECT_EQ(AdviseEncoding(runs).chosen, EncodingType::kRle);

  // Wide-but-framable random ints: FOR bit-packing.
  ColumnVector narrow(Type::kInt64);
  for (int i = 0; i < 512; ++i)
    narrow.AppendInt64(1000000 + (i * 2654435761u) % 1024);
  EXPECT_EQ(AdviseEncoding(narrow).chosen, EncodingType::kForBitPack);

  // High-entropy doubles: nothing is applicable or wins -> PLAIN.
  ColumnVector dbl(Type::kDouble);
  for (int i = 0; i < 512; ++i) dbl.AppendDouble(i * 1.618033988749);
  const CompressionAdvice a = AdviseEncoding(dbl);
  EXPECT_EQ(a.chosen, EncodingType::kPlain);
  EXPECT_FALSE(
      a.candidates[static_cast<size_t>(EncodingType::kDictionary)].applicable);
  EXPECT_FALSE(
      a.candidates[static_cast<size_t>(EncodingType::kForBitPack)].applicable);

  // Every applicable estimate is filled in and the chosen one is minimal
  // among winners of the PLAIN bias.
  const CompressionAdvice r = AdviseEncoding(runs);
  const size_t plain =
      r.candidates[static_cast<size_t>(EncodingType::kPlain)].bytes;
  const size_t rle =
      r.candidates[static_cast<size_t>(EncodingType::kRle)].bytes;
  EXPECT_LT(rle, plain - plain / 8);
}

// AdviseEncoding skips the statistics its choice cannot depend on; the
// choice must still be the one made from the full statistics. The int
// ranges straddle 2^31 and 2^32, where the distinct count starts to matter.
TEST(CompressionAdvisorTest, ChoiceEqualsChoiceFromFullStats) {
  Random rng(99);
  size_t checked = 0;
  const auto check = [&](const ColumnVector& v, const std::string& what) {
    const EncodingType full =
        AdviseFromStats(v.type(), CollectSegmentStats(v)).chosen;
    ASSERT_EQ(AdviseEncoding(v).chosen, full)
        << what << " n=" << v.size() << " full=" << EncodingName(full);
    ++checked;
  };
  const int64_t spans[] = {1,
                           16,
                           (int64_t{1} << 31) - 2,
                           (int64_t{1} << 31) - 1,
                           int64_t{1} << 31,
                           (int64_t{1} << 31) + 1,
                           (int64_t{1} << 32) - 1,
                           int64_t{1} << 32,
                           int64_t{1} << 40,
                           int64_t{1} << 62};
  for (size_t n = 0; n <= 200; ++n) {
    for (int64_t span : spans) {
      for (size_t distinct : {size_t{1}, size_t{2}, size_t{3}, size_t{50},
                              n + 1}) {
        // Up to `distinct` values in [base, base + span]; with two or more,
        // the pool holds both ends, so a column that draws them is exactly
        // `span` wide.
        std::vector<int64_t> pool = {0};
        if (distinct >= 2) pool.push_back(span);
        for (size_t d = 2; d < distinct; ++d)
          pool.push_back(static_cast<int64_t>(
              rng.Uniform(static_cast<uint64_t>(span) + 1)));
        const int64_t base = rng.UniformRange(-1000, 1000);
        for (bool runs : {false, true}) {
          ColumnVector v(Type::kInt64);
          for (size_t i = 0; i < n; ++i) {
            const size_t pick = runs ? (i / 8) % pool.size()
                                     : rng.Uniform(pool.size());
            if (rng.Bernoulli(0.05))
              v.AppendNull();
            else
              v.AppendInt64(base + pool[pick]);
          }
          check(v, "int span=" + std::to_string(span) +
                       " distinct=" + std::to_string(distinct));
        }
      }
    }
    for (size_t distinct : {size_t{1}, size_t{4}, n + 1}) {
      ColumnVector d(Type::kDouble), s(Type::kString);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t x = rng.Uniform(distinct);
        if (rng.Bernoulli(0.1)) {
          d.AppendNull();
          s.AppendNull();
          continue;
        }
        d.AppendDouble(static_cast<double>(x) * 0.25);
        s.AppendString(
            std::string(1 + x % 20, 'a' + static_cast<char>(x % 26)));
      }
      check(d, "double distinct=" + std::to_string(distinct));
      check(s, "string distinct=" + std::to_string(distinct));
    }
    // All-NULL columns of every type.
    for (Type t : {Type::kInt64, Type::kDouble, Type::kString}) {
      ColumnVector v(t);
      for (size_t i = 0; i < n; ++i) v.AppendNull();
      check(v, "all-null");
    }
  }
  EXPECT_GT(checked, 20000u);
}

TEST(CompressionAdvisorTest, ColumnTableReencodesSegmentsWhenEnabled) {
  // Ints in [0, 2^33): ChooseEncoding's fixed range<2^32 gate rejects FOR,
  // but the advisor's size estimate (33 bits/value vs 64) picks it.
  const Schema schema({{"id", Type::kInt64}, {"w", Type::kInt64}});
  std::vector<Row> rows;
  for (Key id = 0; id < 1000; ++id)
    rows.push_back(
        Row{Value(id), Value(static_cast<int64_t>(
                           static_cast<int64_t>(id) * 4294967311LL %
                           (int64_t{1} << 33)))});
  ColumnTable plain_t(schema), advised_t(schema);
  advised_t.EnableCompressionAdvisor(true);
  plain_t.AppendBatch(rows, 1);
  advised_t.AppendBatch(rows, 1);
  EXPECT_EQ(plain_t.group(0)->columns[1].encoding(), EncodingType::kPlain);
  EXPECT_EQ(advised_t.group(0)->columns[1].encoding(),
            EncodingType::kForBitPack);
  EXPECT_LT(advised_t.group(0)->columns[1].MemoryBytes(),
            plain_t.group(0)->columns[1].MemoryBytes());
  // Scans read the re-encoded segments back as the appended rows.
  for (const ColumnTable* t : {&plain_t, &advised_t})
    EXPECT_EQ(BatchesToRows(ScanHtapBatches(*t, nullptr, kMaxCSN - 1,
                                            Predicate::True(), {},
                                            ExecContext{})),
              rows);

  // The per-encoding breakdown reflects what was built.
  const EncodingBreakdown bd = advised_t.EncodingStats();
  size_t total_segments = 0, total_bytes = 0;
  for (size_t e = 0; e < kNumEncodings; ++e) {
    total_segments += bd.segments[e];
    total_bytes += bd.bytes[e];
  }
  EXPECT_EQ(total_segments, 2u);  // one group x two columns
  EXPECT_GT(bd.segments[static_cast<size_t>(EncodingType::kForBitPack)], 0u);
  EXPECT_GT(total_bytes, 0u);
}

// End-to-end: on every local architecture, each access path must return
// what the reference evaluator computes from that path's own table scans,
// row order included, and a plain analytic filter must be served by the
// column side.
TEST(VectorizedDatabaseTest, EveryPathMatchesReference) {
  const std::vector<ArchitectureKind> archs = {
      ArchitectureKind::kRowPlusInMemoryColumn,
      ArchitectureKind::kDiskRowPlusDistributedColumn,
      ArchitectureKind::kColumnPlusDeltaRow,
  };
  for (ArchitectureKind arch : archs) {
    DatabaseOptions opts;
    opts.architecture = arch;
    opts.background_sync = false;
    opts.parallel_scan_threads = 4;
    auto opened = Database::Open(opts);
    ASSERT_TRUE(opened.ok());
    auto db = std::move(*opened);
    ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
    for (Key id = 0; id < 600; ++id)
      ASSERT_TRUE(db->InsertRow("t", TRow(id, id % 9, id % 2 ? "odd" : "even",
                                          id * 0.5))
                      .ok());
    ASSERT_TRUE(db->ForceSyncAll().ok());
    const std::vector<std::string> queries = {
        "SELECT id, price FROM t WHERE v >= 5 ORDER BY id",
        "SELECT * FROM t WHERE cat = 'odd' AND v < 3 ORDER BY id",
        "SELECT cat, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY cat "
        "ORDER BY cat",
        "SELECT COUNT(*) AS n, MIN(price) AS mn, MAX(price) AS mx FROM t",
    };
    for (const std::string& q : queries) {
      auto bound = BindSelectSql(q, *db->catalog());
      ASSERT_TRUE(bound.ok()) << q;
      for (PathHint path : {PathHint::kAuto, PathHint::kForceRow,
                            PathHint::kForceColumn}) {
        QueryPlan plan = *bound;
        plan.path = path;
        QueryExecInfo info;
        auto got = db->Query(plan, &info);
        ASSERT_TRUE(got.ok()) << q;
        EXPECT_EQ(got->rows, ref::Eval(plan, ref::ScanTables(db.get(), plan,
                                                             path)))
            << q << " path " << static_cast<int>(path);
        EXPECT_TRUE(info.vectorized) << q;
      }
    }
    // A plain analytic filter resolves to a column scan in all three
    // architectures.
    QueryExecInfo info;
    ASSERT_TRUE(db->ExecuteSql("SELECT id FROM t WHERE v >= 5", &info).ok());
    EXPECT_GT(info.scan.groups_total, 0u) << "arch " << static_cast<int>(arch);

    // The advisor (on by default) surfaces per-encoding footprints.
    const EngineStats st = db->Stats();
    size_t segs = 0, bytes = 0;
    for (size_t e = 0; e < kNumEncodings; ++e) {
      segs += st.column_encodings.segments[e];
      bytes += st.column_encodings.bytes[e];
    }
    EXPECT_GT(segs, 0u) << "arch " << static_cast<int>(arch);
    EXPECT_GT(bytes, 0u);
    EXPECT_LE(bytes, st.column_store_bytes);
  }
}

}  // namespace
}  // namespace htap

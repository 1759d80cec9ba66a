// Columnar store tests: encodings round-trip (property, all encodings x
// value shapes), zone maps and skipping, row groups, delete bitmaps,
// key index, compaction.

#include <gtest/gtest.h>

#include "columnar/column_table.h"
#include "common/random.h"

namespace htap {
namespace {

ColumnVector MakeInts(std::initializer_list<int64_t> vals) {
  ColumnVector v(Type::kInt64);
  for (int64_t x : vals) v.AppendInt64(x);
  return v;
}

TEST(EncodingTest, PlainRoundTripAllTypes) {
  ColumnVector ints(Type::kInt64);
  ints.AppendInt64(1);
  ints.AppendNull();
  ints.AppendInt64(-5);
  ColumnVector strs(Type::kString);
  strs.AppendString("a");
  strs.AppendString("bb");
  strs.AppendNull();
  ColumnVector dbls(Type::kDouble);
  dbls.AppendDouble(1.5);
  dbls.AppendDouble(-2.25);

  for (const ColumnVector* v : {&ints, &strs, &dbls}) {
    const ColumnVector out = Decode(Encode(*v, EncodingType::kPlain));
    ASSERT_EQ(out.size(), v->size());
    for (size_t i = 0; i < v->size(); ++i)
      EXPECT_EQ(out.GetValue(i), v->GetValue(i));
  }
}

TEST(EncodingTest, DictionaryCompressesLowCardinality) {
  ColumnVector v(Type::kString);
  for (int i = 0; i < 1000; ++i) v.AppendString(i % 4 == 0 ? "red" : "blue");
  const EncodedColumn enc = Encode(v, EncodingType::kDictionary);
  EXPECT_EQ(enc.strings.size(), 2u);  // the dictionary
  EXPECT_LT(enc.MemoryBytes(), v.MemoryBytes());
  const ColumnVector out = Decode(enc);
  for (size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(out.GetString(i), v.GetString(i));
}

TEST(EncodingTest, RleCompressesRuns) {
  ColumnVector v(Type::kInt64);
  for (int run = 0; run < 10; ++run)
    for (int i = 0; i < 100; ++i) v.AppendInt64(run);
  const EncodedColumn enc = Encode(v, EncodingType::kRle);
  EXPECT_EQ(enc.ints.size(), 10u);
  EXPECT_EQ(enc.run_ends.back(), 1000u);
  // Random access through the run index.
  EXPECT_EQ(EncodedGet(enc, 0).AsInt64(), 0);
  EXPECT_EQ(EncodedGet(enc, 99).AsInt64(), 0);
  EXPECT_EQ(EncodedGet(enc, 100).AsInt64(), 1);
  EXPECT_EQ(EncodedGet(enc, 999).AsInt64(), 9);
}

TEST(EncodingTest, ForBitPackNarrowRange) {
  ColumnVector v(Type::kInt64);
  Random rng(5);
  for (int i = 0; i < 500; ++i)
    v.AppendInt64(1000000 + static_cast<int64_t>(rng.Uniform(100)));
  const EncodedColumn enc = Encode(v, EncodingType::kForBitPack);
  ASSERT_EQ(enc.encoding, EncodingType::kForBitPack);
  EXPECT_LE(enc.bit_width, 7);
  EXPECT_LT(enc.packed.size() * 8, 500u * 8);  // packed smaller than plain
  const ColumnVector out = Decode(enc);
  for (size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(out.GetInt64(i), v.GetInt64(i));
}

TEST(EncodingTest, ForBitPackFallsBackOnWideRange) {
  ColumnVector v(Type::kInt64);
  v.AppendInt64(std::numeric_limits<int64_t>::min());
  v.AppendInt64(std::numeric_limits<int64_t>::max());
  const EncodedColumn enc = Encode(v, EncodingType::kForBitPack);
  EXPECT_EQ(enc.encoding, EncodingType::kPlain);
  EXPECT_EQ(EncodedGet(enc, 0).AsInt64(), std::numeric_limits<int64_t>::min());
}

TEST(EncodingTest, ChooseEncodingHeuristics) {
  // Long runs -> RLE.
  ColumnVector runs(Type::kInt64);
  for (int i = 0; i < 256; ++i) runs.AppendInt64(i / 64);
  EXPECT_EQ(ChooseEncoding(runs), EncodingType::kRle);
  // Low-cardinality strings -> dictionary.
  ColumnVector lowcard(Type::kString);
  Random rng(3);
  for (int i = 0; i < 256; ++i)
    lowcard.AppendString("v" + std::to_string(rng.Uniform(5)));
  EXPECT_EQ(ChooseEncoding(lowcard), EncodingType::kDictionary);
  // Narrow-range ints -> FOR bit-pack.
  ColumnVector narrow(Type::kInt64);
  for (int i = 0; i < 256; ++i)
    narrow.AppendInt64(static_cast<int64_t>(rng.Uniform(1000)));
  EXPECT_EQ(ChooseEncoding(narrow), EncodingType::kForBitPack);
}

// Property: encode∘decode == identity for every encoding on randomized data
// (with nulls), parameterized over encoding type.
class EncodingRoundTripTest
    : public ::testing::TestWithParam<EncodingType> {};

TEST_P(EncodingRoundTripTest, RandomIntsWithNulls) {
  Random rng(static_cast<uint64_t>(GetParam()) + 100);
  ColumnVector v(Type::kInt64);
  for (int i = 0; i < 2000; ++i) {
    if (rng.Bernoulli(0.05))
      v.AppendNull();
    else
      v.AppendInt64(static_cast<int64_t>(rng.Uniform(500)));
  }
  const EncodedColumn enc = Encode(v, GetParam());
  const ColumnVector out = Decode(enc);
  ASSERT_EQ(out.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(out.IsNull(i), v.IsNull(i)) << i;
    EXPECT_EQ(out.GetValue(i), v.GetValue(i)) << i;
    EXPECT_EQ(EncodedGet(enc, i), v.GetValue(i)) << i;
  }
}

TEST_P(EncodingRoundTripTest, RandomStrings) {
  if (GetParam() == EncodingType::kForBitPack) GTEST_SKIP();
  Random rng(static_cast<uint64_t>(GetParam()) + 200);
  ColumnVector v(Type::kString);
  for (int i = 0; i < 1000; ++i)
    v.AppendString("s" + std::to_string(rng.Uniform(30)));
  const ColumnVector out = Decode(Encode(v, GetParam()));
  ASSERT_EQ(out.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(out.GetString(i), v.GetString(i));
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, EncodingRoundTripTest,
                         ::testing::Values(EncodingType::kPlain,
                                           EncodingType::kDictionary,
                                           EncodingType::kRle,
                                           EncodingType::kForBitPack));

TEST(SegmentTest, ZoneMapMinMax) {
  const Segment s = Segment::Build(MakeInts({5, 2, 9, 7}));
  EXPECT_EQ(s.min().AsInt64(), 2);
  EXPECT_EQ(s.max().AsInt64(), 9);
  EXPECT_FALSE(s.has_nulls());
}

TEST(SegmentTest, CanSkipSemantics) {
  const Segment s = Segment::Build(MakeInts({10, 20, 30}));
  EXPECT_TRUE(s.CanSkip("=", Value(int64_t{5})));
  EXPECT_FALSE(s.CanSkip("=", Value(int64_t{20})));
  EXPECT_TRUE(s.CanSkip("<", Value(int64_t{10})));   // nothing below min
  EXPECT_FALSE(s.CanSkip("<", Value(int64_t{11})));
  EXPECT_TRUE(s.CanSkip(">", Value(int64_t{30})));   // nothing above max
  EXPECT_FALSE(s.CanSkip(">", Value(int64_t{29})));
  EXPECT_TRUE(s.CanSkip(">=", Value(int64_t{31})));
  EXPECT_TRUE(s.CanSkip("<=", Value(int64_t{9})));
  EXPECT_FALSE(s.CanSkip("!=", Value(int64_t{20})));  // never skippable
}

TEST(SegmentTest, AllNullSegmentSkipsEverything) {
  ColumnVector v(Type::kInt64);
  v.AppendNull();
  v.AppendNull();
  const Segment s = Segment::Build(v);
  EXPECT_TRUE(s.CanSkip("=", Value(int64_t{0})));
  EXPECT_TRUE(s.has_nulls());
}

Schema TableSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64},
                 {"s", Type::kString}});
}

Row TRow(Key id, int64_t v, const std::string& s = "x") {
  return Row{Value(id), Value(v), Value(s)};
}

TEST(ColumnTableTest, AppendAndMaterialize) {
  ColumnTable t(TableSchema());
  t.AppendBatch({TRow(1, 10), TRow(2, 20)}, 5);
  EXPECT_EQ(t.num_groups(), 1u);
  EXPECT_EQ(t.live_rows(), 2u);
  EXPECT_EQ(t.merged_csn(), 5u);
  const RowGroup* g = t.group(0);
  EXPECT_EQ(t.MaterializeRow(*g, 1), TRow(2, 20));
}

TEST(ColumnTableTest, UpsertDeleteMarksOldPosition) {
  ColumnTable t(TableSchema());
  t.AppendBatch({TRow(1, 10), TRow(2, 20)}, 1);
  t.AppendBatch({TRow(1, 11)}, 2);  // update of key 1
  EXPECT_EQ(t.live_rows(), 2u);
  size_t gi, off;
  ASSERT_TRUE(t.FindKey(1, &gi, &off));
  EXPECT_EQ(gi, 1u);  // newest position wins
  EXPECT_EQ(t.MaterializeRow(*t.group(gi), off).Get(1).AsInt64(), 11);
}

TEST(ColumnTableTest, DeleteKey) {
  ColumnTable t(TableSchema());
  t.AppendBatch({TRow(1, 10), TRow(2, 20)}, 1);
  EXPECT_TRUE(t.DeleteKey(1, 2));
  EXPECT_FALSE(t.DeleteKey(99, 3));
  EXPECT_EQ(t.live_rows(), 1u);
  size_t gi, off;
  EXPECT_FALSE(t.FindKey(1, &gi, &off));
}

TEST(ColumnTableTest, CompactDropsDeletedRows) {
  ColumnTable t(TableSchema());
  for (int b = 0; b < 5; ++b) {
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) rows.push_back(TRow(b * 100 + i, i));
    t.AppendBatch(rows, static_cast<CSN>(b + 1));
  }
  for (Key k = 0; k < 500; k += 2) t.DeleteKey(k, 10);
  EXPECT_EQ(t.live_rows(), 250u);
  t.Compact();
  EXPECT_EQ(t.num_groups(), 1u);
  EXPECT_EQ(t.live_rows(), 250u);
  size_t gi, off;
  EXPECT_TRUE(t.FindKey(1, &gi, &off));
  EXPECT_FALSE(t.FindKey(2, &gi, &off));
}

TEST(ColumnTableTest, CompactKeepsRowContents) {
  ColumnTable t(TableSchema());
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i)
    rows.push_back(TRow(i, i * 3, std::string(32, 'p') + std::to_string(i)));
  t.AppendBatch(std::move(rows), 1);
  for (Key k = 0; k < 200; k += 3) t.DeleteKey(k, 2);
  t.Compact();
  for (Key k = 0; k < 200; ++k) {
    size_t gi = 0, off = 0;
    ASSERT_EQ(t.FindKey(k, &gi, &off), k % 3 != 0) << "key " << k;
    if (k % 3 == 0) continue;
    EXPECT_EQ(t.MaterializeRow(*t.group(gi), off),
              TRow(k, k * 3, std::string(32, 'p') + std::to_string(k)));
  }
}

// The key index costs more than its 24-byte entries: every key is a heap
// node (next pointer + key + position) and the bucket array holds at least
// one pointer per key at the default load factor.
TEST(ColumnTableTest, MemoryBytesCountsKeyIndexBucketsAndNodes) {
  ColumnTable t(TableSchema());
  constexpr size_t kRows = 10000;
  std::vector<Row> rows;
  for (size_t i = 0; i < kRows; ++i)
    rows.push_back(TRow(static_cast<Key>(i), 1));
  t.AppendBatch(std::move(rows), 1);
  size_t group_bytes = 0;
  for (size_t g = 0; g < t.num_groups(); ++g)
    group_bytes += t.group(g)->MemoryBytes();
  const size_t node = sizeof(void*) + sizeof(Key) + 2 * sizeof(uint32_t);
  const size_t bucket = sizeof(void*);
  EXPECT_GE(t.MemoryBytes(), group_bytes + kRows * (node + bucket));
}

TEST(ColumnTableTest, SegmentsGetCompressedEncodings) {
  ColumnTable t(TableSchema());
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i)
    rows.push_back(TRow(i, i / 100, "tag" + std::to_string(i % 3)));
  t.AppendBatch(rows, 1);
  const RowGroup* g = t.group(0);
  // v has long runs -> RLE; s has 3 distinct values -> dictionary.
  EXPECT_EQ(g->columns[1].encoding(), EncodingType::kRle);
  EXPECT_EQ(g->columns[2].encoding(), EncodingType::kDictionary);
}

}  // namespace
}  // namespace htap

// Tests for types/: Value semantics, comparison, hashing, codec; Schema
// validation; Row codec.

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "types/row.h"
#include "types/schema.h"
#include "types/value.h"

namespace htap {
namespace {

TEST(ValueTest, NullSemantics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_EQ(Value::Null(), Value());
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  EXPECT_EQ(Value(int64_t{7}).type(), Type::kInt64);
  EXPECT_EQ(Value(1.0).type(), Type::kDouble);
  EXPECT_EQ(Value("x").type(), Type::kString);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value(int64_t{0})), 0);
  EXPECT_LT(Value::Null().Compare(Value("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("abc").Compare(Value("abc")), 0);
  // Numbers sort before strings (total order for mixed columns).
  EXPECT_LT(Value(int64_t{999}).Compare(Value("0")), 0);
}

TEST(ValueTest, HashConsistentForEqualValues) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_EQ(Value("key").Hash(), Value("key").Hash());
  // Integral doubles hash like their integers (join-key compatibility).
  EXPECT_EQ(Value(5.0).Hash(), Value(int64_t{5}).Hash());
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(int64_t{6}).Hash());
}

TEST(ValueTest, CodecRoundTrip) {
  const Value cases[] = {Value::Null(), Value(int64_t{-17}),
                         Value(int64_t{1} << 62), Value(2.75), Value(""),
                         Value("hello world"), Value(std::string(1000, 'x'))};
  std::string buf;
  for (const Value& v : cases) v.EncodeTo(&buf);
  size_t pos = 0;
  for (const Value& expected : cases) {
    Value got;
    ASSERT_TRUE(Value::DecodeFrom(buf, &pos, &got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(ValueTest, DecodeRejectsTruncation) {
  std::string buf;
  Value("hello").EncodeTo(&buf);
  buf.resize(buf.size() - 2);
  size_t pos = 0;
  Value out;
  EXPECT_FALSE(Value::DecodeFrom(buf, &pos, &out));
}

// A string long enough to defeat std::string's small-string buffer, so a
// shallow copy or a double free would touch the same heap block.
const std::string kLong(100, 'q');

TEST(ValueTest, CopyDeepCopiesTheString) {
  Value a(kLong);
  Value b(a);
  EXPECT_EQ(b.AsString(), kLong);
  EXPECT_NE(&a.AsString(), &b.AsString());
  Value c(int64_t{3});
  c = a;  // number <- string
  EXPECT_EQ(c.AsString(), kLong);
  EXPECT_NE(&a.AsString(), &c.AsString());
  Value d("short");
  d = a;  // string <- string reuses d's own string
  EXPECT_EQ(d.AsString(), kLong);
  EXPECT_NE(&a.AsString(), &d.AsString());
  a = Value(1.5);  // string <- number frees a's string; the copies live on
  EXPECT_EQ(b.AsString(), kLong);
  EXPECT_EQ(c.AsString(), kLong);
  EXPECT_EQ(d.AsString(), kLong);
}

TEST(ValueTest, MoveTransfersTheStringAndLeavesNull) {
  Value a(kLong);
  const std::string* held = &a.AsString();
  Value b(std::move(a));
  EXPECT_TRUE(a.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(&b.AsString(), held);
  Value c(int64_t{9});
  c = std::move(b);
  EXPECT_TRUE(b.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(&c.AsString(), held);
  Value d(kLong);
  d = std::move(c);  // string <- string frees d's old string
  EXPECT_TRUE(c.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(d.AsString(), kLong);
  Value n(int64_t{4});
  Value m(std::move(n));
  EXPECT_TRUE(n.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(m.AsInt64(), 4);
  static_assert(std::is_nothrow_move_constructible_v<Value>);
  static_assert(std::is_nothrow_move_assignable_v<Value>);
}

TEST(ValueTest, SelfAssignmentIsSafe) {
  Value a(kLong);
  Value& alias = a;
  a = alias;
  EXPECT_EQ(a.AsString(), kLong);
  a = std::move(alias);
  ASSERT_TRUE(a.is_string());
  EXPECT_EQ(a.AsString(), kLong);
  Value x(2.25);
  Value& xa = x;
  x = xa;
  EXPECT_DOUBLE_EQ(x.AsDouble(), 2.25);
}

TEST(ValueTest, VectorOfStringsSurvivesReallocationAndSwap) {
  std::vector<Value> v;
  for (int i = 0; i < 1000; ++i) {  // many reallocations
    if (i % 3 == 0) {
      v.emplace_back(kLong + std::to_string(i));
    } else if (i % 3 == 1) {
      v.emplace_back(int64_t{i});
    } else {
      v.emplace_back();
    }
  }
  std::vector<Value> w{Value("w"), Value(kLong)};
  v.swap(w);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1].AsString(), kLong);
  ASSERT_EQ(w.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(w[i].AsString(), kLong + std::to_string(i));
    } else if (i % 3 == 1) {
      EXPECT_EQ(w[i].AsInt64(), i);
    } else {
      EXPECT_TRUE(w[i].is_null());
    }
  }
  std::swap(w[0], w[1]);
  EXPECT_EQ(w[0].AsInt64(), 1);
  EXPECT_EQ(w[1].AsString(), kLong + "0");
  const std::vector<Value> copy = w;  // element-wise deep copies
  w.clear();
  EXPECT_EQ(copy[3].AsString(), kLong + "3");
}

TEST(ValueTest, WrongTypedAccessThrows) {
  EXPECT_THROW(Value().AsInt64(), std::bad_variant_access);
  EXPECT_THROW(Value(1.5).AsInt64(), std::bad_variant_access);
  EXPECT_THROW(Value("1").AsInt64(), std::bad_variant_access);
  EXPECT_THROW(Value().AsDouble(), std::bad_variant_access);
  EXPECT_THROW(Value("1.5").AsDouble(), std::bad_variant_access);
  EXPECT_THROW(Value().AsString(), std::bad_variant_access);
  EXPECT_THROW(Value(int64_t{1}).AsString(), std::bad_variant_access);
  EXPECT_THROW(Value(1.5).AsString(), std::bad_variant_access);
  // AsDouble widens an int64.
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).AsDouble(), 7.0);
}

TEST(ValueTest, MemoryBytesCountsTheOutOfLineString) {
  EXPECT_EQ(Value().MemoryBytes(), sizeof(Value));
  EXPECT_EQ(Value(int64_t{1}).MemoryBytes(), sizeof(Value));
  EXPECT_EQ(Value(1.0).MemoryBytes(), sizeof(Value));
  const Value s(kLong);
  EXPECT_EQ(s.MemoryBytes(),
            sizeof(Value) + sizeof(std::string) + s.AsString().capacity());
  EXPECT_GE(s.MemoryBytes(), sizeof(Value) + sizeof(std::string) + 100);
  const Value e("");
  EXPECT_EQ(e.MemoryBytes(),
            sizeof(Value) + sizeof(std::string) + e.AsString().capacity());
  const Row r{Value(int64_t{1}), Value(kLong), Value::Null(), Value(2.0)};
  EXPECT_EQ(r.MemoryBytes(), sizeof(Row) + 3 * sizeof(Value) +
                                 s.MemoryBytes());
}

TEST(SchemaTest, ValidateRequirements) {
  EXPECT_TRUE(Schema({{"id", Type::kInt64}}).Validate().ok());
  EXPECT_FALSE(Schema(std::vector<ColumnDef>{}).Validate().ok());
  // PK must be INT64.
  EXPECT_FALSE(Schema({{"name", Type::kString}}).Validate().ok());
  // Duplicate names rejected.
  EXPECT_FALSE(Schema({{"a", Type::kInt64}, {"a", Type::kInt64}})
                   .Validate()
                   .ok());
  // PK index out of range rejected.
  EXPECT_FALSE(Schema({{"id", Type::kInt64}}, 3).Validate().ok());
}

TEST(SchemaTest, FindColumnAndProject) {
  Schema s({{"id", Type::kInt64}, {"name", Type::kString},
            {"price", Type::kDouble}});
  EXPECT_EQ(s.FindColumn("price"), 2);
  EXPECT_EQ(s.FindColumn("missing"), -1);
  Schema p = s.Project({2, 0});
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column(0).name, "price");
  EXPECT_EQ(p.column(1).name, "id");
}

TEST(RowTest, KeyExtraction) {
  Schema s({{"a", Type::kString}, {"id", Type::kInt64}}, /*pk_index=*/1);
  ASSERT_TRUE(s.Validate().ok());
  Row r{Value("x"), Value(int64_t{99})};
  EXPECT_EQ(r.GetKey(s), 99);
}

TEST(RowTest, CodecRoundTrip) {
  Row r{Value(int64_t{1}), Value::Null(), Value(2.5), Value("abc")};
  std::string buf;
  r.EncodeTo(&buf);
  size_t pos = 0;
  Row got;
  ASSERT_TRUE(Row::DecodeFrom(buf, &pos, &got));
  EXPECT_EQ(got, r);
}

TEST(RowTest, EmptyRowRoundTrip) {
  Row r;
  std::string buf;
  r.EncodeTo(&buf);
  size_t pos = 0;
  Row got{Value(int64_t{1})};
  ASSERT_TRUE(Row::DecodeFrom(buf, &pos, &got));
  EXPECT_TRUE(got.empty());
}

}  // namespace
}  // namespace htap

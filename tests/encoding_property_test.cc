// Property tests for the encoding layer: encode∘decode identity across
// every encoding x value type x null pattern x size shape, the
// bit_width == 0 FOR edge (empty and all-equal segments), the MemoryBytes
// audit (null bitmap + string heap payload included), and zone maps equal
// to a Value-by-Value reference.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "columnar/encoding.h"
#include "columnar/segment.h"
#include "common/random.h"

namespace htap {
namespace {

enum class NullPattern { kNone, kSparse, kDense, kAll };
enum class ValueShape { kAllEqual, kNarrow, kRuns, kRandom };

const char* NullPatternName(NullPattern p) {
  switch (p) {
    case NullPattern::kNone: return "none";
    case NullPattern::kSparse: return "sparse";
    case NullPattern::kDense: return "dense";
    case NullPattern::kAll: return "all";
  }
  return "?";
}

ColumnVector MakeColumn(Type type, size_t n, ValueShape shape,
                        NullPattern nulls, uint64_t seed) {
  Random rng(seed);
  ColumnVector v(type);
  for (size_t i = 0; i < n; ++i) {
    bool is_null = false;
    switch (nulls) {
      case NullPattern::kNone: break;
      case NullPattern::kSparse: is_null = i % 7 == 3; break;
      case NullPattern::kDense: is_null = i % 3 != 0; break;
      case NullPattern::kAll: is_null = true; break;
    }
    if (is_null) {
      v.AppendNull();
      continue;
    }
    uint64_t x = 0;
    switch (shape) {
      case ValueShape::kAllEqual: x = 42; break;
      case ValueShape::kNarrow: x = rng.Uniform(16); break;
      case ValueShape::kRuns: x = i / 50; break;
      case ValueShape::kRandom: x = rng.Uniform(1 << 20); break;
    }
    switch (type) {
      case Type::kInt64:
        v.AppendInt64(static_cast<int64_t>(x) - 8);
        break;
      case Type::kDouble:
        v.AppendDouble(static_cast<double>(x) * 0.5 - 3.25);
        break;
      case Type::kString:
        v.AppendString("k" + std::to_string(x));
        break;
    }
  }
  return v;
}

struct SizeShape {
  size_t n;
  ValueShape shape;
  NullPattern nulls;
};

// The core property: for every encoding, Decode(Encode(v)) == v slot for
// slot (nulls included), and EncodedGet agrees without materializing.
// Encodings that cannot represent the input (FOR on non-int, dictionary on
// double) fall back to PLAIN inside Encode, so the identity must hold for
// every (encoding, type) pair regardless.
TEST(EncodingPropertyTest, EncodeDecodeIdentityEverywhere) {
  const std::vector<SizeShape> shapes = {
      {0, ValueShape::kRandom, NullPattern::kNone},
      {1, ValueShape::kAllEqual, NullPattern::kNone},
      {1, ValueShape::kAllEqual, NullPattern::kAll},
      {2, ValueShape::kRandom, NullPattern::kSparse},
      {64, ValueShape::kAllEqual, NullPattern::kNone},
      {64, ValueShape::kRuns, NullPattern::kSparse},
      {100, ValueShape::kNarrow, NullPattern::kDense},
      {100, ValueShape::kRandom, NullPattern::kAll},
      {1000, ValueShape::kRandom, NullPattern::kSparse},
      {1000, ValueShape::kRuns, NullPattern::kNone},
  };
  const EncodingType encs[] = {EncodingType::kPlain, EncodingType::kDictionary,
                               EncodingType::kRle, EncodingType::kForBitPack};
  const Type types[] = {Type::kInt64, Type::kDouble, Type::kString};
  uint64_t seed = 0;
  for (Type t : types) {
    for (const SizeShape& s : shapes) {
      for (EncodingType e : encs) {
        SCOPED_TRACE(std::string(EncodingName(e)) + " n=" +
                     std::to_string(s.n) + " nulls=" +
                     NullPatternName(s.nulls));
        const ColumnVector v = MakeColumn(t, s.n, s.shape, s.nulls, ++seed);
        const EncodedColumn enc = Encode(v, e);
        EXPECT_EQ(enc.num_values, v.size());
        const ColumnVector out = Decode(enc);
        ASSERT_EQ(out.size(), v.size());
        for (size_t i = 0; i < v.size(); ++i) {
          ASSERT_EQ(out.IsNull(i), v.IsNull(i)) << "slot " << i;
          ASSERT_EQ(out.GetValue(i), v.GetValue(i)) << "slot " << i;
          ASSERT_EQ(EncodedGet(enc, i), v.GetValue(i)) << "slot " << i;
        }
      }
    }
  }
}

TEST(EncodingPropertyTest, EmptySegmentsRoundTripEveryEncoding) {
  for (EncodingType e :
       {EncodingType::kPlain, EncodingType::kDictionary, EncodingType::kRle,
        EncodingType::kForBitPack}) {
    for (Type t : {Type::kInt64, Type::kDouble, Type::kString}) {
      const EncodedColumn enc = Encode(ColumnVector(t), e);
      EXPECT_EQ(enc.num_values, 0u) << EncodingName(e);
      EXPECT_EQ(Decode(enc).size(), 0u) << EncodingName(e);
    }
  }
}

// All-equal values bit-pack with bit_width == 0: the payload is the frame
// base alone, zero packed words, and both unpack paths still read through.
TEST(EncodingPropertyTest, ForBitPackAllEqualUsesZeroBitWidth) {
  ColumnVector v(Type::kInt64);
  for (int i = 0; i < 128; ++i) v.AppendInt64(77);
  const EncodedColumn enc = Encode(v, EncodingType::kForBitPack);
  ASSERT_EQ(enc.encoding, EncodingType::kForBitPack);
  EXPECT_EQ(enc.bit_width, 0);
  EXPECT_TRUE(enc.packed.empty());
  ASSERT_EQ(enc.ints.size(), 1u);  // just the frame base
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(ForUnpackAt(enc, i), 77);
    EXPECT_EQ(EncodedGet(enc, i).AsInt64(), 77);
  }
  const ColumnVector out = Decode(enc);
  ASSERT_EQ(out.size(), 128u);
  EXPECT_EQ(out.GetInt64(99), 77);
}

// MemoryBytes must see through to the real footprint: the string heap
// payload (not just vector headers) and the null bitmap.
TEST(EncodingPropertyTest, MemoryBytesCountsStringHeapAndNullBitmap) {
  ColumnVector shorts(Type::kString), longs(Type::kString);
  for (int i = 0; i < 256; ++i) {
    shorts.AppendString("s");
    longs.AppendString(std::string(100, 'x') + std::to_string(i));
  }
  for (EncodingType e :
       {EncodingType::kPlain, EncodingType::kDictionary, EncodingType::kRle}) {
    // 256 payloads x ~100 bytes dwarf any header slack; if MemoryBytes
    // ignored the heap payload the two would be within a few KiB.
    EXPECT_GT(Encode(longs, e).MemoryBytes(),
              Encode(shorts, e).MemoryBytes() + 256 * 50)
        << EncodingName(e);
  }

  ColumnVector with_nulls(Type::kInt64);
  for (int i = 0; i < 10000; ++i) {
    if (i % 2 == 0)
      with_nulls.AppendInt64(1);
    else
      with_nulls.AppendNull();
  }
  const EncodedColumn enc = Encode(with_nulls, EncodingType::kRle);
  EXPECT_GT(enc.nulls.MemoryBytes(), 0u);
  EXPECT_GE(enc.MemoryBytes(), enc.nulls.MemoryBytes());
}

/// Same kind and same scalar, doubles compared bit for bit (Value's
/// operator== calls NaN equal to everything and -0.0 equal to 0.0).
bool Identical(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a == b;
  const double x = a.AsDouble(), y = b.AsDouble();
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// Zone maps built from the typed slots equal the Value-by-Value fold:
// first non-NULL value, then replaced by any value that compares lower
// (min) or higher (max).
TEST(EncodingPropertyTest, ZoneMapMatchesValueReference) {
  const auto check = [](const ColumnVector& v) {
    Value lo, hi;
    bool has_nulls = false, first = true;
    for (size_t i = 0; i < v.size(); ++i) {
      if (v.IsNull(i)) {
        has_nulls = true;
        continue;
      }
      const Value x = v.GetValue(i);
      if (first) {
        lo = hi = x;
        first = false;
        continue;
      }
      if (x < lo) lo = x;
      if (hi < x) hi = x;
    }
    const Segment seg = Segment::Build(v);
    EXPECT_TRUE(Identical(seg.min(), lo)) << seg.min().ToString();
    EXPECT_TRUE(Identical(seg.max(), hi)) << seg.max().ToString();
    EXPECT_EQ(seg.has_nulls(), has_nulls);
  };
  const size_t sizes[] = {0, 1, 2, 64, 1000};
  const ValueShape value_shapes[] = {ValueShape::kAllEqual, ValueShape::kNarrow,
                                     ValueShape::kRuns, ValueShape::kRandom};
  const NullPattern null_patterns[] = {NullPattern::kNone, NullPattern::kSparse,
                                       NullPattern::kDense, NullPattern::kAll};
  uint64_t seed = 100;
  for (Type t : {Type::kInt64, Type::kDouble, Type::kString})
    for (size_t n : sizes)
      for (ValueShape shape : value_shapes)
        for (NullPattern nulls : null_patterns) {
          SCOPED_TRACE(std::string(TypeName(t)) + " n=" + std::to_string(n) +
                       " nulls=" + NullPatternName(nulls));
          check(MakeColumn(t, n, shape, nulls, ++seed));
        }

  // Doubles that Value orders as ties: NaN (equal to everything) and the
  // two zeros. The first of a tie is the one kept.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& xs :
       std::vector<std::vector<double>>{{nan, 1.0, -1.0},
                                        {1.0, nan, -1.0, 2.0},
                                        {-0.0, 0.0},
                                        {0.0, -0.0, 3.0, -0.0},
                                        {2.0, -0.0, 0.0, -5.0}}) {
    ColumnVector v(Type::kDouble);
    for (double x : xs) v.AppendDouble(x);
    check(v);
  }
}

}  // namespace
}  // namespace htap

// Column encodings: PLAIN, DICTIONARY, RLE, and FOR-bit-packing.
//
// These are the compression techniques the surveyed systems use in their
// column stores (dictionary-encoded sorting merge in SAP HANA, IMCU
// compression units in Oracle, etc.). A heuristic analyzer picks the
// encoding per segment from value statistics.

#ifndef HTAP_COLUMNAR_ENCODING_H_
#define HTAP_COLUMNAR_ENCODING_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "columnar/column_vector.h"
#include "common/status.h"

namespace htap {

enum class EncodingType : uint8_t {
  kPlain = 0,
  kDictionary = 1,
  kRle = 2,
  kForBitPack = 3,  // frame-of-reference + bit packing (INT64 only)
};

inline constexpr size_t kNumEncodings = 4;

const char* EncodingName(EncodingType t);

/// Physical column-store footprint broken down by segment encoding, indexed
/// by EncodingType. Aggregated per ColumnTable and surfaced through
/// EngineStats / Database::Stats.
struct EncodingBreakdown {
  std::array<size_t, kNumEncodings> segments{};
  std::array<size_t, kNumEncodings> bytes{};

  void Merge(const EncodingBreakdown& o) {
    for (size_t e = 0; e < kNumEncodings; ++e) {
      segments[e] += o.segments[e];
      bytes[e] += o.bytes[e];
    }
  }
};

/// An encoded, immutable column payload.
struct EncodedColumn {
  EncodingType encoding = EncodingType::kPlain;
  Type type = Type::kInt64;
  uint32_t num_values = 0;

  // PLAIN: `ints`/`doubles`/`strings` hold raw values.
  // DICTIONARY: `strings` or `ints` hold the dictionary; `codes` the ids.
  // RLE: `ints`/`doubles`/`strings` hold run values; `run_ends[i]` is the
  //      exclusive end offset of run i (cumulative, binary-searchable).
  // FOR_BITPACK: `ints[0]` = frame base, `bit_width`, `packed` words.
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  std::vector<uint32_t> codes;
  std::vector<uint32_t> run_ends;
  std::vector<uint64_t> packed;
  uint8_t bit_width = 0;
  Bitmap nulls;

  size_t MemoryBytes() const;
};

/// Encodes `in` with the given encoding. FOR-bit-pack on non-INT64 or
/// dictionary-on-double fall back to PLAIN.
EncodedColumn Encode(const ColumnVector& in, EncodingType enc);

/// Decodes back to a ColumnVector (encode∘decode == identity).
ColumnVector Decode(const EncodedColumn& col);

/// Random access into an encoded column without full materialization.
Value EncodedGet(const EncodedColumn& col, size_t i);

/// Typed random access into a FOR-bit-packed column (no Value boxing).
/// `col.encoding` must be kForBitPack; ignores the null bitmap — callers
/// mask nulls themselves. Handles bit_width == 0 (all values equal base).
int64_t ForUnpackAt(const EncodedColumn& col, size_t i);

}  // namespace htap

#endif  // HTAP_COLUMNAR_ENCODING_H_

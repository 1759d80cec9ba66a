// Per-segment compression advisor (the Hyrise-style encoding selector).
//
// The advisor *estimates the encoded size in bytes* of every applicable
// encoding from observed value statistics (row count, distinct values, run
// structure, integer range, string payload) and picks the smallest — with
// a bias requiring a compressed encoding to beat PLAIN by at least 1/8 of
// PLAIN's footprint, so marginal wins do not pay dictionary/unpack
// overhead at scan time.
//
// It is the one encoding selector: Segment::Build calls it, so it runs
// wherever segments are (re)built — every column-table append (the local
// merges, the sim learners, rebuilds) and compaction.

#ifndef HTAP_COLUMNAR_COMPRESSION_ADVISOR_H_
#define HTAP_COLUMNAR_COMPRESSION_ADVISOR_H_

#include "columnar/encoding.h"

namespace htap {

/// Estimated encoded footprint of one candidate encoding. `applicable` is
/// false when the encoding cannot represent the column (FOR on non-INT64,
/// dictionary on DOUBLE), and in AdviseEncoding also for dictionary on an
/// INT64 column it cannot win (a FOR frame under 32 bits) — `bytes` is
/// meaningless then.
struct EncodingEstimate {
  EncodingType encoding = EncodingType::kPlain;
  size_t bytes = 0;
  bool applicable = false;
};

/// The advisor's decision plus the per-encoding estimates it compared
/// (indexed by EncodingType), for stats surfacing and tests.
struct CompressionAdvice {
  EncodingType chosen = EncodingType::kPlain;
  std::array<EncodingEstimate, kNumEncodings> candidates{};
};

/// Observed value statistics the estimates derive from. Distinct/run/range
/// counts are over the RAW slot values (null placeholders included) because
/// that is exactly what the encoders consume — nulls ride in a separate
/// bitmap.
struct SegmentValueStats {
  size_t rows = 0;
  size_t nulls = 0;
  size_t distinct = 0;       // distinct raw slot values
  size_t runs = 0;           // maximal equal-value runs of raw slot values
  size_t string_bytes = 0;   // total payload of all string cells
  size_t distinct_string_bytes = 0;  // payload of the distinct strings
  int64_t int_min = 0;       // raw-slot range — what the FOR encoder frames
  int64_t int_max = 0;
};

/// Collects every field of SegmentValueStats from `values`.
SegmentValueStats CollectSegmentStats(const ColumnVector& values);

/// The choice from full statistics (CollectSegmentStats): every applicable
/// candidate estimated (see file header).
CompressionAdvice AdviseFromStats(Type type, const SegmentValueStats& st);

/// Picks the segment encoding. Chooses what AdviseFromStats(type,
/// CollectSegmentStats(values)) chooses, but collects only the statistics
/// the choice can depend on: never `nulls`, and `distinct` only on STRING
/// columns and INT64 columns whose FOR frame is 32 bits or wider — for
/// other INT64 columns FOR always undercuts DICTIONARY, and DOUBLE has no
/// DICTIONARY (DESIGN.md §19).
CompressionAdvice AdviseEncoding(const ColumnVector& values);

}  // namespace htap

#endif  // HTAP_COLUMNAR_COMPRESSION_ADVISOR_H_

// Segment: one immutable encoded column within a row group, carrying a
// zone map (min/max) used by the scan paths to skip whole groups — the
// in-memory compression-unit design (Oracle IMCU / HANA Main) from the
// survey's architecture (a) and (d) discussions.

#ifndef HTAP_COLUMNAR_SEGMENT_H_
#define HTAP_COLUMNAR_SEGMENT_H_

#include "columnar/encoding.h"

namespace htap {

class Segment {
 public:
  Segment() = default;

  /// Builds a segment from decoded values, choosing the encoding
  /// automatically (or forcing one for tests/benchmarks).
  static Segment Build(const ColumnVector& values);
  static Segment BuildWithEncoding(const ColumnVector& values,
                                   EncodingType enc);

  size_t size() const { return data_.num_values; }
  Type type() const { return data_.type; }
  EncodingType encoding() const { return data_.encoding; }

  /// Zone map. Min/max ignore NULLs; for all-NULL segments both are NULL.
  const Value& min() const { return min_; }
  const Value& max() const { return max_; }
  bool has_nulls() const { return has_nulls_; }

  /// True if no value in [min,max] can satisfy `op value` — the scan skips
  /// the whole segment. op is one of "<", "<=", ">", ">=", "=", "!=".
  bool CanSkip(const std::string& op, const Value& v) const;

  Value Get(size_t i) const { return EncodedGet(data_, i); }
  bool IsNull(size_t i) const { return data_.nulls.Test(i); }
  ColumnVector Decode() const { return ::htap::Decode(data_); }

  const EncodedColumn& encoded() const { return data_; }

  size_t MemoryBytes() const { return data_.MemoryBytes(); }

 private:
  /// Sets min_/max_/has_nulls_ from `values`, whose typed slots are `v`.
  template <typename T>
  void FillZoneMap(const ColumnVector& values, const std::vector<T>& v);

  EncodedColumn data_;
  Value min_, max_;
  bool has_nulls_ = false;
};

}  // namespace htap

#endif  // HTAP_COLUMNAR_SEGMENT_H_

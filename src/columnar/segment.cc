#include "columnar/segment.h"

#include "columnar/compression_advisor.h"

namespace htap {

Segment Segment::Build(const ColumnVector& values) {
  return BuildWithEncoding(values, AdviseEncoding(values).chosen);
}

Segment Segment::BuildWithEncoding(const ColumnVector& values,
                                   EncodingType enc) {
  Segment s;
  s.data_ = Encode(values, enc);
  switch (values.type()) {
    case Type::kInt64: s.FillZoneMap(values, values.ints()); break;
    case Type::kDouble: s.FillZoneMap(values, values.doubles()); break;
    case Type::kString: s.FillZoneMap(values, values.strings()); break;
  }
  return s;
}

template <typename T>
void Segment::FillZoneMap(const ColumnVector& values, const std::vector<T>& v) {
  // Straight off the typed slots, no Value per cell. The scalar operator<
  // orders as Value::Compare does; the first of equal values is kept.
  const T* lo = nullptr;
  const T* hi = nullptr;
  for (size_t i = 0; i < v.size(); ++i) {
    if (values.IsNull(i)) {
      has_nulls_ = true;
      continue;
    }
    if (lo == nullptr) {
      lo = hi = &v[i];
      continue;
    }
    if (v[i] < *lo) lo = &v[i];
    if (*hi < v[i]) hi = &v[i];
  }
  if (lo != nullptr) {
    min_ = Value(*lo);
    max_ = Value(*hi);
  }
}

bool Segment::CanSkip(const std::string& op, const Value& v) const {
  if (min_.is_null()) return true;  // empty or all-NULL segment
  if (op == "=") return v < min_ || max_ < v;
  if (op == "<") return !(min_ < v);   // need min < v
  if (op == "<=") return v < min_;
  if (op == ">") return !(v < max_);   // need max > v
  if (op == ">=") return max_ < v;
  return false;  // "!=" and unknown ops: cannot skip
}

}  // namespace htap

// Row: the row-at-a-time tuple representation used by the OLTP path, the
// delta stores, and operator output. The columnar engine converts rows to
// column vectors at merge time.

#ifndef HTAP_TYPES_ROW_H_
#define HTAP_TYPES_ROW_H_

#include <string>
#include <vector>

#include "types/schema.h"
#include "types/value.h"

namespace htap {

/// Primary key type. Composite business keys are packed into 64 bits by the
/// workload layer (see benchlib/keys.h).
using Key = int64_t;

/// A tuple of values. Positional; interpretation requires a Schema.
class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values) : values_(std::move(values)) {}
  Row(std::initializer_list<Value> values) : values_(values) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const Value& Get(size_t i) const { return values_[i]; }
  Value& Mutable(size_t i) { return values_[i]; }
  void Set(size_t i, Value v) { values_[i] = std::move(v); }
  void Append(Value v) { values_.push_back(std::move(v)); }

  const std::vector<Value>& values() const { return values_; }

  /// The primary key per the schema.
  Key GetKey(const Schema& schema) const {
    return values_[static_cast<size_t>(schema.pk_index())].AsInt64();
  }

  bool operator==(const Row& other) const { return values_ == other.values_; }

  std::string ToString() const {
    std::string s = "[";
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i) s += ", ";
      s += values_[i].ToString();
    }
    s += "]";
    return s;
  }

  void EncodeTo(std::string* out) const {
    Value(static_cast<int64_t>(values_.size())).EncodeTo(out);
    for (const auto& v : values_) v.EncodeTo(out);
  }

  static bool DecodeFrom(const std::string& in, size_t* pos, Row* out) {
    Value n;
    if (!Value::DecodeFrom(in, pos, &n) || !n.is_int64()) return false;
    const int64_t count = n.AsInt64();
    if (count < 0) return false;
    std::vector<Value> vals;
    vals.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      Value v;
      if (!Value::DecodeFrom(in, pos, &v)) return false;
      vals.push_back(std::move(v));
    }
    *out = Row(std::move(vals));
    return true;
  }

  /// The Row shell, the vector's Value slots and each string cell's
  /// out-of-line heap bytes (Value::StringHeapBytes).
  size_t MemoryBytes() const {
    size_t b = sizeof(Row) + values_.capacity() * sizeof(Value);
    for (const auto& v : values_)
      if (v.is_string()) b += Value::StringHeapBytes(v.AsString());
    return b;
  }

 private:
  std::vector<Value> values_;
};

}  // namespace htap

#endif  // HTAP_TYPES_ROW_H_

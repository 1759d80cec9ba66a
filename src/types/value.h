// The scalar type system: Type tags and the Value runtime box.
//
// htapdb supports three storage types — INT64, DOUBLE, STRING — plus SQL
// NULL. This is enough to express the TPC-C/CH-benCHmark schemas while
// keeping the columnar encodings and expression evaluator focused.

#ifndef HTAP_TYPES_VALUE_H_
#define HTAP_TYPES_VALUE_H_

#include <cstdint>
#include <string>

namespace htap {

/// Storage type of a column.
enum class Type : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

/// Name of a Type for error messages and EXPLAIN output.
const char* TypeName(Type t);

/// A single scalar value, possibly NULL. Every cell of every row image the
/// engine holds is one of these, so the box is kept to 16 bytes: an 8-byte
/// payload (int64, double, or an owned out-of-line std::string*) and a
/// 1-byte tag (DESIGN.md §18). Copies deep-copy the string; a move is
/// noexcept and leaves the source NULL. The columnar engine avoids Value
/// entirely.
class Value {
 public:
  /// NULL value.
  Value() noexcept { u_.i = 0; }
  Value(int64_t v) noexcept : tag_(Tag::kInt64) { u_.i = v; }  // NOLINT
  Value(double v) noexcept : tag_(Tag::kDouble) { u_.d = v; }  // NOLINT
  Value(std::string v) : tag_(Tag::kString) {  // NOLINT
    u_.s = new std::string(std::move(v));
  }
  Value(const char* v) : Value(std::string(v)) {}  // NOLINT

  Value(const Value& o) : tag_(o.tag_), u_(o.u_) {
    if (tag_ == Tag::kString) u_.s = new std::string(*o.u_.s);
  }
  Value(Value&& o) noexcept : tag_(o.tag_), u_(o.u_) { o.tag_ = Tag::kNull; }
  Value& operator=(const Value& o) {
    if (this == &o) return *this;
    if (tag_ == Tag::kString && o.tag_ == Tag::kString) {
      *u_.s = *o.u_.s;  // reuse this string's buffer
      return *this;
    }
    return *this = Value(o);
  }
  Value& operator=(Value&& o) noexcept {
    if (this == &o) return *this;
    if (tag_ == Tag::kString) delete u_.s;
    tag_ = o.tag_;
    u_ = o.u_;
    o.tag_ = Tag::kNull;
    return *this;
  }
  ~Value() {
    if (tag_ == Tag::kString) delete u_.s;
  }

  static Value Null() { return Value(); }

  bool is_null() const { return tag_ == Tag::kNull; }
  bool is_int64() const { return tag_ == Tag::kInt64; }
  bool is_double() const { return tag_ == Tag::kDouble; }
  bool is_string() const { return tag_ == Tag::kString; }

  /// Typed access. A wrong-typed access throws std::bad_variant_access;
  /// AsDouble also widens an int64.
  int64_t AsInt64() const {
    if (tag_ != Tag::kInt64) ThrowBadAccess();
    return u_.i;
  }
  double AsDouble() const {
    if (tag_ == Tag::kDouble) return u_.d;
    if (tag_ != Tag::kInt64) ThrowBadAccess();
    return static_cast<double>(u_.i);
  }
  const std::string& AsString() const {
    if (tag_ != Tag::kString) ThrowBadAccess();
    return *u_.s;
  }

  /// Type tag; NULL values have no type — callers must check is_null() first.
  Type type() const {
    if (is_int64()) return Type::kInt64;
    if (is_double()) return Type::kDouble;
    return Type::kString;
  }

  /// Three-way compare. NULL sorts before everything; numeric types compare
  /// numerically across int64/double.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable 64-bit hash (for hash join / aggregate keys).
  uint64_t Hash() const;

  std::string ToString() const;

  /// Binary (de)serialization used by the WAL and log-delta files.
  void EncodeTo(std::string* out) const;
  /// Decodes one value starting at *pos; advances *pos. Returns false on
  /// malformed input.
  static bool DecodeFrom(const std::string& in, size_t* pos, Value* out);

  /// Heap bytes a string cell holds outside the box: the std::string
  /// object and its buffer. Row::MemoryBytes and the batch-side estimate
  /// (EstimateBatchRowBytes) count strings with this one rule.
  static size_t StringHeapBytes(const std::string& s) {
    return sizeof(std::string) + s.capacity();
  }

  /// Approximate footprint in bytes (for memory accounting).
  size_t MemoryBytes() const {
    return sizeof(Value) + (is_string() ? StringHeapBytes(*u_.s) : 0);
  }

 private:
  enum class Tag : uint8_t { kNull, kInt64, kDouble, kString };
  // Trivially copyable, so `u_ = o.u_` copies the payload bytes without
  // reading whichever member is inactive.
  union Payload {
    int64_t i;
    double d;
    std::string* s;
  };

  [[noreturn]] static void ThrowBadAccess();

  Tag tag_ = Tag::kNull;
  Payload u_;
};

static_assert(sizeof(Value) == 16, "Value is an 8-byte payload plus a tag");

/// Typed hash primitives. Each returns exactly what Value::Hash() returns
/// for the same scalar, so vectorized key extraction and batch aggregation
/// can hash without boxing a Value. A double equal to an integer hashes as
/// that integer (join keys stay consistent across numeric types).
uint64_t HashInt64(int64_t v);
uint64_t HashDouble(double v);
uint64_t HashString(const std::string& s);
uint64_t HashNullValue();

}  // namespace htap

#endif  // HTAP_TYPES_VALUE_H_

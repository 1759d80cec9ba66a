#include "types/value.h"

#include <cstring>
#include <variant>

namespace htap {

namespace {

// Tags used in the binary encoding.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool GetFixed64(std::string_view in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 8);
  *pos += 8;
  return true;
}

}  // namespace

const char* TypeName(Type t) {
  switch (t) {
    case Type::kInt64: return "INT64";
    case Type::kDouble: return "DOUBLE";
    case Type::kString: return "STRING";
  }
  return "UNKNOWN";
}

void Value::ThrowBadAccess() { throw std::bad_variant_access(); }

int Value::Compare(const Value& other) const {
  // NULL sorts first.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;

  // Numeric cross-type comparison.
  const bool num_l = is_int64() || is_double();
  const bool num_r = other.is_int64() || other.is_double();
  if (num_l && num_r) {
    if (is_int64() && other.is_int64()) {
      const int64_t a = AsInt64(), b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsDouble(), b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (num_l != num_r) return num_l ? -1 : 1;  // numbers before strings

  const int c = AsString().compare(other.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

namespace {

// FNV-1a over the canonical bytes.
uint64_t FnvBytes(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFnvSeed = 14695981039346656037ULL;

}  // namespace

uint64_t HashInt64(int64_t v) { return FnvBytes(&v, 8, kFnvSeed ^ 0x11); }

uint64_t HashDouble(double v) {
  // Hash doubles that equal integers identically to the integer to keep
  // join keys consistent across numeric types. The range guard keeps the
  // int64 cast defined; out-of-range doubles cannot equal any int64.
  if (v >= -9223372036854775808.0 && v < 9223372036854775808.0) {
    const auto as_int = static_cast<int64_t>(v);
    if (static_cast<double>(as_int) == v) return HashInt64(as_int);
  }
  return FnvBytes(&v, 8, kFnvSeed ^ 0x22);
}

uint64_t HashString(const std::string& s) {
  return FnvBytes(s.data(), s.size(), kFnvSeed ^ 0x33);
}

uint64_t HashNullValue() { return kFnvSeed; }

uint64_t Value::Hash() const {
  if (is_null()) return HashNullValue();
  if (is_int64()) return HashInt64(AsInt64());
  if (is_double()) return HashDouble(AsDouble());
  return HashString(AsString());
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int64()) return std::to_string(AsInt64());
  if (is_double()) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%.4f", AsDouble());
    return buf;
  }
  return AsString();
}

void Value::EncodeTo(std::string* out) const {
  if (is_null()) {
    out->push_back(static_cast<char>(kTagNull));
  } else if (is_int64()) {
    out->push_back(static_cast<char>(kTagInt64));
    PutFixed64(out, static_cast<uint64_t>(AsInt64()));
  } else if (is_double()) {
    out->push_back(static_cast<char>(kTagDouble));
    uint64_t bits;
    const double d = AsDouble();
    std::memcpy(&bits, &d, 8);
    PutFixed64(out, bits);
  } else {
    out->push_back(static_cast<char>(kTagString));
    const std::string& s = AsString();
    PutFixed64(out, s.size());
    out->append(s);
  }
}

bool Value::DecodeFrom(std::string_view in, size_t* pos, Value* out) {
  if (*pos >= in.size()) return false;
  const uint8_t tag = static_cast<uint8_t>(in[(*pos)++]);
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return true;
    case kTagInt64: {
      uint64_t v;
      if (!GetFixed64(in, pos, &v)) return false;
      *out = Value(static_cast<int64_t>(v));
      return true;
    }
    case kTagDouble: {
      uint64_t bits;
      if (!GetFixed64(in, pos, &bits)) return false;
      double d;
      std::memcpy(&d, &bits, 8);
      *out = Value(d);
      return true;
    }
    case kTagString: {
      uint64_t n;
      if (!GetFixed64(in, pos, &n)) return false;
      if (*pos + n > in.size()) return false;
      *out = Value(std::string(in.substr(*pos, n)));
      *pos += n;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace htap

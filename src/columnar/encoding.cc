#include "columnar/encoding.h"

#include <algorithm>
#include <unordered_map>

namespace htap {

namespace {

/// Bits needed to represent `range` distinct offsets. A range of 0 (all
/// values equal, or an empty segment) needs no payload bits at all: the
/// frame base alone reconstructs every value.
uint8_t BitWidthFor(uint64_t range) {
  uint8_t w = 0;
  while (range > 0) {
    ++w;
    range >>= 1;
  }
  return w;
}

void PackBits(const std::vector<uint64_t>& offsets, uint8_t width,
              std::vector<uint64_t>* out) {
  out->assign((offsets.size() * width + 63) / 64, 0);
  if (width == 0) return;  // all offsets are 0; no payload words
  size_t bitpos = 0;
  for (uint64_t off : offsets) {
    const size_t word = bitpos >> 6;
    const size_t shift = bitpos & 63;
    (*out)[word] |= off << shift;
    if (shift + width > 64) (*out)[word + 1] |= off >> (64 - shift);
    bitpos += width;
  }
}

uint64_t UnpackBits(const std::vector<uint64_t>& packed, uint8_t width,
                    size_t i) {
  if (width == 0) return 0;
  const size_t bitpos = i * width;
  const size_t word = bitpos >> 6;
  const size_t shift = bitpos & 63;
  uint64_t v = packed[word] >> shift;
  if (shift + width > 64) v |= packed[word + 1] << (64 - shift);
  const uint64_t mask = width == 64 ? ~0ULL : ((1ULL << width) - 1);
  return v & mask;
}

template <typename T>
void EncodeRleTyped(const std::vector<T>& vals, std::vector<T>* run_vals,
                    std::vector<uint32_t>* run_ends) {
  size_t i = 0;
  while (i < vals.size()) {
    size_t j = i + 1;
    while (j < vals.size() && vals[j] == vals[i]) ++j;
    run_vals->push_back(vals[i]);
    run_ends->push_back(static_cast<uint32_t>(j));
    i = j;
  }
}

}  // namespace

const char* EncodingName(EncodingType t) {
  switch (t) {
    case EncodingType::kPlain: return "PLAIN";
    case EncodingType::kDictionary: return "DICTIONARY";
    case EncodingType::kRle: return "RLE";
    case EncodingType::kForBitPack: return "FOR_BITPACK";
  }
  return "?";
}

size_t EncodedColumn::MemoryBytes() const {
  size_t b = sizeof(*this);
  b += ints.capacity() * 8 + doubles.capacity() * 8;
  // Count the whole strings vector allocation (capacity, not size — slack
  // slots are real memory) plus each string's heap payload.
  b += strings.capacity() * sizeof(std::string);
  for (const auto& s : strings) b += s.capacity();
  b += codes.capacity() * 4 + run_ends.capacity() * 4 + packed.capacity() * 8;
  b += nulls.MemoryBytes();
  return b;
}

EncodedColumn Encode(const ColumnVector& in, EncodingType enc) {
  EncodedColumn out;
  out.type = in.type();
  out.num_values = static_cast<uint32_t>(in.size());
  out.nulls = in.nulls();

  // Resolve unsupported combinations to PLAIN.
  if (enc == EncodingType::kForBitPack && in.type() != Type::kInt64)
    enc = EncodingType::kPlain;
  if (enc == EncodingType::kDictionary && in.type() == Type::kDouble)
    enc = EncodingType::kPlain;
  out.encoding = enc;

  switch (enc) {
    case EncodingType::kPlain:
      switch (in.type()) {
        case Type::kInt64: out.ints = in.ints(); break;
        case Type::kDouble: out.doubles = in.doubles(); break;
        case Type::kString: out.strings = in.strings(); break;
      }
      break;

    case EncodingType::kDictionary: {
      out.codes.reserve(in.size());
      if (in.type() == Type::kString) {
        std::unordered_map<std::string, uint32_t> dict;
        for (size_t i = 0; i < in.size(); ++i) {
          const std::string& s = in.strings()[i];
          auto [it, inserted] =
              dict.emplace(s, static_cast<uint32_t>(out.strings.size()));
          if (inserted) out.strings.push_back(s);
          out.codes.push_back(it->second);
        }
      } else {
        std::unordered_map<int64_t, uint32_t> dict;
        for (size_t i = 0; i < in.size(); ++i) {
          const int64_t v = in.ints()[i];
          auto [it, inserted] =
              dict.emplace(v, static_cast<uint32_t>(out.ints.size()));
          if (inserted) out.ints.push_back(v);
          out.codes.push_back(it->second);
        }
      }
      break;
    }

    case EncodingType::kRle:
      switch (in.type()) {
        case Type::kInt64: EncodeRleTyped(in.ints(), &out.ints, &out.run_ends); break;
        case Type::kDouble:
          EncodeRleTyped(in.doubles(), &out.doubles, &out.run_ends);
          break;
        case Type::kString:
          EncodeRleTyped(in.strings(), &out.strings, &out.run_ends);
          break;
      }
      break;

    case EncodingType::kForBitPack: {
      const auto& vals = in.ints();
      if (vals.empty()) {
        out.ints = {0};
        out.bit_width = 0;
        break;
      }
      const auto [mn_it, mx_it] = std::minmax_element(vals.begin(), vals.end());
      const int64_t base = *mn_it;
      const uint64_t range =
          static_cast<uint64_t>(*mx_it) - static_cast<uint64_t>(base);
      if (range > (1ULL << 62)) {  // too wide: plain
        out.encoding = EncodingType::kPlain;
        out.ints = vals;
        break;
      }
      out.bit_width = BitWidthFor(range);
      out.ints = {base};
      std::vector<uint64_t> offsets;
      offsets.reserve(vals.size());
      for (int64_t v : vals)
        offsets.push_back(static_cast<uint64_t>(v) -
                          static_cast<uint64_t>(base));
      PackBits(offsets, out.bit_width, &out.packed);
      break;
    }
  }
  return out;
}

ColumnVector Decode(const EncodedColumn& col) {
  ColumnVector out(col.type);
  out.Reserve(col.num_values);
  for (size_t i = 0; i < col.num_values; ++i) out.AppendValue(EncodedGet(col, i));
  return out;
}

Value EncodedGet(const EncodedColumn& col, size_t i) {
  if (col.nulls.Test(i)) return Value::Null();
  switch (col.encoding) {
    case EncodingType::kPlain:
      switch (col.type) {
        case Type::kInt64: return Value(col.ints[i]);
        case Type::kDouble: return Value(col.doubles[i]);
        case Type::kString: return Value(col.strings[i]);
      }
      break;
    case EncodingType::kDictionary: {
      const uint32_t code = col.codes[i];
      if (col.type == Type::kString) return Value(col.strings[code]);
      return Value(col.ints[code]);
    }
    case EncodingType::kRle: {
      const auto it = std::upper_bound(col.run_ends.begin(),
                                       col.run_ends.end(),
                                       static_cast<uint32_t>(i));
      const size_t run = static_cast<size_t>(it - col.run_ends.begin());
      switch (col.type) {
        case Type::kInt64: return Value(col.ints[run]);
        case Type::kDouble: return Value(col.doubles[run]);
        case Type::kString: return Value(col.strings[run]);
      }
      break;
    }
    case EncodingType::kForBitPack: return Value(ForUnpackAt(col, i));
  }
  return Value::Null();
}

int64_t ForUnpackAt(const EncodedColumn& col, size_t i) {
  const uint64_t off = UnpackBits(col.packed, col.bit_width, i);
  return static_cast<int64_t>(static_cast<uint64_t>(col.ints[0]) + off);
}

}  // namespace htap

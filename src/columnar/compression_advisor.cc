#include "columnar/compression_advisor.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

namespace htap {

namespace {

/// Bits needed for `range` distinct frame offsets (0 when all values are
/// equal — the base alone reconstructs them). Mirrors the FOR encoder.
uint8_t BitsFor(uint64_t range) {
  uint8_t w = 0;
  while (range > 0) {
    ++w;
    range >>= 1;
  }
  return w;
}

template <typename T>
size_t CountRuns(const std::vector<T>& vals) {
  if (vals.empty()) return 0;
  size_t runs = 1;
  for (size_t i = 1; i < vals.size(); ++i)
    if (!(vals[i] == vals[i - 1])) ++runs;
  return runs;
}

/// Fills `runs`, the int range and `string_bytes`: one pass, no allocation.
void CollectRunStats(const ColumnVector& values, SegmentValueStats* st) {
  switch (values.type()) {
    case Type::kInt64: {
      const auto& v = values.ints();
      st->runs = CountRuns(v);
      if (!v.empty()) {
        const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
        st->int_min = *mn;
        st->int_max = *mx;
      }
      break;
    }
    case Type::kDouble:
      st->runs = CountRuns(values.doubles());
      break;
    case Type::kString:
      st->runs = CountRuns(values.strings());
      for (const auto& s : values.strings()) st->string_bytes += s.size();
      break;
  }
}

/// Fills `distinct` and `distinct_string_bytes`.
void CollectDistinct(const ColumnVector& values, SegmentValueStats* st) {
  switch (values.type()) {
    case Type::kInt64: {
      // The runs of the sorted values. Key columns usually arrive sorted,
      // so most calls sort nothing.
      const auto& v = values.ints();
      if (std::is_sorted(v.begin(), v.end())) {
        st->distinct = CountRuns(v);
      } else {
        std::vector<int64_t> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        st->distinct = CountRuns(sorted);
      }
      break;
    }
    case Type::kDouble: {
      const auto& v = values.doubles();
      st->distinct = std::unordered_set<double>(v.begin(), v.end()).size();
      break;
    }
    case Type::kString: {
      std::unordered_set<std::string_view> distinct;
      for (const auto& s : values.strings())
        if (distinct.insert(s).second) st->distinct_string_bytes += s.size();
      st->distinct = distinct.size();
      break;
    }
  }
}

/// Whether DICTIONARY can be the choice, i.e. whether the distinct count
/// matters. Never on DOUBLE, where it is inapplicable. On INT64 only when
/// the FOR frame is 32 bits or wider: narrower, FOR costs at most
/// 8 + ceil(31n/8) <= 8 + 4n bytes, below DICTIONARY's 4n + 8 * distinct
/// for two or more distinct values, and a single value packs in a 0-bit
/// frame (8 bytes). FOR then always undercuts DICTIONARY.
bool DictionaryCanWin(Type type, const SegmentValueStats& st) {
  if (type == Type::kDouble) return false;
  if (type == Type::kString) return true;
  return BitsFor(static_cast<uint64_t>(st.int_max) -
                 static_cast<uint64_t>(st.int_min)) >= 32;
}

/// Estimates every candidate and picks one (see the file header).
/// DICTIONARY is a candidate only when `dictionary` is set.
CompressionAdvice Choose(Type type, const SegmentValueStats& st,
                         bool dictionary) {
  const size_t n = st.rows;

  // Payload-byte estimates per encoding, mirroring the shapes the encoders
  // emit (EncodedColumn::MemoryBytes counts the same vectors). The null
  // bitmap is identical across encodings, so it cancels out of the choice
  // and is left out of every estimate.
  const size_t value_bytes =
      type == Type::kString
          ? sizeof(std::string)  // per-slot header; payload added explicitly
          : 8;

  CompressionAdvice advice;
  auto& cand = advice.candidates;
  for (size_t e = 0; e < kNumEncodings; ++e)
    cand[e].encoding = static_cast<EncodingType>(e);

  const auto idx = [](EncodingType t) { return static_cast<size_t>(t); };

  // PLAIN: the raw slots.
  cand[idx(EncodingType::kPlain)].applicable = true;
  cand[idx(EncodingType::kPlain)].bytes = n * value_bytes + st.string_bytes;

  // DICTIONARY: one 4-byte code per slot plus the distinct entries.
  if (dictionary) {
    auto& c = cand[idx(EncodingType::kDictionary)];
    c.applicable = true;
    c.bytes = n * 4 + st.distinct * value_bytes + st.distinct_string_bytes;
  }

  // RLE: one value and one 4-byte end offset per run. Run payloads are
  // approximated with the column's mean string length.
  {
    auto& c = cand[idx(EncodingType::kRle)];
    c.applicable = true;
    const size_t avg_len = n == 0 ? 0 : st.string_bytes / n;
    c.bytes = st.runs * (value_bytes + 4 + avg_len);
  }

  // FOR-BITPACK: the frame base plus bit_width bits per slot. Inapplicable
  // off INT64 or when the range overflows the encoder's 2^62 guard.
  if (type == Type::kInt64) {
    const uint64_t range = static_cast<uint64_t>(st.int_max) -
                           static_cast<uint64_t>(st.int_min);
    if (n == 0 || range <= (1ULL << 62)) {
      auto& c = cand[idx(EncodingType::kForBitPack)];
      c.applicable = true;
      c.bytes = 8 + (n * BitsFor(range) + 7) / 8;
    }
  }

  // Pick the smallest estimate, but only leave PLAIN for a compressed
  // encoding that wins by at least 1/8 of PLAIN's footprint — decode
  // overhead is not worth marginal savings. Ties keep the earlier encoding
  // in enum order (deterministic).
  const size_t plain = cand[idx(EncodingType::kPlain)].bytes;
  size_t best = plain - plain / 8;
  advice.chosen = EncodingType::kPlain;
  for (const EncodingType t : {EncodingType::kDictionary, EncodingType::kRle,
                               EncodingType::kForBitPack}) {
    const auto& c = cand[idx(t)];
    if (c.applicable && c.bytes < best) {
      advice.chosen = t;
      best = c.bytes;
    }
  }
  return advice;
}

}  // namespace

SegmentValueStats CollectSegmentStats(const ColumnVector& values) {
  SegmentValueStats st;
  st.rows = values.size();
  for (size_t i = 0; i < st.rows; ++i)
    if (values.IsNull(i)) ++st.nulls;
  CollectRunStats(values, &st);
  CollectDistinct(values, &st);
  return st;
}

CompressionAdvice AdviseFromStats(Type type, const SegmentValueStats& st) {
  return Choose(type, st, type != Type::kDouble);
}

CompressionAdvice AdviseEncoding(const ColumnVector& values) {
  // Only the statistics the choice can depend on: `nulls` never enters it,
  // and the distinct count (the one pass that allocates) only when
  // DICTIONARY can win.
  SegmentValueStats st;
  st.rows = values.size();
  CollectRunStats(values, &st);
  const bool dictionary = DictionaryCanWin(values.type(), st);
  if (dictionary) CollectDistinct(values, &st);
  return Choose(values.type(), st, dictionary);
}

}  // namespace htap

#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace htap {

namespace {

constexpr uint32_t kCastagnoliReflected = 0x82F63B78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? (c >> 1) ^ kCastagnoliReflected : c >> 1;
    t[i] = c;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t HardwareCrc32c(const char* data,
                                                           size_t n) {
  uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++data, --n)
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*data));
  return ~crc32;
}

#endif

}  // namespace

uint32_t Crc32cTable(const char* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i)
    crc = kTable[(crc ^ static_cast<uint8_t>(data[i])) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

bool Crc32cHardware() {
#if defined(__x86_64__)
  static const bool has_sse42 = [] {
    __builtin_cpu_init();  // may run before libgcc's own initializer
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has_sse42;
#else
  return false;
#endif
}

uint32_t Crc32c(const char* data, size_t n) {
#if defined(__x86_64__)
  if (Crc32cHardware()) return HardwareCrc32c(data, n);
#endif
  return Crc32cTable(data, n);
}

}  // namespace htap

// CRC32C (Castagnoli polynomial, reflected; initial value and final xor
// ~0), the checksum that frames WAL records. Crc32c uses the SSE4.2 crc32
// instruction when the CPU has it and the byte table otherwise; both give
// the same value for every input.

#ifndef HTAP_COMMON_CRC32C_H_
#define HTAP_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace htap {

/// CRC32C of `n` bytes at `data`. Crc32c("123456789", 9) == 0xE3069283.
uint32_t Crc32c(const char* data, size_t n);

/// The table-driven path Crc32c falls back to, on any CPU.
uint32_t Crc32cTable(const char* data, size_t n);

/// Whether Crc32c runs the SSE4.2 instruction on this CPU.
bool Crc32cHardware();

}  // namespace htap

#endif  // HTAP_COMMON_CRC32C_H_

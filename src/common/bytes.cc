#include "common/bytes.h"

namespace ps2 {
namespace {

// Slice-by-8 tables (Kounavis & Berry, 2005): t[0] is the classic
// byte-at-a-time table of the reflected polynomial; t[k][i] advances t[0][i]
// through k further zero bytes, so one 8-byte step folds eight table
// lookups instead of running eight dependent ones.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
  }
};

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const Crc32Tables tables;
  const auto& t = tables.t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  // Little-endian word loads (the byte order every format here assumes);
  // memcpy keeps them alignment-safe.
  for (; n >= 8; n -= 8, p += 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ps2

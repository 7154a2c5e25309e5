#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"

namespace ps2 {
namespace {

// The classic byte-at-a-time table method over the reflected polynomial
// 0xEDB88320 — the reference the slice-by-8 kernel must agree with bit for
// bit, since WAL, checkpoint, trace, SHARDMAP and wire bytes all carry it.
uint32_t BytewiseCrc32(const unsigned char* p, size_t n, uint32_t seed) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check), 0xCBF43926u);
  EXPECT_EQ(Crc32(check.data(), 0), 0u);
}

TEST(Crc32Test, SeededChainingEqualsOnePass) {
  std::string buf(1000, '\0');
  Rng rng(0xC4C);
  for (char& c : buf) c = static_cast<char>(rng.NextBelow(256));
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (const size_t split : {0, 1, 7, 8, 9, 63, 500, 999, 1000}) {
    const uint32_t head = Crc32(buf.data(), split);
    EXPECT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

// Every length around the 8-byte step, at every start alignment, so the
// word loop, the byte tail and unaligned loads all meet the reference.
TEST(Crc32Test, MatchesTheBytewiseReferenceAtEveryLengthAndAlignment) {
  unsigned char buf[8 + 300];
  Rng rng(0x5EED);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.NextBelow(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      const uint32_t seed = static_cast<uint32_t>(n * 2654435761u);
      ASSERT_EQ(Crc32(buf + offset, n), BytewiseCrc32(buf + offset, n, 0))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(Crc32(buf + offset, n, seed),
                BytewiseCrc32(buf + offset, n, seed))
          << "seeded, offset " << offset << " length " << n;
    }
  }
}

}  // namespace
}  // namespace ps2

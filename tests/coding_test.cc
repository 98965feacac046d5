#include "minos/util/coding.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "minos/util/crc32_internal.h"
#include "minos/util/random.h"

namespace minos {
namespace {

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0);
  PutFixed32(&buf, 1);
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed32(&buf, std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(buf.size(), 16u);
  Decoder dec(buf);
  uint32_t v = 0;
  ASSERT_TRUE(dec.GetFixed32(&v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(dec.GetFixed32(&v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(dec.GetFixed32(&v).ok());
  EXPECT_EQ(v, 0xDEADBEEF);
  ASSERT_TRUE(dec.GetFixed32(&v).ok());
  EXPECT_EQ(v, std::numeric_limits<uint32_t>::max());
  EXPECT_TRUE(dec.empty());
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789ABCDEFULL);
  Decoder dec(buf);
  uint64_t v = 0;
  ASSERT_TRUE(dec.GetFixed64(&v).ok());
  EXPECT_EQ(v, 0x0123456789ABCDEFULL);
}

TEST(CodingTest, Fixed32LittleEndianLayout) {
  std::string buf;
  PutFixed32(&buf, 0x04030201);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 1);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 4);
}

TEST(CodingTest, VarintBoundaries) {
  const std::vector<uint64_t> cases = {
      0,       1,        127,        128,
      16383,   16384,    (1ULL << 32) - 1, 1ULL << 32,
      (1ULL << 63),      std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t c : cases) PutVarint64(&buf, c);
  Decoder dec(buf);
  for (uint64_t c : cases) {
    uint64_t v = 0;
    ASSERT_TRUE(dec.GetVarint64(&v).ok());
    EXPECT_EQ(v, c);
  }
  EXPECT_TRUE(dec.empty());
}

TEST(CodingTest, VarintSizes) {
  std::string one, two, ten;
  PutVarint64(&one, 127);
  PutVarint64(&two, 128);
  PutVarint64(&ten, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(two.size(), 2u);
  EXPECT_EQ(ten.size(), 10u);
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  Decoder dec(buf);
  uint32_t v = 0;
  EXPECT_TRUE(dec.GetVarint32(&v).IsCorruption());
}

TEST(CodingTest, TruncatedInputsReportCorruption) {
  std::string buf;
  PutFixed64(&buf, 7);
  Decoder dec(std::string_view(buf).substr(0, 3));
  uint64_t v64 = 0;
  EXPECT_TRUE(dec.GetFixed64(&v64).IsCorruption());
  uint32_t v32 = 0;
  Decoder dec32(std::string_view(buf).substr(0, 3));
  EXPECT_TRUE(dec32.GetFixed32(&v32).IsCorruption());
}

TEST(CodingTest, TruncatedVarintReportsCorruption) {
  std::string buf;
  PutVarint64(&buf, 300);  // Two bytes.
  Decoder dec(std::string_view(buf).substr(0, 1));
  uint64_t v = 0;
  EXPECT_TRUE(dec.GetVarint64(&v).IsCorruption());
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, "hello");
  std::string binary("\x00\x01\xFF", 3);
  PutLengthPrefixed(&buf, binary);
  Decoder dec(buf);
  std::string s;
  ASSERT_TRUE(dec.GetLengthPrefixed(&s).ok());
  EXPECT_EQ(s, "");
  ASSERT_TRUE(dec.GetLengthPrefixed(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(dec.GetLengthPrefixed(&s).ok());
  EXPECT_EQ(s, binary);
}

TEST(CodingTest, LengthPrefixedTruncatedPayload) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello world");
  Decoder dec(std::string_view(buf).substr(0, 5));
  std::string s;
  EXPECT_TRUE(dec.GetLengthPrefixed(&s).IsCorruption());
}

TEST(CodingTest, GetRawConsumesExactly) {
  Decoder dec("abcdef");
  std::string s;
  ASSERT_TRUE(dec.GetRaw(4, &s).ok());
  EXPECT_EQ(s, "abcd");
  EXPECT_EQ(dec.remaining(), 2u);
  EXPECT_TRUE(dec.GetRaw(3, &s).IsCorruption());
}

TEST(CodingTest, RandomizedVarintRoundTrip) {
  Random rng(123);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    // Bias toward small magnitudes to hit all byte-lengths.
    const int shift = static_cast<int>(rng.Uniform(64));
    const uint64_t v = rng.Next64() >> shift;
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  Decoder dec(buf);
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(dec.GetVarint64(&v).ok());
    ASSERT_EQ(v, expected);
  }
  EXPECT_TRUE(dec.empty());
}

/// Bit-at-a-time CRC-32 (reflected IEEE polynomial): the reference both
/// Crc32 paths must agree with.
uint32_t BitwiseCrc32(std::string_view bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(CodingTest, Crc32KnownAnswer) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

/// Checks one CRC-32 function against BitwiseCrc32 at every length
/// 0-1100 from every start offset 0-15, then on a 1 MiB random buffer.
void ExpectMatchesBitwiseReference(uint32_t (*crc32)(std::string_view)) {
  Random rng(2009);
  constexpr size_t kMaxLength = 1100;
  std::string buf(kMaxLength + 16, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng.Uniform(256));
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const std::string_view bytes(buf.data() + offset, length);
      ASSERT_EQ(crc32(bytes), BitwiseCrc32(bytes))
          << "offset " << offset << " length " << length;
    }
  }
  std::string big(1 << 20, '\0');
  for (char& ch : big) ch = static_cast<char>(rng.Uniform(256));
  EXPECT_EQ(crc32(big), BitwiseCrc32(big));
}

// Every length around the 8-byte slices, the 16-byte folds and the
// 64-byte lanes, at every alignment of the start.
TEST(CodingTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  ExpectMatchesBitwiseReference(&Crc32);
}

TEST(CodingTest, Crc32PortablePathMatchesBitwiseReference) {
  ExpectMatchesBitwiseReference(&crc32_internal::Portable);
}

TEST(CodingTest, Crc32FoldedPathMatchesBitwiseReference) {
  if (!crc32_internal::CanFold()) {
    GTEST_SKIP() << "no carry-less multiply on this CPU";
  }
  ExpectMatchesBitwiseReference(&crc32_internal::Folded);
}

}  // namespace
}  // namespace minos

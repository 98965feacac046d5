#include "minos/storage/composition_file.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "minos/util/coding.h"

namespace minos::storage {
namespace {

TEST(CompositionFileTest, AppendAssignsOffsets) {
  CompositionFile cf;
  EXPECT_EQ(cf.AppendPart("a", DataType::kText, "hello"), 0u);
  EXPECT_EQ(cf.AppendPart("b", DataType::kImage, "world"), 5u);
  EXPECT_EQ(cf.size(), 10u);
  EXPECT_EQ(cf.part_count(), 2u);
}

TEST(CompositionFileTest, FindPartByName) {
  CompositionFile cf;
  cf.AppendPart("text", DataType::kText, "abc");
  auto p = cf.FindPart("text");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->type, DataType::kText);
  EXPECT_EQ(p->length, 3u);
  EXPECT_TRUE(cf.FindPart("nope").status().IsNotFound());
}

TEST(CompositionFileTest, ReadPartPayload) {
  CompositionFile cf;
  cf.AppendPart("a", DataType::kText, "first");
  cf.AppendPart("b", DataType::kVoice, "second");
  auto p = cf.FindPart("b");
  ASSERT_TRUE(p.ok());
  std::string out;
  ASSERT_TRUE(cf.ReadPart(*p, &out).ok());
  EXPECT_EQ(out, "second");
}

TEST(CompositionFileTest, ReadRangeBounds) {
  CompositionFile cf;
  cf.AppendPart("a", DataType::kText, "0123456789");
  std::string out;
  ASSERT_TRUE(cf.ReadRange(3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
  EXPECT_TRUE(cf.ReadRange(8, 5, &out).IsOutOfRange());
  // offset + length wraps to 1 here; the check must not.
  EXPECT_TRUE(cf.ReadRange(UINT64_MAX, 2, &out).IsOutOfRange());
}

TEST(CompositionFileTest, SerializeRoundTrip) {
  CompositionFile cf;
  cf.AppendPart("attributes", DataType::kAttributes, "k=v");
  cf.AppendPart("text", DataType::kText, "body text");
  cf.AppendPart("image:0", DataType::kImage, std::string("\x00\x01", 2));
  const std::string bytes = cf.Serialize();
  auto restored = CompositionFile::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->part_count(), 3u);
  EXPECT_EQ(restored->size(), cf.size());
  auto p = restored->FindPart("text");
  ASSERT_TRUE(p.ok());
  std::string out;
  ASSERT_TRUE(restored->ReadPart(*p, &out).ok());
  EXPECT_EQ(out, "body text");
}

TEST(CompositionFileTest, EmptyRoundTrip) {
  CompositionFile cf;
  auto restored = CompositionFile::Deserialize(cf.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->part_count(), 0u);
  EXPECT_EQ(restored->size(), 0u);
}

TEST(CompositionFileTest, DeserializeRejectsTruncation) {
  CompositionFile cf;
  cf.AppendPart("a", DataType::kText, "payload");
  const std::string bytes = cf.Serialize();
  for (size_t cut : {size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    auto restored =
        CompositionFile::Deserialize(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(restored.ok()) << "cut=" << cut;
  }
  // A part count far beyond what the bytes could hold is a truncation
  // too, not an allocation sized by the forged count.
  std::string huge_count;
  PutVarint64(&huge_count, uint64_t{1} << 62);
  EXPECT_TRUE(
      CompositionFile::Deserialize(huge_count).status().IsCorruption());
}

TEST(CompositionFileTest, DeserializeRejectsBadType) {
  CompositionFile cf;
  cf.AppendPart("a", DataType::kText, "x");
  std::string bytes = cf.Serialize();
  // The type byte follows the varint part count (1 byte) and the
  // length-prefixed name (1 + 1 bytes).
  bytes[3] = 99;
  EXPECT_TRUE(CompositionFile::Deserialize(bytes).status().IsCorruption());
}

TEST(CompositionFileTest, DeserializeRejectsWrappingPart) {
  // A catalog entry whose offset + length wraps past 2^64 into the
  // payload: Serialize() never writes one, so it is hand-encoded.
  std::string bytes;
  PutVarint64(&bytes, 1);
  PutLengthPrefixed(&bytes, "a");
  bytes.push_back(static_cast<char>(DataType::kText));
  PutVarint64(&bytes, UINT64_MAX);
  PutVarint64(&bytes, 2);
  PutLengthPrefixed(&bytes, "payload");
  EXPECT_TRUE(CompositionFile::Deserialize(bytes).status().IsCorruption());
}

TEST(CompositionFileTest, DataTypeNames) {
  EXPECT_STREQ(DataTypeName(DataType::kText), "text");
  EXPECT_STREQ(DataTypeName(DataType::kVoice), "voice");
  EXPECT_STREQ(DataTypeName(DataType::kImage), "image");
  EXPECT_STREQ(DataTypeName(DataType::kAttributes), "attributes");
}

TEST(CompositionFileTest, DuplicateNamesFindFirst) {
  CompositionFile cf;
  cf.AppendPart("dup", DataType::kText, "one");
  cf.AppendPart("dup", DataType::kText, "two");
  auto p = cf.FindPart("dup");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->offset, 0u);
}

}  // namespace
}  // namespace minos::storage

#include "minos/storage/data_directory.h"

#include <gtest/gtest.h>

#include "minos/util/coding.h"

namespace minos::storage {
namespace {

TEST(DataDirectoryTest, AddAndFindLocal) {
  DataDirectory dir;
  dir.AddLocal("xray.img", DataType::kImage, 1024, DataStatus::kFinal);
  auto e = dir.Find("xray.img");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->type, DataType::kImage);
  EXPECT_EQ(e->location, DataLocation::kLocalFile);
  EXPECT_EQ(e->length, 1024u);
  EXPECT_TRUE(dir.Find("missing").status().IsNotFound());
}

TEST(DataDirectoryTest, ArchiverReferenceIsFinal) {
  DataDirectory dir;
  dir.AddArchiverReference("shared.img", DataType::kImage,
                           ArchiveAddress{4096, 512});
  auto e = dir.Find("shared.img");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->location, DataLocation::kArchiver);
  EXPECT_EQ(e->status, DataStatus::kFinal);
  EXPECT_EQ(e->archive_address, (ArchiveAddress{4096, 512}));
  EXPECT_EQ(e->length, 512u);
}

TEST(DataDirectoryTest, AllFinalTracksDrafts) {
  DataDirectory dir;
  EXPECT_TRUE(dir.AllFinal());  // Vacuously.
  dir.AddLocal("draft.txt", DataType::kText, 10, DataStatus::kDraft);
  EXPECT_FALSE(dir.AllFinal());
  ASSERT_TRUE(dir.MarkFinal("draft.txt").ok());
  EXPECT_TRUE(dir.AllFinal());
}

TEST(DataDirectoryTest, MarkFinalMissingEntry) {
  DataDirectory dir;
  EXPECT_TRUE(dir.MarkFinal("ghost").IsNotFound());
}

TEST(DataDirectoryTest, SerializeRoundTrip) {
  DataDirectory dir;
  dir.AddLocal("a.txt", DataType::kText, 7, DataStatus::kDraft);
  dir.AddLocal("b.img", DataType::kImage, 99, DataStatus::kFinal);
  dir.AddArchiverReference("c.pcm", DataType::kVoice,
                           ArchiveAddress{12, 34});
  auto restored = DataDirectory::Deserialize(dir.Serialize());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->entries().size(), 3u);
  EXPECT_EQ(restored->entries()[0].name, "a.txt");
  EXPECT_EQ(restored->entries()[0].status, DataStatus::kDraft);
  EXPECT_EQ(restored->entries()[2].archive_address,
            (ArchiveAddress{12, 34}));
  EXPECT_FALSE(restored->AllFinal());
}

TEST(DataDirectoryTest, DeserializeRejectsTruncation) {
  DataDirectory dir;
  dir.AddLocal("a.txt", DataType::kText, 7, DataStatus::kFinal);
  const std::string bytes = dir.Serialize();
  auto restored =
      DataDirectory::Deserialize(std::string_view(bytes).substr(0, 3));
  EXPECT_FALSE(restored.ok());
  // An entry count far beyond what the bytes could hold is a truncation
  // too, not an allocation sized by the forged count.
  std::string huge_count;
  PutVarint64(&huge_count, uint64_t{1} << 61);
  EXPECT_TRUE(DataDirectory::Deserialize(huge_count).status().IsCorruption());
}

}  // namespace
}  // namespace minos::storage

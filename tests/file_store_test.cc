#include "minos/storage/file_store.h"

#include <gtest/gtest.h>

#include "minos/format/object_formatter.h"
#include "minos/format/workspace_store.h"
#include "minos/util/random.h"

namespace minos::storage {
namespace {

class FileStoreTest : public ::testing::Test {
 protected:
  FileStoreTest()
      : device_("magnetic", 256, 32, DeviceCostModel::Instant(),
                /*write_once=*/false, &clock_),
        store_(&device_) {}

  SimClock clock_;
  BlockDevice device_;
  FileStore store_;
};

TEST_F(FileStoreTest, PutGetRoundTrip) {
  ASSERT_TRUE(store_.Put("memo", "editing state contents").ok());
  auto got = store_.Get("memo");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "editing state contents");
  EXPECT_TRUE(store_.Contains("memo"));
}

TEST_F(FileStoreTest, GetMissingIsNotFound) {
  EXPECT_TRUE(store_.Get("ghost").status().IsNotFound());
  EXPECT_FALSE(store_.Contains("ghost"));
}

TEST_F(FileStoreTest, OverwriteReplacesContents) {
  ASSERT_TRUE(store_.Put("doc", std::string(100, 'a')).ok());
  ASSERT_TRUE(store_.Put("doc", "tiny").ok());
  auto got = store_.Get("doc");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "tiny");
}

TEST_F(FileStoreTest, OverwriteFreesOldBlocks) {
  const uint64_t before = store_.free_blocks();
  ASSERT_TRUE(store_.Put("doc", std::string(32 * 10, 'a')).ok());
  ASSERT_TRUE(store_.Put("doc", std::string(32 * 2, 'b')).ok());
  EXPECT_EQ(store_.free_blocks(), before - 2);
}

TEST_F(FileStoreTest, DeleteFreesEverything) {
  const uint64_t before = store_.free_blocks();
  ASSERT_TRUE(store_.Put("doc", std::string(500, 'x')).ok());
  ASSERT_TRUE(store_.Delete("doc").ok());
  EXPECT_EQ(store_.free_blocks(), before);
  EXPECT_TRUE(store_.Delete("doc").IsNotFound());
}

TEST_F(FileStoreTest, DiskFullReportedAndOldFileSurvives) {
  // 256 blocks x 32 bytes = 8 KB total.
  ASSERT_TRUE(store_.Put("big", std::string(6000, 'x')).ok());
  EXPECT_TRUE(
      store_.Put("huge", std::string(4000, 'y')).IsResourceExhausted());
  // Overwriting 'big' with something too large also fails but keeps it.
  EXPECT_TRUE(
      store_.Put("big", std::string(9000, 'z')).IsResourceExhausted());
  auto got = store_.Get("big");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 6000u);
  EXPECT_EQ((*got)[0], 'x');
}

TEST_F(FileStoreTest, ListSortedByName) {
  store_.Put("zeta", "z").ok();
  store_.Put("alpha", "a").ok();
  store_.Put("mid", "m").ok();
  EXPECT_EQ(store_.List(),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST_F(FileStoreTest, EmptyFileRoundTrip) {
  ASSERT_TRUE(store_.Put("empty", "").ok());
  auto got = store_.Get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST_F(FileStoreTest, ManyFilesChurnProperty) {
  Random rng(404);
  std::map<std::string, std::string> reference;
  for (int step = 0; step < 300; ++step) {
    const std::string name = "file" + std::to_string(rng.Uniform(12));
    const double dice = rng.NextDouble();
    if (dice < 0.6) {
      std::string payload;
      const size_t len = rng.Uniform(300);
      for (size_t i = 0; i < len; ++i) {
        payload.push_back(static_cast<char>(rng.Next64()));
      }
      if (store_.Put(name, payload).ok()) {
        reference[name] = payload;
      }
    } else if (dice < 0.8) {
      const Status s = store_.Delete(name);
      EXPECT_EQ(s.ok(), reference.erase(name) > 0);
    } else {
      auto got = store_.Get(name);
      auto it = reference.find(name);
      ASSERT_EQ(got.ok(), it != reference.end());
      if (got.ok()) {
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  // Final verification pass.
  for (const auto& [name, payload] : reference) {
    auto got = store_.Get(name);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, payload);
  }
}

TEST(WorkspaceStoreTest, SaveLoadRoundTrip) {
  SimClock clock;
  BlockDevice device("magnetic", 1024, 64, DeviceCostModel::Instant(),
                     false, &clock);
  FileStore files(&device);
  format::WorkspaceStore store(&files);

  format::ObjectWorkspace ws("case-9");
  ws.SetSynthesis("@MODE visual\n.PP\nbody\n@IMAGE pic\n");
  ws.AddDataFile("pic", DataType::kImage, "imagebytes");
  ws.AddDraftDataFile("notes", DataType::kText, "draft notes");
  ws.ReferenceArchiverData("shared", DataType::kImage,
                           ArchiveAddress{512, 64});
  ASSERT_TRUE(store.Save(ws).ok());

  auto loaded = store.Load("case-9");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name(), "case-9");
  EXPECT_EQ(loaded->synthesis(), ws.synthesis());
  auto pic = loaded->ReadDataFile("pic");
  ASSERT_TRUE(pic.ok());
  EXPECT_EQ(*pic, "imagebytes");
  EXPECT_FALSE(loaded->directory().AllFinal());  // Draft preserved.
  auto shared = loaded->directory().Find("shared");
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared->archive_address, (ArchiveAddress{512, 64}));
  // Retrieval is by name; removal works.
  EXPECT_EQ(store.List(), (std::vector<std::string>{"case-9"}));
  ASSERT_TRUE(store.Remove("case-9").ok());
  EXPECT_TRUE(store.Load("case-9").status().IsNotFound());
}

TEST(WorkspaceStoreTest, LoadedWorkspaceFormats) {
  SimClock clock;
  BlockDevice device("magnetic", 1024, 64, DeviceCostModel::Instant(),
                     false, &clock);
  FileStore files(&device);
  format::WorkspaceStore store(&files);
  format::ObjectWorkspace ws("roundtrip");
  ws.SetSynthesis(".TITLE Round Trip\n.PP\nformatted after reload\n");
  ASSERT_TRUE(store.Save(ws).ok());
  auto loaded = store.Load("roundtrip");
  ASSERT_TRUE(loaded.ok());
  format::ObjectFormatter formatter;
  auto obj = formatter.Format(*loaded, 5);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(obj->has_text());
}

}  // namespace
}  // namespace minos::storage

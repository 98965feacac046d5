#include "minos/server/object_server.h"

#include <gtest/gtest.h>

#include "minos/image/miniature.h"
#include "minos/server/workstation.h"
#include "minos/text/markup.h"
#include "minos/voice/synthesizer.h"

namespace minos::server {
namespace {

using object::MultimediaObject;
using object::VisualPageSpec;

class ObjectServerTest : public ::testing::Test {
 protected:
  ObjectServerTest()
      : device_("optical", 65536, 512,
                storage::DeviceCostModel::Instant(), true, &clock_),
        cache_(256),
        archiver_(&device_, &cache_),
        link_(Link::Ethernet(&clock_)),
        server_(&archiver_, &versions_, &clock_, &link_) {}

  MultimediaObject TextObject(storage::ObjectId id,
                              const std::string& body) {
    MultimediaObject obj(id);
    text::MarkupParser parser;
    auto doc = parser.Parse(".PP\n" + body + "\n");
    EXPECT_TRUE(doc.ok());
    EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
    EXPECT_TRUE(obj.SetAttribute("kind", "memo").ok());
    VisualPageSpec page;
    page.text_page = 1;
    obj.descriptor().pages.push_back(page);
    EXPECT_TRUE(obj.Archive().ok());
    return obj;
  }

  MultimediaObject ImageObject(storage::ObjectId id, int w, int h) {
    MultimediaObject obj(id);
    image::Bitmap bm(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        bm.Set(x, y, static_cast<uint8_t>((x + y) % 251));
      }
    }
    EXPECT_TRUE(
        obj.AddImage(image::Image::FromBitmap(std::move(bm))).ok());
    VisualPageSpec page;
    page.images.push_back({0, image::Rect{}});
    obj.descriptor().pages.push_back(page);
    EXPECT_TRUE(obj.Archive().ok());
    return obj;
  }

  MultimediaObject AudioObject(storage::ObjectId id,
                               const std::string& body) {
    MultimediaObject obj(id);
    text::MarkupParser parser;
    auto doc = parser.Parse(".PP\n" + body + "\n");
    EXPECT_TRUE(doc.ok());
    voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
    auto track = synth.Synthesize(*doc);
    EXPECT_TRUE(track.ok());
    voice::VoiceDocument vdoc(std::move(track).value());
    EXPECT_TRUE(obj.SetVoicePart(std::move(vdoc)).ok());
    obj.descriptor().driving_mode = object::DrivingMode::kAudio;
    EXPECT_TRUE(obj.Archive().ok());
    return obj;
  }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BlockCache cache_;
  storage::Archiver archiver_;
  storage::VersionStore versions_;
  Link link_;
  ObjectServer server_;
};

TEST_F(ObjectServerTest, StoreAndFetch) {
  ASSERT_TRUE(server_.Store(TextObject(1, "stored at the server")).ok());
  EXPECT_EQ(server_.object_count(), 1u);
  auto fetched = server_.Fetch(1);
  ASSERT_TRUE(fetched.ok());
  EXPECT_NE(fetched->text_part().contents().find("stored"),
            std::string::npos);
  EXPECT_GT(link_.bytes_transferred(), 0u);
  EXPECT_TRUE(server_.Fetch(9).status().IsNotFound());
}

TEST_F(ObjectServerTest, FetchVersionReadsHistoricalCopies) {
  ASSERT_TRUE(server_.Store(TextObject(1, "version one body")).ok());
  clock_.Advance(1000);
  ASSERT_TRUE(server_.Store(TextObject(1, "version two body")).ok());
  auto v1 = server_.FetchVersion(1, 1);
  auto v2 = server_.FetchVersion(1, 2);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_NE(v1->text_part().contents().find("version one"),
            std::string::npos);
  EXPECT_NE(v2->text_part().contents().find("version two"),
            std::string::npos);
  // The plain Fetch returns the current (latest) version.
  auto current = server_.Fetch(1);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->text_part().contents(), v2->text_part().contents());
  EXPECT_TRUE(server_.FetchVersion(1, 3).status().IsNotFound());
  EXPECT_TRUE(server_.FetchVersion(9, 1).status().IsNotFound());
  // Content queries see only the current version: the re-store dropped
  // "one", so the object no longer matches it.
  EXPECT_TRUE(server_.QueryAll({"one"}).empty());
  EXPECT_EQ(server_.QueryAll({"two"}), (std::vector<storage::ObjectId>{1}));
}

TEST_F(ObjectServerTest, ContentQueryByTextWord) {
  ASSERT_TRUE(
      server_.Store(TextObject(1, "report about the hospital wing")).ok());
  ASSERT_TRUE(
      server_.Store(TextObject(2, "memo about the subway line")).ok());
  ASSERT_TRUE(
      server_.Store(TextObject(3, "hospital budget for the year")).ok());
  EXPECT_EQ(server_.QueryAll({"hospital"}),
            (std::vector<storage::ObjectId>{1, 3}));
  EXPECT_EQ(server_.QueryAll({"subway"}), (std::vector<storage::ObjectId>{2}));
  EXPECT_TRUE(server_.QueryAll({"airport"}).empty());
  // Case-insensitive.
  EXPECT_EQ(server_.QueryAll({"HOSPITAL"}).size(), 2u);
}

TEST_F(ObjectServerTest, QueryMatchesAttributesAndVoice) {
  ASSERT_TRUE(server_.Store(TextObject(1, "plain body")).ok());  // kind=memo.
  ASSERT_TRUE(
      server_.Store(AudioObject(2, "dictated findings about the fracture"))
          .ok());
  EXPECT_EQ(server_.QueryAll({"memo"}), (std::vector<storage::ObjectId>{1}));
  EXPECT_EQ(server_.QueryAll({"fracture"}),
            (std::vector<storage::ObjectId>{2}));
}

TEST_F(ObjectServerTest, ConjunctiveQuery) {
  ASSERT_TRUE(server_.Store(TextObject(1, "red apples and pears")).ok());
  ASSERT_TRUE(server_.Store(TextObject(2, "red bricks and mortar")).ok());
  EXPECT_EQ(server_.QueryAll({"red", "apples"}),
            (std::vector<storage::ObjectId>{1}));
  EXPECT_EQ(server_.QueryAll({"red"}).size(), 2u);
  EXPECT_TRUE(server_.QueryAll({"red", "zebra"}).empty());
}

TEST_F(ObjectServerTest, MiniatureOfVisualObject) {
  // A long document, so the miniature economics are visible.
  std::string body;
  for (int i = 0; i < 400; ++i) {
    body += "Sentence " + std::to_string(i) + " of the long report. ";
  }
  ASSERT_TRUE(server_.Store(TextObject(1, body)).ok());
  link_.ResetStats();
  auto card = server_.FetchMiniature(1);
  ASSERT_TRUE(card.ok());
  EXPECT_FALSE(card->audio_mode);
  EXPECT_GT(card->thumb.width(), 0);
  // Much cheaper than fetching the whole object.
  const uint64_t mini_bytes = link_.bytes_transferred();
  ASSERT_TRUE(server_.Fetch(1).ok());
  EXPECT_LT(mini_bytes, link_.bytes_transferred() - mini_bytes);
}

TEST_F(ObjectServerTest, MiniatureOfAudioObject) {
  ASSERT_TRUE(
      server_.Store(AudioObject(2, "spoken introduction to the archive"))
          .ok());
  auto card = server_.FetchMiniature(2);
  ASSERT_TRUE(card.ok());
  EXPECT_TRUE(card->audio_mode);
  // The preview carries the first spoken words.
  EXPECT_NE(card->preview_transcript.find("spoken"), std::string::npos);
}

TEST_F(ObjectServerTest, FetchImageRegionReturnsExactPixels) {
  MultimediaObject obj = ImageObject(5, 200, 150);
  const image::Bitmap full = obj.images()[0].Render();
  ASSERT_TRUE(server_.Store(obj).ok());
  const image::Rect r{50, 40, 60, 30};
  auto region = server_.FetchImageRegion(5, 0, r);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_EQ(region->width(), 60);
  EXPECT_EQ(region->height(), 30);
  for (int y = 0; y < r.h; ++y) {
    for (int x = 0; x < r.w; ++x) {
      ASSERT_EQ(region->At(x, y), full.At(r.x + x, r.y + y))
          << x << "," << y;
    }
  }
}

TEST_F(ObjectServerTest, RegionFetchTransfersFewerBytes) {
  ASSERT_TRUE(server_.Store(ImageObject(5, 400, 300)).ok());
  link_.ResetStats();
  ASSERT_TRUE(server_.FetchImageRegion(5, 0, image::Rect{0, 0, 50, 50}).ok());
  const uint64_t region_bytes = link_.bytes_transferred();
  link_.ResetStats();
  ASSERT_TRUE(server_.FetchImage(5, 0).ok());
  const uint64_t full_bytes = link_.bytes_transferred();
  EXPECT_LT(region_bytes * 10, full_bytes);
}

TEST_F(ObjectServerTest, RegionFetchClipsToImage) {
  ASSERT_TRUE(server_.Store(ImageObject(5, 100, 100)).ok());
  auto region =
      server_.FetchImageRegion(5, 0, image::Rect{80, 80, 50, 50});
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->width(), 20);
  EXPECT_EQ(region->height(), 20);
}

TEST_F(ObjectServerTest, RegionFetchUnsupportedForGraphics) {
  MultimediaObject obj(6);
  image::GraphicsImage g(100, 100);
  image::GraphicsObject dot;
  dot.shape = image::ShapeKind::kPoint;
  dot.vertices = {{5, 5}};
  g.Add(dot);
  ASSERT_TRUE(
      obj.AddImage(image::Image::FromGraphics(std::move(g))).ok());
  VisualPageSpec page;
  page.images.push_back({0, image::Rect{}});
  obj.descriptor().pages.push_back(page);
  ASSERT_TRUE(obj.Archive().ok());
  ASSERT_TRUE(server_.Store(obj).ok());
  EXPECT_TRUE(server_.FetchImageRegion(6, 0, image::Rect{0, 0, 10, 10})
                  .status()
                  .IsUnsupported());
}

TEST_F(ObjectServerTest, FetchImagePartMissing) {
  ASSERT_TRUE(server_.Store(TextObject(1, "no images")).ok());
  EXPECT_TRUE(server_.FetchImage(1, 0).status().IsNotFound());
}

TEST_F(ObjectServerTest, ViewDefinedOnMiniatureFetchesMatchingRegion) {
  // §2: "When a view is defined on the representation image the system
  // has to transfer only the data of the view." Define a rectangle on
  // the miniature, map it to full-image coordinates, fetch that region —
  // it must match the same crop of the original.
  MultimediaObject obj = ImageObject(8, 256, 192);
  const image::Bitmap full = obj.images()[0].Render();
  ASSERT_TRUE(server_.Store(obj).ok());
  auto mini = image::Miniature::Build(obj.images()[0], 4);
  ASSERT_TRUE(mini.ok());
  const image::Rect on_mini{10, 8, 16, 12};
  const image::Rect on_full = mini->ToFullImage(on_mini);
  EXPECT_EQ(on_full, (image::Rect{40, 32, 64, 48}));
  auto region = server_.FetchImageRegion(8, 0, on_full);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(*region, full.SubBitmap(on_full));
}

TEST(LinkTest, TransferChargesClockAndCounts) {
  SimClock clock;
  Link link(1000000.0, MillisToMicros(1), &clock);  // 1 MB/s, 1 ms latency.
  StatusOr<Micros> t = link.Transfer(500000);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, MillisToMicros(1) + 500000);
  EXPECT_EQ(clock.Now(), *t);
  EXPECT_EQ(link.bytes_transferred(), 500000u);
  EXPECT_EQ(link.transfer_count(), 1u);
  link.ResetStats();
  EXPECT_EQ(link.bytes_transferred(), 0u);
}

TEST_F(ObjectServerTest, WorkstationQueryToPresentation) {
  ASSERT_TRUE(
      server_.Store(TextObject(1, "city hospital renovation memo")).ok());
  ASSERT_TRUE(
      server_.Store(TextObject(2, "hospital parking garage notes")).ok());
  ASSERT_TRUE(server_.Store(TextObject(3, "unrelated subject")).ok());

  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  obs::Counter* queries =
      obs::MetricsRegistry::Default().counter("server.queries");
  const int64_t queries_before = queries->value();
  auto browser = workstation.Query({"hospital", "memo"});
  ASSERT_TRUE(browser.ok());
  EXPECT_EQ(browser->size(), 2u);
  // One evaluation per word: the eager strip gathers the cards of the
  // ids it already has instead of evaluating the query again.
  EXPECT_EQ(queries->value(), queries_before + 2);

  // Sequential browsing: next / previous / select.
  auto first = browser->Current();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->id, 1u);
  ASSERT_TRUE(browser->Next().ok());
  EXPECT_TRUE(browser->Next().IsOutOfRange());
  ASSERT_TRUE(browser->Previous().ok());
  EXPECT_TRUE(browser->Previous().IsOutOfRange());
  auto selected = browser->Select();
  ASSERT_TRUE(selected.ok());
  ASSERT_TRUE(workstation.Present(*selected).ok());
  EXPECT_TRUE(workstation.presentation().is_open());
  EXPECT_NE(workstation.presentation().visual_browser(), nullptr);
}

TEST_F(ObjectServerTest, WorkstationEmptyQuery) {
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  auto browser = workstation.Query({"nothing"});
  ASSERT_TRUE(browser.ok());
  EXPECT_TRUE(browser->empty());
  EXPECT_TRUE(browser->Current().status().IsNotFound());
  EXPECT_TRUE(browser->Select().status().IsNotFound());
}

}  // namespace
}  // namespace minos::server

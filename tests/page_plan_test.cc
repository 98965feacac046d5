// The page-delivery core: PagePlan answers which bytes each page
// presents from the descriptor alone, DeferredBytes which bytes a
// skeleton fetch defers, and both front ends — the single-user
// Workstation and a SessionManager session — deliver pages under one
// rule: a page crosses the link whole the first time its reader lands
// on it, and revisits are free.

#include "minos/server/page_plan.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "minos/core/audio_browser.h"
#include "minos/core/visual_browser.h"
#include "minos/server/object_server.h"
#include "minos/server/workstation.h"
#include "minos/session/session_manager.h"
#include "minos/text/formatter.h"
#include "minos/text/markup.h"
#include "minos/voice/synthesizer.h"

namespace minos::server {
namespace {

using object::MultimediaObject;
using object::VisualPageSpec;

/// One single-server stack over an instant device and one link.
struct Stack {
  Stack()
      : device("optical", 65536, 512, storage::DeviceCostModel::Instant(),
               true, &clock),
        cache(256),
        archiver(&device, &cache),
        link(Link::Ethernet(&clock)),
        server(&archiver, &versions, &clock, &link) {}

  SimClock clock;
  storage::BlockDevice device;
  storage::BlockCache cache;
  storage::Archiver archiver;
  storage::VersionStore versions;
  Link link;
  ObjectServer server;
};

/// A `width` x `height` bitmap image with a position-dependent pattern.
image::Image Picture(int width, int height, int seed) {
  image::Bitmap bm(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      bm.Set(x, y, static_cast<uint8_t>((x * 7 + y * 3 + seed) % 251));
    }
  }
  return image::Image::FromBitmap(std::move(bm));
}

/// Sets a text part of `paragraphs` paragraphs and returns how many
/// pages it formats to.
size_t SetReportText(MultimediaObject* obj, int paragraphs) {
  obj->descriptor().layout.width = 48;
  obj->descriptor().layout.height = 12;
  std::string markup;
  for (int i = 0; i < paragraphs; ++i) {
    markup += ".PP\nadmission record paragraph describing the fracture "
              "treatment and recovery plan in enough words to spill "
              "across formatted pages\n";
  }
  text::MarkupParser parser;
  auto doc = parser.Parse(markup);
  EXPECT_TRUE(doc.ok());
  EXPECT_TRUE(obj->SetTextPart(std::move(doc).value()).ok());
  text::TextFormatter formatter(obj->descriptor().layout);
  return formatter.Paginate(obj->text_part()).value().size();
}

/// A paged report: one visual page per formatted text page, a bitmap on
/// every other page.
MultimediaObject ReportWithImages(storage::ObjectId id) {
  MultimediaObject obj(id);
  const size_t pages = SetReportText(&obj, 8);
  EXPECT_GE(pages, 3u);
  for (size_t i = 0; i < pages; ++i) {
    VisualPageSpec page;
    page.text_page = static_cast<uint32_t>(i + 1);
    if (i % 2 == 0) {
      const uint32_t index =
          obj.AddImage(Picture(96, 72, static_cast<int>(i))).value();
      page.images.push_back({index, image::Rect{180, 20, 96, 72}});
    }
    obj.descriptor().pages.push_back(page);
  }
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

/// An audio-mode object: a spoken report and no visual pages.
MultimediaObject AudioReport(storage::ObjectId id) {
  MultimediaObject obj(id);
  std::string markup;
  for (int i = 0; i < 6; ++i) {
    markup += ".PP\nThe patient was admitted with a fracture. Treatment "
              "began at once and recovery is expected within weeks.\n";
  }
  text::MarkupParser parser;
  auto doc = parser.Parse(markup);
  EXPECT_TRUE(doc.ok());
  voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
  auto track = synth.Synthesize(*doc);
  EXPECT_TRUE(track.ok());
  EXPECT_TRUE(
      obj.SetVoicePart(voice::VoiceDocument(std::move(track).value())).ok());
  obj.descriptor().driving_mode = object::DrivingMode::kAudio;
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

/// A transparency set over an x-ray: a titled base page, then one
/// overlay page per finding.
MultimediaObject TransparencySet(storage::ObjectId id, int transparencies) {
  MultimediaObject obj(id);
  obj.descriptor().layout.width = 48;
  obj.descriptor().layout.height = 12;
  text::MarkupParser parser;
  auto doc = parser.Parse(
      ".TITLE X-ray With Findings\n.PP\nEach transparency pinpoints one "
      "finding on the radiograph below.\n");
  EXPECT_TRUE(doc.ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  const uint32_t xray = obj.AddImage(Picture(260, 190, 0)).value();
  VisualPageSpec base;
  base.text_page = 1;
  base.images.push_back({xray, image::Rect{30, 90, 260, 190}});
  obj.descriptor().pages.push_back(base);
  object::TransparencySetSpec set;
  set.first_page = 1;
  set.count = static_cast<uint32_t>(transparencies);
  set.method = object::TransparencyDisplay::kStacked;
  for (int i = 0; i < transparencies; ++i) {
    const uint32_t overlay = obj.AddImage(Picture(260, 190, i + 1)).value();
    VisualPageSpec page;
    page.kind = VisualPageSpec::Kind::kTransparency;
    page.images.push_back({overlay, image::Rect{30, 90, 260, 190}});
    obj.descriptor().pages.push_back(page);
  }
  obj.descriptor().transparency_sets.push_back(set);
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

/// The descriptor as archived, whose part pointers carry the lengths.
object::ObjectDescriptor ArchivedDescriptor(const MultimediaObject& obj) {
  auto bytes = obj.SerializeArchived();
  EXPECT_TRUE(bytes.ok());
  auto archived = MultimediaObject::DeserializeArchived(obj.id(), *bytes);
  EXPECT_TRUE(archived.ok());
  return archived->descriptor();
}

/// A workstation that delivers only the page under the cursor.
std::unique_ptr<Workstation> DemandPagingWorkstation(Stack& stack,
                                                     render::Screen* screen) {
  auto ws = std::make_unique<Workstation>(&stack.server, screen,
                                          &stack.clock);
  PrefetchOptions options;
  options.pages_ahead = 0;
  options.pages_behind = 0;
  ws->EnablePrefetch(options);
  return ws;
}

// For each object shape, the deferral rule and the plan agree: the bytes
// a skeleton fetch defers are exactly the page bytes of one complete
// read-through, so a skeleton fetch followed by one delivery of every
// page moves the link bytes of a whole fetch.
TEST(PagePlanTest, SkeletonPlusEveryPageMovesTheWholeObject) {
  struct Shape {
    const char* name;
    MultimediaObject obj;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"report", ReportWithImages(1)});
  shapes.push_back({"audio", AudioReport(2)});
  shapes.push_back({"transparencies", TransparencySet(3, 3)});
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    Stack stack;
    const storage::ObjectId id = shape.obj.id();
    ASSERT_TRUE(stack.server.Store(shape.obj).ok());
    uint64_t before = stack.link.bytes_transferred();
    auto whole = stack.server.Fetch(id, FetchGranularity::kWhole);
    ASSERT_TRUE(whole.ok());
    const uint64_t whole_bytes = stack.link.bytes_transferred() - before;
    const object::ObjectDescriptor& desc = whole->descriptor();
    const bool audio = desc.driving_mode == object::DrivingMode::kAudio;

    render::Screen screen;
    std::unique_ptr<Workstation> ws = DemandPagingWorkstation(stack, &screen);
    before = stack.link.bytes_transferred();
    ASSERT_TRUE(ws->Present(id).ok());
    int pages = 0;
    if (audio) {
      core::AudioBrowser* browser = ws->presentation().audio_browser();
      ASSERT_NE(browser, nullptr);
      pages = browser->page_count();
      while (browser->NextPage().ok()) {
      }
    } else {
      core::VisualBrowser* browser = ws->presentation().visual_browser();
      ASSERT_NE(browser, nullptr);
      pages = browser->page_count();
      while (browser->NextPage().ok()) {
      }
    }
    ASSERT_GE(pages, 2);
    EXPECT_EQ(stack.link.bytes_transferred() - before, whole_bytes);

    const PagePlan plan(desc);
    uint64_t page_bytes = 0;
    for (int page = 1; page <= pages; ++page) {
      page_bytes += plan.Bytes(audio, page, pages);
    }
    EXPECT_GT(page_bytes, 0u);
    EXPECT_EQ(DeferredBytes(desc), page_bytes);
  }
}

TEST(PagePlanTest, RangesComeFromTheDescriptorPartLengths) {
  const object::ObjectDescriptor desc =
      ArchivedDescriptor(ReportWithImages(1));
  const PagePlan plan(desc);
  ASSERT_EQ(plan.page_count(), static_cast<int>(desc.pages.size()));
  const uint64_t text_len = desc.FindPart("text")->length;
  const std::vector<PageRange> first = plan.Ranges(false, 1, 0);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].part, "text");
  EXPECT_EQ(first[0].offset, 0u);
  EXPECT_EQ(first[0].length,
            ApportionStream(text_len, 1, plan.page_count()).second);
  EXPECT_EQ(first[1].part, "image:0");
  EXPECT_EQ(first[1].length, desc.FindPart("image:0")->length);
  EXPECT_EQ(plan.Ranges(false, 2, 0).size(), 1u);  // Text only.
  EXPECT_TRUE(plan.Ranges(false, 0, 0).empty());
  EXPECT_TRUE(plan.Ranges(false, plan.page_count() + 1, 0).empty());
  // A visual-mode object has no voice to apportion.
  EXPECT_TRUE(plan.Ranges(true, 1, 4).empty());
}

/// Three pages of text, one image placed on pages 1 and 2.
MultimediaObject SharedImageObject(storage::ObjectId id) {
  MultimediaObject obj(id);
  EXPECT_GE(SetReportText(&obj, 10), 3u);
  const uint32_t image = obj.AddImage(Picture(96, 72, 0)).value();
  for (uint32_t text_page = 1; text_page <= 3; ++text_page) {
    VisualPageSpec page;
    page.text_page = text_page;
    if (text_page <= 2) {
      page.images.push_back({image, image::Rect{180, 20, 96, 72}});
    }
    obj.descriptor().pages.push_back(page);
  }
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

// Both front ends follow one delivery rule: a page is delivered whole the
// first time the reader lands on it — so an image shown on two pages
// crosses the link with each — and a return visit transfers nothing.
TEST(PagePlanTest, WorkstationAndSessionDeliverPagesAlike) {
  const MultimediaObject obj = SharedImageObject(1);
  const object::ObjectDescriptor desc = ArchivedDescriptor(obj);
  const PagePlan plan(desc);
  const uint64_t text_len = desc.FindPart("text")->length;
  const uint64_t image_len = desc.FindPart("image:0")->length;
  ASSERT_GT(image_len, 0u);

  Stack ws_stack;
  Stack session_stack;
  ASSERT_TRUE(ws_stack.server.Store(obj).ok());
  ASSERT_TRUE(session_stack.server.Store(obj).ok());

  render::Screen screen;
  std::unique_ptr<Workstation> ws =
      DemandPagingWorkstation(ws_stack, &screen);
  session::SessionOptions options;
  options.prefetch_budget_bytes = 0;  // No speculation.
  session::SessionManager manager(&session_stack.server,
                                  &session_stack.clock, options);
  const session::SessionId reader = manager.Open("reader");

  auto pump = [&](session::SessionEvent event) {
    event.session = reader;
    const std::vector<session::SessionOutcome> out =
        manager.PumpEpoch({event});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].status.ok()) << out[0].status.ToString();
  };
  uint64_t last = ws_stack.link.bytes_transferred();
  auto step_bytes = [&]() {
    EXPECT_EQ(ws_stack.link.bytes_transferred(),
              session_stack.link.bytes_transferred());
    const uint64_t now = ws_stack.link.bytes_transferred();
    const uint64_t delta = now - last;
    last = now;
    return delta;
  };

  // Page 1: the skeleton, then page 1 with the image.
  ASSERT_TRUE(ws->Present(1).ok());
  core::VisualBrowser* browser = ws->presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  ASSERT_EQ(browser->page_count(), 3);
  session::SessionEvent open;
  open.kind = session::SessionEvent::Kind::kOpen;
  open.object = 1;
  pump(open);
  EXPECT_GT(step_bytes(), plan.Bytes(false, 1, 0));

  // Page 2 shows the same image: it crosses the link again.
  ASSERT_TRUE(browser->NextPage().ok());
  session::SessionEvent turn;
  turn.kind = session::SessionEvent::Kind::kPageTurn;
  turn.delta = 1;
  pump(turn);
  EXPECT_EQ(step_bytes(), ApportionStream(text_len, 2, 3).second + image_len);

  // Page 3: its text share only.
  ASSERT_TRUE(browser->NextPage().ok());
  pump(turn);
  EXPECT_EQ(step_bytes(), ApportionStream(text_len, 3, 3).second);

  // Back to page 1: already at the terminal, nothing moves.
  ASSERT_TRUE(browser->GotoPage(1).ok());
  session::SessionEvent jump;
  jump.kind = session::SessionEvent::Kind::kJump;
  jump.page = 1;
  pump(jump);
  EXPECT_EQ(step_bytes(), 0u);
}

}  // namespace
}  // namespace minos::server

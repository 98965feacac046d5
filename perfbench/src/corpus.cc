#include "corpus.h"

#include <cstdio>
#include <cstdlib>

#include "minos/image/graphics.h"
#include "minos/text/formatter.h"
#include "minos/text/markup.h"
#include "minos/voice/voice_document.h"

namespace perfbench {

using minos::Micros;
using minos::Random;
using minos::storage::ObjectId;
namespace image = minos::image;
namespace object = minos::object;
namespace text = minos::text;
namespace voice = minos::voice;

namespace {

/// Corpus generation must not fail: a broken input is a benchmark bug.
void Check(const minos::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "corpus: %s: %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

text::Document Parse(const std::string& markup) {
  text::MarkupParser parser;
  auto doc = parser.Parse(markup);
  Check(doc.status(), "markup");
  return std::move(doc).value();
}

}  // namespace

std::string VocabWord(uint64_t index) {
  static const char* const kSyllables[] = {"ka", "lo", "mi", "ru", "te",
                                           "sa", "no", "vi", "de", "pa",
                                           "zu", "fo", "ge", "bi", "tu",
                                           "re"};
  std::string word;
  uint64_t rest = index;
  do {
    word += kSyllables[rest % 16];
    rest /= 16;
  } while (rest != 0);
  return word + "x";  // Never collides with an English domain word.
}

uint64_t SkewedIndex(Random& rng, uint64_t vocab) {
  return (rng.Uniform(vocab) * rng.Uniform(vocab)) / vocab;
}

text::Document SeededReport(Random& rng, int paragraphs,
                            const std::string& topic, int chapter_every) {
  std::string markup = ".TITLE Field Report " + topic + " " +
                       std::to_string(rng.Uniform(100000)) + "\n";
  for (int i = 0; i < paragraphs; ++i) {
    if (i % chapter_every == 0) {
      markup += ".CHAPTER Part " + std::to_string(i / chapter_every + 1) +
                "\n";
    }
    markup += ".PP\n";
    for (int s = 0; s < 5; ++s) {
      markup += "Paragraph " + std::to_string(i) + " sentence " +
                std::to_string(s) + " discusses archived multimedia " +
                VocabWord(SkewedIndex(rng, 400)) + " objects and their " +
                VocabWord(SkewedIndex(rng, 400)) + " presentation. ";
    }
    markup += "\n";
  }
  return Parse(markup);
}

image::Image SeededBitmap(int width, int height, uint64_t salt) {
  image::Bitmap bm(width, height);
  const int cx = width / 2, cy = height / 2;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const double dx = static_cast<double>(x - cx) / (width / 2.0);
      const double dy = static_cast<double>(y - cy) / (height / 2.0);
      const double r = dx * dx + dy * dy;
      if (r < 1.0) {
        const int band = static_cast<int>(r * 12.0);
        bm.Set(x, y, band % 2 == 0 ? 90 : 40);
      }
    }
  }
  const int fx = static_cast<int>(salt % static_cast<uint64_t>(width / 2));
  const int fy = static_cast<int>((salt / 7) %
                                  static_cast<uint64_t>(height / 2));
  bm.FillRect(image::Rect{width / 4 + fx / 2, height / 4 + fy / 2,
                          width / 16 + 1, height / 16 + 1},
              230);
  return image::Image::FromBitmap(std::move(bm));
}

image::Image SeededMap(int width, int height, uint64_t salt) {
  image::GraphicsImage g(width, height);
  image::GraphicsObject line;
  line.shape = image::ShapeKind::kPolyline;
  line.vertices = {{0, height / 3},
                   {width / 3, height / 3},
                   {2 * width / 3, height / 2},
                   {width - 1, height / 2}};
  line.ink = 180;
  line.label = {image::LabelKind::kInvisible, "red line",
                {width / 3, height / 3}};
  g.Add(line);
  const char* const kStations[] = {"union station", "city hall",
                                   "market square", "harbour front"};
  for (int i = 0; i < 4; ++i) {
    image::GraphicsObject s;
    s.shape = image::ShapeKind::kCircle;
    const int x = (width / 5) * (i + 1);
    const int y = height / 4 + static_cast<int>((salt + i * 37) %
                                                static_cast<uint64_t>(
                                                    height / 2));
    s.vertices = {{x, y}};
    s.radius = 5;
    s.filled = true;
    s.label = {image::LabelKind::kVoice, kStations[i], {x + 8, y}};
    g.Add(s);
  }
  return image::Image::FromGraphics(std::move(g));
}

object::MultimediaObject PagedReport(ObjectId id, Random& rng,
                                     int paragraphs, int image_every,
                                     const std::string& topic,
                                     int chapter_every) {
  object::MultimediaObject obj(id);
  obj.descriptor().layout.width = 48;
  obj.descriptor().layout.height = 12;
  Check(obj.SetTextPart(
            SeededReport(rng, paragraphs, topic, chapter_every)),
        "text part");
  text::TextFormatter formatter(obj.descriptor().layout);
  auto paginated = formatter.Paginate(obj.text_part());
  Check(paginated.status(), "paginate");
  const size_t pages = paginated->size();
  for (size_t i = 0; i < pages; ++i) {
    object::VisualPageSpec page;
    page.text_page = static_cast<uint32_t>(i + 1);
    obj.descriptor().pages.push_back(page);
  }
  for (size_t i = 0; image_every > 0 && i < pages;
       i += static_cast<size_t>(image_every)) {
    auto index = obj.AddImage(SeededBitmap(96, 72, rng.Next64()));
    Check(index.status(), "image");
    object::PlacedImage placed;
    placed.image_index = *index;
    placed.placement = image::Rect{180, 20, 96, 72};
    obj.descriptor().pages[i].images.push_back(placed);
  }
  Check(obj.Archive(), "archive paged report");
  return obj;
}

object::MultimediaObject AudioTwin(ObjectId id, const text::Document& doc) {
  voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
  auto track = synth.Synthesize(doc);
  Check(track.status(), "synthesize");
  voice::VoiceDocument vdoc(std::move(track).value());
  vdoc.TagFromAlignment(doc, voice::EditingLevel::kFull);
  object::MultimediaObject audio(id);
  audio.descriptor().driving_mode = object::DrivingMode::kAudio;
  Check(audio.SetVoicePart(std::move(vdoc)), "voice part");
  Check(audio.Archive(), "archive audio twin");
  return audio;
}

voice::VoiceTrack SpeakText(const std::string& words) {
  voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
  auto track = synth.Synthesize(Parse(".PP\n" + words + "\n"));
  Check(track.status(), "synthesize append");
  return std::move(track).value();
}

ShardStack::ShardStack(minos::SimClock* clock,
                       minos::storage::DeviceCostModel cost,
                       uint64_t device_blocks, size_t cache_blocks)
    : device("shard", device_blocks, 512, cost, /*write_once=*/true, clock),
      cache(cache_blocks),
      archiver(&device, &cache),
      link(minos::server::Link::Ethernet(clock)),
      server(&archiver, &versions, clock, &link) {}

Fabric::Fabric(size_t shards, int replication,
               minos::storage::DeviceCostModel cost, uint64_t device_blocks,
               size_t cache_blocks, int workers) {
  std::vector<minos::server::ObjectServer*> servers;
  for (size_t i = 0; i < shards; ++i) {
    stacks.push_back(std::make_unique<ShardStack>(&clock, cost,
                                                  device_blocks,
                                                  cache_blocks));
    servers.push_back(&stacks.back()->server);
  }
  minos::server::ShardRouterOptions options;
  options.replication = replication;
  router = std::make_unique<minos::server::ShardRouter>(
      servers, &clock,
      [](ObjectId id, size_t count) {
        return static_cast<size_t>((id - 1) % count);
      },
      options);
  if (workers > 0) {
    pool = std::make_unique<minos::runtime::TaskPool>(&clock, workers);
    router->SetTaskPool(pool.get());
  }
}

void DeviceTotals::Add(const minos::storage::BlockDevice& device) {
  const minos::storage::DeviceStats& s = device.stats();
  blocks_read += s.blocks_read;
  blocks_written += s.blocks_written;
  seeks += s.seeks;
  busy_us += s.busy_time;
  block_size = device.block_size();
}

void DeviceTotals::Add(const DeviceTotals& other) {
  blocks_read += other.blocks_read;
  blocks_written += other.blocks_written;
  seeks += other.seeks;
  busy_us += other.busy_us;
  if (other.block_size != 0) block_size = other.block_size;
}

}  // namespace perfbench

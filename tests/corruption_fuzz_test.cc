// Property tests: decoders must never crash and must either fail cleanly
// or produce a structurally valid object, for every single-byte
// corruption and truncation of a valid archive. The archiver must serve
// any read pattern consistently with an in-memory reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "minos/object/multimedia_object.h"
#include "minos/object/part_codec.h"
#include "minos/obs/metrics.h"
#include "minos/server/fault.h"
#include "minos/server/object_server.h"
#include "minos/server/repair.h"
#include "minos/storage/archiver.h"
#include "minos/storage/block_cache.h"
#include "minos/storage/composition_file.h"
#include "minos/text/markup.h"
#include "minos/util/coding.h"
#include "minos/util/random.h"
#include "minos/voice/synthesizer.h"

namespace minos {
namespace {

object::MultimediaObject ReferenceObject() {
  object::MultimediaObject obj(77);
  text::MarkupParser parser;
  auto doc = parser.Parse(
      ".TITLE Fuzz Target\n.CHAPTER One\n.PP\nSome *styled* body text "
      "with a few words. Another sentence.\n");
  EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  image::Bitmap bm(24, 16);
  bm.FillRect(image::Rect{2, 2, 8, 8}, 99);
  EXPECT_TRUE(obj.AddImage(image::Image::FromBitmap(std::move(bm))).ok());
  object::VisualPageSpec page;
  page.text_page = 1;
  page.images.push_back({0, image::Rect{1, 2, 20, 10}});
  obj.descriptor().pages.push_back(page);
  object::VoiceLogicalMessage m;
  m.transcript = "fuzzed note";
  m.text_anchor = object::TextAnchor{3, 9};
  obj.descriptor().voice_messages.push_back(m);
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

/// An audio-mode object with a voice part of a few hundred samples, so
/// the sweeps below reach every voice field, PCM included.
object::MultimediaObject AudioReferenceObject() {
  object::MultimediaObject obj(78);
  text::Document doc;
  doc.AppendText("Spoken memo here.");
  doc.AddComponentSpan({text::LogicalUnit::kParagraph, {0, 17}, ""});
  voice::VoiceTrack track;
  track.pcm = voice::PcmBuffer(8000);
  for (int i = 0; i < 300; ++i) {
    track.pcm.Push(static_cast<int16_t>((i % 50 - 25) * 1201));
  }
  track.words = {{"spoken", 0, {0, 90}},
                 {"memo", 7, {120, 200}},
                 {"here", 12, {230, 300}}};
  track.silences = {{{90, 120}, 0}, {{200, 230}, 0}};
  voice::VoiceDocument vdoc(std::move(track));
  vdoc.TagComponent(text::LogicalUnit::kParagraph, {0, 300}, "memo");
  EXPECT_TRUE(obj.SetVoicePart(std::move(vdoc)).ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc)).ok());
  obj.descriptor().driving_mode = object::DrivingMode::kAudio;
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

/// The two reference objects every decode sweep runs over.
std::vector<object::MultimediaObject> SweepObjects() {
  std::vector<object::MultimediaObject> objs;
  objs.push_back(ReferenceObject());
  objs.push_back(AudioReferenceObject());
  return objs;
}

/// Archive images of ReferenceObject() with one part pointer whose
/// offset + length wraps past 2^64 back into range: first in the
/// composition catalog, then in the descriptor (which carries no CRC).
std::vector<std::string> WrappingPointerImages() {
  const std::string bytes = ReferenceObject().SerializeArchived().value();
  Decoder dec(bytes);
  std::string desc_bytes;
  EXPECT_TRUE(dec.GetLengthPrefixed(&desc_bytes).ok());
  const size_t comp_at = bytes.size() - dec.remaining();
  auto desc = object::ObjectDescriptor::Deserialize(desc_bytes).value();
  auto comp =
      storage::CompositionFile::Deserialize(bytes.substr(comp_at)).value();

  std::string forged_catalog = bytes.substr(0, comp_at);
  PutVarint64(&forged_catalog, comp.part_count());
  for (const storage::CompositionFile::Part& p : comp.parts()) {
    const bool forge = p.name == "text";
    PutLengthPrefixed(&forged_catalog, p.name);
    forged_catalog.push_back(static_cast<char>(p.type));
    PutVarint64(&forged_catalog, forge ? UINT64_MAX : p.offset);
    PutVarint64(&forged_catalog, forge ? 2 : p.length);
  }
  PutLengthPrefixed(&forged_catalog, comp.raw_data());

  for (object::PartPointer& p : desc.parts) {
    if (p.name == "text") {
      p.offset = UINT64_MAX;
      p.length = 2;
    }
  }
  std::string forged_descriptor;
  PutLengthPrefixed(&forged_descriptor, desc.Serialize());
  forged_descriptor += bytes.substr(comp_at);
  return {forged_catalog, forged_descriptor};
}

TEST(CorruptionFuzzTest, EveryTruncationFailsCleanly) {
  for (const object::MultimediaObject& obj : SweepObjects()) {
    const std::string bytes = obj.SerializeArchived().value();
    for (size_t cut = 0; cut < bytes.size(); cut += 3) {
      auto decoded = object::MultimediaObject::DeserializeArchived(
          obj.id(), std::string_view(bytes).substr(0, cut));
      // Must not crash; almost always an error. If a prefix happens to
      // decode, it must be structurally sound.
      if (decoded.ok()) {
        EXPECT_EQ(decoded->state(), object::ObjectState::kArchived);
      }
    }
  }
}

TEST(CorruptionFuzzTest, SingleByteFlipsNeverCrash) {
  for (const object::MultimediaObject& obj : SweepObjects()) {
    const std::string bytes = obj.SerializeArchived().value();
    Random rng(2024);
    for (int trial = 0; trial < 400; ++trial) {
      std::string mutated = bytes;
      const size_t pos = rng.Uniform(mutated.size());
      mutated[pos] = static_cast<char>(rng.Next64());
      auto decoded =
          object::MultimediaObject::DeserializeArchived(obj.id(), mutated);
      if (decoded.ok()) {
        // A surviving decode must be internally consistent: anchors and
        // image references may be wild, but reading the parts must work.
        if (decoded->has_text()) {
          EXPECT_LE(decoded->text_part().size(), mutated.size());
        }
        if (decoded->has_voice()) {
          EXPECT_LE(2 * decoded->voice_part().pcm().size(), mutated.size());
        }
        for (const auto& img : decoded->images()) {
          EXPECT_GE(img.width(), 0);
          EXPECT_GE(img.height(), 0);
        }
      }
    }
  }
}

TEST(CorruptionFuzzTest, WrappingPartPointersFailWithAStatus) {
  // Both decoders must answer a wrapping pointer with a status, never
  // an exception out of the substring it would have taken.
  for (const std::string& forged : WrappingPointerImages()) {
    object::MultimediaObject::PartSalvageReport report;
    for (const Status& status :
         {object::MultimediaObject::DeserializeArchived(77, forged).status(),
          object::MultimediaObject::DeserializeArchivedLenient(77, forged,
                                                               &report)
              .status()}) {
      EXPECT_TRUE(status.IsCorruption() || status.IsOutOfRange())
          << status.ToString();
    }
  }
}

TEST(CorruptionFuzzTest, InjectorWireFlipsNeverCrashEitherDecoder) {
  // The same property under the fault injector's corruption model: its
  // seeded byte flips (what the fetch path actually sees on the wire)
  // must never crash the strict or the lenient decoder, and whenever the
  // strict decode rejects the payload, the checksummed parts guarantee a
  // Corruption (not a structurally confused success elsewhere).
  const object::MultimediaObject obj = ReferenceObject();
  const std::string bytes = obj.SerializeArchived().value();
  SimClock clock;
  obs::MetricsRegistry reg;
  server::FaultProfile profile;
  profile.corrupt_rate = 1.0;
  server::FaultInjector injector(profile, 0xBADBEEF, &clock, &reg);
  for (int trial = 0; trial < 400; ++trial) {
    std::string wire = bytes;
    ASSERT_TRUE(injector.MaybeCorrupt(&wire));
    auto strict = object::MultimediaObject::DeserializeArchived(77, wire);
    object::MultimediaObject::PartSalvageReport report;
    auto lenient = object::MultimediaObject::DeserializeArchivedLenient(
        77, wire, &report);
    if (strict.ok()) {
      EXPECT_EQ(strict->state(), object::ObjectState::kArchived);
    }
    // Lenient decoding never does worse than strict decoding.
    if (strict.ok()) {
      EXPECT_TRUE(lenient.ok());
    }
    if (lenient.ok() && report.degraded()) {
      // A salvage dropped parts; the object must still be presentable.
      EXPECT_TRUE(lenient->has_text() || !lenient->images().empty());
    }
  }
}

TEST(CorruptionFuzzTest, DescriptorFlipsNeverCrash) {
  object::ObjectDescriptor desc = ReferenceObject().descriptor();
  const std::string bytes = desc.Serialize();
  Random rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = bytes;
    mutated[rng.Uniform(mutated.size())] = static_cast<char>(rng.Next64());
    auto decoded = object::ObjectDescriptor::Deserialize(mutated);
    (void)decoded;  // Either ok or an error; never a crash.
  }
}

TEST(CorruptionFuzzTest, VoiceDocumentFlipsNeverCrash) {
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\nshort spoken words here\n");
  ASSERT_TRUE(doc.ok());
  voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
  voice::VoiceDocument vdoc(synth.Synthesize(*doc).value());
  const std::string bytes = object::EncodeVoiceDocument(vdoc);
  Random rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = bytes;
    // Flip in the header region where structure lives (the sample data
    // dominates the tail and flips there are uninteresting).
    mutated[rng.Uniform(std::min<size_t>(mutated.size(), 64))] =
        static_cast<char>(rng.Next64());
    auto decoded = object::DecodeVoiceDocument(mutated);
    (void)decoded;
  }
}

server::CatalogDigest ReferenceDigest() {
  server::CatalogDigest digest;
  for (storage::ObjectId id = 2; id <= 40; id += 2) {
    server::DigestEntry e;
    e.id = id;
    e.version = static_cast<uint32_t>(1 + id % 5);
    e.content_crc = static_cast<uint32_t>(0xC0DE0000u + id);
    digest.entries.push_back(e);
  }
  return digest;
}

TEST(CorruptionFuzzTest, CatalogDigestTruncationSweepFailsCleanly) {
  // Repair digests travel shard-to-shard like archive bytes travel to
  // the workstation: every strict prefix must be rejected — the
  // trailing document checksum cannot survive a cut.
  const std::string wire = ReferenceDigest().Serialize();
  ASSERT_TRUE(server::CatalogDigest::Deserialize(wire).ok());
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    auto parsed = server::CatalogDigest::Deserialize(
        std::string_view(wire).substr(0, cut));
    EXPECT_FALSE(parsed.ok()) << "truncation at " << cut << " parsed";
  }
}

TEST(CorruptionFuzzTest, CatalogDigestMutationsNeverPassQuietly) {
  // Random multi-byte damage anywhere in the wire document — header,
  // entries, trailer — must be rejected, never crash, and never yield
  // a digest that quietly drives repair decisions.
  const std::string wire = ReferenceDigest().Serialize();
  Random rng(0xD16E57);
  for (int trial = 0; trial < 600; ++trial) {
    std::string mutated = wire;
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    bool changed = false;
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(mutated.size());
      const char value = static_cast<char>(rng.Next64());
      changed = changed || mutated[pos] != value;
      mutated[pos] = value;
    }
    if (!changed) continue;
    EXPECT_FALSE(server::CatalogDigest::Deserialize(mutated).ok());
  }
  // Arbitrary garbage is rejected too, whatever its length.
  for (int trial = 0; trial < 100; ++trial) {
    std::string garbage(rng.Uniform(64), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next64());
    auto parsed = server::CatalogDigest::Deserialize(garbage);
    if (parsed.ok()) {
      // Only the genuine empty document may parse by chance.
      EXPECT_TRUE(parsed->entries.empty());
    }
  }
}

TEST(CorruptionFuzzTest, FuzzedReplicaIngestIsAtomicAndNeverDestructive) {
  // AcceptReplica is the door damage would walk through: for every
  // mutated payload it must either reject without cataloging anything,
  // or ingest a replica the server can actually serve — never a
  // half-ingested or unservable state.
  SimClock clock;
  storage::BlockDevice device("fuzz", 65536, 512,
                              storage::DeviceCostModel::Instant(), true,
                              &clock);
  storage::BlockCache cache(256);
  storage::Archiver archiver(&device, &cache);
  storage::VersionStore versions;
  server::Link link = server::Link::Ethernet(&clock);
  server::ObjectServer server(&archiver, &versions, &clock, &link);

  const object::MultimediaObject obj = ReferenceObject();
  const std::string bytes = obj.SerializeArchived().value();
  Random rng(0xFEED);
  size_t held = server.object_count();
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Next64());
    auto accepted = server.AcceptReplica(77, 1, mutated);
    if (!accepted.ok()) {
      // Rejected: the catalog must be exactly as before.
      EXPECT_EQ(server.object_count(), held);
      continue;
    }
    if (*accepted) {
      // Survived strict validation and was (re)ingested: the server
      // must serve it back whole.
      held = server.object_count();
      EXPECT_EQ(held, 1u);
      EXPECT_TRUE(server.ReadObjectBytes(77).ok());
    }
  }
  // Wrapping part pointers are rejected like any other damage.
  for (const std::string& forged : WrappingPointerImages()) {
    auto accepted = server.AcceptReplica(77, 1, forged);
    EXPECT_TRUE(accepted.status().IsCorruption() ||
                accepted.status().IsOutOfRange())
        << accepted.status().ToString();
    EXPECT_EQ(server.object_count(), held);
  }
  // The pristine replica always lands, whatever the fuzz left behind.
  auto accepted = server.AcceptReplica(77, 2, bytes);
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(*accepted);
  EXPECT_TRUE(server.Fetch(77).ok());
}

TEST(ArchiverPropertyTest, RandomAppendsReadBackExactly) {
  SimClock clock;
  storage::BlockDevice device("d", 4096, 32,
                              storage::DeviceCostModel::Instant(), true,
                              &clock);
  storage::BlockCache cache(8);
  storage::Archiver archiver(&device, &cache);
  Random rng(5);
  std::string reference;  // The logical byte stream.
  std::vector<storage::ArchiveAddress> addrs;
  for (int i = 0; i < 60; ++i) {
    const size_t len = 1 + rng.Uniform(200);
    std::string payload;
    for (size_t b = 0; b < len; ++b) {
      payload.push_back(static_cast<char>(rng.Next64()));
    }
    if (rng.Bernoulli(0.2)) {
      ASSERT_TRUE(archiver.Flush().ok());
      reference.resize(archiver.size(), '\0');  // Flush pads the block.
    }
    auto addr = archiver.Append(payload);
    ASSERT_TRUE(addr.ok());
    ASSERT_EQ(addr->offset, reference.size());
    reference += payload;
    addrs.push_back(*addr);
  }
  // Whole-record reads.
  Random pick(6);
  for (int i = 0; i < 60; ++i) {
    const auto& addr = addrs[pick.Uniform(addrs.size())];
    std::string out;
    ASSERT_TRUE(archiver.Read(addr, &out).ok());
    EXPECT_EQ(out, reference.substr(addr.offset, addr.length));
  }
  // Arbitrary range reads.
  for (int i = 0; i < 60; ++i) {
    const uint64_t off = pick.Uniform(reference.size());
    const uint64_t len = pick.Uniform(reference.size() - off + 1);
    std::string out;
    ASSERT_TRUE(archiver.ReadRange(off, len, &out).ok());
    EXPECT_EQ(out, reference.substr(off, len));
  }
}

TEST(MarkupPropertyTest, RandomMarkupNeverCrashesParser) {
  Random rng(31337);
  const char* pieces[] = {".TITLE x\n", ".CHAPTER y\n", ".SECTION z\n",
                          ".PP\n",      ".ABSTRACT\n",  ".REFERENCES\n",
                          "word ",      "*bold* ",      "_under_ ",
                          "\n",         "sentence. ",   "/tilt/ "};
  for (int trial = 0; trial < 300; ++trial) {
    std::string markup;
    const int n = 1 + static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < n; ++i) {
      markup += pieces[rng.Uniform(std::size(pieces))];
    }
    text::MarkupParser parser;
    auto doc = parser.Parse(markup);
    if (doc.ok()) {
      // Structural sanity: every component span within bounds.
      for (int u = 0; u < 8; ++u) {
        for (const auto& c :
             doc->Components(static_cast<text::LogicalUnit>(u))) {
          EXPECT_LE(c.span.begin, c.span.end);
          EXPECT_LE(c.span.end, doc->size());
        }
      }
    }
  }
}

}  // namespace
}  // namespace minos

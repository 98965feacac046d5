#include "minos/object/multimedia_object.h"

#include <gtest/gtest.h>

#include "minos/object/part_codec.h"
#include "minos/text/markup.h"
#include "minos/util/coding.h"
#include "minos/voice/synthesizer.h"

namespace minos::object {
namespace {

text::Document MakeDoc() {
  text::MarkupParser parser;
  auto doc = parser.Parse(
      ".TITLE Patient Record\n.CHAPTER Findings\n.PP\n"
      "The x-ray shows a hairline fracture near the joint. Follow up in "
      "two weeks.\n");
  EXPECT_TRUE(doc.ok());
  return std::move(doc).value();
}

voice::VoiceDocument MakeVoice(const text::Document& doc) {
  voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
  auto track = synth.Synthesize(doc);
  EXPECT_TRUE(track.ok());
  voice::VoiceDocument vdoc(std::move(track).value());
  vdoc.TagFromAlignment(doc, voice::EditingLevel::kParagraphs);
  return vdoc;
}

image::Image MakeXray() {
  image::Bitmap bm(64, 64);
  bm.FillRect(image::Rect{20, 20, 24, 24}, 180);
  return image::Image::FromBitmap(std::move(bm));
}

MultimediaObject MakeFullObject() {
  MultimediaObject obj(42);
  EXPECT_TRUE(obj.SetAttribute("patient", "John Doe").ok());
  EXPECT_TRUE(obj.SetAttribute("modality", "xray chest").ok());
  text::Document doc = MakeDoc();
  voice::VoiceDocument vdoc = MakeVoice(doc);
  EXPECT_TRUE(obj.SetVoicePart(std::move(vdoc)).ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc)).ok());
  EXPECT_TRUE(obj.AddImage(MakeXray()).ok());
  VisualPageSpec page;
  page.kind = VisualPageSpec::Kind::kNormal;
  page.text_page = 1;
  obj.descriptor().pages.push_back(page);
  return obj;
}

TEST(PartCodecTest, DocumentRoundTrip) {
  const text::Document doc = MakeDoc();
  auto restored = DecodeDocument(EncodeDocument(doc));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->contents(), doc.contents());
  for (int u = 0; u < 8; ++u) {
    const auto unit = static_cast<text::LogicalUnit>(u);
    ASSERT_EQ(restored->Components(unit).size(),
              doc.Components(unit).size());
    for (size_t i = 0; i < doc.Components(unit).size(); ++i) {
      EXPECT_EQ(restored->Components(unit)[i].span,
                doc.Components(unit)[i].span);
      EXPECT_EQ(restored->Components(unit)[i].title,
                doc.Components(unit)[i].title);
    }
  }
}

TEST(PartCodecTest, DocumentRejectsOutOfBoundsSpan) {
  text::Document doc;
  doc.AppendText("short");
  doc.AddComponentSpan(
      {text::LogicalUnit::kChapter, text::TextSpan{0, 999}, "bad"});
  const std::string bytes = EncodeDocument(doc);
  EXPECT_TRUE(DecodeDocument(bytes).status().IsCorruption());
}

TEST(PartCodecTest, VoiceDocumentRoundTrip) {
  const text::Document doc = MakeDoc();
  voice::VoiceDocument vdoc = MakeVoice(doc);
  auto restored = DecodeVoiceDocument(EncodeVoiceDocument(vdoc));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->pcm().samples(), vdoc.pcm().samples());
  EXPECT_EQ(restored->pcm().sample_rate(), vdoc.pcm().sample_rate());
  ASSERT_EQ(restored->track().words.size(), vdoc.track().words.size());
  EXPECT_EQ(restored->track().words[3].word, vdoc.track().words[3].word);
  EXPECT_EQ(restored->track().silences.size(),
            vdoc.track().silences.size());
  EXPECT_EQ(
      restored->Components(text::LogicalUnit::kParagraph).size(),
      vdoc.Components(text::LogicalUnit::kParagraph).size());
}

TEST(PartCodecTest, AttributesRoundTrip) {
  AttributeMap attrs{{"a", "1"}, {"b", "two"}};
  auto restored = DecodeAttributes(EncodeAttributes(attrs));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, attrs);
}

TEST(MultimediaObjectTest, StartsInEditingState) {
  MultimediaObject obj(1);
  EXPECT_EQ(obj.state(), ObjectState::kEditing);
  EXPECT_EQ(obj.id(), 1u);
}

TEST(MultimediaObjectTest, AttributesReadableAndMissing) {
  MultimediaObject obj = MakeFullObject();
  auto v = obj.GetAttribute("patient");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "John Doe");
  EXPECT_TRUE(obj.GetAttribute("age").status().IsNotFound());
}

TEST(MultimediaObjectTest, ArchivedObjectRejectsModification) {
  MultimediaObject obj = MakeFullObject();
  ASSERT_TRUE(obj.Archive().ok());
  EXPECT_EQ(obj.state(), ObjectState::kArchived);
  EXPECT_TRUE(obj.SetAttribute("x", "y").IsFailedPrecondition());
  EXPECT_TRUE(obj.SetTextPart(MakeDoc()).IsFailedPrecondition());
  EXPECT_TRUE(obj.AddImage(MakeXray()).status().IsFailedPrecondition());
  EXPECT_TRUE(obj.Archive().IsFailedPrecondition());  // Double archive.
}

TEST(MultimediaObjectTest, ValidationCatchesMissingImage) {
  MultimediaObject obj = MakeFullObject();
  obj.descriptor().pages[0].images.push_back({9, image::Rect{}});
  EXPECT_TRUE(obj.Archive().IsInvalidArgument());
}

TEST(MultimediaObjectTest, ValidationCatchesBadTextAnchor) {
  MultimediaObject obj = MakeFullObject();
  VoiceLogicalMessage m;
  m.transcript = "note";
  m.text_anchor = TextAnchor{0, 100000};
  obj.descriptor().voice_messages.push_back(m);
  EXPECT_TRUE(obj.Archive().IsInvalidArgument());
}

TEST(MultimediaObjectTest, ValidationCatchesBadVoiceAnchor) {
  MultimediaObject obj = MakeFullObject();
  VisualLogicalMessage m;
  m.voice_anchors.push_back(VoiceAnchor{0, 1ULL << 60});
  obj.descriptor().visual_messages.push_back(m);
  EXPECT_TRUE(obj.Archive().IsInvalidArgument());
}

TEST(MultimediaObjectTest, ValidationCatchesBadTransparencySet) {
  MultimediaObject obj = MakeFullObject();
  obj.descriptor().transparency_sets.push_back(
      {0, 1, TransparencyDisplay::kStacked});
  // Page 0 is kNormal, not a transparency.
  EXPECT_TRUE(obj.Archive().IsInvalidArgument());
}

TEST(MultimediaObjectTest, ValidationCatchesBadProcessRange) {
  MultimediaObject obj = MakeFullObject();
  ProcessSimulationSpec sim;
  sim.first_page = 0;
  sim.count = 99;
  obj.descriptor().process_simulations.push_back(sim);
  EXPECT_TRUE(obj.Archive().IsInvalidArgument());
}

TEST(MultimediaObjectTest, ValidationAudioModeNeedsVoice) {
  MultimediaObject obj(5);
  text::Document doc = MakeDoc();
  ASSERT_TRUE(obj.SetTextPart(std::move(doc)).ok());
  obj.descriptor().driving_mode = DrivingMode::kAudio;
  EXPECT_TRUE(obj.Archive().IsInvalidArgument());
}

TEST(MultimediaObjectTest, ValidationCatchesBadTour) {
  MultimediaObject obj = MakeFullObject();
  ObjectDescriptor::TourSpec tour;
  tour.image_index = 7;
  obj.descriptor().tours.push_back(tour);
  EXPECT_TRUE(obj.Archive().IsInvalidArgument());
}

TEST(MultimediaObjectTest, SerializeRequiresArchivedState) {
  MultimediaObject obj = MakeFullObject();
  EXPECT_TRUE(obj.SerializeArchived().status().IsFailedPrecondition());
}

TEST(MultimediaObjectTest, ArchivalRoundTrip) {
  MultimediaObject obj = MakeFullObject();
  ASSERT_TRUE(obj.Archive().ok());
  auto bytes = obj.SerializeArchived();
  ASSERT_TRUE(bytes.ok());
  auto restored = MultimediaObject::DeserializeArchived(42, *bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->state(), ObjectState::kArchived);
  EXPECT_EQ(restored->id(), 42u);
  EXPECT_EQ(restored->attributes().size(), 2u);
  ASSERT_TRUE(restored->has_text());
  EXPECT_EQ(restored->text_part().contents(), obj.text_part().contents());
  ASSERT_TRUE(restored->has_voice());
  EXPECT_EQ(restored->voice_part().pcm().size(),
            obj.voice_part().pcm().size());
  ASSERT_EQ(restored->images().size(), 1u);
  EXPECT_EQ(restored->images()[0].Render().Digest(),
            obj.images()[0].Render().Digest());
  EXPECT_EQ(restored->descriptor().pages.size(), 1u);
}

// --- Pinned archive images ---------------------------------------------
//
// Built field by field (no markup parser, no synthesizer), so the bytes
// depend on nothing but the archival format. The pinned lengths and
// CRC-32s were taken from the encoder before the decode moved to views;
// any change to a byte on the medium fails here.

/// An audio-mode object: PCM with negative and positive samples, word
/// alignments, silences, tagged voice components and a voice message.
MultimediaObject GoldenAudioObject() {
  MultimediaObject obj(101);
  EXPECT_TRUE(obj.SetAttribute("ward", "north 3").ok());
  text::Document doc;
  doc.AppendText("Pulse steady. Discharge tomorrow.");
  doc.AddComponentSpan({text::LogicalUnit::kParagraph, {0, 33}, ""});
  doc.AddComponentSpan({text::LogicalUnit::kSentence, {0, 13}, ""});
  doc.AddComponentSpan({text::LogicalUnit::kSentence, {14, 33}, ""});
  voice::VoiceTrack track;
  track.pcm = voice::PcmBuffer(8000);
  for (int i = 0; i < 480; ++i) {
    track.pcm.Push(static_cast<int16_t>((i % 64 - 32) * 997));
  }
  track.words = {{"pulse", 0, {0, 90}},
                 {"steady", 6, {110, 200}},
                 {"discharge", 14, {260, 380}},
                 {"tomorrow", 24, {400, 480}}};
  track.silences = {{{90, 110}, 0}, {{200, 260}, 1}, {{380, 400}, 0}};
  voice::VoiceDocument vdoc(std::move(track));
  vdoc.TagComponent(text::LogicalUnit::kParagraph, {0, 480}, "round");
  vdoc.TagComponent(text::LogicalUnit::kSentence, {0, 200}, "");
  vdoc.TagComponent(text::LogicalUnit::kSentence, {260, 480}, "");
  EXPECT_TRUE(obj.SetVoicePart(std::move(vdoc)).ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc)).ok());
  obj.descriptor().driving_mode = DrivingMode::kAudio;
  VoiceLogicalMessage m;
  m.transcript = "listen";
  m.voice_anchor = VoiceAnchor{200, 200};
  obj.descriptor().voice_messages.push_back(m);
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

/// A two-page visual report: a chapter with emphasis, and an image
/// placed on the first page.
MultimediaObject GoldenReportObject() {
  MultimediaObject obj(102);
  EXPECT_TRUE(obj.SetAttribute("kind", "report").ok());
  text::Document doc;
  doc.AppendText("Findings\nA hairline fracture. Review in two weeks.\n");
  doc.AddComponentSpan({text::LogicalUnit::kChapter, {0, 51}, "Findings"});
  doc.AddComponentSpan({text::LogicalUnit::kParagraph, {9, 51}, ""});
  doc.AddEmphasis({{11, 19}, text::Emphasis::kBold});
  EXPECT_TRUE(obj.SetTextPart(std::move(doc)).ok());
  image::Bitmap bm(40, 30);
  bm.FillRect(image::Rect{5, 5, 12, 10}, 200);
  bm.FillRect(image::Rect{20, 12, 15, 14}, 90);
  EXPECT_TRUE(obj.AddImage(image::Image::FromBitmap(std::move(bm))).ok());
  VisualPageSpec first;
  first.text_page = 1;
  first.images.push_back({0, image::Rect{2, 3, 40, 30}});
  VisualPageSpec second;
  second.text_page = 2;
  obj.descriptor().pages = {first, second};
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

TEST(ArchivalGoldenTest, ArchiveImagesArePinnedAndRoundTripExactly) {
  struct Golden {
    MultimediaObject obj;
    size_t length;
    uint32_t crc;
  };
  const Golden goldens[] = {{GoldenAudioObject(), 1230, 0x3211d195u},
                            {GoldenReportObject(), 1401, 0x6be45148u}};
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.obj.id());
    auto bytes = g.obj.SerializeArchived();
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes->size(), g.length);
    EXPECT_EQ(Crc32(*bytes), g.crc);
    auto decoded = MultimediaObject::DeserializeArchived(g.obj.id(), *bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    auto again = decoded->SerializeArchived();
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(*again == *bytes);
  }
}

TEST(MultimediaObjectTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(MultimediaObject::DeserializeArchived(1, "garbage").ok());
  EXPECT_FALSE(MultimediaObject::DeserializeArchived(1, "").ok());
}

}  // namespace
}  // namespace minos::object

#include "minos/object/part_codec.h"

#include "minos/util/coding.h"

namespace minos::object {

namespace {

constexpr int kUnitCount = 8;

void PutSpan(std::string* out, size_t begin, size_t end) {
  PutVarint64(out, begin);
  PutVarint64(out, end);
}

Status GetSpan(Decoder* dec, size_t* begin, size_t* end) {
  uint64_t b = 0, e = 0;
  MINOS_RETURN_IF_ERROR(dec->GetVarint64(&b));
  MINOS_RETURN_IF_ERROR(dec->GetVarint64(&e));
  *begin = static_cast<size_t>(b);
  *end = static_cast<size_t>(e);
  return Status::OK();
}

/// Appends the part checksum: CRC-32 of everything encoded so far.
void AppendPartCrc(std::string* out) { PutFixed32(out, Crc32(*out)); }

/// Verifies and strips the trailing part checksum before decoding.
Status CheckAndStripPartCrc(std::string_view* bytes) {
  if (bytes->size() < 4) {
    return Status::Corruption("part too short to carry its checksum");
  }
  const std::string_view body = bytes->substr(0, bytes->size() - 4);
  Decoder tail(bytes->substr(bytes->size() - 4));
  uint32_t stored = 0;
  MINOS_RETURN_IF_ERROR(tail.GetFixed32(&stored));
  if (Crc32(body) != stored) {
    return Status::Corruption("part checksum mismatch");
  }
  *bytes = body;
  return Status::OK();
}

}  // namespace

std::string EncodeDocument(const text::Document& doc) {
  std::string out;
  PutLengthPrefixed(&out, doc.contents());
  for (int u = 0; u < kUnitCount; ++u) {
    const auto unit = static_cast<text::LogicalUnit>(u);
    const auto& cs = doc.Components(unit);
    PutVarint64(&out, cs.size());
    for (const text::LogicalComponent& c : cs) {
      PutSpan(&out, c.span.begin, c.span.end);
      PutLengthPrefixed(&out, c.title);
    }
  }
  PutVarint64(&out, doc.emphasis().size());
  for (const text::EmphasisSpan& e : doc.emphasis()) {
    PutSpan(&out, e.span.begin, e.span.end);
    out.push_back(static_cast<char>(e.kind));
  }
  AppendPartCrc(&out);
  return out;
}

StatusOr<text::Document> DecodeDocument(std::string_view bytes) {
  MINOS_RETURN_IF_ERROR(CheckAndStripPartCrc(&bytes));
  Decoder dec(bytes);
  text::Document doc;
  std::string_view contents;
  MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&contents));
  doc.AppendText(contents);
  for (int u = 0; u < kUnitCount; ++u) {
    const auto unit = static_cast<text::LogicalUnit>(u);
    uint64_t n = 0;
    MINOS_RETURN_IF_ERROR(dec.GetVarint64(&n));
    for (uint64_t i = 0; i < n; ++i) {
      text::LogicalComponent c;
      c.unit = unit;
      MINOS_RETURN_IF_ERROR(GetSpan(&dec, &c.span.begin, &c.span.end));
      MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&c.title));
      if (c.span.end > doc.size() || c.span.begin > c.span.end) {
        return Status::Corruption("document component span out of bounds");
      }
      doc.AddComponentSpan(std::move(c));
    }
  }
  uint64_t ne = 0;
  MINOS_RETURN_IF_ERROR(dec.GetVarint64(&ne));
  for (uint64_t i = 0; i < ne; ++i) {
    text::EmphasisSpan e;
    MINOS_RETURN_IF_ERROR(GetSpan(&dec, &e.span.begin, &e.span.end));
    std::string_view b;
    MINOS_RETURN_IF_ERROR(dec.GetRaw(1, &b));
    e.kind = static_cast<text::Emphasis>(static_cast<uint8_t>(b[0]));
    doc.AddEmphasis(e);
  }
  return doc;
}

std::string EncodeVoiceDocument(const voice::VoiceDocument& doc) {
  std::string out;
  const voice::PcmBuffer& pcm = doc.pcm();
  PutVarint32(&out, static_cast<uint32_t>(pcm.sample_rate()));
  PutVarint64(&out, pcm.size());
  const size_t pcm_at = out.size();
  out.resize(pcm_at + 2 * pcm.size());
  char* dst = out.data() + pcm_at;
  for (int16_t s : pcm.samples()) {
    *dst++ = static_cast<char>(s & 0xFF);
    *dst++ = static_cast<char>((s >> 8) & 0xFF);
  }
  const voice::VoiceTrack& track = doc.track();
  PutVarint64(&out, track.words.size());
  for (const voice::WordAlignment& w : track.words) {
    PutLengthPrefixed(&out, w.word);
    PutVarint64(&out, w.text_offset);
    PutSpan(&out, w.samples.begin, w.samples.end);
  }
  PutVarint64(&out, track.silences.size());
  for (const voice::SilenceTruth& s : track.silences) {
    PutSpan(&out, s.samples.begin, s.samples.end);
    out.push_back(static_cast<char>(s.level));
  }
  for (int u = 0; u < kUnitCount; ++u) {
    const auto unit = static_cast<text::LogicalUnit>(u);
    const auto& cs = doc.Components(unit);
    PutVarint64(&out, cs.size());
    for (const voice::VoiceComponent& c : cs) {
      PutSpan(&out, c.span.begin, c.span.end);
      PutLengthPrefixed(&out, c.title);
    }
  }
  AppendPartCrc(&out);
  return out;
}

StatusOr<voice::VoiceDocument> DecodeVoiceDocument(std::string_view bytes) {
  MINOS_RETURN_IF_ERROR(CheckAndStripPartCrc(&bytes));
  Decoder dec(bytes);
  uint32_t rate = 0;
  uint64_t nsamples = 0;
  MINOS_RETURN_IF_ERROR(dec.GetVarint32(&rate));
  MINOS_RETURN_IF_ERROR(dec.GetVarint64(&nsamples));
  if (rate == 0) return Status::Corruption("zero sample rate");
  std::string_view raw;
  MINOS_RETURN_IF_ERROR(dec.GetRaw(static_cast<size_t>(nsamples) * 2, &raw));
  std::vector<int16_t> samples(raw.size() / 2);
  for (size_t i = 0; i < samples.size(); ++i) {
    const uint16_t lo = static_cast<uint8_t>(raw[2 * i]);
    const uint16_t hi = static_cast<uint8_t>(raw[2 * i + 1]);
    samples[i] = static_cast<int16_t>(lo | (hi << 8));
  }
  voice::VoiceTrack track;
  track.pcm = voice::PcmBuffer(static_cast<int>(rate), std::move(samples));
  uint64_t n = 0;
  MINOS_RETURN_IF_ERROR(dec.GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    voice::WordAlignment w;
    MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&w.word));
    uint64_t off = 0;
    MINOS_RETURN_IF_ERROR(dec.GetVarint64(&off));
    w.text_offset = static_cast<size_t>(off);
    MINOS_RETURN_IF_ERROR(
        GetSpan(&dec, &w.samples.begin, &w.samples.end));
    track.words.push_back(std::move(w));
  }
  MINOS_RETURN_IF_ERROR(dec.GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    voice::SilenceTruth s;
    MINOS_RETURN_IF_ERROR(GetSpan(&dec, &s.samples.begin, &s.samples.end));
    std::string_view b;
    MINOS_RETURN_IF_ERROR(dec.GetRaw(1, &b));
    s.level = static_cast<int>(b[0]);
    track.silences.push_back(s);
  }
  voice::VoiceDocument doc(std::move(track));
  for (int u = 0; u < kUnitCount; ++u) {
    const auto unit = static_cast<text::LogicalUnit>(u);
    MINOS_RETURN_IF_ERROR(dec.GetVarint64(&n));
    for (uint64_t i = 0; i < n; ++i) {
      voice::VoiceComponent c;
      c.unit = unit;
      MINOS_RETURN_IF_ERROR(GetSpan(&dec, &c.span.begin, &c.span.end));
      std::string title;
      MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&title));
      doc.TagComponent(unit, c.span, std::move(title));
    }
  }
  return doc;
}

std::string EncodeAttributes(const AttributeMap& attributes) {
  std::string out;
  PutVarint64(&out, attributes.size());
  for (const auto& [k, v] : attributes) {
    PutLengthPrefixed(&out, k);
    PutLengthPrefixed(&out, v);
  }
  AppendPartCrc(&out);
  return out;
}

StatusOr<AttributeMap> DecodeAttributes(std::string_view bytes) {
  MINOS_RETURN_IF_ERROR(CheckAndStripPartCrc(&bytes));
  Decoder dec(bytes);
  uint64_t n = 0;
  MINOS_RETURN_IF_ERROR(dec.GetVarint64(&n));
  AttributeMap attrs;
  for (uint64_t i = 0; i < n; ++i) {
    std::string k, v;
    MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&k));
    MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&v));
    attrs[std::move(k)] = std::move(v);
  }
  return attrs;
}

}  // namespace minos::object

// Fault injection and recovery: seeded injector determinism, the exact
// retry backoff schedule, circuit-breaker transitions, checksum-detected
// corruption recovery, and graceful degradation of presentations when a
// part does not survive retrieval.

#include "minos/server/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "minos/core/presentation_manager.h"
#include "minos/object/part_codec.h"
#include "minos/server/object_server.h"
#include "minos/server/shard_router.h"
#include "minos/server/workstation.h"
#include "minos/text/markup.h"
#include "minos/util/coding.h"
#include "minos/voice/synthesizer.h"

namespace minos::server {
namespace {

using object::MultimediaObject;
using object::VisualPageSpec;

// --- Backoff schedule ------------------------------------------------

TEST(RetryPolicyTest, UnjitteredScheduleIsExponentialAndClamped) {
  RetryPolicy policy;
  policy.jitter = 0;
  EXPECT_EQ(policy.BackoffFor(1, nullptr), MillisToMicros(2));
  EXPECT_EQ(policy.BackoffFor(2, nullptr), MillisToMicros(4));
  EXPECT_EQ(policy.BackoffFor(3, nullptr), MillisToMicros(8));
  EXPECT_EQ(policy.BackoffFor(4, nullptr), MillisToMicros(16));
  // Growth clamps at max_backoff_us.
  EXPECT_EQ(policy.BackoffFor(8, nullptr), MillisToMicros(250));
  EXPECT_EQ(policy.BackoffFor(20, nullptr), MillisToMicros(250));
}

TEST(RetryPolicyTest, SeededJitterIsExactlyReproducible) {
  const RetryPolicy policy;  // jitter = 0.25
  Random a(42), b(42);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const Micros da = policy.BackoffFor(attempt, &a);
    const Micros db = policy.BackoffFor(attempt, &b);
    EXPECT_EQ(da, db) << "attempt " << attempt;
    // Jitter stays within +/- 25% of the unjittered value.
    RetryPolicy flat = policy;
    flat.jitter = 0;
    const double base = static_cast<double>(flat.BackoffFor(attempt, nullptr));
    EXPECT_GE(static_cast<double>(da), base * 0.75 - 1);
    EXPECT_LE(static_cast<double>(da), base * 1.25 + 1);
  }
}

TEST(RetryPolicyTest, RetryWithBackoffAdvancesClockByExactSchedule) {
  SimClock clock;
  RetryPolicy policy;
  policy.jitter = 0;
  int calls = 0;
  auto result = RetryWithBackoff<int>(policy, &clock, nullptr, [&] {
    return ++calls < 3 ? StatusOr<int>(Status::Unavailable("flaky"))
                       : StatusOr<int>(7);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_EQ(calls, 3);
  // Two waits: 2 ms after the first failure, 4 ms after the second.
  EXPECT_EQ(clock.Now(), MillisToMicros(6));
}

TEST(RetryPolicyTest, PermanentErrorsAreNotRetried) {
  SimClock clock;
  int calls = 0;
  auto result =
      RetryWithBackoff<int>(RetryPolicy::Default(), &clock, nullptr, [&] {
        ++calls;
        return StatusOr<int>(Status::NotFound("no such object"));
      });
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(clock.Now(), 0);
}

TEST(RetryPolicyTest, ExhaustionReturnsLastErrorUnchanged) {
  SimClock clock;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.jitter = 0;
  int calls = 0;
  auto result = RetryWithBackoff<int>(policy, &clock, nullptr, [&] {
    ++calls;
    return StatusOr<int>(Status::Corruption("checksum mismatch"));
  });
  // The underlying Corruption must survive so callers can classify it
  // (the salvage path depends on this).
  EXPECT_TRUE(result.status().IsCorruption());
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, DeadlineBudgetStopsRetrying) {
  SimClock clock;
  RetryPolicy policy;
  policy.jitter = 0;
  policy.deadline_us = MillisToMicros(5);  // Allows the 2 ms wait only.
  int calls = 0;
  auto result = RetryWithBackoff<int>(policy, &clock, nullptr, [&] {
    ++calls;
    return StatusOr<int>(Status::Unavailable("down"));
  });
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  EXPECT_EQ(calls, 2);  // Second wait (4 ms) would overrun the budget.
}

// --- Fault injector ---------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameFaultSequence) {
  SimClock clock_a, clock_b;
  obs::MetricsRegistry reg_a, reg_b;
  FaultInjector a(FaultProfile::Storm(), 123, &clock_a, &reg_a);
  FaultInjector b(FaultProfile::Storm(), 123, &clock_b, &reg_b);
  for (int i = 0; i < 200; ++i) {
    const Status sa = a.OnOperation("op");
    const Status sb = b.OnOperation("op");
    EXPECT_EQ(sa.code(), sb.code()) << "op " << i;
  }
  EXPECT_EQ(clock_a.Now(), clock_b.Now());
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0u);
}

TEST(FaultInjectorTest, FailFirstNThenSucceed) {
  SimClock clock;
  obs::MetricsRegistry reg;
  FaultProfile profile;
  profile.fail_first_n = 3;
  FaultInjector injector(profile, 9, &clock, &reg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(injector.OnOperation("op").IsUnavailable());
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(injector.OnOperation("op").ok());
  }
  EXPECT_EQ(injector.faults_injected(), 3u);
}

TEST(FaultInjectorTest, InjectedTimeoutChargesSimulatedTime) {
  SimClock clock;
  obs::MetricsRegistry reg;
  FaultProfile profile;
  profile.timeout_rate = 1.0;
  FaultInjector injector(profile, 1, &clock, &reg);
  EXPECT_TRUE(injector.OnOperation("transfer").IsDeadlineExceeded());
  EXPECT_EQ(clock.Now(), profile.timeout_us);
}

TEST(FaultInjectorTest, CorruptionAlwaysChangesThePayload) {
  SimClock clock;
  obs::MetricsRegistry reg;
  FaultProfile profile;
  profile.corrupt_rate = 1.0;
  FaultInjector injector(profile, 77, &clock, &reg);
  const std::string original(64, 'x');
  for (int i = 0; i < 50; ++i) {
    std::string payload = original;
    EXPECT_TRUE(injector.MaybeCorrupt(&payload));
    EXPECT_NE(payload, original);
    EXPECT_EQ(payload.size(), original.size());
  }
}

// --- Part checksums ---------------------------------------------------

TEST(PartChecksumTest, FlippedByteIsDetectedAsCorruption) {
  object::AttributeMap attrs;
  attrs["department"] = "radiology";
  attrs["kind"] = "memo";
  const std::string encoded = object::EncodeAttributes(attrs);
  ASSERT_TRUE(object::DecodeAttributes(encoded).ok());
  for (size_t pos = 0; pos < encoded.size(); ++pos) {
    std::string mutated = encoded;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x20);
    EXPECT_TRUE(object::DecodeAttributes(mutated).status().IsCorruption())
        << "flip at " << pos << " escaped the checksum";
  }
}

TEST(PartChecksumTest, VoicePartChecksumCoversSampleData) {
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\nspoken checksum coverage\n");
  ASSERT_TRUE(doc.ok());
  voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
  voice::VoiceDocument vdoc(synth.Synthesize(*doc).value());
  std::string encoded = object::EncodeVoiceDocument(vdoc);
  ASSERT_TRUE(object::DecodeVoiceDocument(encoded).ok());
  // A flip deep inside the PCM samples — structurally invisible, only
  // the checksum can catch it.
  encoded[encoded.size() / 2] ^= 0x01;
  EXPECT_TRUE(object::DecodeVoiceDocument(encoded).status().IsCorruption());
}

// --- Circuit breaker --------------------------------------------------

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndFailsFast) {
  SimClock clock;
  obs::MetricsRegistry reg;
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.cooldown_us = MillisToMicros(100);
  CircuitBreaker breaker(options, &clock, "test", &reg);

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Admit().ok());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(reg.gauge("test.breaker_open")->value(), 1.0);
  EXPECT_TRUE(breaker.Admit().IsUnavailable());  // Fast fail, no cooldown.
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess) {
  SimClock clock;
  obs::MetricsRegistry reg;
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  options.cooldown_us = MillisToMicros(100);
  CircuitBreaker breaker(options, &clock, "test", &reg);
  breaker.RecordFailure();
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  clock.Advance(MillisToMicros(100));
  EXPECT_TRUE(breaker.Admit().ok());  // The half-open probe.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(reg.gauge("test.breaker_open")->value(), 0.0);
  EXPECT_EQ(reg.counter("test.breaker_closes_total")->value(), 1.0);
}

TEST(CircuitBreakerTest, FailedProbeReopensForAnotherCooldown) {
  SimClock clock;
  obs::MetricsRegistry reg;
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  options.cooldown_us = MillisToMicros(100);
  CircuitBreaker breaker(options, &clock, "test", &reg);
  breaker.RecordFailure();
  breaker.RecordFailure();
  clock.Advance(MillisToMicros(100));
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.RecordFailure();  // The probe failed.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(breaker.Admit().IsUnavailable());  // Cooldown restarted.
  EXPECT_EQ(reg.counter("test.breaker_opens_total")->value(), 2.0);
}

// --- End to end: the fetch path under faults --------------------------

class FaultedServerTest : public ::testing::Test {
 protected:
  FaultedServerTest()
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
    VisualPageSpec page;
    page.text_page = 1;
    obj.descriptor().pages.push_back(page);
    EXPECT_TRUE(obj.Archive().ok());
    return obj;
  }

  /// An audio-mode object that also carries the equivalent text part —
  /// the shape that can degrade to a visual presentation.
  MultimediaObject AudioObject(storage::ObjectId id,
                               const std::string& body) {
    MultimediaObject obj(id);
    text::MarkupParser parser;
    auto doc = parser.Parse(".PP\n" + body + "\n");
    EXPECT_TRUE(doc.ok());
    voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
    auto track = synth.Synthesize(*doc);
    EXPECT_TRUE(track.ok());
    EXPECT_TRUE(
        obj.SetVoicePart(voice::VoiceDocument(std::move(track).value()))
            .ok());
    EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
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

TEST_F(FaultedServerTest, RetriesHideBringUpFaultsFromTheCaller) {
  ASSERT_TRUE(server_.Store(TextObject(1, "retried body")).ok());
  FaultProfile profile;
  profile.fail_first_n = 3;
  FaultInjector injector(profile, 5, &clock_);
  link_.SetFaultInjector(&injector);

  auto fetched = server_.Fetch(1);
  ASSERT_TRUE(fetched.ok());
  EXPECT_NE(fetched->text_part().contents().find("retried"),
            std::string::npos);
  EXPECT_EQ(injector.faults_injected(), 3u);
}

TEST_F(FaultedServerTest, ExhaustedRetriesSurfaceTheFault) {
  ASSERT_TRUE(server_.Store(TextObject(1, "unreachable body")).ok());
  FaultProfile profile;
  profile.drop_rate = 1.0;  // Every transfer is lost.
  FaultInjector injector(profile, 5, &clock_);
  link_.SetFaultInjector(&injector);
  RetryPolicy policy;
  policy.max_attempts = 3;
  server_.SetRetryPolicy(policy);

  const Status status = server_.Fetch(1).status();
  EXPECT_TRUE(status.IsUnavailable() || status.IsDeadlineExceeded())
      << status.ToString();
}

TEST_F(FaultedServerTest, DeadLinkTripsTheBreakerAndFailsFast) {
  ASSERT_TRUE(server_.Store(TextObject(1, "dead link body")).ok());
  FaultProfile profile;
  profile.drop_rate = 1.0;
  FaultInjector injector(profile, 5, &clock_);
  link_.SetFaultInjector(&injector);
  CircuitBreaker::Options options;
  options.failure_threshold = 4;
  link_.ConfigureBreaker(options);

  // Enough failed fetches to exceed the threshold.
  server_.Fetch(1).ok();
  server_.Fetch(1).ok();
  EXPECT_EQ(link_.breaker().state(), CircuitBreaker::State::kOpen);
  // While open the link fails fast: the injector sees no more traffic.
  const uint64_t faults_before = injector.faults_injected();
  server_.Fetch(1).ok();
  EXPECT_EQ(injector.faults_injected(), faults_before);
}

TEST_F(FaultedServerTest, WireCorruptionIsHealedByRetry) {
  ASSERT_TRUE(server_.Store(TextObject(1, "healed payload")).ok());
  // Corrupt roughly half the deliveries; the checksum catches each hit
  // and a retry eventually delivers clean bytes. Seeded: deterministic.
  FaultProfile profile;
  profile.corrupt_rate = 0.5;
  FaultInjector injector(profile, 21, &clock_);
  server_.SetFaultInjector(&injector);

  for (int i = 0; i < 10; ++i) {
    auto fetched = server_.Fetch(1);
    ASSERT_TRUE(fetched.ok()) << "fetch " << i;
    EXPECT_NE(fetched->text_part().contents().find("healed"),
              std::string::npos);
  }
  EXPECT_GT(injector.faults_injected(), 0u);
}

TEST_F(FaultedServerTest,
       FlakyProfileBrowsingCompletesWithoutUserVisibleFailures) {
  // The acceptance gate: 10% drops + 1% corruption, symmetric browsing
  // (text and audio objects) completes with zero user-visible failures.
  ASSERT_TRUE(
      server_.Store(TextObject(1, "hospital admission fracture memo")).ok());
  ASSERT_TRUE(server_.Store(AudioObject(2, "hospital voice report")).ok());
  FaultInjector injector(FaultProfile::Flaky(), 0xF1A2, &clock_);
  link_.SetFaultInjector(&injector);

  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  auto browser = workstation.Query({"hospital"});
  ASSERT_TRUE(browser.ok());
  EXPECT_EQ(browser->size(), 2u);
  ASSERT_TRUE(workstation.Present(1).ok());
  ASSERT_TRUE(workstation.Present(2).ok());
  EXPECT_GT(injector.faults_injected(), 0u);
  EXPECT_TRUE(workstation.presentation().degraded_parts().empty());
}

// --- Device-level read faults (BlockDevice::SetReadFaultHook) ---------

/// A server over a cache-less archiver, so every Fetch really reads the
/// device and the read fault hook sees the traffic.
class DeviceFaultTest : public FaultedServerTest {
 protected:
  DeviceFaultTest() : uncached_(&device_, nullptr) {
    uncached_server_.emplace(&uncached_, &versions_, &clock_, &link_);
  }

  storage::Archiver uncached_;
  std::optional<ObjectServer> uncached_server_;
};

TEST_F(DeviceFaultTest, TransientMediaErrorsAreRetriedTransparently) {
  ASSERT_TRUE(uncached_server_->Store(TextObject(1, "media body")).ok());
  FaultProfile profile;
  profile.fail_first_n = 2;
  FaultInjector injector(profile, 3, &clock_);
  device_.SetReadFaultHook(
      [&](uint64_t, uint64_t, std::string*) {
        return injector.OnOperation("device read");
      });

  // The first two device reads fail as media errors; the retry loop
  // re-reads and the caller never sees the fault.
  auto fetched = uncached_server_->Fetch(1);
  ASSERT_TRUE(fetched.ok());
  EXPECT_NE(fetched->text_part().contents().find("media"),
            std::string::npos);
  EXPECT_EQ(injector.faults_injected(), 2u);
  device_.SetReadFaultHook(nullptr);
}

TEST_F(DeviceFaultTest, MediaCorruptionIsCaughtByChecksumsAndHealed) {
  ASSERT_TRUE(uncached_server_->Store(TextObject(1, "healed media")).ok());
  // Corrupt roughly half the device reads in place: structurally
  // invisible, only the part checksums can catch it. Seeded, so the
  // healing retries are deterministic.
  FaultProfile profile;
  profile.corrupt_rate = 0.5;
  FaultInjector injector(profile, 21, &clock_);
  device_.SetReadFaultHook(
      [&](uint64_t, uint64_t, std::string* out) {
        injector.MaybeCorrupt(out);
        return Status::OK();
      });

  for (int i = 0; i < 10; ++i) {
    auto fetched = uncached_server_->Fetch(1);
    ASSERT_TRUE(fetched.ok()) << "fetch " << i;
    EXPECT_NE(fetched->text_part().contents().find("healed"),
              std::string::npos);
  }
  EXPECT_GT(injector.faults_injected(), 0u);
  device_.SetReadFaultHook(nullptr);
}

TEST_F(DeviceFaultTest, ClearedHookStopsInjecting) {
  ASSERT_TRUE(uncached_server_->Store(TextObject(1, "quiet body")).ok());
  FaultProfile profile;
  profile.drop_rate = 1.0;
  FaultInjector always_fail(profile, 7, &clock_);
  device_.SetReadFaultHook(
      [&](uint64_t, uint64_t, std::string*) {
        return always_fail.OnOperation("device read");
      });
  EXPECT_FALSE(uncached_server_->Fetch(1).ok());

  device_.SetReadFaultHook(nullptr);
  EXPECT_TRUE(uncached_server_->Fetch(1).ok());
}

// --- Device-level write faults (Store/Append path) --------------------

TEST_F(DeviceFaultTest, FailedAppendLeavesNoVersionRecordBehind) {
  // A media error mid-append must not diverge the version store from the
  // archive: Store fails, and neither the catalog nor the version store
  // believes the object exists.
  FaultProfile profile;
  profile.fail_first_n = 1;
  FaultInjector injector(profile, 11, &clock_);
  device_.SetWriteFaultHook([&](uint64_t, std::string*) {
    return injector.OnOperation("device write");
  });

  EXPECT_FALSE(uncached_server_->Store(TextObject(1, "lost body")).ok());
  EXPECT_TRUE(versions_.Current(1).status().IsNotFound());
  EXPECT_TRUE(uncached_server_->Fetch(1).status().IsNotFound());
  EXPECT_EQ(uncached_server_->object_count(), 0u);

  // The device healed (fail_first_n consumed): the same object stores
  // and fetches cleanly, at a fresh archive offset past the failed one.
  auto addr = uncached_server_->Store(TextObject(1, "landed body"));
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(versions_.Current(1).ok());
  auto fetched = uncached_server_->Fetch(1);
  ASSERT_TRUE(fetched.ok());
  EXPECT_NE(fetched->text_part().contents().find("landed"),
            std::string::npos);
  device_.SetWriteFaultHook(nullptr);
}

TEST_F(DeviceFaultTest, FailedBlockMidAppendKeepsWrittenBlocksAndTail) {
  // A six-block append through the cached archiver whose third block
  // write fails: the first two blocks are on the medium and in the
  // cache, the write head still covers the whole append, and the
  // unwritten rest stays in the tail until the next append writes it.
  const uint32_t bs = device_.block_size();
  std::string payload(6 * bs + 100, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131 + 7);
  }
  device_.SetWriteFaultHook([](uint64_t block, std::string*) {
    return block == 2 ? Status::Unavailable("media error") : Status::OK();
  });
  EXPECT_TRUE(archiver_.Append(payload).status().IsUnavailable());
  device_.SetWriteFaultHook(nullptr);

  EXPECT_EQ(device_.blocks_used(), 2u);
  EXPECT_EQ(device_.stats().blocks_written, 2u);
  for (uint64_t b = 0; b < 2; ++b) {
    std::string cached;
    ASSERT_TRUE(cache_.Lookup(b, &cached)) << "block " << b;
    EXPECT_EQ(cached, payload.substr(b * bs, bs));
    std::string medium;
    ASSERT_TRUE(device_.Read(b, 1, &medium).ok());
    EXPECT_EQ(medium, cached);
  }
  std::string absent;
  EXPECT_FALSE(cache_.Lookup(2, &absent));
  EXPECT_EQ(archiver_.size(), payload.size());

  auto next = archiver_.Append("after");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->offset, payload.size());
  EXPECT_EQ(device_.blocks_used(), 6u);
  ASSERT_TRUE(archiver_.Flush().ok());
  std::string back;
  ASSERT_TRUE(archiver_.ReadRange(0, payload.size() + 5, &back).ok());
  EXPECT_EQ(back, payload + "after");
}

TEST_F(DeviceFaultTest, TornWriteIsCaughtByChecksumsAndSalvaged) {
  // A torn append: the write commits, but one byte in the middle of the
  // voice part lands garbled. Structurally the object decodes; only the
  // voice checksum can catch the tear, and the salvage path must drop
  // exactly that part.
  MultimediaObject obj = AudioObject(3, "torn write voice body");

  // Serialization math mirroring Store: the torn byte's absolute archive
  // offset is append base + payload base + voice offset + half length.
  std::string bytes = obj.SerializeArchived().value();
  Decoder dec(bytes);
  std::string desc_bytes;
  ASSERT_TRUE(dec.GetLengthPrefixed(&desc_bytes).ok());
  auto desc = object::ObjectDescriptor::Deserialize(desc_bytes);
  ASSERT_TRUE(desc.ok());
  uint64_t data_len = 0;
  for (const object::PartPointer& p : desc->parts) {
    if (!p.in_archiver) data_len += p.length;
  }
  const uint64_t payload_base = bytes.size() - data_len;
  auto voice = desc->FindPart("voice");
  ASSERT_TRUE(voice.ok());
  const uint64_t torn_abs = uncached_.size() + payload_base +
                            voice->offset + voice->length / 2;

  device_.SetWriteFaultHook([&](uint64_t block, std::string* data) {
    const uint64_t lo = block * device_.block_size();
    if (torn_abs >= lo && torn_abs < lo + data->size()) {
      (*data)[torn_abs - lo] ^= 0x01;
    }
    return Status::OK();
  });
  ASSERT_TRUE(uncached_server_->Store(obj).ok());
  device_.SetWriteFaultHook(nullptr);

  // The strict decode fails persistently (the tear is on the media, not
  // the wire), so the fetch salvages: text survives, voice drops.
  auto fetched = uncached_server_->Fetch(3);
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(fetched->has_text());
  EXPECT_FALSE(fetched->has_voice());
  EXPECT_NE(fetched->text_part().contents().find("torn"),
            std::string::npos);
}

TEST_F(DeviceFaultTest, WriteFaultHookMayNotResizeThePayload) {
  device_.SetWriteFaultHook([&](uint64_t, std::string* data) {
    data->push_back('x');
    return Status::OK();
  });
  EXPECT_FALSE(uncached_server_->Store(TextObject(9, "resized")).ok());
  device_.SetWriteFaultHook(nullptr);
}

// --- Graceful degradation ---------------------------------------------

/// Serializes `obj` and flips one byte in the middle of its voice part,
/// so only the voice checksum fails.
std::string CorruptVoicePart(const MultimediaObject& obj) {
  std::string bytes = obj.SerializeArchived().value();
  Decoder dec(bytes);
  std::string desc_bytes;
  EXPECT_TRUE(dec.GetLengthPrefixed(&desc_bytes).ok());
  auto desc = object::ObjectDescriptor::Deserialize(desc_bytes);
  EXPECT_TRUE(desc.ok());
  uint64_t data_len = 0;
  for (const object::PartPointer& p : desc->parts) {
    if (!p.in_archiver) data_len += p.length;
  }
  const uint64_t payload_base = bytes.size() - data_len;
  auto voice = desc->FindPart("voice");
  EXPECT_TRUE(voice.ok());
  bytes[payload_base + voice->offset + voice->length / 2] ^= 0x01;
  return bytes;
}

TEST(DegradationTest, LenientDecodeDropsUnreadableVoicePart) {
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\ndegradable spoken text body\n");
  ASSERT_TRUE(doc.ok());
  MultimediaObject obj(5);
  voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
  ASSERT_TRUE(
      obj.SetVoicePart(voice::VoiceDocument(synth.Synthesize(*doc).value()))
          .ok());
  ASSERT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  obj.descriptor().driving_mode = object::DrivingMode::kAudio;
  ASSERT_TRUE(obj.Archive().ok());
  const std::string corrupted = CorruptVoicePart(obj);

  // The strict decode refuses the object...
  EXPECT_TRUE(MultimediaObject::DeserializeArchived(5, corrupted)
                  .status()
                  .IsCorruption());
  // ...the lenient decode salvages everything but the voice part.
  MultimediaObject::PartSalvageReport report;
  auto salvaged =
      MultimediaObject::DeserializeArchivedLenient(5, corrupted, &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_TRUE(report.degraded());
  ASSERT_EQ(report.dropped_parts.size(), 1u);
  EXPECT_EQ(report.dropped_parts[0], "voice");
  EXPECT_FALSE(salvaged->has_voice());
  EXPECT_TRUE(salvaged->has_text());
}

TEST(DegradationTest, AudioObjectWithoutVoicePresentsItsTextPart) {
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\nfallback text presentation body\n");
  ASSERT_TRUE(doc.ok());
  MultimediaObject obj(6);
  voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
  ASSERT_TRUE(
      obj.SetVoicePart(voice::VoiceDocument(synth.Synthesize(*doc).value()))
          .ok());
  ASSERT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  obj.descriptor().driving_mode = object::DrivingMode::kAudio;
  ASSERT_TRUE(obj.Archive().ok());
  const std::string corrupted = CorruptVoicePart(obj);

  SimClock clock;
  render::Screen screen;
  core::PresentationManager pm(&screen, &clock);
  pm.SetResolver([&](storage::ObjectId id) {
    MultimediaObject::PartSalvageReport report;
    return MultimediaObject::DeserializeArchivedLenient(id, corrupted,
                                                        &report);
  });

  // The open succeeds in the fallback direction: text shown visually.
  ASSERT_TRUE(pm.Open(6).ok());
  EXPECT_TRUE(pm.current_degraded());
  EXPECT_NE(pm.visual_browser(), nullptr);
  EXPECT_EQ(pm.audio_browser(), nullptr);
  ASSERT_EQ(pm.degraded_parts().size(), 1u);
  EXPECT_EQ(pm.degraded_parts()[0].part, "voice");
  EXPECT_EQ(pm.degraded_parts()[0].object_id, 6u);
  // The substitution is on the event timeline.
  EXPECT_EQ(pm.log().OfKind(core::EventKind::kDegraded).size(), 1u);
}

// --- Storms over the miniature and ranked-query paths -----------------

TEST_F(FaultedServerTest, StormDuringGatherYieldsPartialDegradedStrip) {
  for (storage::ObjectId id : {1u, 2u, 3u}) {
    ASSERT_TRUE(
        server_.Store(TextObject(id, "stormy strip body")).ok());
  }
  // One transfer fails and retries are off, so exactly one card drops
  // out of the strip — deterministically.
  FaultProfile profile;
  profile.fail_first_n = 1;
  FaultInjector injector(profile, 11, &clock_);
  link_.SetFaultInjector(&injector);
  RetryPolicy policy;
  policy.max_attempts = 1;
  server_.SetRetryPolicy(policy);

  const double dropped_before =
      obs::MetricsRegistry::Default().counter("server.cards_dropped")
          ->value();
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  auto browser = workstation.Query({"stormy"});
  ASSERT_TRUE(browser.ok());  // Degraded, never an error.
  EXPECT_EQ(browser->size(), 2u);
  EXPECT_EQ(obs::MetricsRegistry::Default()
                .counter("server.cards_dropped")
                ->value(),
            dropped_before + 1);
  // The gap is on the record: a degraded miniature note and an event.
  ASSERT_EQ(workstation.presentation().degraded_parts().size(), 1u);
  EXPECT_EQ(workstation.presentation().degraded_parts()[0].object_id, 1u);
  EXPECT_EQ(workstation.presentation().degraded_parts()[0].part,
            "miniature");
  EXPECT_FALSE(workstation.presentation()
                   .log()
                   .OfKind(core::EventKind::kDegraded)
                   .empty());
}

TEST_F(FaultedServerTest, StormDuringRankedGatherDegradesNotCrashes) {
  for (storage::ObjectId id : {1u, 2u, 3u, 4u}) {
    ASSERT_TRUE(
        server_.Store(TextObject(id, "ranked storm body")).ok());
  }
  // A full storm: drops, timeouts, corruption and latency spikes, with
  // retries on. Scoring never rides the link, so ranked hit lists stay
  // complete; card gathers may thin out but must never error.
  FaultInjector injector(FaultProfile::Storm(), 0xBAD, &clock_);
  link_.SetFaultInjector(&injector);

  for (int round = 0; round < 8; ++round) {
    const std::vector<query::ScoredHit> hits =
        server_.QueryRanked({"ranked"}, 10);
    EXPECT_EQ(hits.size(), 4u);
    std::vector<storage::ObjectId> ids;
    for (const query::ScoredHit& hit : hits) ids.push_back(hit.id);
    const std::vector<MiniatureCard> cards = server_.GatherCards(ids);
    EXPECT_LE(cards.size(), hits.size());
    // Whatever survived is still in relevance order.
    auto next = ids.begin();
    for (const MiniatureCard& card : cards) {
      next = std::find(next, ids.end(), card.id);
      ASSERT_NE(next, ids.end()) << "card " << card.id << " out of order";
      ++next;
    }
  }
  EXPECT_GT(injector.faults_injected(), 0u);
}

TEST_F(FaultedServerTest, StormedRankedWorkstationNotesDroppedCards) {
  for (storage::ObjectId id : {1u, 2u, 3u}) {
    ASSERT_TRUE(server_.Store(TextObject(id, "noted storm body")).ok());
  }
  FaultProfile profile;
  profile.fail_first_n = 2;
  FaultInjector injector(profile, 23, &clock_);
  link_.SetFaultInjector(&injector);
  RetryPolicy policy;
  policy.max_attempts = 1;
  server_.SetRetryPolicy(policy);

  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  auto browser = workstation.QueryRanked({"noted"}, 10);
  ASSERT_TRUE(browser.ok());
  EXPECT_EQ(browser->size(), 1u);  // Two of three cards dropped.
  EXPECT_EQ(workstation.presentation().degraded_parts().size(), 2u);
  for (const auto& note : workstation.presentation().degraded_parts()) {
    EXPECT_EQ(note.part, "miniature");
  }
}

TEST(StormShardTest, StormedShardDegradesScatterGathersNotCrashes) {
  SimClock clock;
  struct Stack {
    explicit Stack(SimClock* clock)
        : device("shard", 65536, 512,
                 storage::DeviceCostModel::Instant(), true, clock),
          cache(256),
          archiver(&device, &cache),
          link(Link::Ethernet(clock)),
          server(&archiver, &versions, clock, &link) {}
    storage::BlockDevice device;
    storage::BlockCache cache;
    storage::Archiver archiver;
    storage::VersionStore versions;
    Link link;
    ObjectServer server;
  };
  Stack a(&clock), b(&clock);
  ShardRouter router({&a.server, &b.server}, &clock, HashPlacement(),
                     ShardRouterOptions{});  // Replication 2: full copies.
  text::MarkupParser parser;
  for (storage::ObjectId id = 1; id <= 6; ++id) {
    MultimediaObject obj(id);
    auto doc = parser.Parse(".PP\nsharded storm body\n");
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
    VisualPageSpec page;
    page.text_page = 1;
    obj.descriptor().pages.push_back(page);
    ASSERT_TRUE(obj.Archive().ok());
    ASSERT_TRUE(router.Store(obj).ok());
  }

  // Shard a's link storms hard enough to trip its breaker; shard b has
  // every replica, so gathers stay complete across the failover.
  CircuitBreaker::Options breaker;
  breaker.failure_threshold = 3;
  a.link.ConfigureBreaker(breaker);
  FaultProfile dead;
  dead.drop_rate = 1.0;
  FaultInjector injector(dead, 0x57A, &clock);
  a.link.SetFaultInjector(&injector);

  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(router.GatherCards(router.QueryAll({"sharded"})).size(), 6u);
    std::vector<storage::ObjectId> ranked;
    for (const query::ScoredHit& hit : router.QueryRanked({"sharded"}, 4)) {
      ranked.push_back(hit.id);
    }
    EXPECT_EQ(router.GatherCards(ranked).size(), 4u);
  }
  EXPECT_EQ(a.link.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(router.live_count(), 1u);
  // The storm tripped the shard out of the scatter set; the ranked
  // query keeps answering from the surviving replica set.
  EXPECT_EQ(router.QueryRanked({"sharded"}, 10).size(), 6u);
}

}  // namespace
}  // namespace minos::server

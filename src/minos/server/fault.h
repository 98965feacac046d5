#ifndef MINOS_SERVER_FAULT_H_
#define MINOS_SERVER_FAULT_H_

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>

#include "minos/obs/metrics.h"
#include "minos/obs/trace.h"
#include "minos/util/clock.h"
#include "minos/util/random.h"
#include "minos/util/statusor.h"

namespace minos::server {

/// Deterministic fault injection and recovery for the workstation-server
/// path. The paper assumes "high capacity links" that never fail (§5); a
/// production-scale deployment cannot. This module makes every transfer
/// and device read fallible under a seeded, policy-driven injector, and
/// provides the recovery vocabulary — retry with backoff, per-link circuit
/// breaking — that the fetch path uses to hide those faults from the user.
/// All delays advance the SimClock, so every chaos run is replayable.

/// What the injector may do to one operation or payload.
enum class FaultKind : uint8_t {
  kNone = 0,
  kDrop = 1,     ///< Operation lost; fails immediately (Unavailable).
  kTimeout = 2,  ///< Operation hangs for `timeout_us`, then fails.
  kLatency = 3,  ///< Operation succeeds after added latency.
  kCorrupt = 4,  ///< Payload delivered with flipped bytes.
  kFailN = 5,    ///< Deterministic bring-up fault: first N operations fail.
};

/// Probability-driven fault policy. Rates are per-operation probabilities
/// in [0, 1]; the same seed always yields the same fault sequence.
struct FaultProfile {
  double drop_rate = 0.0;     ///< P(operation dropped).
  double timeout_rate = 0.0;  ///< P(operation times out).
  Micros timeout_us = MillisToMicros(200);  ///< Cost of a timeout.
  double corrupt_rate = 0.0;  ///< P(payload byte-flipped in flight).
  double latency_rate = 0.0;  ///< P(extra latency added).
  Micros latency_min_us = MillisToMicros(5);
  Micros latency_max_us = MillisToMicros(50);
  /// The first `fail_first_n` operations fail unconditionally, then the
  /// probabilistic model takes over (fail-N-then-succeed bring-up fault).
  int fail_first_n = 0;
  /// When non-empty, only operations whose name contains this substring
  /// are eligible for injection; every other operation passes unharmed
  /// and consumes neither randomness nor the fail-first-N countdown, so
  /// the matching operations see the exact fault sequence an unfiltered
  /// profile would deal them. Lets chaos target one traffic class — the
  /// Link names its background-lane transfers "link transfer
  /// background", so `op_filter = "background"` faults only repair and
  /// prefetch traffic while the foreground path stays clean.
  std::string op_filter;

  /// No faults at all (the default-constructed profile).
  static FaultProfile None() { return FaultProfile{}; }

  /// The acceptance-gate profile: 10% drops plus 1% payload corruption.
  static FaultProfile Flaky() {
    FaultProfile p;
    p.drop_rate = 0.10;
    p.corrupt_rate = 0.01;
    return p;
  }

  /// Heavy weather: drops, timeouts, corruption and added latency at
  /// rates that exercise the circuit breaker.
  static FaultProfile Storm() {
    FaultProfile p;
    p.drop_rate = 0.30;
    p.timeout_rate = 0.10;
    p.corrupt_rate = 0.05;
    p.latency_rate = 0.25;
    return p;
  }

  /// True when any fault can fire.
  bool active() const {
    return drop_rate > 0 || timeout_rate > 0 || corrupt_rate > 0 ||
           latency_rate > 0 || fail_first_n > 0;
  }
};

/// Seeded fault source. One injector typically wraps one transport
/// (a Link, a BlockDevice); components consult it before (OnOperation)
/// and after (MaybeCorrupt) the modeled work. Injected timeouts and
/// latency advance the shared SimClock, so faulty runs cost simulated
/// time exactly like real ones would.
///
/// Statistics live under an injector instance scope in the registry
/// ("fault0.injected_total", "fault0.drops", ...) plus process-wide
/// aggregates ("faults.injected_total").
class FaultInjector {
 public:
  FaultInjector(FaultProfile profile, uint64_t seed, SimClock* clock,
                obs::MetricsRegistry* registry = nullptr);

  /// Swaps the live policy (the chaos toggle); the random stream and the
  /// fail-first-N countdown continue.
  void set_profile(const FaultProfile& profile) { profile_ = profile; }
  const FaultProfile& profile() const { return profile_; }

  /// Decides the fate of one operation. OK (possibly after advancing the
  /// clock for added latency), Unavailable for a drop / bring-up fault,
  /// or DeadlineExceeded after charging `timeout_us` for a timeout.
  /// `op` names the operation in failure messages ("link transfer").
  Status OnOperation(std::string_view op);

  /// Flips one deterministic byte of `payload` with `corrupt_rate`
  /// probability. Returns true when corruption was injected.
  bool MaybeCorrupt(std::string* payload);

  /// Total faults injected by this instance (all kinds).
  uint64_t faults_injected() const {
    return static_cast<uint64_t>(injected_->value());
  }

 private:
  FaultProfile profile_;
  Random rng_;
  SimClock* clock_;
  int ops_seen_ = 0;
  obs::Counter* injected_;      // Owned by the registry.
  obs::Counter* drops_;
  obs::Counter* timeouts_;
  obs::Counter* corruptions_;
  obs::Counter* latency_hits_;
  obs::Histogram* latency_us_;  // Added-latency distribution.
  obs::Counter* total_injected_;  // Process-wide "faults.injected_total".
};

/// Exponential-backoff retry schedule with seeded jitter and a
/// per-request deadline budget, advanced on SimClock.
struct RetryPolicy {
  int max_attempts = 6;
  Micros initial_backoff_us = MillisToMicros(2);
  double backoff_multiplier = 2.0;
  Micros max_backoff_us = MillisToMicros(250);
  /// Backoff is perturbed by up to +/- this fraction (seeded jitter).
  double jitter = 0.25;
  /// Total simulated-time budget per request; 0 disables the deadline.
  Micros deadline_us = SecondsToMicros(10);

  /// The fetch-path default (above).
  static RetryPolicy Default() { return RetryPolicy{}; }

  /// Exactly one attempt, no waiting: faults surface immediately.
  static RetryPolicy None() {
    RetryPolicy p;
    p.max_attempts = 1;
    p.deadline_us = 0;
    return p;
  }

  /// Backoff before retry number `attempt` (1-based: the delay after the
  /// first failure is BackoffFor(1, ...)). Deterministic given the rng
  /// state; `rng` may be null for the unjittered schedule.
  Micros BackoffFor(int attempt, Random* rng) const;
};

/// True for transient failures a retry may cure: Unavailable (drops,
/// breaker-open fast-fails), DeadlineExceeded (injected timeouts),
/// Corruption (a re-transfer delivers clean bytes) and ResourceExhausted
/// (queue pressure). Everything else is permanent.
bool IsRetryable(const Status& status);

/// Per-link circuit breaker: after `failure_threshold` consecutive
/// failures the breaker opens and fails fast (Unavailable) until
/// `cooldown_us` of simulated time passes; it then admits a single
/// half-open probe whose outcome closes or re-opens the circuit.
///
/// State is observable under the owner's scope: "<scope>.breaker_open"
/// gauge (1 while open) and "<scope>.breaker_opens_total" /
/// "<scope>.breaker_closes_total" transition counters.
class CircuitBreaker {
 public:
  struct Options {
    int failure_threshold = 8;
    Micros cooldown_us = MillisToMicros(500);
  };

  enum class State : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  CircuitBreaker(Options options, SimClock* clock, const std::string& scope,
                 obs::MetricsRegistry* registry = nullptr);

  /// Gate before an operation: OK when closed (or when admitting the
  /// half-open probe), Unavailable while open.
  Status Admit();

  /// Outcome reporting after an admitted operation.
  void RecordSuccess();
  void RecordFailure();

  State state() const { return state_; }
  const Options& options() const { return options_; }

  /// True when an open breaker has sat out its cooldown, so the next
  /// Admit() would let a half-open probe through. Routing layers use
  /// this to tell "dead, skip" from "dead, but due a probe" without
  /// consuming the probe slot themselves.
  bool CooldownElapsed() const {
    return state_ == State::kOpen &&
           clock_->Now() - opened_at_ >= options_.cooldown_us;
  }

 private:
  void Open();
  void Close();

  Options options_;
  SimClock* clock_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  Micros opened_at_ = 0;
  obs::Gauge* open_gauge_;       // Owned by the registry.
  obs::Counter* opens_total_;
  obs::Counter* closes_total_;
  obs::Counter* fast_fails_;
};

/// Sleeper invoked once per backoff window (the ROADMAP's
/// "scheduler-integrated retries"). The sleeper owns the window: it MUST
/// advance `clock` by exactly `delay`, but may do useful work first —
/// the prefetch pipeline's sleeper pumps queued background transfers so
/// speculative fetches progress while the foreground request waits out
/// its backoff instead of dead-sleeping the whole session.
using BackoffSleeper = std::function<void(Micros delay)>;

/// Trace hookup for RetryWithBackoff. When `tracer` is set and `parent`
/// is a valid propagated context, every backoff window records a
/// "retry.backoff" span under `parent`, tagged with the attempt number
/// it follows and the delay spent — so a trace shows exactly how much
/// of a slow request was retry backoff rather than useful work.
struct RetryTrace {
  obs::Tracer* tracer = nullptr;  ///< Borrowed; null disables.
  obs::TraceContext parent;
};

/// Runs `attempt` until it succeeds, fails permanently, exhausts
/// `policy.max_attempts`, or would overrun the deadline budget. Backoff
/// delays advance `clock` — through `sleeper` when one is installed —
/// and record under "retry.*" ("retry.attempts_total",
/// "retry.retries_total", "retry.exhausted_total", "retry.delay_us"),
/// plus a "retry.backoff" span per window when `trace` is wired.
/// On exhaustion the last underlying error is returned unchanged so
/// callers can still classify it (e.g. salvage a Corruption); when the
/// budget forbids another try, DeadlineExceeded.
template <typename T, typename Fn>
StatusOr<T> RetryWithBackoff(const RetryPolicy& policy, SimClock* clock,
                             Random* rng, const BackoffSleeper& sleeper,
                             Fn&& attempt, const RetryTrace& trace = {}) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* attempts_total = reg.counter("retry.attempts_total");
  obs::Counter* retries_total = reg.counter("retry.retries_total");
  obs::Counter* exhausted_total = reg.counter("retry.exhausted_total");
  obs::Histogram* delay_us = reg.histogram("retry.delay_us");

  const Micros start = clock->Now();
  const int max_attempts = std::max(1, policy.max_attempts);
  for (int attempt_no = 1;; ++attempt_no) {
    attempts_total->Increment();
    StatusOr<T> result = attempt();
    if (result.ok()) return result;
    if (!IsRetryable(result.status())) return result;
    if (attempt_no >= max_attempts) {
      exhausted_total->Increment();
      return result;
    }
    const Micros delay = policy.BackoffFor(attempt_no, rng);
    if (policy.deadline_us > 0 &&
        (clock->Now() - start) + delay > policy.deadline_us) {
      exhausted_total->Increment();
      return Status::DeadlineExceeded(
          "retry budget exhausted; last error: " +
          result.status().ToString());
    }
    delay_us->Record(static_cast<double>(delay));
    retries_total->Increment();
    std::optional<obs::TraceSpan> backoff_span =
        obs::MaybeStartSpan(trace.tracer, "retry.backoff", trace.parent);
    if (backoff_span.has_value()) {
      backoff_span->AddTag("attempt", static_cast<int64_t>(attempt_no));
      backoff_span->AddTag("backoff_us", delay);
    }
    if (sleeper) {
      sleeper(delay);
    } else {
      clock->Advance(delay);
    }
  }
}

/// Convenience overload without a backoff sleeper: the backoff window is
/// spent advancing the clock, exactly as before sleepers existed.
template <typename T, typename Fn>
StatusOr<T> RetryWithBackoff(const RetryPolicy& policy, SimClock* clock,
                             Random* rng, Fn&& attempt) {
  return RetryWithBackoff<T>(policy, clock, rng, BackoffSleeper(),
                             std::forward<Fn>(attempt));
}

}  // namespace minos::server

#endif  // MINOS_SERVER_FAULT_H_

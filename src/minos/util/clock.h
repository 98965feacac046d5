#ifndef MINOS_UTIL_CLOCK_H_
#define MINOS_UTIL_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace minos {

/// Microseconds — the time unit used throughout the MINOS simulation.
using Micros = int64_t;

/// Converts whole milliseconds to Micros.
constexpr Micros MillisToMicros(int64_t ms) { return ms * 1000; }

/// Converts whole seconds to Micros.
constexpr Micros SecondsToMicros(int64_t s) { return s * 1000000; }

/// Converts Micros to (truncated) milliseconds.
constexpr int64_t MicrosToMillis(Micros us) { return us / 1000; }

/// Converts Micros to seconds as a double.
constexpr double MicrosToSeconds(Micros us) {
  return static_cast<double>(us) / 1e6;
}

/// Abstract clock. All time-dependent MINOS components (audio playback,
/// device models, tours, process simulation) take a Clock so that tests and
/// benchmarks run under simulated time deterministically.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds since an arbitrary epoch.
  virtual Micros Now() const = 0;

  /// Blocks (or, for a simulated clock, advances time) for `duration`.
  virtual void Sleep(Micros duration) = 0;
};

/// Deterministic simulated clock. Now() returns a counter that only moves
/// when Sleep() or Advance() is called. This is the clock used everywhere
/// in the reproduction: the original MINOS ran against wall-clock audio
/// hardware; we substitute virtual time so that audio playback, pauses,
/// tours and queueing models are exactly reproducible.
///
/// ## Frames (multi-core virtual time)
///
/// The task pool (runtime::TaskPool) runs simulation work on real worker
/// threads while keeping virtual time deterministic. While a Frame is
/// installed on a thread, every clock operation that thread performs —
/// Now/Sleep/Advance/AdvanceTo/RewindTo — acts on the frame's private
/// time instead of the shared base time. Concurrent tasks therefore each
/// see an isolated timeline starting at the epoch time; the pool's
/// barrier folds the per-frame costs back into the base clock by their
/// maximum (overlapping work). The base time is frozen while an epoch
/// runs, so frame installation is the only synchronization a task needs.
class SimClock final : public Clock {
 public:
  /// Starts at time zero (or `start`).
  explicit SimClock(Micros start = 0) : now_(start) {}

  /// A private virtual timeline for the installing thread, scoped RAII:
  /// installation pushes onto a per-thread stack, destruction pops. A
  /// frame belongs to one SimClock; operations on a different clock on
  /// the same thread fall through to that clock's own innermost frame
  /// (or its base time), so nested pools over distinct clocks compose.
  class Frame {
   public:
    Frame(SimClock* clock, Micros start)
        : clock_(clock), start_(start), now_(start), prev_(t_top_) {
      t_top_ = this;
    }
    ~Frame() { t_top_ = prev_; }

    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    /// The frame's current virtual time.
    Micros now() const { return now_; }
    /// Virtual time consumed since installation (>= 0; rewinds below the
    /// start clamp to the start, matching RewindTo's floor of zero cost).
    Micros elapsed() const { return now_ - start_; }

   private:
    friend class SimClock;
    SimClock* clock_;
    Micros start_;
    Micros now_;
    Frame* prev_;
  };

  Micros Now() const override {
    if (const Frame* f = CurrentFrame()) return f->now_;
    return now_.load(std::memory_order_relaxed);
  }

  /// Advances simulated time; negative durations are ignored.
  void Sleep(Micros duration) override {
    if (duration <= 0) return;
    if (Frame* f = CurrentFrame()) {
      f->now_ += duration;
    } else {
      now_.store(now_.load(std::memory_order_relaxed) + duration,
                 std::memory_order_relaxed);
    }
  }

  /// Alias of Sleep for call sites that read better as an explicit advance.
  void Advance(Micros duration) { Sleep(duration); }

  /// Moves the clock to an absolute time, which must not be in the past.
  void AdvanceTo(Micros t) {
    if (Frame* f = CurrentFrame()) {
      if (t > f->now_) f->now_ = t;
      return;
    }
    if (t > now_.load(std::memory_order_relaxed))
      now_.store(t, std::memory_order_relaxed);
  }

  /// Returns to an earlier absolute time (no-op when `t` is not in the
  /// past). The prefetch pipeline uses this: each staging task measures
  /// its work's cost and rewinds so the foreground never observes the
  /// stall — the work is modeled as overlapping presentation time. Inside
  /// a task-pool frame a rewind never goes below the frame's start: the
  /// frame's cost contribution stays non-negative.
  void RewindTo(Micros t) {
    if (Frame* f = CurrentFrame()) {
      const Micros floor = f->start_;
      const Micros target = t < floor ? floor : t;
      if (target < f->now_) f->now_ = target;
      return;
    }
    if (t >= 0 && t < now_.load(std::memory_order_relaxed))
      now_.store(t, std::memory_order_relaxed);
  }

 private:
  /// The calling thread's innermost frame belonging to this clock, or
  /// null when the thread operates on the base time.
  Frame* CurrentFrame() const {
    for (Frame* f = t_top_; f != nullptr; f = f->prev_)
      if (f->clock_ == this) return f;
    return nullptr;
  }

  /// Base virtual time. Atomic only so worker threads that read the base
  /// (through a frame's start, or a clock without a frame) stay race-free
  /// under TSan; all base mutations happen between epochs on one thread.
  std::atomic<Micros> now_;

  /// Innermost installed frame of the calling thread (any clock).
  inline static thread_local Frame* t_top_ = nullptr;
};

/// Real wall clock (CLOCK_MONOTONIC). Used only by benchmark harnesses that
/// want to report real elapsed time; the library itself always takes an
/// injected Clock.
class WallClock final : public Clock {
 public:
  Micros Now() const override;
  void Sleep(Micros duration) override;
};

}  // namespace minos

#endif  // MINOS_UTIL_CLOCK_H_

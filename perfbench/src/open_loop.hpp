#pragma once
// Open-loop load generation with lateness accounting. Op i of a connection
// is due at start + i * period, whatever happened to earlier ops: when the
// generator falls behind (a stalled send, a descheduled thread) it sends
// every op that has come due in a burst instead of skipping or delaying
// the schedule. Latency is counted from the due time, so a stall shows up
// in the latency of every op it delayed (no coordinated omission), and the
// generator's own lateness — send time minus due time — is recorded apart
// as the lag, which says whether the latencies can be trusted.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "common.hpp"

namespace perfbench {

class OpenLoopSchedule {
public:
  OpenLoopSchedule(Clock::time_point start, std::chrono::nanoseconds period)
      : start_(start), period_(period) {}

  [[nodiscard]] Clock::time_point due(std::uint64_t op) const {
    return start_ + period_ * static_cast<std::int64_t>(op);
  }
  [[nodiscard]] std::chrono::nanoseconds period() const { return period_; }

  /// Latency of op `op` completed at `done`, counted from its due time.
  [[nodiscard]] double latency_us(std::uint64_t op, Clock::time_point done) const {
    return micros_between(due(op), done);
  }

private:
  Clock::time_point start_;
  std::chrono::nanoseconds period_;
};

inline constexpr unsigned kMaxBurst = 32;

/// Drives `conn` on `schedule` until `word` reads kStop, then lets the
/// connection drain. `Conn` provides:
///   void send(std::uint64_t op, int word)   issue op `op` in the epoch word
///   void poll(Clock::time_point until)      handle responses until `until`
///                                           (may return earlier)
///   void drain()                            settle every outstanding op
/// The lag of each op (how late its send started) goes to `samples` as a
/// Lag sample of its epoch. Returns the number of ops sent.
template <class Conn>
std::uint64_t run_open_loop(Conn& conn, const OpenLoopSchedule& schedule,
                            const std::atomic<int>& word, SampleLog& samples) {
  std::uint64_t next = 0;
  for (;;) {
    const int w = word.load(std::memory_order_acquire);
    if (w == kStop) break;
    Clock::time_point now = Clock::now();
    // Catch up: every op already due leaves now, in schedule order. A long
    // burst still yields to poll() (with a due time already past, it only
    // takes what has arrived) so responses keep draining.
    for (unsigned burst = 0; burst < kMaxBurst && schedule.due(next) <= now; ++burst) {
      samples.add(epoch_of(w), SampleKind::Lag, micros_between(schedule.due(next), now));
      conn.send(next, w);
      ++next;
      now = Clock::now();
    }
    conn.poll(schedule.due(next));
  }
  conn.drain();
  return next;
}

}  // namespace perfbench

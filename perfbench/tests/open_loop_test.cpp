#include "open_loop.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "quantile.hpp"

namespace perfbench {
namespace {

using namespace std::chrono_literals;

/// A connection whose server answers at once; send() of one chosen op
/// stalls, as a descheduled generator or a blocked socket would.
class StallingConn {
public:
  StallingConn(const OpenLoopSchedule& schedule, EpochTallies& tallies, SampleLog& samples,
               std::uint64_t stall_op, Clock::duration stall)
      : schedule_(schedule),
        tallies_(tallies),
        samples_(samples),
        stall_op_(stall_op),
        stall_(stall) {}

  void send(std::uint64_t op, int word) {
    ++tallies_[epoch_of(word)].attempted;
    if (op == stall_op_) std::this_thread::sleep_for(stall_);
    pending_.push_back({op, epoch_of(word)});
    ++sent_;
  }
  void poll(Clock::time_point until) {
    settle();
    std::this_thread::sleep_until(std::min(until, Clock::now() + 2ms));
  }
  void drain() { settle(); }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }

private:
  void settle() {
    const auto now = Clock::now();
    for (const auto& [op, epoch] : pending_) {
      samples_.add(epoch, SampleKind::Read, schedule_.latency_us(op, now));
      tallies_[epoch].note(Outcome::Ok);
    }
    pending_.clear();
  }

  const OpenLoopSchedule& schedule_;
  EpochTallies& tallies_;
  SampleLog& samples_;
  std::uint64_t stall_op_;
  Clock::duration stall_;
  std::vector<std::pair<std::uint64_t, int>> pending_;
  std::uint64_t sent_ = 0;
};

struct LoopRun {
  EpochTallies tallies;
  SampleLog samples;
  std::uint64_t sent = 0;
  std::uint64_t due = 0;  ///< ops due before the stop
};

LoopRun run_for(Clock::duration length, std::uint64_t stall_op, Clock::duration stall) {
  LoopRun run;
  const auto start = Clock::now();
  const OpenLoopSchedule schedule(start, 1ms);
  StallingConn conn(schedule, run.tallies, run.samples, stall_op, stall);
  std::atomic<int> word{epoch_word(1, false)};
  std::thread stopper([&] {
    std::this_thread::sleep_until(start + length);
    word.store(kStop);
  });
  const std::uint64_t next = run_open_loop(conn, schedule, word, run.samples);
  stopper.join();
  run.sent = conn.sent();
  EXPECT_EQ(next, run.sent);  // every op index the schedule reached was sent
  run.due = static_cast<std::uint64_t>((length / 1ms));
  return run;
}

std::vector<float> samples_of(const LoopRun& run, SampleKind kind) {
  std::array<bool, kEpochs> keep{};
  keep[1] = true;
  std::vector<float> out;
  run.samples.collect(kind, keep, out);
  return out;
}

TEST(OpenLoop, DueTimesFollowTheSchedule) {
  const auto start = Clock::now();
  const OpenLoopSchedule schedule(start, 250us);
  EXPECT_EQ(schedule.due(0), start);
  EXPECT_EQ(schedule.due(4), start + 1ms);
  EXPECT_NEAR(schedule.latency_us(4, start + 3ms), 2000.0, 1e-6);
}

TEST(OpenLoop, StallShowsInLatencyCountedFromSchedule) {
  // Op 20 stalls its send for 60 ms; ops 21..~80 come due meanwhile.
  LoopRun run = run_for(200ms, 20, 60ms);
  // No omission: the generator caught up and sent every op that came due.
  EXPECT_GE(run.sent + 5, run.due);
  EXPECT_EQ(run.tallies[1].attempted, run.sent);
  std::vector<float> lat = samples_of(run, SampleKind::Read);
  EXPECT_EQ(lat.size(), run.sent);
  // The stalled op and every op queued behind it carry the wait.
  std::size_t delayed = 0;
  for (float us : lat) delayed += us > 20'000.0F ? 1 : 0;
  EXPECT_GE(delayed, 35u);
  EXPECT_GE(exact_quantile(lat, 1.0).value, 55'000.0);
  // The generator's lateness is recorded apart, and shows the stall.
  std::vector<float> lag = samples_of(run, SampleKind::Lag);
  EXPECT_EQ(lag.size(), run.sent);
  EXPECT_GE(exact_quantile(lag, 0.99).value, 40'000.0);
}

TEST(OpenLoop, NoStallKeepsLatencyAndLagSmall) {
  LoopRun run = run_for(200ms, ~std::uint64_t{0}, 0ms);
  EXPECT_GE(run.sent + 5, run.due);
  std::vector<float> lat = samples_of(run, SampleKind::Read);
  // Loose bound: the fake answers at its next poll, at most ~2 ms later.
  EXPECT_LT(exact_quantile(lat, 0.5).value, 5'000.0);
  std::vector<float> lag = samples_of(run, SampleKind::Lag);
  EXPECT_LT(exact_quantile(lag, 0.5).value, 5'000.0);
}

}  // namespace
}  // namespace perfbench

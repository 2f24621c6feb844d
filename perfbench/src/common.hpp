#pragma once
// Shared pieces of the benchmark binary: clocks, the epochs a client
// thread tallies its ops into, block images and their verification,
// process resource readings, and the classification of operation errors.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Bytes of one memory block; every image and read payload has this size.
inline constexpr std::size_t kBlockBytes = 64;
/// Client threads (or connections) of every workload.
inline constexpr unsigned kClients = 2;

/// Service instances a run sets up, and timed slices an untraced run takes
/// on each of them.
inline constexpr unsigned kSetupReps = 3;
inline constexpr unsigned kSlicesPerSetup = 12;

/// The controller's word to the client threads. A run is a sequence of
/// epochs — epoch 0 is the untimed warm-up, later ones are timed slices —
/// each traced (the benchmark's spans around every call) or not. A client
/// thread reads the word when an op starts and tallies the op into that epoch;
/// kStop makes it finish its current op and exit.
inline constexpr int kStop = -1;
inline constexpr int kEpochs = 1 + static_cast<int>(kSetupReps * kSlicesPerSetup);
// Traced runs use epochs 1..3; a sample stores its epoch in one byte.
static_assert(kEpochs > 3 && kEpochs <= 256);
[[nodiscard]] constexpr int epoch_word(int epoch, bool traced) {
  return 2 * epoch + (traced ? 1 : 0);
}
[[nodiscard]] constexpr int epoch_of(int word) { return word / 2; }
[[nodiscard]] constexpr bool is_traced(int word) { return word % 2 != 0; }

/// How one operation ended.
enum class Outcome {
  Ok,       ///< completed; a read returned the expected image
  Typed,    ///< refused or failed with a typed error of the system
  Corrupt,  ///< a read returned bytes other than the last write's image
  Untyped,  ///< an exception outside the system's error taxonomy
};

/// Per-epoch counts of one client thread (or connection). Its latency
/// samples go to the client's SampleLog.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t typed = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t untyped = 0;

  // Spans, filled in traced epochs only.
  double send_us = 0.0;  ///< time inside the client's send calls
  std::uint64_t sends = 0;
  double queue_ns = 0.0;  ///< runtime OpSummary queue wait, summed
  double exec_read_ns = 0.0;
  double exec_write_ns = 0.0;
  std::uint64_t exec_reads = 0;
  std::uint64_t exec_writes = 0;

  void note(Outcome outcome) {
    switch (outcome) {
      case Outcome::Ok: ++ok; break;
      case Outcome::Typed: ++typed; break;
      case Outcome::Corrupt: ++corrupt; break;
      case Outcome::Untyped: ++untyped; break;
    }
  }
  void merge(const Tally& other);
};

using EpochTallies = std::array<Tally, kEpochs>;

/// What a latency sample measures.
enum class SampleKind : std::uint8_t {
  Read,   ///< latency of a successful read
  Write,  ///< latency of a successful write
  Lag,    ///< open loop: send time minus due time
};

/// The latency samples of one client thread (or connection), in the order
/// taken; warm-up (epoch 0) samples are not kept. reserve() sizes and
/// touches the buffer before the run, so the driver's resident memory does
/// not grow with the number of ops it completes while the capacity holds.
class SampleLog {
public:
  struct Sample {
    float us;
    std::uint8_t epoch;
    SampleKind kind;
  };

  void reserve(std::size_t capacity);
  void add(int epoch, SampleKind kind, double us) {
    if (epoch != 0)
      samples_.push_back({static_cast<float>(us), static_cast<std::uint8_t>(epoch), kind});
  }
  /// True once the log holds more samples than reserve() made room for.
  [[nodiscard]] bool overflowed() const { return samples_.size() > reserved_; }
  /// Appends the samples of `kind` from the epochs `keep[epoch]` marks.
  void collect(SampleKind kind, const std::array<bool, kEpochs>& keep,
               std::vector<float>& out) const;
  [[nodiscard]] std::size_t count(int epoch, SampleKind kind) const;

private:
  std::vector<Sample> samples_;
  std::size_t reserved_ = 0;
};

/// Empties `v` but leaves `capacity` elements allocated and written, so its
/// pages are resident before the run instead of when it fills.
template <class T>
void reserve_touched(std::vector<T>& v, std::size_t capacity) {
  v.assign(capacity, T{});
  v.clear();
}

/// What the client thread that owns a block knows of its content.
struct BlockState {
  std::uint32_t version = 0;  ///< last written version (0 after the warm phase)
  /// A write failed with a typed error, so whether it landed is unknown
  /// (a timed-out write may still execute); reads are not held to an image
  /// until a later write settles it.
  bool unknown = false;
};

/// Deterministic content of `block` after its `version`-th write in a run
/// seeded with `seed`. Version 0 is the warm-phase image.
void fill_image(std::uint64_t seed, std::uint64_t block, std::uint32_t version,
                std::span<std::uint8_t> out);
/// True when `data` is exactly the kBlockBytes image of `version`; a
/// payload of any other size never matches.
[[nodiscard]] bool image_matches(std::uint64_t seed, std::uint64_t block,
                                 std::uint32_t version,
                                 std::span<const std::uint8_t> data);
/// Ok when a read of `block` returned `data` as `state` expects, Corrupt
/// otherwise. A payload that is not one block is Corrupt even when the
/// block's image is unknown.
[[nodiscard]] Outcome check_read(std::uint64_t seed, std::uint64_t block,
                                 const BlockState& state,
                                 std::span<const std::uint8_t> data);

/// Maps the exception in flight to Typed or Untyped and stores its message
/// in `what`. Call only from a catch block.
[[nodiscard]] Outcome classify_current_exception(std::string& what);

/// Host-wide CPU time counters from /proc/stat, in clock ticks: the time the
/// hypervisor ran something else on this VM's CPUs (steal) and the total.
/// Both are 0 where /proc/stat cannot be read.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();

/// User + system CPU seconds of the whole process so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process so far, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench

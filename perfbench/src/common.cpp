#include "common.hpp"

#include <sys/resource.h>

#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "net/client.hpp"
#include "runtime/service_config.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  ok += other.ok;
  typed += other.typed;
  corrupt += other.corrupt;
  untyped += other.untyped;
  send_us += other.send_us;
  sends += other.sends;
  queue_ns += other.queue_ns;
  exec_read_ns += other.exec_read_ns;
  exec_write_ns += other.exec_write_ns;
  exec_reads += other.exec_reads;
  exec_writes += other.exec_writes;
}

void SampleLog::reserve(std::size_t capacity) {
  reserve_touched(samples_, capacity);
  reserved_ = capacity;
}

void SampleLog::collect(SampleKind kind, const std::array<bool, kEpochs>& keep,
                        std::vector<float>& out) const {
  for (const Sample& s : samples_)
    if (s.kind == kind && keep[s.epoch]) out.push_back(s.us);
}

std::size_t SampleLog::count(int epoch, SampleKind kind) const {
  std::size_t n = 0;
  for (const Sample& s : samples_) n += s.epoch == epoch && s.kind == kind ? 1 : 0;
  return n;
}

void fill_image(std::uint64_t seed, std::uint64_t block, std::uint32_t version,
                std::span<std::uint8_t> out) {
  std::uint64_t state = spe::util::mix64(seed ^ spe::util::mix64(block) ^
                                         (static_cast<std::uint64_t>(version) << 40));
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const std::uint64_t word = spe::util::splitmix64(state);
    const std::size_t n = std::min<std::size_t>(8, out.size() - i);
    std::memcpy(out.data() + i, &word, n);
  }
}

bool image_matches(std::uint64_t seed, std::uint64_t block, std::uint32_t version,
                   std::span<const std::uint8_t> data) {
  if (data.size() != kBlockBytes) return false;
  std::uint8_t expect[kBlockBytes];
  fill_image(seed, block, version, expect);
  return std::memcmp(expect, data.data(), kBlockBytes) == 0;
}

Outcome check_read(std::uint64_t seed, std::uint64_t block, const BlockState& state,
                   std::span<const std::uint8_t> data) {
  if (data.size() != kBlockBytes) return Outcome::Corrupt;
  return state.unknown || image_matches(seed, block, state.version, data) ? Outcome::Ok
                                                                          : Outcome::Corrupt;
}

Outcome classify_current_exception(std::string& what) {
  try {
    throw;
  } catch (const spe::runtime::QueueFullError& e) {
    what = e.what();
    return Outcome::Typed;
  } catch (const spe::runtime::ServiceStoppedError& e) {
    what = e.what();
    return Outcome::Typed;
  } catch (const spe::runtime::UncorrectableFaultError& e) {
    what = e.what();
    return Outcome::Typed;
  } catch (const spe::runtime::QuarantinedBlockError& e) {
    what = e.what();
    return Outcome::Typed;
  } catch (const spe::runtime::TornBlockError& e) {
    what = e.what();
    return Outcome::Typed;
  } catch (const spe::runtime::QuotaExceededError& e) {
    what = e.what();
    return Outcome::Typed;
  } catch (const spe::net::RemoteError& e) {
    what = e.what();
    return Outcome::Typed;
  } catch (const spe::net::NetTimeoutError& e) {
    what = e.what();
    return Outcome::Typed;
  } catch (const std::exception& e) {
    what = e.what();
    return Outcome::Untyped;
  } catch (...) {
    what = "non-standard exception";
    return Outcome::Untyped;
  }
}

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return {};
  std::istringstream fields(line.substr(4));
  CpuTicks ticks;
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already counted in user/nice.
  for (int i = 0; i < 8 && fields >> value; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench

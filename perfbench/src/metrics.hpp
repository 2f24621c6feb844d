#pragma once
// The benchmark's metric names and units — the same lists BENCHMARK.json
// declares (perfbench/tests/test_metric_names.py holds the two to each
// other). An untraced run reports every end-to-end metric, a traced run
// every per-layer metric.

#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"throughput_kops", "kops/s"},
    {"read_p50_us", "us"},
    {"read_p99_us", "us"},
    {"write_p50_us", "us"},
    {"write_p99_us", "us"},
    {"cpu_us_per_op", "us"},
    {"encrypted_fraction", "ratio"},
    {"ok_frac", "ratio"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"driver.send_lag_p99_us", "us"},
    {"setup.service_s", "s"},
    {"setup.warm_s", "s"},
    {"net.send_us", "us"},
    {"net.server_request_us", "us"},
    {"net.completion_us", "us"},
    {"net.transport_us", "us"},
    {"net.codec_ns", "ns"},
    {"net.bytes_per_op", "bytes"},
    {"net.shed", "count"},
    {"tenant.auth_ns", "ns"},
    {"tenant.owner_ns", "ns"},
    {"tenant.denied", "count"},
    {"runtime.read_us", "us"},
    {"runtime.write_us", "us"},
    {"runtime.queue_wait_us", "us"},
    {"runtime.execute_read_us", "us"},
    {"runtime.execute_write_us", "us"},
    {"runtime.scrub_per_kop", "1/kop"},
    {"runtime.bg_encrypt_per_kop", "1/kop"},
    {"runtime.plaintext_max", "count"},
    {"runtime.queue_high_water", "count"},
    {"runtime.coalesced_per_kop", "1/kop"},
    {"runtime.retries", "count"},
    {"core.cipher_write_us", "us"},
    {"core.cipher_read_us", "us"},
    {"core.cipher_bg_us", "us"},
    {"core.pulses_per_op", "count"},
    {"ecc.refresh_us", "us"},
    {"ecc.verify_us", "us"},
    {"obs.trace_overhead_frac", "ratio"},
    {"attr.e2e_mean_us", "us"},
    {"attr.residual_us", "us"},
};

/// The metrics of one run. set() accepts only names of the run's list, and
/// the result line is printed only once every one of them has a value.
class Report {
public:
  explicit Report(bool traced)
      : specs_(traced ? std::span<const MetricSpec>(kPerLayer)
                      : std::span<const MetricSpec>(kEndToEnd)) {}

  void set(const std::string& name, double value);
  /// First declared metric without a value, or "" when all are set.
  [[nodiscard]] std::string missing() const;
  /// One "metric <name> <value> <unit>" line per metric, declared order.
  void print_table(std::FILE* out) const;
  /// The single-line JSON result object.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

private:
  std::span<const MetricSpec> specs_;
  std::map<std::string, double> values_;
};

}  // namespace perfbench

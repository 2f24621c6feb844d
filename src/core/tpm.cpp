#include "core/tpm.hpp"

#include "obs/metrics.hpp"
#include "util/ct_equal.hpp"

namespace spe::core {

void Tpm::provision(std::uint64_t device_id, std::uint64_t platform_measurement,
                    const SpeKey& key) {
  sealed_[device_id] = Sealed{platform_measurement, key};
}

std::optional<SpeKey> Tpm::authenticate_and_release(
    std::uint64_t device_id, std::uint64_t platform_measurement) const {
  const auto it = sealed_.find(device_id);
  const bool known = it != sealed_.end();
  // Compare against a dummy when the device is unknown so both refusal paths
  // execute the same measurement check before diverging.
  const std::uint64_t sealed_measurement = known ? it->second.measurement : 0;
  // Constant-time, so a probing platform cannot bisect the sealed
  // measurement through the handshake's timing.
  const bool match = util::ct_equal(sealed_measurement, platform_measurement);
  if (!known || !match) {
    failed_releases_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global()
        .counter("spe_tpm_failed_releases_total",
                 "TPM release attempts refused (unknown device or "
                 "measurement mismatch)")
        .add();
    return std::nullopt;
  }
  return it->second.key;
}

bool Tpm::knows_device(std::uint64_t device_id) const {
  return sealed_.contains(device_id);
}

}  // namespace spe::core

#pragma once
// The probe pass of a traced run: a sample of the workload's op stream
// replayed straight into one layer's public entry point at a time, timed
// from outside. Probes run after the client threads stopped, so nothing else
// competes with them.

#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct CoreProbe {
  double cipher_write_us = 0.0;  ///< Specu::write_block
  double cipher_read_us = 0.0;   ///< Specu::read_block
  double cipher_bg_us = 0.0;     ///< Specu::background_encrypt (Serial only)
  double pulses_per_op = 0.0;    ///< exact, from Specu::stats()
  double ecc_refresh_us = 0.0;   ///< ecc::level_checks
  double ecc_verify_us = 0.0;    ///< ecc::verify_levels
};

/// Replays `ops` on a standalone Snvmm powered from a Tpm in the workload's
/// mode (on the device of the service's first shard, so its calibration is
/// already cached), checking every read. Throws std::runtime_error on a
/// read that does not return the last written image.
[[nodiscard]] CoreProbe probe_core(const Workload& wl, const std::vector<BlockOp>& ops);

/// Encode + decode of one op's request and response frames, as the
/// workload sends them (with the tenant extension when `tenant` != 0).
[[nodiscard]] double probe_codec_ns(const Workload& wl, const std::vector<BlockOp>& ops,
                                    std::uint32_t tenant);

struct TenantProbe {
  double auth_ns = 0.0;   ///< TenantRegistry::authenticate
  double owner_ns = 0.0;  ///< TenantRegistry::owner_of
};
[[nodiscard]] TenantProbe probe_tenant(const Workload& wl, const std::vector<BlockOp>& ops);

}  // namespace perfbench

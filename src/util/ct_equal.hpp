#pragma once
// Constant-time equality for secrets checked on attacker-timed paths (the
// TPM's sealed-measurement check, the tenant wire-token check).

#include <cstdint>

namespace spe::util {

/// Branch-free 64-bit equality: the cost is independent of which (if any)
/// bits differ, so a prober cannot bisect the secret through timing.
[[nodiscard]] inline bool ct_equal(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t diff = a ^ b;
  diff |= diff >> 32;
  diff |= diff >> 16;
  diff |= diff >> 8;
  diff |= diff >> 4;
  diff |= diff >> 2;
  diff |= diff >> 1;
  return (diff & 1u) == 0;
}

}  // namespace spe::util

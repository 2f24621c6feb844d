#pragma once
// Per-pass arithmetic of one SPE pulse (Section 5): the pass key, the
// per-cell transform selection, the intra-pass chain and the outside-state
// digest term. SpeCipher's step kernel and the scalar reference oracle
// (tests/support) both include this header, so the two share one definition
// of the math; only their loop structures differ.

#include <cstddef>
#include <cstdint>

#include "core/calibration.hpp"
#include "core/key_schedule.hpp"
#include "util/rng.hpp"

namespace spe::core::pulse_math {

inline constexpr std::uint64_t kChainInit = 0x510E527FADE682D1ull;
inline constexpr std::uint64_t kDigestInit = 0x9B05688C2B3E6C1Full;

inline std::uint64_t pass_base(std::uint64_t digest, std::uint64_t fingerprint,
                               const PulseStep& step, unsigned step_index,
                               unsigned pass) noexcept {
  return digest ^ fingerprint ^ (std::uint64_t{step.pulse_code} << 32) ^
         (std::uint64_t{step.poe_cell} << 40) ^ (std::uint64_t{step_index} << 48) ^
         (std::uint64_t{pass} << 56);
}

inline void transform_params(std::uint64_t base, std::uint64_t chain, unsigned tier,
                             unsigned pulse_code, std::size_t library_size,
                             unsigned& code, unsigned& rot) noexcept {
  const std::uint64_t h = util::mix64(base ^ chain ^ (std::uint64_t{tier} << 8));
  code = (pulse_code ^ static_cast<unsigned>(h & 31)) % library_size;
  rot = static_cast<unsigned>((h >> 5) & (CipherCalibration::kLevels - 1));
}

inline std::uint64_t fold_chain(std::uint64_t chain, std::uint8_t level,
                                std::uint16_t cell) noexcept {
  return util::mix64(chain ^ (std::uint64_t{level} << 8) ^ cell);
}

/// Per-cell term of the outside-state digest (order-independent XOR fold).
inline std::uint64_t cell_digest_term(std::uint8_t level, unsigned cell) noexcept {
  return util::mix64((std::uint64_t{level} << 16) | cell);
}

}  // namespace spe::core::pulse_math

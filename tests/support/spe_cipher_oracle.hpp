#pragma once
// Scalar reference oracle for the SPE pulse kernel (test support only).
//
// The paper's per-pulse description taken literally: every pulse rescans
// the whole unit for the outside-state digest, and the inverse pass replays
// each position's chain from scratch (O(n^2) per pass). It shares the
// per-pass arithmetic with SpeCipher through core/pulse_math.hpp, so the two
// differ only in loop structure; tests/core/cipher_oracle_test pins
// SpeCipher's incremental kernel to it byte-for-byte, and
// `throughput_service --min-kernel-speedup` times the two against each
// other.

#include <span>

#include "core/spe_cipher.hpp"

namespace spe::core::oracle {

/// Applies step `step_index` of `cipher`'s schedule (or its inverse) to
/// `levels` in place. Sizes must equal cipher.cell_count().
void apply_pulse(const SpeCipher& cipher, UnitLevels& levels, unsigned step_index,
                 bool encrypt);

/// Reference forms of the SpeCipher entry points of the same names.
void encrypt(const SpeCipher& cipher, UnitLevels& levels);
void decrypt(const SpeCipher& cipher, UnitLevels& levels);
void encrypt_truncated(const SpeCipher& cipher, UnitLevels& levels, unsigned pulses);
void decrypt_with_order(const SpeCipher& cipher, UnitLevels& levels,
                        std::span<const unsigned> order);

}  // namespace spe::core::oracle

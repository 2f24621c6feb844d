#pragma once
// Bit-serial reference oracle for the SEC-DED codes in src/ecc (test
// support only).
//
// The (72,64) Hamming code and the bit-plane level code written the plain
// way: each check bit gathers its covered data bits one at a time, each
// plane word gathers its cells one at a time, decode scans the 64 position
// codes for the syndrome, and corrected cells are collected in a set.
// tests/ecc/ecc_oracle_test pins the word-parallel production code to it
// field for field.

#include <cstdint>
#include <span>
#include <vector>

#include "ecc/level_ecc.hpp"
#include "ecc/secded.hpp"

namespace spe::ecc::oracle {

/// Reference forms of the spe::ecc functions of the same names.
[[nodiscard]] std::uint8_t encode_check(std::uint64_t data);
[[nodiscard]] DecodeResult decode(Codeword word);
[[nodiscard]] std::vector<std::uint8_t> level_checks(std::span<const std::uint8_t> levels);
[[nodiscard]] LevelDecodeResult verify_levels(std::span<std::uint8_t> levels,
                                              std::span<const std::uint8_t> checks);

}  // namespace spe::ecc::oracle

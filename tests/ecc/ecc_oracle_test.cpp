// Word-parallel SEC-DED (src/ecc) against the bit-serial reference oracle
// in tests/support: check bytes, every DecodeResult field and every
// LevelDecodeResult field must match bit for bit, including the corrected
// levels and the rule that a syndrome naming a padding bit of the short
// tail group is uncorrectable.

#include "support/ecc_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ecc/level_ecc.hpp"
#include "ecc/secded.hpp"
#include "util/rng.hpp"

namespace spe::ecc {
namespace {

constexpr unsigned kCodewordBits = 72;  // 64 data + 8 check

/// Flips bit `b` of the 72-bit codeword: 0..63 data, 64..71 check.
Codeword flip(Codeword word, unsigned b) {
  if (b < 64)
    word.data ^= std::uint64_t{1} << b;
  else
    word.check = static_cast<std::uint8_t>(word.check ^ (1u << (b - 64)));
  return word;
}

void expect_same_decode(const Codeword& word, const char* what) {
  const DecodeResult got = decode(word);
  const DecodeResult want = oracle::decode(word);
  ASSERT_EQ(got.status, want.status) << what << " data=" << word.data
                                     << " check=" << unsigned{word.check};
  ASSERT_EQ(got.data, want.data) << what;
  ASSERT_EQ(got.corrected_bit, want.corrected_bit) << what;
}

void expect_same_levels(const LevelDecodeResult& got, const LevelDecodeResult& want,
                        std::size_t cells) {
  EXPECT_EQ(got.ok, want.ok) << cells << " cells";
  EXPECT_EQ(got.corrected_bits, want.corrected_bits) << cells << " cells";
  EXPECT_EQ(got.corrected_cells, want.corrected_cells) << cells << " cells";
  EXPECT_EQ(got.uncorrectable_words, want.uncorrectable_words) << cells << " cells";
}

TEST(EccOracle, EncodeCheckMatchesOnMillionSeededWords) {
  util::Xoshiro256ss rng(0xECC0);
  std::size_t mismatches = 0;
  std::uint64_t first_bad = 0;
  for (unsigned i = 0; i < 1'000'000; ++i) {
    // Every 16th word is sparse so low-weight patterns are covered too.
    const std::uint64_t data = i % 16 == 0 ? rng() & rng() & rng() : rng();
    if (encode_check(data) != oracle::encode_check(data) && mismatches++ == 0)
      first_bad = data;
  }
  for (unsigned b = 0; b < 64; ++b) {
    const std::uint64_t one = std::uint64_t{1} << b;
    if (encode_check(one) != oracle::encode_check(one) && mismatches++ == 0) first_bad = one;
    if (encode_check(~one) != oracle::encode_check(~one) && mismatches++ == 0)
      first_bad = ~one;
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch at data=" << first_bad;
  EXPECT_EQ(encode_check(0), oracle::encode_check(0));
  EXPECT_EQ(encode_check(~std::uint64_t{0}), oracle::encode_check(~std::uint64_t{0}));
}

TEST(EccOracle, DecodeEverySingleAndDoubleFlip) {
  util::Xoshiro256ss rng(0xDEC0);
  for (unsigned t = 0; t < 32; ++t) {
    const std::uint64_t data = t == 0 ? 0 : rng();
    const Codeword clean{data, encode_check(data)};
    expect_same_decode(clean, "clean");
    unsigned singles = 0, doubles = 0;
    for (unsigned a = 0; a < kCodewordBits; ++a) {
      const Codeword one = flip(clean, a);
      expect_same_decode(one, "single flip");
      ++singles;
      for (unsigned b = a + 1; b < kCodewordBits; ++b) {
        expect_same_decode(flip(one, b), "double flip");
        ++doubles;
      }
    }
    ASSERT_EQ(singles, 72u);
    ASSERT_EQ(doubles, 2556u);
  }
}

// Arbitrary (data, check) pairs: mostly 3+ bit error patterns, including
// odd-weight syndromes that name no data bit.
TEST(EccOracle, DecodeArbitraryCodewords) {
  util::Xoshiro256ss rng(0xA4B1);
  for (unsigned t = 0; t < 200'000; ++t) {
    const std::uint64_t r = rng();
    expect_same_decode({rng(), static_cast<std::uint8_t>(r)}, "arbitrary");
  }
}

// Every array size 1..300 (full groups, short tails, and a lone cell), with
// 0, 1 and 2 corrupted cells in every 64-cell group. The corrupt values may
// also touch bits 6 and 7, which lie outside the planes.
TEST(EccOracle, LevelCodeEverySizeWithZeroOneTwoCorruptCellsPerGroup) {
  util::Xoshiro256ss rng(0x1E7E1);
  for (std::size_t n = 1; n <= 300; ++n) {
    for (unsigned per_group = 0; per_group <= 2; ++per_group) {
      for (unsigned trial = 0; trial < 3; ++trial) {
        std::vector<std::uint8_t> pristine(n);
        for (auto& l : pristine) l = static_cast<std::uint8_t>(rng() % 64);
        const std::vector<std::uint8_t> checks = level_checks(pristine);
        ASSERT_EQ(checks, oracle::level_checks(pristine)) << n << " cells";

        std::vector<std::uint8_t> levels = pristine;
        for (std::size_t base = 0; base < n; base += 64) {
          const std::size_t group = std::min<std::size_t>(64, n - base);
          // Two distinct cells of the group (only one fits a 1-cell tail).
          const std::size_t first = rng() % group;
          const std::size_t cells[2] = {
              first, group > 1 ? (first + 1 + rng() % (group - 1)) % group : first};
          for (unsigned k = 0; k < per_group && k < group; ++k)
            levels[base + cells[k]] =
                static_cast<std::uint8_t>(trial == 2 ? rng() % 256 : rng() % 64);
        }
        std::vector<std::uint8_t> expected = levels;
        const LevelDecodeResult want = oracle::verify_levels(expected, checks);
        const LevelDecodeResult got = verify_levels(levels, checks);
        expect_same_levels(got, want, n);
        ASSERT_EQ(levels, expected) << n << " cells, " << per_group << " per group";
        if (per_group <= 1 && trial < 2) {
          EXPECT_TRUE(got.ok) << n << " cells";
          EXPECT_EQ(levels, pristine) << n << " cells";
        }
      }
    }
  }
}

// A stored check byte that names a data bit beyond the last real cell of the
// short tail group: the "correction" would land in the zero padding, so the
// word counts as uncorrectable and no cell changes.
TEST(EccOracle, TailPaddingSyndromeIsUncorrectable) {
  util::Xoshiro256ss rng(0x7A11);
  unsigned cases = 0;
  for (std::size_t n = 1; n <= 300; ++n) {
    const unsigned tail = static_cast<unsigned>(n % 64);
    if (tail == 0) continue;
    std::vector<std::uint8_t> pristine(n);
    for (auto& l : pristine) l = static_cast<std::uint8_t>(rng() % 64);
    const std::vector<std::uint8_t> checks = level_checks(pristine);
    const std::size_t words = (n + 63) / 64;
    for (unsigned d = tail; d < 64; ++d) {
      const unsigned p = d % kLevelBits;
      // The code is linear: XOR-ing in encode_check(e) makes the stored
      // check that of the plane word with bit d flipped.
      std::vector<std::uint8_t> bad = checks;
      bad[p * words + words - 1] ^= encode_check(std::uint64_t{1} << d);
      std::vector<std::uint8_t> levels = pristine;
      std::vector<std::uint8_t> expected = pristine;
      const LevelDecodeResult want = oracle::verify_levels(expected, bad);
      const LevelDecodeResult got = verify_levels(levels, bad);
      expect_same_levels(got, want, n);
      EXPECT_FALSE(got.ok) << n << " cells, padding bit " << d;
      EXPECT_EQ(got.uncorrectable_words, 1u) << n << " cells, padding bit " << d;
      EXPECT_EQ(got.corrected_cells, 0u);
      ASSERT_EQ(levels, pristine) << n << " cells, padding bit " << d;
      ++cases;
    }
  }
  EXPECT_GT(cases, 0u);
}

}  // namespace
}  // namespace spe::ecc

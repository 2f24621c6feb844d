#include "core/spe_cipher.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace spe::core {
namespace {

class SpeCipherTest : public ::testing::Test {
protected:
  std::shared_ptr<const CipherCalibration> cal_ = get_calibration(xbar::CrossbarParams{});
  util::Xoshiro256ss rng_{42};

  SpeCipher make_cipher(const SpeKey& key, unsigned unit = 0) {
    return SpeCipher(key, cal_, {}, unit);
  }

  std::vector<std::uint8_t> random_bytes(unsigned n) {
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng_.below(256));
    return v;
  }
};

TEST_F(SpeCipherTest, ScheduleHasSixteenSteps) {
  const auto cipher = make_cipher(SpeKey{1, 2});
  EXPECT_EQ(cipher.schedule().size(), 16u);
  EXPECT_EQ(cipher.cell_count(), 64u);
  EXPECT_EQ(cipher.block_bytes(), 16u);
}

TEST_F(SpeCipherTest, NullCalibrationThrows) {
  EXPECT_THROW(SpeCipher(SpeKey{1, 2}, nullptr), std::invalid_argument);
}

TEST_F(SpeCipherTest, EncryptDecryptIsExactIdentity) {
  const auto cipher = make_cipher(SpeKey{0xABC, 0xDEF});
  for (int t = 0; t < 100; ++t) {
    const auto pt = random_bytes(16);
    UnitLevels levels = cipher.levels_from_bytes(pt);
    const UnitLevels original = levels;
    cipher.encrypt(levels);
    EXPECT_NE(levels, original);
    cipher.decrypt(levels);
    EXPECT_EQ(levels, original);
  }
}

TEST_F(SpeCipherTest, CiphertextDiffersFromPlaintext) {
  const auto cipher = make_cipher(SpeKey{7, 9});
  const auto pt = random_bytes(16);
  std::vector<std::uint8_t> ct(16);
  cipher.encrypt_bytes(pt, ct);
  int diff = 0;
  for (int i = 0; i < 16; ++i) diff += __builtin_popcount(pt[i] ^ ct[i]);
  EXPECT_GT(diff, 30);  // well-mixed, ~64 expected
}

TEST_F(SpeCipherTest, WrongKeyFailsToDecrypt) {
  const auto enc = make_cipher(SpeKey{1, 2});
  const auto dec = make_cipher(SpeKey{1, 3});
  const auto pt = random_bytes(16);
  UnitLevels levels = enc.levels_from_bytes(pt);
  const UnitLevels original = levels;
  enc.encrypt(levels);
  dec.decrypt(levels);
  EXPECT_NE(levels, original);
}

TEST_F(SpeCipherTest, WrongPoeOrderFailsToDecrypt) {
  // Fig. 2b: same PoEs, wrong order -> incorrect plaintext.
  const auto cipher = make_cipher(SpeKey{0x42, 0x99});
  const auto pt = random_bytes(16);
  UnitLevels levels = cipher.levels_from_bytes(pt);
  const UnitLevels original = levels;
  cipher.encrypt(levels);
  std::vector<unsigned> order(cipher.schedule().size());
  std::iota(order.begin(), order.end(), 0u);
  std::swap(order[3], order[7]);
  cipher.decrypt_with_order(levels, order);
  EXPECT_NE(levels, original);
}

TEST_F(SpeCipherTest, CorrectOrderViaDecryptWithOrder) {
  const auto cipher = make_cipher(SpeKey{0x42, 0x99});
  const auto pt = random_bytes(16);
  UnitLevels levels = cipher.levels_from_bytes(pt);
  const UnitLevels original = levels;
  cipher.encrypt(levels);
  std::vector<unsigned> order(cipher.schedule().size());
  std::iota(order.begin(), order.end(), 0u);
  cipher.decrypt_with_order(levels, order);
  EXPECT_EQ(levels, original);
}

TEST_F(SpeCipherTest, OtherDeviceCannotDecrypt) {
  // Section 6.2.1: decryption only on the same SNVMM.
  const SpeKey key{5, 6};
  const auto enc = make_cipher(key);
  const auto other_cal = get_calibration(
      with_device_variation(xbar::CrossbarParams{}, /*device_seed=*/777));
  const SpeCipher dec(key, other_cal);
  const auto pt = random_bytes(16);
  UnitLevels levels = enc.levels_from_bytes(pt);
  const UnitLevels original = levels;
  enc.encrypt(levels);
  dec.decrypt(levels);
  EXPECT_NE(levels, original);
}

TEST_F(SpeCipherTest, PlaintextAvalanche) {
  const auto cipher = make_cipher(SpeKey{111, 222});
  double flipped = 0.0;
  const int trials = 64;
  for (int t = 0; t < trials; ++t) {
    auto pt = random_bytes(16);
    std::vector<std::uint8_t> c0(16), c1(16);
    cipher.encrypt_bytes(pt, c0);
    pt[t % 16] ^= static_cast<std::uint8_t>(1u << (t % 8));
    cipher.encrypt_bytes(pt, c1);
    for (int i = 0; i < 16; ++i) flipped += __builtin_popcount(c0[i] ^ c1[i]);
  }
  const double mean_flips = flipped / trials;
  EXPECT_GT(mean_flips, 48.0);  // ideal 64 of 128
  EXPECT_LT(mean_flips, 80.0);
}

TEST_F(SpeCipherTest, KeyAvalanche) {
  const SpeKey base{0x3141592653ull & 0xFFFFFFFFFFFull, 0x2718281828ull};
  std::vector<std::uint8_t> pt(16, 0);
  double flipped = 0.0;
  std::vector<std::uint8_t> c0(16), c1(16);
  make_cipher(base).encrypt_bytes(pt, c0);
  const int trials = 88;
  for (int bit = 0; bit < trials; ++bit) {
    make_cipher(base.with_bit_flipped(bit)).encrypt_bytes(pt, c1);
    for (int i = 0; i < 16; ++i) flipped += __builtin_popcount(c0[i] ^ c1[i]);
  }
  const double mean_flips = flipped / trials;
  EXPECT_GT(mean_flips, 48.0);
  EXPECT_LT(mean_flips, 80.0);
}

TEST_F(SpeCipherTest, TruncatedScheduleLeavesCellsUntouched) {
  // The Section 6.1 ablation: fewer PoEs -> uncovered cells keep plaintext.
  const auto cipher = make_cipher(SpeKey{10, 20});
  const auto pt = random_bytes(16);
  UnitLevels levels = cipher.levels_from_bytes(pt);
  const UnitLevels original = levels;
  cipher.encrypt_truncated(levels, 2);
  unsigned untouched = 0;
  for (unsigned i = 0; i < 64; ++i) untouched += levels[i] == original[i];
  EXPECT_GT(untouched, 16u);  // two polyominoes cannot cover 64 cells
}

TEST_F(SpeCipherTest, TruncatedFullLengthEqualsEncrypt) {
  const auto cipher = make_cipher(SpeKey{10, 20});
  const auto pt = random_bytes(16);
  UnitLevels a = cipher.levels_from_bytes(pt);
  UnitLevels b = a;
  cipher.encrypt(a);
  cipher.encrypt_truncated(b, 16);
  EXPECT_EQ(a, b);
}

TEST_F(SpeCipherTest, UnitsProduceDistinctCiphertext) {
  const SpeKey key{77, 88};
  const auto u0 = make_cipher(key, 0);
  const auto u1 = make_cipher(key, 1);
  const auto pt = random_bytes(16);
  std::vector<std::uint8_t> c0(16), c1(16);
  u0.encrypt_bytes(pt, c0);
  u1.encrypt_bytes(pt, c1);
  EXPECT_NE(c0, c1);
}

TEST_F(SpeCipherTest, ByteLevelConversionRoundTrip) {
  const auto cipher = make_cipher(SpeKey{1, 1});
  for (int t = 0; t < 20; ++t) {
    const auto pt = random_bytes(16);
    std::vector<std::uint8_t> back(16);
    cipher.bytes_from_levels(cipher.levels_from_bytes(pt), back);
    EXPECT_EQ(back, pt);
  }
  EXPECT_THROW((void)cipher.levels_from_bytes(random_bytes(15)), std::invalid_argument);
}

TEST_F(SpeCipherTest, SizeValidation) {
  const auto cipher = make_cipher(SpeKey{1, 1});
  UnitLevels bad(63, 0);
  EXPECT_THROW(cipher.encrypt(bad), std::invalid_argument);
  EXPECT_THROW(cipher.decrypt(bad), std::invalid_argument);
}

TEST_F(SpeCipherTest, DeterministicCiphertext) {
  const auto cipher = make_cipher(SpeKey{123, 456});
  const auto pt = random_bytes(16);
  std::vector<std::uint8_t> c0(16), c1(16);
  cipher.encrypt_bytes(pt, c0);
  cipher.encrypt_bytes(pt, c1);
  EXPECT_EQ(c0, c1);
}

}  // namespace
}  // namespace spe::core

#include "ecc/secded.hpp"

#include <array>
#include <bit>
#include <stdexcept>

#include "ecc/le_word.hpp"

namespace spe::ecc {

namespace {

/// Position code for each data bit: a 7-bit value that is neither zero nor
/// a power of two, so data-bit syndromes never collide with check-bit
/// syndromes (which are the powers of two).
constexpr std::array<std::uint8_t, 64> make_position_codes() {
  std::array<std::uint8_t, 64> codes{};
  unsigned next = 0;
  for (unsigned v = 3; next < 64; ++v) {
    if ((v & (v - 1)) == 0) continue;  // skip powers of two
    codes[next++] = static_cast<std::uint8_t>(v);
  }
  return codes;
}
constexpr std::array<std::uint8_t, 64> kPositionCodes = make_position_codes();

/// kCoverMask[i] selects the data bits whose position code has bit i set:
/// Hamming check i is the parity of `data & kCoverMask[i]`.
constexpr std::array<std::uint64_t, 7> make_cover_masks() {
  std::array<std::uint64_t, 7> masks{};
  for (unsigned d = 0; d < 64; ++d)
    for (unsigned i = 0; i < 7; ++i)
      if ((kPositionCodes[d] >> i) & 1u) masks[i] |= std::uint64_t{1} << d;
  return masks;
}
constexpr std::array<std::uint64_t, 7> kCoverMask = make_cover_masks();

/// Inverse of kPositionCodes: the data bit a 7-bit syndrome names, or -1
/// when no data bit has that code.
constexpr std::array<std::int8_t, 128> make_syndrome_bits() {
  std::array<std::int8_t, 128> bits{};
  bits.fill(-1);
  for (unsigned d = 0; d < 64; ++d) bits[kPositionCodes[d]] = static_cast<std::int8_t>(d);
  return bits;
}
constexpr std::array<std::int8_t, 128> kSyndromeBit = make_syndrome_bits();

std::uint8_t low7_checks(std::uint64_t data) {
  unsigned checks = 0;
  for (unsigned i = 0; i < 7; ++i)
    checks |= (std::popcount(data & kCoverMask[i]) & 1u) << i;
  return static_cast<std::uint8_t>(checks);
}

unsigned parity64(std::uint64_t v) { return std::popcount(v) & 1u; }

}  // namespace

std::uint8_t encode_check(std::uint64_t data) {
  const std::uint8_t low = low7_checks(data);
  // Overall parity bit (bit 7) makes the full 72-bit codeword even-parity.
  const unsigned overall = parity64(data) ^ (std::popcount(low) & 1u);
  return static_cast<std::uint8_t>(low | (overall << 7));
}

DecodeResult decode(Codeword word) {
  DecodeResult result;
  result.data = word.data;

  const std::uint8_t syndrome =
      static_cast<std::uint8_t>(low7_checks(word.data) ^ (word.check & 0x7F));
  const unsigned overall =
      parity64(word.data) ^ (std::popcount(word.check) & 1u);

  if (syndrome == 0 && overall == 0) {
    result.status = DecodeStatus::Clean;
    return result;
  }
  if (overall == 1) {
    // Odd number of flips: assume single error.
    if (syndrome == 0) {
      result.status = DecodeStatus::CorrectedCheck;  // overall-parity bit
      return result;
    }
    if ((syndrome & (syndrome - 1)) == 0) {
      result.status = DecodeStatus::CorrectedCheck;  // one Hamming check bit
      return result;
    }
    if (const int bit = kSyndromeBit[syndrome]; bit >= 0) {
      result.data ^= std::uint64_t{1} << bit;
      result.corrected_bit = bit;
      result.status = DecodeStatus::CorrectedData;
      return result;
    }
    // Syndrome matches no position: 3+ errors masquerading as odd.
    result.status = DecodeStatus::DoubleError;
    return result;
  }
  // Even flip count with nonzero syndrome: detected double error.
  result.status = DecodeStatus::DoubleError;
  return result;
}

ProtectedBlock protect_block(std::span<const std::uint8_t> block) {
  if (block.size() % 8 != 0)
    throw std::invalid_argument("protect_block: size must be a multiple of 8");
  ProtectedBlock out;
  out.data.assign(block.begin(), block.end());
  out.checks.reserve(block.size() / 8);
  for (std::size_t w = 0; w < block.size(); w += 8)
    out.checks.push_back(encode_check(detail::load_le64(block.data() + w)));
  return out;
}

BlockDecodeResult recover_block(const ProtectedBlock& stored) {
  BlockDecodeResult result;
  result.data = stored.data;
  if (stored.data.size() != stored.checks.size() * 8) return result;
  result.ok = true;
  for (std::size_t w = 0; w < stored.checks.size(); ++w) {
    const DecodeResult r =
        decode({detail::load_le64(stored.data.data() + w * 8), stored.checks[w]});
    switch (r.status) {
      case DecodeStatus::Clean:
        break;
      case DecodeStatus::CorrectedData:
      case DecodeStatus::CorrectedCheck:
        ++result.corrected_words;
        break;
      case DecodeStatus::DoubleError:
        ++result.uncorrectable_words;
        result.ok = false;
        break;
    }
    detail::store_le64(result.data.data() + w * 8, r.data);
  }
  return result;
}

}  // namespace spe::ecc

#include "support/ecc_oracle.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <stdexcept>

namespace spe::ecc::oracle {

namespace {

constexpr unsigned kCellsPerWord = 64;

/// Position code of each data bit: the 7-bit values from 3 upward that are
/// not powers of two, in order.
constexpr std::array<std::uint8_t, 64> make_position_codes() {
  std::array<std::uint8_t, 64> codes{};
  unsigned next = 0;
  for (unsigned v = 3; next < 64; ++v) {
    if ((v & (v - 1)) == 0) continue;
    codes[next++] = static_cast<std::uint8_t>(v);
  }
  return codes;
}
constexpr std::array<std::uint8_t, 64> kPositionCodes = make_position_codes();

std::uint8_t low7_checks(std::uint64_t data) {
  std::uint8_t checks = 0;
  for (unsigned i = 0; i < 7; ++i) {
    std::uint64_t covered = 0;
    for (unsigned d = 0; d < 64; ++d)
      if ((kPositionCodes[d] >> i) & 1u) covered |= (data >> d) & 1u ? (std::uint64_t{1} << d) : 0;
    checks |= static_cast<std::uint8_t>((std::popcount(covered) & 1) << i);
  }
  return checks;
}

unsigned parity64(std::uint64_t v) { return std::popcount(v) & 1u; }

unsigned words_for(std::size_t cells) {
  return static_cast<unsigned>((cells + kCellsPerWord - 1) / kCellsPerWord);
}

/// Bit plane `p` of cells [64w, 64w+64); missing cells read as zero.
std::uint64_t plane_word(std::span<const std::uint8_t> levels, unsigned p, unsigned w) {
  std::uint64_t word = 0;
  const std::size_t base = static_cast<std::size_t>(w) * kCellsPerWord;
  const std::size_t end = std::min(levels.size(), base + kCellsPerWord);
  for (std::size_t c = base; c < end; ++c)
    word |= std::uint64_t{(levels[c] >> p) & 1u} << (c - base);
  return word;
}

}  // namespace

std::uint8_t encode_check(std::uint64_t data) {
  const std::uint8_t low = low7_checks(data);
  const unsigned overall = parity64(data) ^ (std::popcount(low) & 1u);
  return static_cast<std::uint8_t>(low | (overall << 7));
}

DecodeResult decode(Codeword word) {
  DecodeResult result;
  result.data = word.data;
  const std::uint8_t syndrome =
      static_cast<std::uint8_t>(low7_checks(word.data) ^ (word.check & 0x7F));
  const unsigned overall = parity64(word.data) ^ (std::popcount(word.check) & 1u);
  if (syndrome == 0 && overall == 0) {
    result.status = DecodeStatus::Clean;
    return result;
  }
  if (overall == 1) {
    if (syndrome == 0 || (syndrome & (syndrome - 1)) == 0) {
      result.status = DecodeStatus::CorrectedCheck;
      return result;
    }
    for (unsigned d = 0; d < 64; ++d) {
      if (kPositionCodes[d] == syndrome) {
        result.data ^= std::uint64_t{1} << d;
        result.corrected_bit = static_cast<int>(d);
        result.status = DecodeStatus::CorrectedData;
        return result;
      }
    }
    result.status = DecodeStatus::DoubleError;
    return result;
  }
  result.status = DecodeStatus::DoubleError;
  return result;
}

std::vector<std::uint8_t> level_checks(std::span<const std::uint8_t> levels) {
  const unsigned words = words_for(levels.size());
  std::vector<std::uint8_t> checks(static_cast<std::size_t>(kLevelBits) * words);
  for (unsigned p = 0; p < kLevelBits; ++p)
    for (unsigned w = 0; w < words; ++w)
      checks[p * words + w] = encode_check(plane_word(levels, p, w));
  return checks;
}

LevelDecodeResult verify_levels(std::span<std::uint8_t> levels,
                                std::span<const std::uint8_t> checks) {
  const unsigned words = words_for(levels.size());
  if (checks.size() != static_cast<std::size_t>(kLevelBits) * words)
    throw std::invalid_argument("oracle::verify_levels: check-byte size mismatch");
  LevelDecodeResult result;
  std::set<std::size_t> touched;
  for (unsigned p = 0; p < kLevelBits; ++p) {
    for (unsigned w = 0; w < words; ++w) {
      const DecodeResult word = decode({plane_word(levels, p, w), checks[p * words + w]});
      if (word.status == DecodeStatus::DoubleError) {
        ++result.uncorrectable_words;
      } else if (word.status == DecodeStatus::CorrectedData) {
        const std::size_t cell = static_cast<std::size_t>(w) * kCellsPerWord +
                                 static_cast<unsigned>(word.corrected_bit);
        if (cell >= levels.size()) {  // "corrected" into the padding
          ++result.uncorrectable_words;
          continue;
        }
        levels[cell] ^= static_cast<std::uint8_t>(1u << p);
        ++result.corrected_bits;
        touched.insert(cell);
      }
    }
  }
  result.corrected_cells = static_cast<unsigned>(touched.size());
  result.ok = result.uncorrectable_words == 0;
  return result;
}

}  // namespace spe::ecc::oracle

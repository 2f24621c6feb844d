#include "ecc/level_ecc.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "ecc/le_word.hpp"
#include "ecc/secded.hpp"
#include "obs/trace.hpp"

namespace spe::ecc {

namespace {

constexpr unsigned kCellsPerWord = 64;

unsigned words_for(std::size_t cells) {
  return static_cast<unsigned>((cells + kCellsPerWord - 1) / kCellsPerWord);
}

/// Bit planes 0..kLevelBits-1 of one 64-cell group, one word per plane.
using PlaneWords = std::array<std::uint64_t, kLevelBits>;

/// Gathers every plane of cells [64w, 64w+64) in one pass, 8 cells at a
/// time: the 8 levels load as one little-endian word, `(x >> p) & kByteLsb`
/// keeps bit p of each byte, and the multiply moves byte i's bit to bit
/// 56+i (the partial products never overlap, so nothing carries). Missing
/// cells (short final group) read as zero.
PlaneWords gather_planes(std::span<const std::uint8_t> levels, unsigned w) {
  constexpr std::uint64_t kByteLsb = 0x0101010101010101ull;
  constexpr std::uint64_t kGather = 0x0102040810204080ull;
  const std::size_t base = static_cast<std::size_t>(w) * kCellsPerWord;
  const std::uint8_t* cells = levels.data() + base;
  std::array<std::uint8_t, kCellsPerWord> tail{};
  if (const std::size_t n = levels.size() - base; n < kCellsPerWord) {
    std::memcpy(tail.data(), cells, n);
    cells = tail.data();
  }
  PlaneWords planes{};
  for (unsigned k = 0; k < kCellsPerWord / 8; ++k) {
    const std::uint64_t x = detail::load_le64(cells + 8 * k);
    for (unsigned p = 0; p < kLevelBits; ++p)
      planes[p] |= (((x >> p) & kByteLsb) * kGather >> 56) << (8 * k);
  }
  return planes;
}

}  // namespace

std::vector<std::uint8_t> level_checks(std::span<const std::uint8_t> levels) {
  const unsigned words = words_for(levels.size());
  std::vector<std::uint8_t> checks(static_cast<std::size_t>(kLevelBits) * words);
  for (unsigned w = 0; w < words; ++w) {
    const PlaneWords planes = gather_planes(levels, w);
    for (unsigned p = 0; p < kLevelBits; ++p)
      checks[p * words + w] = encode_check(planes[p]);
  }
  return checks;
}

LevelDecodeResult verify_levels(std::span<std::uint8_t> levels,
                                std::span<const std::uint8_t> checks) {
  const unsigned words = words_for(levels.size());
  if (checks.size() != static_cast<std::size_t>(kLevelBits) * words)
    throw std::invalid_argument("verify_levels: check-byte size mismatch");

  obs::Span span("ecc.verify", levels.size());
  LevelDecodeResult result;
  for (unsigned w = 0; w < words; ++w) {
    const PlaneWords planes = gather_planes(levels, w);
    std::uint64_t touched = 0;  // bit c: cell 64w+c was corrected
    for (unsigned p = 0; p < kLevelBits; ++p) {
      const DecodeResult word = decode({planes[p], checks[p * words + w]});
      switch (word.status) {
        case DecodeStatus::Clean:
        case DecodeStatus::CorrectedCheck:  // stored check stale, data good
          break;
        case DecodeStatus::CorrectedData: {
          const std::size_t cell =
              static_cast<std::size_t>(w) * kCellsPerWord +
              static_cast<unsigned>(word.corrected_bit);
          if (cell >= levels.size()) {  // flip "corrected" into the padding
            ++result.uncorrectable_words;
            break;
          }
          levels[cell] ^= static_cast<std::uint8_t>(1u << p);
          ++result.corrected_bits;
          touched |= std::uint64_t{1} << word.corrected_bit;
          break;
        }
        case DecodeStatus::DoubleError:
          ++result.uncorrectable_words;
          break;
      }
    }
    result.corrected_cells += static_cast<unsigned>(std::popcount(touched));
  }
  result.ok = result.uncorrectable_words == 0;
  span.set_a1(result.corrected_cells);
  return result;
}

}  // namespace spe::ecc

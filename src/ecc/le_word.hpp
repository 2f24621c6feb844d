#pragma once
// Little-endian 64-bit word access for the ECC word loops: byte b of the
// buffer is bits [8b, 8b+8) of the word on every host, so check bytes do
// not depend on the machine's byte order.

#include <bit>
#include <cstdint>
#include <cstring>

namespace spe::ecc::detail {

inline std::uint64_t load_le64(const std::uint8_t* bytes) {
  std::uint64_t word;
  std::memcpy(&word, bytes, sizeof word);
  if constexpr (std::endian::native == std::endian::big) word = __builtin_bswap64(word);
  return word;
}

inline void store_le64(std::uint8_t* bytes, std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::big) word = __builtin_bswap64(word);
  std::memcpy(bytes, &word, sizeof word);
}

}  // namespace spe::ecc::detail

#include "support/spe_cipher_oracle.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/pulse_math.hpp"

namespace spe::core::oracle {

namespace {

using namespace pulse_math;

std::uint64_t outside_digest(const UnitLevels& levels,
                             const CipherCalibration::Shape& shape) {
  std::array<std::uint8_t, SpeCipher::kMaxCells> in_shape{};
  for (std::uint16_t c : shape.cells) in_shape[c] = 1;
  std::uint64_t digest = kDigestInit;
  for (unsigned i = 0; i < levels.size(); ++i)
    if (!in_shape[i]) digest ^= cell_digest_term(levels[i], i);
  return digest;
}

void apply_pass(const CipherCalibration& cal, UnitLevels& levels,
                const CipherCalibration::Shape& shape, const PulseStep& step,
                unsigned step_index, unsigned pass, std::uint64_t digest,
                bool reverse_order, bool encrypt) {
  const unsigned count = static_cast<unsigned>(shape.cells.size());
  if (count == 0) return;
  const std::uint64_t base = pass_base(digest, cal.fingerprint(), step, step_index, pass);
  const std::size_t library_size = cal.library().size();
  auto cell_at = [&](unsigned pos) { return reverse_order ? count - 1 - pos : pos; };

  if (encrypt) {
    std::uint64_t chain = kChainInit;
    for (unsigned pos = 0; pos < count; ++pos) {
      const unsigned k = cell_at(pos);
      const std::uint16_t cell = shape.cells[k];
      unsigned code, rot;
      transform_params(base, chain, shape.tiers[k], step.pulse_code, library_size, code,
                       rot);
      levels[cell] = cal.perm(code, shape.tiers[k])[(levels[cell] + rot) %
                                                    CipherCalibration::kLevels];
      chain = fold_chain(chain, levels[cell], cell);
    }
  } else {
    // Positions back-to-front; cells at earlier positions still hold their
    // pass outputs, so each position's chain is replayed from the start.
    for (unsigned pos = count; pos-- > 0;) {
      std::uint64_t chain = kChainInit;
      for (unsigned q = 0; q < pos; ++q) {
        const unsigned kq = cell_at(q);
        chain = fold_chain(chain, levels[shape.cells[kq]], shape.cells[kq]);
      }
      const unsigned k = cell_at(pos);
      const std::uint16_t cell = shape.cells[k];
      unsigned code, rot;
      transform_params(base, chain, shape.tiers[k], step.pulse_code, library_size, code,
                       rot);
      const std::uint8_t inv = cal.inv_perm(code, shape.tiers[k])[levels[cell]];
      levels[cell] = static_cast<std::uint8_t>(
          (inv + CipherCalibration::kLevels - rot) % CipherCalibration::kLevels);
    }
  }
}

void check_size(const SpeCipher& cipher, const UnitLevels& levels) {
  if (levels.size() != cipher.cell_count())
    throw std::invalid_argument("oracle: unit size");
}

}  // namespace

void apply_pulse(const SpeCipher& cipher, UnitLevels& levels, unsigned step_index,
                 bool encrypt) {
  check_size(cipher, levels);
  if (step_index >= cipher.schedule().size())
    throw std::out_of_range("oracle: step index");
  const CipherCalibration& cal = cipher.calibration();
  const PulseStep& step = cipher.schedule()[step_index];
  const CipherCalibration::Shape& shape = cal.shape(step.poe_cell);
  const std::uint64_t digest = outside_digest(levels, shape);
  if (encrypt) {
    apply_pass(cal, levels, shape, step, step_index, 0, digest, false, true);
    apply_pass(cal, levels, shape, step, step_index, 1, digest, true, true);
  } else {
    apply_pass(cal, levels, shape, step, step_index, 1, digest, true, false);
    apply_pass(cal, levels, shape, step, step_index, 0, digest, false, false);
  }
}

void encrypt(const SpeCipher& cipher, UnitLevels& levels) {
  encrypt_truncated(cipher, levels, static_cast<unsigned>(cipher.schedule().size()));
}

void decrypt(const SpeCipher& cipher, UnitLevels& levels) {
  check_size(cipher, levels);
  for (unsigned s = static_cast<unsigned>(cipher.schedule().size()); s-- > 0;)
    apply_pulse(cipher, levels, s, false);
}

void encrypt_truncated(const SpeCipher& cipher, UnitLevels& levels, unsigned pulses) {
  check_size(cipher, levels);
  const unsigned n =
      std::min<unsigned>(pulses, static_cast<unsigned>(cipher.schedule().size()));
  for (unsigned s = 0; s < n; ++s) apply_pulse(cipher, levels, s, true);
}

void decrypt_with_order(const SpeCipher& cipher, UnitLevels& levels,
                        std::span<const unsigned> order) {
  check_size(cipher, levels);
  for (unsigned i = static_cast<unsigned>(order.size()); i-- > 0;)
    apply_pulse(cipher, levels, order[i], false);
}

}  // namespace spe::core::oracle

#include "core/spe_cipher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/pulse_math.hpp"

namespace spe::core {

using namespace pulse_math;

namespace {
std::shared_ptr<const CipherCalibration> require_calibration(
    std::shared_ptr<const CipherCalibration> calibration) {
  if (!calibration) throw std::invalid_argument("SpeCipher: null calibration");
  return calibration;
}
}  // namespace

SpeCipher::SpeCipher(const SpeKey& key, std::shared_ptr<const CipherCalibration> calibration,
                     std::vector<unsigned> poes, unsigned unit_index)
    : cal_(require_calibration(std::move(calibration))),
      addresses_(poes.empty() ? default_poes_8x8() : std::move(poes),
                 cal_->params().rows, cal_->params().cols),
      voltages_(cal_->library()),
      schedule_(key, addresses_, voltages_, unit_index) {
  if (cal_->cell_count() > kMaxCells)
    throw std::invalid_argument("SpeCipher: crossbar unit larger than 256 cells");
}

void SpeCipher::init_scratch(std::span<const std::uint8_t> levels, Scratch& scratch) const {
  const unsigned cells = cell_count();
  if (levels.size() != cells) throw std::invalid_argument("SpeCipher::init_scratch: size");
  scratch.cells = cells;
  scratch.all_fold = 0;
  for (unsigned i = 0; i < cells; ++i) {
    scratch.cell_hash[i] = cell_digest_term(levels[i], i);
    scratch.all_fold ^= scratch.cell_hash[i];
  }
}

void SpeCipher::apply_pass(std::span<std::uint8_t> levels,
                           const CipherCalibration::Shape& shape, const PulseStep& step,
                           unsigned step_index, unsigned pass, std::uint64_t digest,
                           bool reverse_order, bool encrypt, Scratch& scratch) const {
  const unsigned count = static_cast<unsigned>(shape.cells.size());
  if (count == 0) return;
  const std::uint64_t base = pass_base(digest, cal_->fingerprint(), step, step_index, pass);
  const std::size_t library_size = cal_->library().size();

  auto cell_at = [&](unsigned pos) {
    return reverse_order ? count - 1 - pos : pos;
  };

  if (encrypt) {
    std::uint64_t chain = kChainInit;
    for (unsigned pos = 0; pos < count; ++pos) {
      const unsigned k = cell_at(pos);
      const std::uint16_t cell = shape.cells[k];
      const unsigned tier = shape.tiers[k];
      unsigned code, rot;
      transform_params(base, chain, tier, step.pulse_code, library_size, code, rot);
      const std::uint8_t old = levels[cell];
      const std::uint8_t fresh =
          cal_->perm(code, tier)[(old + rot) % CipherCalibration::kLevels];
      levels[cell] = fresh;
      chain = fold_chain(chain, fresh, cell);
    }
  } else {
    // Inverse pass, O(n): every position still holds its pass output when the
    // pass starts, and position q only changes after every pos > q has been
    // inverted — so the chain each position needs (a fold over positions
    // 0..pos-1 of their pass outputs) can be precomputed once up front.
    auto& prefix = scratch.chain_prefix;
    prefix[0] = kChainInit;
    for (unsigned p = 0; p < count; ++p) {
      const unsigned kp = cell_at(p);
      prefix[p + 1] = fold_chain(prefix[p], levels[shape.cells[kp]], shape.cells[kp]);
    }
    for (unsigned pos = count; pos-- > 0;) {
      const unsigned k = cell_at(pos);
      const std::uint16_t cell = shape.cells[k];
      const unsigned tier = shape.tiers[k];
      unsigned code, rot;
      transform_params(base, prefix[pos], tier, step.pulse_code, library_size, code, rot);
      const std::uint8_t inv = cal_->inv_perm(code, tier)[levels[cell]];
      levels[cell] = static_cast<std::uint8_t>(
          (inv + CipherCalibration::kLevels - rot) % CipherCalibration::kLevels);
    }
  }
}

void SpeCipher::apply_pulse(std::span<std::uint8_t> levels, unsigned step_index,
                            bool encrypt, Scratch& scratch) const {
  const PulseStep& step = schedule_.steps()[step_index];
  const CipherCalibration::Shape& shape = cal_->shape(step.poe_cell);
  // Digest of the cells OUTSIDE the polyomino — the behavioural stand-in for
  // the global resistive load the sneak network presents to the pulse. It is
  // identical before and after the pulse (outside cells do not move), which
  // is what lets decryption recompute it. Taken as a delta: XOR the covered
  // cells' terms back out of the all-cells fold.
  std::uint64_t digest = kDigestInit ^ scratch.all_fold;
  for (std::uint16_t c : shape.cells) digest ^= scratch.cell_hash[c];
  if (encrypt) {
    apply_pass(levels, shape, step, step_index, 0, digest, false, true, scratch);
    apply_pass(levels, shape, step, step_index, 1, digest, true, true, scratch);
  } else {
    apply_pass(levels, shape, step, step_index, 1, digest, true, false, scratch);
    apply_pass(levels, shape, step, step_index, 0, digest, false, false, scratch);
  }
  // Only the covered cells moved; refresh their digest terms.
  for (std::uint16_t c : shape.cells) {
    const std::uint64_t h = cell_digest_term(levels[c], c);
    scratch.all_fold ^= scratch.cell_hash[c] ^ h;
    scratch.cell_hash[c] = h;
  }
}

void SpeCipher::check_step(std::span<const std::uint8_t> levels, unsigned step,
                           const Scratch& scratch, const char* what) const {
  if (levels.size() != cell_count() || scratch.cells != cell_count())
    throw std::invalid_argument(std::string(what) + ": size");
  if (step >= schedule_.steps().size())
    throw std::out_of_range(std::string(what) + ": step index");
}

void SpeCipher::encrypt_step(std::span<std::uint8_t> levels, unsigned step,
                             Scratch& scratch) const {
  check_step(levels, step, scratch, "SpeCipher::encrypt_step");
  apply_pulse(levels, step, true, scratch);
}

void SpeCipher::decrypt_step(std::span<std::uint8_t> levels, unsigned step,
                             Scratch& scratch) const {
  check_step(levels, step, scratch, "SpeCipher::decrypt_step");
  apply_pulse(levels, step, false, scratch);
}

void SpeCipher::encrypt(UnitLevels& levels) const {
  if (levels.size() != cell_count()) throw std::invalid_argument("SpeCipher::encrypt: size");
  encrypt_truncated(levels, static_cast<unsigned>(schedule_.steps().size()));
}

void SpeCipher::decrypt(UnitLevels& levels) const {
  if (levels.size() != cell_count()) throw std::invalid_argument("SpeCipher::decrypt: size");
  Scratch scratch;
  init_scratch(levels, scratch);
  for (unsigned s = static_cast<unsigned>(schedule_.steps().size()); s-- > 0;)
    apply_pulse(levels, s, false, scratch);
}

void SpeCipher::encrypt_truncated(UnitLevels& levels, unsigned pulses) const {
  if (levels.size() != cell_count())
    throw std::invalid_argument("SpeCipher::encrypt_truncated: size");
  const unsigned n =
      std::min<unsigned>(pulses, static_cast<unsigned>(schedule_.steps().size()));
  Scratch scratch;
  init_scratch(levels, scratch);
  for (unsigned s = 0; s < n; ++s) apply_pulse(levels, s, true, scratch);
}

void SpeCipher::decrypt_with_order(UnitLevels& levels, std::span<const unsigned> order) const {
  if (levels.size() != cell_count())
    throw std::invalid_argument("SpeCipher::decrypt_with_order: size");
  Scratch scratch;
  init_scratch(levels, scratch);
  for (unsigned i = static_cast<unsigned>(order.size()); i-- > 0;) {
    const unsigned s = order[i];
    if (s >= schedule_.steps().size()) throw std::out_of_range("SpeCipher::decrypt_with_order");
    apply_pulse(levels, s, false, scratch);
  }
}

UnitLevels SpeCipher::levels_from_bytes(std::span<const std::uint8_t> plaintext) const {
  const unsigned cells = cell_count();
  if (plaintext.size() * 4 != cells)
    throw std::invalid_argument("SpeCipher::levels_from_bytes: need cells/4 bytes");
  UnitLevels levels(cells);
  for (unsigned i = 0; i < cells; ++i) {
    const unsigned logic = (plaintext[i / 4] >> (6 - 2 * (i % 4))) & 3u;
    const unsigned symbol = device::MlcCodec::symbol_for_logic_bits(logic);
    levels[i] = static_cast<std::uint8_t>(device::MlcCodec::level_for_symbol(symbol));
  }
  return levels;
}

void SpeCipher::bytes_from_levels(const UnitLevels& levels, std::span<std::uint8_t> out) const {
  const unsigned cells = cell_count();
  if (levels.size() != cells || out.size() * 4 != cells)
    throw std::invalid_argument("SpeCipher::bytes_from_levels: size");
  for (auto& b : out) b = 0;
  for (unsigned i = 0; i < cells; ++i) {
    const unsigned symbol = device::MlcCodec::symbol_for_level(levels[i]);
    const unsigned logic = device::MlcCodec::logic_bits_for_symbol(symbol);
    out[i / 4] |= static_cast<std::uint8_t>(logic << (6 - 2 * (i % 4)));
  }
}

void SpeCipher::encrypt_bytes(std::span<const std::uint8_t> plaintext,
                              std::span<std::uint8_t> ciphertext) const {
  UnitLevels levels = levels_from_bytes(plaintext);
  encrypt(levels);
  bytes_from_levels(levels, ciphertext);
}

}  // namespace spe::core

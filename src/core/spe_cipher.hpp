#pragma once
// The behavioural Sneak-Path Encryption cipher (Section 5).
//
// State model: one crossbar unit stores 64 memristor cells; each cell's
// analog state is tracked on a 64-level internal grid (6 bits). The MLC-2
// *read* value of a cell is the top two bits of its level (the four
// resistance bands). Plaintext bytes are written as band-centre levels;
// encryption perturbs levels in place; what an attacker reads out is the
// quantised 2-bit symbol per cell (128 ciphertext bits per unit).
//
// One encryption = the key schedule's sequence of PoE pulses. One pulse
// applies, to every cell of the PoE's calibrated polyomino, a bijective
// level permutation selected by: the pulse code, the cell's attenuation
// tier, the device fingerprint, a digest of the crossbar state OUTSIDE the
// polyomino, and a running chain over the cells already processed in the
// pulse (two passes, forward then backward, for full intra-pulse
// diffusion). The digest and chain model the global resistive coupling of
// the physical sneak paths — the data-dependence Section 5.3 describes —
// in an exactly invertible form: decryption replays the pulses in reverse
// order and inverts each pass back-to-front, the behavioural equivalent of
// the paper's reverse-sequence, hysteresis-corrected decryption. A wrong
// PoE order reconstructs wrong chains and produces garbage (Fig. 2b); a
// different device has different tables and also fails.
//
// This class holds the one pulse kernel: incremental (cached outside-state
// digest, O(n) inverse chains) and in place. The scalar reference oracle —
// the same math as a per-pulse full rescan with an O(n^2) inverse replay —
// lives in tests/support/spe_cipher_oracle and pins this kernel
// byte-for-byte (tests/core/cipher_oracle_test).

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/calibration.hpp"
#include "core/key_schedule.hpp"

namespace spe::core {

/// Internal levels of one crossbar unit (row-major cells).
using UnitLevels = std::vector<std::uint8_t>;

class SpeCipher {
public:
  /// `poes` defaults to the precomputed 16-PoE placement when empty. Throws
  /// std::invalid_argument on a null calibration or a unit over kMaxCells.
  SpeCipher(const SpeKey& key, std::shared_ptr<const CipherCalibration> calibration,
            std::vector<unsigned> poes = {}, unsigned unit_index = 0);

  [[nodiscard]] const CipherCalibration& calibration() const noexcept { return *cal_; }
  [[nodiscard]] const std::vector<PulseStep>& schedule() const noexcept {
    return schedule_.steps();
  }
  [[nodiscard]] unsigned cell_count() const noexcept { return cal_->cell_count(); }

  /// Encrypts / decrypts the unit's levels in place. Sizes must equal
  /// cell_count(). decrypt(encrypt(x)) == x exactly.
  void encrypt(UnitLevels& levels) const;
  void decrypt(UnitLevels& levels) const;

  // --- resumable step API (crash consistency) ------------------------------
  // One encryption is schedule() applied as steps 0..N-1; one decryption is
  // the inverses applied as steps N-1..0. A single step is exposed so the
  // SPECU can advance its intent journal between pulses and recovery can
  // resume an interrupted encryption from the logged index. Steps run in
  // place on the caller's storage. The Scratch carries the step kernel's
  // incremental state: a per-cell digest cache (the outside-state digest is
  // an XOR delta instead of a full rescan) and a chain-prefix buffer (the
  // inverse pass replays its chains in one O(n) sweep). init_scratch seeds
  // it from the levels about to be stepped; each step keeps it in sync, so
  // one scratch serves a whole run of steps over the same unit.
  // encrypt == init_scratch + encrypt_step(0..N-1);
  // decrypt == init_scratch + decrypt_step(N-1..0).
  static constexpr unsigned kMaxCells = 256;
  struct Scratch {
    std::array<std::uint64_t, kMaxCells> cell_hash{};         ///< digest term per cell
    std::array<std::uint64_t, kMaxCells + 1> chain_prefix{};  ///< inverse-pass chains
    std::uint64_t all_fold = 0;  ///< XOR of cell_hash over all cells
    unsigned cells = 0;          ///< cells seeded by init_scratch
  };
  void init_scratch(std::span<const std::uint8_t> levels, Scratch& scratch) const;
  void encrypt_step(std::span<std::uint8_t> levels, unsigned step, Scratch& scratch) const;
  void decrypt_step(std::span<std::uint8_t> levels, unsigned step, Scratch& scratch) const;

  /// Truncated encryption with only the first `pulses` steps — the PoE-count
  /// ablation of Section 6.1 ("fewer than 16 PoEs fail a large number of
  /// tests").
  void encrypt_truncated(UnitLevels& levels, unsigned pulses) const;

  /// Decryption with a caller-supplied step order (indices into schedule()),
  /// applied back-to-front as given — used to demonstrate Fig. 2b's
  /// wrong-order failure.
  void decrypt_with_order(UnitLevels& levels, std::span<const unsigned> order) const;

  // --- byte <-> level conversion (2 bits per cell, paper logic polarity:
  // "11" = lowest-resistance band) -----------------------------------------
  [[nodiscard]] UnitLevels levels_from_bytes(std::span<const std::uint8_t> plaintext) const;
  void bytes_from_levels(const UnitLevels& levels, std::span<std::uint8_t> out) const;
  [[nodiscard]] unsigned block_bytes() const noexcept { return cell_count() / 4; }

  /// Convenience one-way path for the randomness data sets: plaintext bytes
  /// in, quantised ciphertext bytes out.
  void encrypt_bytes(std::span<const std::uint8_t> plaintext,
                     std::span<std::uint8_t> ciphertext) const;

private:
  void check_step(std::span<const std::uint8_t> levels, unsigned step,
                  const Scratch& scratch, const char* what) const;
  void apply_pulse(std::span<std::uint8_t> levels, unsigned step_index, bool encrypt,
                   Scratch& scratch) const;
  void apply_pass(std::span<std::uint8_t> levels, const CipherCalibration::Shape& shape,
                  const PulseStep& step, unsigned step_index, unsigned pass,
                  std::uint64_t digest, bool reverse_order, bool encrypt,
                  Scratch& scratch) const;

  std::shared_ptr<const CipherCalibration> cal_;
  AddressLut addresses_;
  VoltageLut voltages_;
  KeySchedule schedule_;
};

}  // namespace spe::core

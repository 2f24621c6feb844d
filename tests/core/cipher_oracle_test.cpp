// Pins SpeCipher's incremental step kernel — the only pulse kernel in
// spe_core — to the scalar reference oracle in tests/support.
//
// CipherOracle.*: randomized levels, keys, unit indices and devices through
// every SpeCipher entry point (whole sequences, single steps, truncated
// encryption, wrong-order decryption, the byte path), including inputs that
// are not valid ciphertext, which must decrypt to the oracle's garbage.
//
// BatchEquivalence.*: multi-block sequences through the production Specu
// against a reference model of the same block operations built on the
// oracle — resting levels, read bytes, wear, stats and the serial-mode
// pending set — plus the array state at every journal kill point of a
// write, a parallel read, a serial read, a background re-encryption and a
// resume from every pulse index, which must equal the oracle's prefix for
// the progress the journal records.
#include "support/spe_cipher_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/specu.hpp"
#include "util/rng.hpp"

namespace spe::core {
namespace {

constexpr std::uint64_t kMeasurement = 0xB007C0DE;

std::vector<std::uint8_t> random_bytes(std::uint64_t& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(util::splitmix64(rng));
  return v;
}

/// Arbitrary internal levels (not band centres): what a fault or an
/// attacker can leave in the array.
UnitLevels random_levels(std::uint64_t& rng, unsigned cells) {
  UnitLevels v(cells);
  for (auto& l : v)
    l = static_cast<std::uint8_t>(util::splitmix64(rng) % CipherCalibration::kLevels);
  return v;
}

SpeKey random_key(std::uint64_t& rng) {
  util::Xoshiro256ss gen(util::splitmix64(rng));
  return SpeKey::random(gen);
}

std::shared_ptr<const CipherCalibration> device_calibration(std::uint64_t device_seed) {
  SnvmmConfig cfg = Snvmm::default_config();
  cfg.device_seed = device_seed;
  return get_calibration(Snvmm(cfg).device_params());
}

TEST(CipherOracle, EveryEntryPointMatchesOracle) {
  std::uint64_t rng = 0xC1F3E12ull;
  for (const std::uint64_t device : {1ull, 7ull, 1234ull}) {
    const auto cal = device_calibration(device);
    for (int trial = 0; trial < 12; ++trial) {
      const SpeCipher cipher(random_key(rng), cal, {},
                             static_cast<unsigned>(util::splitmix64(rng) % 4));
      const unsigned cells = cipher.cell_count();
      const auto n = static_cast<unsigned>(cipher.schedule().size());
      const UnitLevels input = random_levels(rng, cells);

      UnitLevels got = input, want = input;
      cipher.encrypt(got);
      oracle::encrypt(cipher, want);
      EXPECT_EQ(got, want) << "encrypt, device " << device;
      cipher.decrypt(got);
      EXPECT_EQ(got, input) << "decrypt(encrypt(x)) != x";

      // Decrypting something that was never encrypted: the same garbage.
      got = input;
      want = input;
      cipher.decrypt(got);
      oracle::decrypt(cipher, want);
      EXPECT_EQ(got, want) << "decrypt of arbitrary levels";

      // Single steps on one scratch: every intermediate state matches.
      SpeCipher::Scratch scratch;
      got = input;
      want = input;
      cipher.init_scratch(got, scratch);
      for (unsigned s = 0; s < n; ++s) {
        cipher.encrypt_step(got, s, scratch);
        oracle::apply_pulse(cipher, want, s, true);
        ASSERT_EQ(got, want) << "encrypt_step " << s;
      }
      for (unsigned s = n; s-- > 0;) {
        cipher.decrypt_step(got, s, scratch);
        oracle::apply_pulse(cipher, want, s, false);
        ASSERT_EQ(got, want) << "decrypt_step " << s;
      }
      EXPECT_EQ(got, input);

      // Truncated encryption, including 0 and past-the-end pulse counts.
      for (const unsigned pulses : {0u, 1u, static_cast<unsigned>(trial % n), n, n + 3}) {
        got = input;
        want = input;
        cipher.encrypt_truncated(got, pulses);
        oracle::encrypt_truncated(cipher, want, pulses);
        EXPECT_EQ(got, want) << "encrypt_truncated " << pulses;
      }

      // Wrong-order decryption (Fig. 2b), and an order with repeats and
      // gaps: both kernels reconstruct the same wrong chains.
      UnitLevels ct = input;
      cipher.encrypt(ct);
      std::vector<unsigned> order(n);
      for (unsigned i = 0; i < n; ++i) order[i] = i;
      for (unsigned i = n; i > 1; --i)
        std::swap(order[i - 1], order[util::splitmix64(rng) % i]);
      std::vector<unsigned> ragged;
      for (unsigned i = 0; i < n; ++i)
        ragged.push_back(static_cast<unsigned>(util::splitmix64(rng) % n));
      for (const auto& o : {order, ragged}) {
        got = ct;
        want = ct;
        cipher.decrypt_with_order(got, o);
        oracle::decrypt_with_order(cipher, want, o);
        EXPECT_EQ(got, want) << "decrypt_with_order";
      }

      // The byte path used by the randomness data sets.
      const auto pt = random_bytes(rng, cipher.block_bytes());
      std::vector<std::uint8_t> got_bytes(cipher.block_bytes());
      std::vector<std::uint8_t> want_bytes(cipher.block_bytes());
      cipher.encrypt_bytes(pt, got_bytes);
      UnitLevels levels = cipher.levels_from_bytes(pt);
      oracle::encrypt(cipher, levels);
      cipher.bytes_from_levels(levels, want_bytes);
      EXPECT_EQ(got_bytes, want_bytes) << "encrypt_bytes";
    }
  }
}

TEST(CipherOracle, FaultCorruptedCiphertextDecryptsToSameGarbage) {
  std::uint64_t rng = 0xFA0175ull;
  const auto cal = device_calibration(3);
  for (int trial = 0; trial < 20; ++trial) {
    const SpeCipher cipher(random_key(rng), cal);
    UnitLevels ct = cipher.levels_from_bytes(random_bytes(rng, cipher.block_bytes()));
    const UnitLevels pt = ct;
    cipher.encrypt(ct);
    // Stuck-cell / drift damage on a few cells of the resting ciphertext.
    for (int i = 0; i < 1 + trial % 4; ++i) {
      const auto cell = util::splitmix64(rng) % ct.size();
      ct[cell] = static_cast<std::uint8_t>(
          (ct[cell] + 1 + util::splitmix64(rng) % 63) % CipherCalibration::kLevels);
    }
    UnitLevels got = ct, want = ct;
    cipher.decrypt(got);
    oracle::decrypt(cipher, want);
    EXPECT_EQ(got, want);
    EXPECT_NE(got, pt);
  }
}

TEST(CipherOracle, StepApiRejectsMisuse) {
  const SpeCipher cipher(SpeKey{1, 2}, device_calibration(1));
  UnitLevels levels(cipher.cell_count(), 0);
  SpeCipher::Scratch unseeded;
  EXPECT_THROW(cipher.encrypt_step(levels, 0, unseeded), std::invalid_argument);
  SpeCipher::Scratch scratch;
  cipher.init_scratch(levels, scratch);
  EXPECT_THROW(cipher.decrypt_step(levels, 16, scratch), std::out_of_range);
  UnitLevels short_levels(cipher.cell_count() - 1, 0);
  EXPECT_THROW(cipher.init_scratch(short_levels, scratch), std::invalid_argument);
  EXPECT_THROW(cipher.encrypt_step(short_levels, 0, scratch), std::invalid_argument);
}

// --- block level ------------------------------------------------------------

using Levels = std::vector<std::uint8_t>;

/// Applies `fn` to each unit of a block's levels, one crossbar unit at a time.
void for_units(Levels& levels, unsigned cells,
               const std::function<void(unsigned, UnitLevels&)>& fn) {
  for (unsigned unit = 0; unit * cells < levels.size(); ++unit) {
    UnitLevels u(levels.begin() + unit * cells, levels.begin() + (unit + 1) * cells);
    fn(unit, u);
    std::copy(u.begin(), u.end(), levels.begin() + unit * cells);
  }
}

/// Reference model of Specu's block operations on the scalar oracle: the
/// resting levels, flags, wear, stats and pending set every operation must
/// leave behind.
struct OracleModel {
  OracleModel(std::shared_ptr<const CipherCalibration> cal, unsigned units, SpeKey key,
              SpeMode mode)
      : cal(std::move(cal)), units(units), mode(mode) {
    rekey(key);
  }

  void rekey(SpeKey key) {
    ciphers.clear();
    for (unsigned unit = 0; unit < units; ++unit) ciphers.emplace_back(key, cal, std::vector<unsigned>{}, unit);
  }
  [[nodiscard]] unsigned cells() const { return cal->cell_count(); }
  [[nodiscard]] unsigned sched() const {
    return static_cast<unsigned>(ciphers[0].schedule().size());
  }

  /// Levels after `progress` unit-major encryption pulses from `plain`.
  [[nodiscard]] Levels encrypt_prefix(Levels levels, std::uint32_t progress) const {
    for_units(levels, cells(), [&](unsigned unit, UnitLevels& u) {
      const unsigned done = std::min(sched(), progress - std::min(progress, unit * sched()));
      oracle::encrypt_truncated(ciphers[unit], u, done);
    });
    return levels;
  }
  /// Levels after `progress` unit-major decryption pulses from `ct`.
  [[nodiscard]] Levels decrypt_prefix(Levels levels, std::uint32_t progress) const {
    for_units(levels, cells(), [&](unsigned unit, UnitLevels& u) {
      const unsigned done = std::min(sched(), progress - std::min(progress, unit * sched()));
      for (unsigned s = sched(); s-- > sched() - done;)
        oracle::apply_pulse(ciphers[unit], u, s, false);
    });
    return levels;
  }
  [[nodiscard]] std::uint32_t pulses() const { return units * sched(); }

  void encrypt(Snvmm::Block& block) {
    block.levels = encrypt_prefix(block.levels, pulses());
    for (unsigned unit = 0; unit < units; ++unit)
      block.wear += Specu::kPulseWear * static_cast<double>(sched());
    block.encrypted = true;
    stats.encrypt_ops += units;
    stats.encrypt_pulses += pulses();
  }

  [[nodiscard]] Levels plain_levels(std::span<const std::uint8_t> data) const {
    Levels levels;
    const unsigned unit_bytes = cells() / 4;
    for (unsigned unit = 0; unit < units; ++unit) {
      const UnitLevels u =
          ciphers[unit].levels_from_bytes(data.subspan(unit * unit_bytes, unit_bytes));
      levels.insert(levels.end(), u.begin(), u.end());
    }
    return levels;
  }

  void write(std::uint64_t addr, std::span<const std::uint8_t> data) {
    Snvmm::Block& block = blocks[addr];
    block.wear += 1.0;
    block.levels = plain_levels(data);
    pending.erase(addr);
    encrypt(block);
    ++stats.writes;
  }

  std::vector<std::uint8_t> read(std::uint64_t addr) {
    Snvmm::Block& block = blocks.at(addr);
    if (block.encrypted) {
      block.levels = decrypt_prefix(block.levels, pulses());
      for (unsigned unit = 0; unit < units; ++unit)
        block.wear += Specu::kPulseWear * static_cast<double>(sched());
      block.encrypted = false;
      stats.decrypt_ops += units;
      stats.decrypt_pulses += pulses();
    }
    std::vector<std::uint8_t> out(units * cells() / 4);
    const unsigned unit_bytes = cells() / 4;
    for_units(block.levels, cells(), [&](unsigned unit, UnitLevels& u) {
      ciphers[unit].bytes_from_levels(
          u, std::span(out).subspan(unit * unit_bytes, unit_bytes));
    });
    ++stats.reads;
    if (mode == SpeMode::Parallel)
      encrypt(block);
    else
      pending.insert(addr);
    return out;
  }

  std::optional<std::uint64_t> background_one() {
    if (pending.empty()) return std::nullopt;
    const std::uint64_t addr = *pending.begin();
    pending.erase(pending.begin());
    encrypt(blocks.at(addr));
    return addr;
  }

  std::shared_ptr<const CipherCalibration> cal;
  unsigned units;
  SpeMode mode;
  std::vector<SpeCipher> ciphers;
  std::map<std::uint64_t, Snvmm::Block> blocks;
  std::set<std::uint64_t> pending;
  Specu::Stats stats;
};

/// One powered device instance plus its oracle model under the same key.
struct Rig {
  Rig(std::uint64_t device_seed, SpeKey key, SpeMode mode) {
    SnvmmConfig cfg = Snvmm::default_config();
    cfg.device_seed = device_seed;
    memory = std::make_unique<Snvmm>(cfg);
    specu = std::make_unique<Specu>(*memory, mode);
    model = std::make_unique<OracleModel>(get_calibration(memory->device_params()),
                                          cfg.units_per_block, key, mode);
    rekey(key);
  }

  void rekey(SpeKey key) {
    tpm.provision(memory->device_id(), kMeasurement, key);
    EXPECT_TRUE(specu->power_on(tpm, kMeasurement));
    model->rekey(key);
  }

  void write(std::uint64_t addr, std::span<const std::uint8_t> data) {
    specu->write_block(addr, data);
    model->write(addr, data);
  }

  void read(std::uint64_t addr) {
    const auto got = specu->read_block(addr);
    EXPECT_EQ(got, model->read(addr)) << "read of block " << addr;
  }

  void expect_matches_model() const {
    const auto& blocks = std::as_const(*memory).blocks();
    ASSERT_EQ(blocks.size(), model->blocks.size());
    for (const auto& [addr, block] : blocks) {
      const auto it = model->blocks.find(addr);
      ASSERT_NE(it, model->blocks.end()) << "addr " << addr;
      EXPECT_EQ(block.levels, it->second.levels) << "addr " << addr;
      EXPECT_EQ(block.encrypted, it->second.encrypted) << "addr " << addr;
      EXPECT_DOUBLE_EQ(block.wear, it->second.wear) << "addr " << addr;
    }
    const auto& got = specu->stats();
    const auto& want = model->stats;
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.encrypt_ops, want.encrypt_ops);
    EXPECT_EQ(got.decrypt_ops, want.decrypt_ops);
    EXPECT_EQ(got.encrypt_pulses, want.encrypt_pulses);
    EXPECT_EQ(got.decrypt_pulses, want.decrypt_pulses);
    EXPECT_EQ(specu->plaintext_blocks(), model->pending.size());
    EXPECT_TRUE(memory->journal().empty());
  }

  Tpm tpm;
  std::unique_ptr<Snvmm> memory;
  std::unique_ptr<Specu> specu;
  std::unique_ptr<OracleModel> model;
};

/// Writes `count` random blocks (addresses may repeat); returns the addresses.
std::vector<std::uint64_t> write_random(Rig& rig, std::uint64_t& rng, unsigned count,
                                        std::uint64_t addr_base) {
  std::vector<std::uint64_t> addrs;
  for (unsigned i = 0; i < count; ++i) {
    addrs.push_back(addr_base + (util::splitmix64(rng) % (count * 2 + 1)) * 0x40);
    rig.write(addrs.back(), random_bytes(rng, rig.memory->block_bytes()));
  }
  return addrs;
}

TEST(BatchEquivalence, RandomizedCorpusMatchesScalarAcrossBatchSizes) {
  std::uint64_t rng = 0x5EEDBA7C4ull;
  const unsigned kBatchSizes[] = {0, 1, 3, 8, 13};
  for (const SpeMode mode : {SpeMode::Parallel, SpeMode::Serial}) {
    Rig rig(7, SpeKey{0x1357 + static_cast<unsigned>(mode), 0x2468}, mode);
    std::uint64_t addr_base = 0;
    for (const unsigned n : kBatchSizes) {
      const auto addrs = write_random(rig, rng, n, addr_base);
      addr_base += 0x10000;
      rig.expect_matches_model();
      // Read everything twice: the second read of a serial-mode block finds
      // it already plaintext.
      for (int pass = 0; pass < 2; ++pass)
        for (const auto addr : addrs) rig.read(addr);
      rig.expect_matches_model();
      // The background engine drains the pending set in the same order.
      while (true) {
        const auto got = rig.specu->background_encrypt_one();
        EXPECT_EQ(got, rig.model->background_one());
        if (!got) break;
      }
      rig.expect_matches_model();
    }
  }
}

TEST(BatchEquivalence, KeyEpochRotationStaysIdentical) {
  std::uint64_t rng = 0xE99ull;
  Rig rig(9, SpeKey{0xAAAA, 0xBBBB}, SpeMode::Parallel);
  const auto old_addrs = write_random(rig, rng, 5, 0);
  rig.expect_matches_model();
  const std::uint64_t epoch_before = rig.specu->schedule_epoch();
  rig.rekey(SpeKey{0xCCCC, 0xDDDD});
  ASSERT_NE(rig.specu->schedule_epoch(), epoch_before);
  const auto addrs = write_random(rig, rng, 6, 0x40000);
  for (const auto addr : addrs) rig.read(addr);
  // Blocks still resting under the old key read back as garbage under the
  // new one — the same garbage the oracle reconstructs.
  for (const auto addr : old_addrs) rig.read(addr);
  rig.expect_matches_model();
}

TEST(BatchEquivalence, InjectedFaultsProduceIdenticalGarbage) {
  std::uint64_t rng = 0xFA017ull;
  Rig rig(3, SpeKey{0x1111, 0x2222}, SpeMode::Parallel);
  const auto addrs = write_random(rig, rng, 4, 0);
  for (const auto addr : addrs) {
    auto& got = rig.memory->block(addr);
    auto& want = rig.model->blocks.at(addr);
    for (unsigned i = 0; i < 5; ++i) {
      const auto cell = util::splitmix64(rng) % got.levels.size();
      const auto delta = static_cast<std::uint8_t>(1 + util::splitmix64(rng) % 63);
      got.levels[cell] = static_cast<std::uint8_t>((got.levels[cell] + delta) % 64);
      want.levels[cell] = got.levels[cell];
    }
  }
  for (const auto addr : addrs) rig.read(addr);
  rig.expect_matches_model();
}

/// Runs `op` with a journal observer that, at every kill point, checks the
/// block at `addr` against the oracle: during an Encrypt intent it must hold
/// `plain` advanced by exactly the logged number of pulses; during a Decrypt
/// intent, the logged pre-image reversed by that many; during a Program
/// intent, the programmed units must hold `plain`; between intents, `plain`
/// or its full encryption as the block's flag says. Returns the number of
/// kill points observed.
unsigned check_kill_points(Rig& rig, std::uint64_t addr, const Levels& plain,
                           const std::function<void()>& op) {
  const OracleModel& model = *rig.model;
  const Levels ciphertext = model.encrypt_prefix(plain, model.pulses());
  unsigned points = 0;
  rig.memory->journal().set_observer([&] {
    ++points;
    const Snvmm::Block& block = rig.memory->block(addr);
    const JournalEntry* entry = rig.memory->journal().find(addr);
    if (entry == nullptr) {
      EXPECT_EQ(block.levels, block.encrypted ? ciphertext : plain)
          << "kill point " << points << " (between intents)";
      return;
    }
    EXPECT_EQ(entry->epoch, rig.specu->schedule_epoch());
    switch (entry->op) {
      case JournalOp::Program: {
        const auto programmed = static_cast<std::ptrdiff_t>(entry->progress * model.cells());
        EXPECT_TRUE(std::equal(plain.begin(), plain.begin() + programmed,
                               block.levels.begin()))
            << "kill point " << points << " (program, unit " << entry->progress << ")";
        break;
      }
      case JournalOp::Encrypt:
        EXPECT_EQ(block.levels, model.encrypt_prefix(plain, entry->progress))
            << "kill point " << points << " (encrypt, pulse " << entry->progress << ")";
        break;
      case JournalOp::Decrypt:
        EXPECT_EQ(entry->pre_image, ciphertext);
        EXPECT_EQ(block.levels, model.decrypt_prefix(entry->pre_image, entry->progress))
            << "kill point " << points << " (decrypt, pulse " << entry->progress << ")";
        break;
    }
  });
  op();
  rig.memory->journal().set_observer({});
  return points;
}

TEST(BatchEquivalence, MidBatchJournalKillPointsMatchScalar) {
  std::uint64_t rng = 0x0B17D1Eull;
  for (const SpeMode mode : {SpeMode::Parallel, SpeMode::Serial}) {
    Rig rig(5, SpeKey{0x7777, 0x8888}, mode);
    const std::uint32_t pulses = rig.specu->pulses_per_block();
    const unsigned units = rig.memory->config().units_per_block;
    for (const std::uint64_t addr : {0x40ull, 0x80ull, 0xC0ull}) {
      const auto data = random_bytes(rng, rig.memory->block_bytes());
      const Levels plain = rig.model->plain_levels(data);
      // Write: Program intent (one advance per unit), then Encrypt.
      EXPECT_EQ(check_kill_points(rig, addr, plain, [&] { rig.write(addr, data); }),
                1 + units + 1 + pulses + 1);
      // Read: Decrypt; parallel mode then re-encrypts at once.
      const unsigned read_points = mode == SpeMode::Parallel ? 2 * (pulses + 2) : pulses + 2;
      EXPECT_EQ(check_kill_points(rig, addr, plain, [&] { rig.read(addr); }), read_points);
      if (mode == SpeMode::Serial) {
        // The scavenger's re-encryption of the plaintext the read left.
        EXPECT_EQ(check_kill_points(rig, addr, plain,
                                    [&] {
                                      EXPECT_EQ(rig.specu->background_encrypt_one(), addr);
                                      EXPECT_EQ(rig.model->background_one(), addr);
                                    }),
                  pulses + 2);
      }
      rig.expect_matches_model();
    }
  }
}

TEST(CipherOracle, ResumeFromEveryPulseIndexMatchesOraclePrefix) {
  std::uint64_t rng = 0x2E5B3Eull;
  Rig rig(11, SpeKey{0x4242, 0x1717}, SpeMode::Serial);
  const std::uint64_t addr = 0x100;
  const auto data = random_bytes(rng, rig.memory->block_bytes());
  rig.write(addr, data);
  const Levels plain = rig.model->plain_levels(data);
  const std::uint32_t pulses = rig.specu->pulses_per_block();
  for (std::uint32_t k = 0; k <= pulses; ++k) {
    // The state a crash after pulse k of an encryption leaves in the array.
    Snvmm::Block& block = rig.memory->block(addr);
    block.levels = rig.model->encrypt_prefix(plain, k);
    block.encrypted = false;
    const double wear_before = block.wear;
    const std::uint64_t pulses_before = rig.specu->stats().encrypt_pulses;
    EXPECT_EQ(check_kill_points(rig, addr, plain,
                                [&] { rig.specu->resume_encrypt(addr, k); }),
              pulses - k + 2)
        << "resume from " << k;
    EXPECT_TRUE(rig.memory->block(addr).encrypted);
    EXPECT_EQ(rig.specu->stats().encrypt_pulses - pulses_before, pulses - k);
    EXPECT_NEAR(rig.memory->block(addr).wear - wear_before,
                Specu::kPulseWear * static_cast<double>(pulses - k), 1e-9);
  }
  EXPECT_EQ(rig.specu->read_block(addr), data);
}

}  // namespace
}  // namespace spe::core

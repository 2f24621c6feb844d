#include "probes.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/snvmm.hpp"
#include "core/specu.hpp"
#include "core/tpm.hpp"
#include "ecc/level_ecc.hpp"
#include "net/wire.hpp"
#include "tenant/token.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kEccCalls = 4000;
constexpr int kCodecRounds = 20;
constexpr int kTenantRounds = 200;

std::uint64_t total_pulses(const spe::core::Specu& specu) {
  return specu.stats().encrypt_pulses + specu.stats().decrypt_pulses;
}

}  // namespace

CoreProbe probe_core(const Workload& wl, const std::vector<BlockOp>& ops) {
  spe::core::SnvmmConfig memory_config = wl.config().shard_memory;
  memory_config.device_seed = wl.config().device_seed_base;
  spe::core::Snvmm memory(memory_config);
  spe::util::Xoshiro256ss key_rng(wl.seed() ^ 0xC0DEull);
  spe::core::Tpm tpm;
  tpm.provision(memory.device_id(), wl.config().platform_measurement,
                spe::core::SpeKey::random(key_rng));
  spe::core::Specu specu(memory, wl.mode());
  if (!specu.power_on(tpm, wl.config().platform_measurement))
    throw std::runtime_error("perfbench: core probe power-on refused");

  // Every probed block starts written at version 0, like the warm phase.
  std::vector<std::uint64_t> blocks;
  for (const BlockOp& op : ops) blocks.push_back(op.block);
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  std::vector<std::uint32_t> versions(blocks.size(), 0);
  std::uint8_t image[kBlockBytes];
  for (std::uint64_t b : blocks) {
    fill_image(wl.seed(), b, 0, image);
    specu.write_block(b, image);
  }

  CoreProbe probe;
  double write_us = 0.0, read_us = 0.0;
  std::uint64_t writes = 0, reads = 0;
  const std::uint64_t pulses_before = total_pulses(specu);
  for (const BlockOp& op : ops) {
    const auto slot = static_cast<std::size_t>(
        std::lower_bound(blocks.begin(), blocks.end(), op.block) - blocks.begin());
    if (op.is_write) {
      fill_image(wl.seed(), op.block, versions[slot] + 1, image);
      const auto t0 = Clock::now();
      specu.write_block(op.block, image);
      write_us += micros_between(t0, Clock::now());
      ++versions[slot];
      ++writes;
    } else {
      const auto t0 = Clock::now();
      const std::vector<std::uint8_t> data = specu.read_block(op.block);
      read_us += micros_between(t0, Clock::now());
      ++reads;
      if (!image_matches(wl.seed(), op.block, versions[slot], data))
        throw std::runtime_error("perfbench: core probe read of block " +
                                 std::to_string(op.block) + " returned a wrong image");
    }
  }
  probe.pulses_per_op = ops.empty() ? 0.0
                                    : static_cast<double>(total_pulses(specu) - pulses_before) /
                                          static_cast<double>(ops.size());
  probe.cipher_write_us = writes ? write_us / static_cast<double>(writes) : 0.0;
  probe.cipher_read_us = reads ? read_us / static_cast<double>(reads) : 0.0;

  // Serial mode leaves every read block plaintext: re-encrypt them one at
  // a time, as the scavenger does. Parallel mode has nothing pending.
  double bg_us = 0.0;
  std::uint64_t bg = 0;
  for (;;) {
    const auto t0 = Clock::now();
    const auto secured = specu.background_encrypt_one();
    if (!secured) break;
    bg_us += micros_between(t0, Clock::now());
    ++bg;
  }
  probe.cipher_bg_us = bg ? bg_us / static_cast<double>(bg) : 0.0;

  // Level ECC over the probed blocks' stored levels.
  double refresh_us = 0.0, verify_us = 0.0;
  for (int i = 0; i < kEccCalls; ++i) {
    const spe::core::Snvmm::Block* block =
        memory.find_block(blocks[static_cast<std::size_t>(i) % blocks.size()]);
    auto t0 = Clock::now();
    const std::vector<std::uint8_t> checks = spe::ecc::level_checks(block->levels);
    refresh_us += micros_between(t0, Clock::now());
    std::vector<std::uint8_t> levels = block->levels;
    t0 = Clock::now();
    const spe::ecc::LevelDecodeResult result = spe::ecc::verify_levels(levels, checks);
    verify_us += micros_between(t0, Clock::now());
    if (!result.ok || result.corrected_bits != 0)
      throw std::runtime_error("perfbench: level ECC probe flagged a clean block");
  }
  probe.ecc_refresh_us = refresh_us / kEccCalls;
  probe.ecc_verify_us = verify_us / kEccCalls;
  return probe;
}

double probe_codec_ns(const Workload& wl, const std::vector<BlockOp>& ops,
                      std::uint32_t tenant) {
  using namespace spe::net;
  // Frames are built up front; the probe times encoding and decoding only.
  std::vector<Frame> frames;
  std::uint8_t image[kBlockBytes];
  std::uint64_t id = 1;
  for (const BlockOp& op : ops) {
    fill_image(wl.seed(), op.block, 1, image);
    Frame request = op.is_write ? make_write_request(id, op.block, image)
                                : make_read_request(id, op.block);
    if (tenant != 0)
      attach_tenant(request, tenant,
                    spe::tenant::make_token(wl.token_secret(tenant), tenant, id,
                                            static_cast<std::uint8_t>(request.opcode)));
    Frame response;
    response.opcode = request.opcode;
    response.request_id = id;
    if (!op.is_write) response.payload.assign(image, image + kBlockBytes);
    frames.push_back(std::move(request));
    frames.push_back(std::move(response));
    ++id;
  }
  std::vector<std::uint8_t> bytes;
  FrameDecoder decoder;
  Frame decoded;
  std::uint64_t decoded_frames = 0;
  const auto t0 = Clock::now();
  for (int round = 0; round < kCodecRounds; ++round) {
    for (const Frame& frame : frames) {
      bytes.clear();
      append_frame(bytes, frame);
      decoder.feed(bytes);
      if (decoder.next(decoded) == DecodeStatus::Ok) ++decoded_frames;
    }
  }
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  if (decoded_frames != frames.size() * kCodecRounds)
    throw std::runtime_error("perfbench: codec probe failed to decode its own frames");
  return ops.empty() ? 0.0 : ns / (static_cast<double>(ops.size()) * kCodecRounds);
}

TenantProbe probe_tenant(const Workload& wl, const std::vector<BlockOp>& ops) {
  TenantProbe probe;
  const spe::tenant::TenantRegistry* registry = wl.registry();
  if (registry == nullptr || ops.empty()) return probe;
  struct Call {
    std::uint32_t tenant;
    std::uint64_t token;
    std::uint64_t id;
    std::uint8_t opcode;
    std::uint64_t block;
  };
  std::vector<Call> calls;
  std::uint64_t id = 1;
  for (const BlockOp& op : ops) {
    const std::uint32_t tenant = registry->owner_of(op.block);
    const auto opcode = static_cast<std::uint8_t>(op.is_write ? spe::net::Opcode::Write
                                                              : spe::net::Opcode::Read);
    calls.push_back({tenant,
                     spe::tenant::make_token(wl.token_secret(tenant), tenant, id, opcode), id,
                     opcode, op.block});
    ++id;
  }
  std::uint64_t accepted = 0;
  auto t0 = Clock::now();
  for (int round = 0; round < kTenantRounds; ++round)
    for (const Call& c : calls)
      accepted += registry->authenticate(c.tenant, c.token, c.id, c.opcode) ? 1 : 0;
  const double n = static_cast<double>(calls.size()) * kTenantRounds;
  probe.auth_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / n;
  if (accepted != calls.size() * kTenantRounds)
    throw std::runtime_error("perfbench: tenant probe token refused");

  std::uint64_t owners = 0;
  t0 = Clock::now();
  for (int round = 0; round < kTenantRounds; ++round)
    for (const Call& c : calls) owners += registry->owner_of(c.block);
  probe.owner_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / n;
  if (owners == 0) throw std::runtime_error("perfbench: tenant probe found no owners");
  return probe;
}

}  // namespace perfbench

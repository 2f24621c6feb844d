#include "tenant/registry.hpp"

#include <utility>

#include "util/ct_equal.hpp"

namespace spe::tenant {

TenantRegistry::TenantRegistry(std::vector<TenantSpec> specs) {
  for (TenantSpec& spec : specs) {
    if (spec.id == kDefaultTenant)
      throw std::invalid_argument(
          "TenantRegistry: tenant 0 is the implicit default domain");
    if (spec.name.empty()) spec.name = std::to_string(spec.id);
    const TenantId id = spec.id;
    for (const AddrRange& range : spec.ranges) {
      if (range.end <= range.begin)
        throw std::invalid_argument("TenantRegistry: empty or inverted range");
      // Overlap check against the sorted index: the predecessor must end at
      // or before our begin, the successor must begin at or after our end.
      const auto next = ranges_.lower_bound(range.begin);
      if (next != ranges_.end() && next->first < range.end)
        throw std::invalid_argument("TenantRegistry: overlapping ranges");
      if (next != ranges_.begin()) {
        const auto prev = std::prev(next);
        if (prev->second.first > range.begin)
          throw std::invalid_argument("TenantRegistry: overlapping ranges");
      }
      ranges_.emplace(range.begin, std::make_pair(range.end, id));
    }
    auto [it, inserted] = tenants_.try_emplace(id);
    if (!inserted)
      throw std::invalid_argument("TenantRegistry: duplicate tenant id " +
                                  std::to_string(id));
    it->second.spec = std::move(spec);
  }
}

const TenantRegistry::State* TenantRegistry::state(TenantId id) const {
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : &it->second;
}

const TenantSpec* TenantRegistry::spec(TenantId id) const {
  const State* s = state(id);
  return s == nullptr ? nullptr : &s->spec;
}

std::vector<TenantId> TenantRegistry::ids() const {
  std::vector<TenantId> out;
  out.reserve(tenants_.size());
  for (const auto& [id, s] : tenants_) out.push_back(id);
  return out;
}

TenantId TenantRegistry::owner_of(std::uint64_t addr) const {
  const auto next = ranges_.upper_bound(addr);
  if (next == ranges_.begin()) return kDefaultTenant;
  const auto& [begin, range] = *std::prev(next);
  return addr < range.first ? range.second : kDefaultTenant;
}

bool TenantRegistry::authenticate(TenantId id, std::uint64_t token,
                                  std::uint64_t request_id,
                                  std::uint8_t opcode) const {
  if (id == kDefaultTenant) return true;
  const State* s = state(id);
  if (s == nullptr) return false;  // unknown: nowhere to count, caller does
  const std::uint64_t expect =
      make_token(s->spec.token_secret, id, request_id, opcode);
  if (!util::ct_equal(expect, token)) {
    s->counters.auth_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

std::uint32_t TenantRegistry::key_epoch(TenantId id) const {
  const State* s = state(id);
  return s == nullptr ? 0 : s->epoch.load(std::memory_order_acquire);
}

std::uint32_t TenantRegistry::advance_epoch(TenantId id) {
  const auto it = tenants_.find(id);
  if (it == tenants_.end())
    throw std::invalid_argument(
        "TenantRegistry: cannot rotate unknown or default tenant " +
        std::to_string(id));
  it->second.counters.rotations.fetch_add(1, std::memory_order_relaxed);
  return it->second.epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
}

void TenantRegistry::restore_epoch(TenantId id, std::uint32_t epoch) {
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) return;
  auto& stored = it->second.epoch;
  std::uint32_t cur = stored.load(std::memory_order_acquire);
  while (cur < epoch &&
         !stored.compare_exchange_weak(cur, epoch, std::memory_order_acq_rel)) {
  }
}

core::SpeKey TenantRegistry::derive_key(TenantId id, std::uint32_t epoch) const {
  const State* s = state(id);
  if (s == nullptr)
    throw std::invalid_argument("TenantRegistry: derive_key for unknown tenant " +
                                std::to_string(id));
  // Domain-separated seed: tenant and epoch each pass through mix64 before
  // touching the secret seed, so adjacent tenants/epochs share no structure.
  std::uint64_t seed = util::mix64(s->spec.key_seed ^ kTokenDomain);
  seed = util::mix64(seed ^ (std::uint64_t{id} << 32));
  seed = util::mix64(seed ^ epoch);
  util::Xoshiro256ss rng(seed);
  return core::SpeKey::random(rng);
}

std::uint64_t TenantRegistry::key_handle(std::uint64_t device_id, TenantId id,
                                         std::uint32_t epoch) noexcept {
  // Real device handles are small integers (device_seed_base + shard); the
  // forced-high-bit mix keeps synthetic handles out of that space.
  std::uint64_t h = util::mix64(device_id ^ kTokenDomain);
  h = util::mix64(h ^ (std::uint64_t{id} << 24) ^ epoch);
  return h | (1ull << 63);
}

bool TenantRegistry::try_charge_block(TenantId id) {
  const State* s = state(id);
  if (s == nullptr) {  // default domain: count, never reject
    default_counters_.resident_blocks.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  auto& resident = s->counters.resident_blocks;
  if (s->spec.block_quota == 0) {
    resident.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::uint64_t cur = resident.load(std::memory_order_relaxed);
  while (cur < s->spec.block_quota) {
    if (resident.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed))
      return true;
  }
  s->counters.quota_rejections.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void TenantRegistry::release_block(TenantId id) {
  auto& resident = counters(id).resident_blocks;
  std::uint64_t cur = resident.load(std::memory_order_relaxed);
  while (cur > 0 &&
         !resident.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed)) {
  }
}

void TenantRegistry::set_resident_blocks(TenantId id, std::uint64_t count) {
  counters(id).resident_blocks.store(count, std::memory_order_relaxed);
}

bool TenantRegistry::try_acquire_inflight(TenantId id) {
  const State* s = state(id);
  if (s == nullptr) {
    default_counters_.inflight.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  auto& inflight = s->counters.inflight;
  if (s->spec.max_inflight == 0) {
    inflight.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::uint64_t cur = inflight.load(std::memory_order_relaxed);
  while (cur < s->spec.max_inflight) {
    if (inflight.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed))
      return true;
  }
  s->counters.admission_rejections.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void TenantRegistry::release_inflight(TenantId id) {
  auto& inflight = counters(id).inflight;
  std::uint64_t cur = inflight.load(std::memory_order_relaxed);
  while (cur > 0 &&
         !inflight.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed)) {
  }
}

TenantCounters& TenantRegistry::counters(TenantId id) const {
  const State* s = state(id);
  return s == nullptr ? default_counters_ : s->counters;
}

}  // namespace spe::tenant

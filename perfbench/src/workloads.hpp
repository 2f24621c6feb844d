#pragma once
// The benchmark's workloads. Each one owns a MemoryService (and, for
// the wire workloads, an in-process net::Server on loopback), rebuilds it
// from scratch on every setup(), drives it from at most two threads, and
// checks every read against the image of the last write it submitted.
//
//   svc_trace_serial    in-process, Serial mode, bzip2 trace, closed loop
//   wire_tenant_d2      loopback, Serial mode, two tenants, depth 2
//   wire_tenant_d1      the same at depth 1 (not declared)
//   wire_open_parallel  loopback, Parallel mode, open loop at a fixed rate

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/server.hpp"
#include "runtime/memory_service.hpp"
#include "tenant/registry.hpp"

namespace perfbench {

/// Wall time of one setup: service construction (crossbar calibration, TPM
/// provisioning, power-on), server start, and the warm-phase writes.
struct SetupTiming {
  double service_s = 0.0;
  double server_s = 0.0;
  double warm_s = 0.0;
  [[nodiscard]] double total_s() const { return service_s + server_s + warm_s; }
};

/// One block operation of a workload's op stream.
struct BlockOp {
  std::uint64_t block = 0;
  bool is_write = false;
};

class Workload {
public:
  Workload(std::uint64_t seed, spe::core::SpeMode mode, bool wire);
  virtual ~Workload();

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Gives each client thread empty tallies and a sample log with room for
  /// `samples_per_client` samples. Call once, before the first setup(); the
  /// tallies and logs then collect every instance's epochs.
  void begin_run(std::size_t samples_per_client);

  /// Tears down the previous service (if any) and builds a fresh one whose
  /// shards are new devices — so every setup pays calibration — then starts
  /// the server (wire workloads) and writes every block the clients touch.
  SetupTiming setup(unsigned rep);

  /// Starts the client threads; they tally each op into the epoch `word`
  /// names when the op starts, and exit once it reads kStop.
  virtual void start_clients(const std::atomic<int>& word) = 0;
  /// Joins the client threads (after the word went to kStop).
  virtual void join_clients() = 0;
  /// Ops completed so far across clients (any epoch; for steady-state
  /// detection).
  [[nodiscard]] std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Per-epoch tallies merged over clients. Call after join_clients().
  [[nodiscard]] EpochTallies tallies() const;
  /// The clients' sample logs. Read after join_clients().
  [[nodiscard]] const std::vector<SampleLog>& samples() const { return client_samples_; }

  /// A deterministic sample of the workload's op stream, for the probes.
  [[nodiscard]] virtual std::vector<BlockOp> probe_ops(std::size_t n) const = 0;
  /// Replays `ops` through read_traced / write_traced on the live service
  /// (clients stopped), keeping the images verified; returns the spans.
  [[nodiscard]] Tally runtime_probe(const std::vector<BlockOp>& ops);

  [[nodiscard]] spe::runtime::MemoryService& service() { return *service_; }
  [[nodiscard]] spe::net::Server* server() { return server_.get(); }
  [[nodiscard]] const spe::tenant::TenantRegistry* registry() const {
    return registry_.get();
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] spe::core::SpeMode mode() const { return mode_; }
  [[nodiscard]] const spe::runtime::ServiceConfig& config() const { return config_; }

  /// Tenant workload only: the token secret of `tenant`.
  [[nodiscard]] virtual std::uint64_t token_secret(std::uint32_t /*tenant*/) const {
    return 0;
  }

  /// State of `block`. Each block is used by exactly one client thread, which owns
  /// its entry.
  [[nodiscard]] BlockState& block_state(std::uint64_t block);
  /// perfbench::check_read with this run's seed.
  [[nodiscard]] Outcome check_read(std::uint64_t block, const BlockState& state,
                                   std::span<const std::uint8_t> data) const {
    return perfbench::check_read(seed_, block, state, data);
  }

  /// Stops server and service.
  void shutdown();

protected:
  /// Blocks the warm phase writes at version 0, split over two threads.
  [[nodiscard]] virtual std::vector<std::uint64_t> warm_blocks() const = 0;
  /// Hook for the tenant registry, installed before each service build.
  virtual void configure(spe::runtime::ServiceConfig& /*config*/) {}

  std::uint64_t seed_;
  spe::core::SpeMode mode_;
  bool wire_;
  spe::runtime::ServiceConfig config_;
  std::shared_ptr<spe::tenant::TenantRegistry> registry_;
  std::unique_ptr<spe::runtime::MemoryService> service_;
  std::unique_ptr<spe::net::Server> server_;

  std::atomic<std::uint64_t> completed_{0};
  std::vector<EpochTallies> client_tallies_;  ///< one per client thread
  std::vector<SampleLog> client_samples_;     ///< one per client thread
  std::vector<std::uint64_t> blocks_;         ///< warm set, sorted
  std::vector<BlockState> states_;            ///< parallel to blocks_
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);
[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench

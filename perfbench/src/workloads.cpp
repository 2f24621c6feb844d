#include "workloads.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "net/client.hpp"
#include "net/wire.hpp"
#include "open_loop.hpp"
#include "sim/workloads.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using spe::core::SpeMode;
using spe::runtime::MemoryService;
using spe::runtime::OpSummary;
using spe::runtime::ServiceConfig;

constexpr unsigned kShards = 8;
constexpr unsigned kWorkers = 2;

/// Prints the first untyped failure of a run (later ones only count).
void report_untyped(const char* where, const std::string& what) {
  static std::atomic<bool> printed{false};
  if (!printed.exchange(true))
    std::fprintf(stderr, "perfbench: untyped failure in %s: %s\n", where, what.c_str());
}

void record_summary(Tally& tally, const OpSummary& s) {
  tally.queue_ns += static_cast<double>(s.queue_ns.count());
  if (s.is_write) {
    tally.exec_write_ns += static_cast<double>(s.execute_ns.count());
    ++tally.exec_writes;
  } else {
    tally.exec_read_ns += static_cast<double>(s.execute_ns.count());
    ++tally.exec_reads;
  }
}

}  // namespace

// --- Workload ---------------------------------------------------------------

Workload::Workload(std::uint64_t seed, SpeMode mode, bool wire)
    : seed_(seed), mode_(mode), wire_(wire) {
  config_.shards = kShards;
  config_.worker_threads = kWorkers;
  config_.mode = mode;
}

Workload::~Workload() { shutdown(); }

void Workload::shutdown() {
  if (server_) server_->stop();
  server_.reset();
  if (service_) service_->stop();
  service_.reset();
}

void Workload::begin_run(std::size_t samples_per_client) {
  client_tallies_.assign(kClients, EpochTallies{});
  client_samples_.assign(kClients, SampleLog{});
  for (SampleLog& log : client_samples_) log.reserve(samples_per_client);
}

SetupTiming Workload::setup(unsigned rep) {
  shutdown();
  if (blocks_.empty()) {
    blocks_ = warm_blocks();
    std::sort(blocks_.begin(), blocks_.end());
    blocks_.erase(std::unique(blocks_.begin(), blocks_.end()), blocks_.end());
  }
  states_.assign(blocks_.size(), BlockState{});
  // Fresh devices on every setup: each repetition pays the per-device
  // crossbar calibration, as a new deployment would. Devices and keys are
  // the deployment, not an input, so they do not depend on the seed.
  config_.device_seed_base = 1 + rep * kShards;
  configure(config_);

  SetupTiming timing;
  auto t0 = Clock::now();
  service_ = std::make_unique<MemoryService>(config_);
  auto t1 = Clock::now();
  timing.service_s = seconds_between(t0, t1);
  if (service_->block_bytes() != kBlockBytes)
    throw std::logic_error("perfbench: the service's blocks are " +
                           std::to_string(service_->block_bytes()) + " bytes, not " +
                           std::to_string(kBlockBytes));
  if (wire_) {
    server_ = std::make_unique<spe::net::Server>(*service_);
    server_->start();
  }
  auto t2 = Clock::now();
  timing.server_s = seconds_between(t1, t2);

  std::exception_ptr failure;
  std::mutex failure_mutex;
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kClients; ++t) {
    writers.emplace_back([&, t] {
      try {
        std::uint8_t image[kBlockBytes];
        for (std::size_t i = t; i < blocks_.size(); i += kClients) {
          fill_image(seed_, blocks_[i], 0, image);
          service_->write(blocks_[i], image);
        }
      } catch (...) {
        std::lock_guard lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (auto& w : writers) w.join();
  if (failure) std::rethrow_exception(failure);
  timing.warm_s = seconds_between(t2, Clock::now());
  return timing;
}

BlockState& Workload::block_state(std::uint64_t block) {
  const auto it = std::lower_bound(blocks_.begin(), blocks_.end(), block);
  if (it == blocks_.end() || *it != block)
    throw std::logic_error("perfbench: block " + std::to_string(block) +
                           " is outside the warm set");
  return states_[static_cast<std::size_t>(it - blocks_.begin())];
}

EpochTallies Workload::tallies() const {
  EpochTallies merged;
  for (const EpochTallies& d : client_tallies_)
    for (int e = 0; e < kEpochs; ++e) merged[e].merge(d[e]);
  return merged;
}

Tally Workload::runtime_probe(const std::vector<BlockOp>& ops) {
  Tally tally;
  std::uint8_t image[kBlockBytes];
  for (const BlockOp& op : ops) {
    BlockState& state = block_state(op.block);
    ++tally.attempted;
    try {
      if (op.is_write) {
        fill_image(seed_, op.block, state.version + 1, image);
        record_summary(tally, service_->write_traced(op.block, image));
        state = {state.version + 1, false};
        tally.note(Outcome::Ok);
      } else {
        auto traced = service_->read_traced(op.block);
        record_summary(tally, traced.summary);
        tally.note(check_read(op.block, state, traced.data));
      }
    } catch (...) {
      std::string what;
      const Outcome outcome = classify_current_exception(what);
      if (outcome == Outcome::Untyped) report_untyped("runtime probe", what);
      if (op.is_write) state.unknown = true;
      tally.note(outcome);
    }
  }
  return tally;
}

// --- svc_trace_serial -------------------------------------------------------

namespace {

/// bzip2 post-L2 block trace replayed in-process by two closed-loop threads.
class SvcTraceSerial final : public Workload {
public:
  static constexpr std::size_t kTraceOps = 200'000;

  explicit SvcTraceSerial(std::uint64_t seed) : Workload(seed, SpeMode::Serial, false) {
    spe::sim::TraceGenerator gen(spe::sim::workload_by_name("bzip2"), seed);
    // The program-load sweep is the trace's own init phase; the warm phase
    // below writes exactly the blocks the replay touches instead.
    while (gen.in_init_phase()) (void)gen.next();
    for (std::size_t i = 0; i < kTraceOps; ++i) {
      const spe::sim::MemAccess access = gen.next();
      const BlockOp op{access.addr >> 6, access.is_write};
      all_.push_back(op);
      // A block belongs to one thread, so its last submitted write is
      // always known to the thread that reads it.
      ops_[spe::util::mix64(op.block) % kClients].push_back(op);
    }
  }

  const char* name() const override { return "svc_trace_serial"; }

  void start_clients(const std::atomic<int>& word) override {
    for (unsigned t = 0; t < kClients; ++t)
      threads_.emplace_back([this, t, &word] { drive(t, word); });
  }

  void join_clients() override {
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  std::vector<BlockOp> probe_ops(std::size_t n) const override {
    return {all_.begin(), all_.begin() + static_cast<std::ptrdiff_t>(std::min(n, all_.size()))};
  }

protected:
  std::vector<std::uint64_t> warm_blocks() const override {
    std::vector<std::uint64_t> blocks;
    for (const BlockOp& op : all_) blocks.push_back(op.block);
    return blocks;
  }

private:
  void drive(unsigned t, const std::atomic<int>& word) {
    const std::vector<BlockOp>& mine = ops_[t];
    EpochTallies& tallies = client_tallies_[t];
    SampleLog& samples = client_samples_[t];
    std::uint8_t image[kBlockBytes];
    for (std::size_t i = 0;; i = (i + 1) % mine.size()) {
      const int w = word.load(std::memory_order_acquire);
      if (w == kStop) break;
      const BlockOp& op = mine[i];
      Tally& tally = tallies[epoch_of(w)];
      ++tally.attempted;
      BlockState& state = block_state(op.block);
      const auto t0 = Clock::now();
      try {
        if (op.is_write) {
          fill_image(seed_, op.block, state.version + 1, image);
          if (is_traced(w))
            record_summary(tally, service_->write_traced(op.block, image));
          else
            service_->write(op.block, image);
          samples.add(epoch_of(w), SampleKind::Write, micros_between(t0, Clock::now()));
          state = {state.version + 1, false};
          tally.note(Outcome::Ok);
        } else {
          std::vector<std::uint8_t> data;
          if (is_traced(w)) {
            auto traced = service_->read_traced(op.block);
            record_summary(tally, traced.summary);
            data = std::move(traced.data);
          } else {
            data = service_->read(op.block);
          }
          const auto t1 = Clock::now();
          const Outcome outcome = check_read(op.block, state, data);
          if (outcome == Outcome::Ok)
            samples.add(epoch_of(w), SampleKind::Read, micros_between(t0, t1));
          tally.note(outcome);
        }
      } catch (...) {
        std::string what;
        const Outcome outcome = classify_current_exception(what);
        if (op.is_write) state.unknown = true;
        tally.note(outcome);
        if (outcome == Outcome::Untyped) {
          report_untyped(name(), what);
          break;
        }
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<BlockOp> all_;
  std::vector<BlockOp> ops_[kClients];
  std::vector<std::thread> threads_;
};

// --- wire_tenant_d2 (and wire_tenant_d1) -----------------------------------

/// Two tenants, one connection each with `depth` requests in flight, 90%
/// uniform reads over the tenant's own range. The declared workload runs at
/// depth 2; depth 1 runs on request (README.md, Tail latency).
class WireTenant final : public Workload {
public:
  static constexpr std::uint64_t kTenantBlocks = 2048;
  static constexpr double kWriteShare = 0.10;

  WireTenant(std::uint64_t seed, std::size_t depth)
      : Workload(seed, SpeMode::Serial, true),
        depth_(depth),
        name_("wire_tenant_d" + std::to_string(depth)) {}

  const char* name() const override { return name_.c_str(); }

  static std::uint32_t tenant_of(unsigned client) { return client + 1; }
  static std::uint64_t range_base(std::uint32_t tenant) {
    return static_cast<std::uint64_t>(tenant) << 20;
  }

  std::uint64_t token_secret(std::uint32_t tenant) const override {
    return spe::util::mix64(seed_ ^ (0x70CE000ull + tenant));
  }

  void start_clients(const std::atomic<int>& word) override {
    for (unsigned t = 0; t < kClients; ++t)
      threads_.emplace_back([this, t, &word] { drive(t, word); });
  }

  void join_clients() override {
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  std::vector<BlockOp> probe_ops(std::size_t n) const override {
    std::vector<BlockOp> ops;
    OpStream streams[kClients] = {stream(0), stream(1)};
    for (std::size_t i = 0; i < n; ++i) ops.push_back(streams[i % kClients].next());
    return ops;
  }

protected:
  std::vector<std::uint64_t> warm_blocks() const override {
    std::vector<std::uint64_t> blocks;
    for (unsigned t = 0; t < kClients; ++t)
      for (std::uint64_t b = 0; b < kTenantBlocks; ++b)
        blocks.push_back(range_base(tenant_of(t)) + b);
    return blocks;
  }

  void configure(ServiceConfig& config) override {
    std::vector<spe::tenant::TenantSpec> specs;
    for (unsigned t = 0; t < kClients; ++t) {
      spe::tenant::TenantSpec spec;
      spec.id = tenant_of(t);
      spec.ranges = {{range_base(spec.id), range_base(spec.id) + kTenantBlocks}};
      spec.token_secret = token_secret(spec.id);
      spec.key_seed = 0x4E75ull + spec.id;
      specs.push_back(std::move(spec));
    }
    registry_ = std::make_shared<spe::tenant::TenantRegistry>(std::move(specs));
    config.tenants = registry_;
  }

private:
  struct OpStream {
    spe::util::Xoshiro256ss rng;
    std::uint64_t base;
    BlockOp next() {
      const bool is_write = rng.uniform() < kWriteShare;
      return {base + rng.below(kTenantBlocks), is_write};
    }
  };
  OpStream stream(unsigned client) const {
    const std::uint32_t tenant = tenant_of(client);
    return {spe::util::Xoshiro256ss(spe::util::mix64(seed_ ^ (0xD1ull << 32) ^ tenant)),
            range_base(tenant)};
  }

  /// A request sent on the connection and not yet answered.
  struct InFlight {
    std::uint64_t id = 0;
    BlockOp op;
    Clock::time_point sent;
    int word = 0;  ///< the controller's word when the op started
  };

  void drive(unsigned t, const std::atomic<int>& word) {
    EpochTallies& tallies = client_tallies_[t];
    SampleLog& samples = client_samples_[t];
    OpStream ops = stream(t);
    std::uint8_t image[kBlockBytes];
    spe::net::ClientConfig cc;
    cc.port = server_->port();
    spe::net::Client client(cc);
    try {
      client.connect();
    } catch (...) {
      std::string what;
      (void)classify_current_exception(what);
      report_untyped(name(), what);
      tallies[0].note(Outcome::Untyped);
      return;
    }
    client.set_tenant(tenant_of(t), token_secret(tenant_of(t)));
    // A block has at most one request in flight, so the image a read must
    // return is settled when the read is sent.
    std::vector<InFlight> flights;
    flights.reserve(depth_);
    std::optional<InFlight> sending;  ///< the op whose send call is running
    const auto in_flight = [&](std::uint64_t block) {
      return std::any_of(flights.begin(), flights.end(),
                         [&](const InFlight& f) { return f.op.block == block; });
    };
    try {
      for (;;) {
        const int w = word.load(std::memory_order_acquire);
        if (w == kStop) break;
        const BlockOp op = ops.next();
        while (in_flight(op.block))
          if (!complete_one(client, flights, tallies, samples)) return;
        Tally& tally = tallies[epoch_of(w)];
        ++tally.attempted;
        const auto t0 = Clock::now();
        sending = InFlight{0, op, t0, w};
        if (op.is_write) {
          fill_image(seed_, op.block, block_state(op.block).version + 1, image);
          sending->id = client.send_write(op.block, image);
        } else {
          sending->id = client.send_read(op.block);
        }
        if (is_traced(w)) {
          tally.send_us += micros_between(t0, Clock::now());
          ++tally.sends;
        }
        flights.push_back(*sending);
        sending.reset();
        if (flights.size() == depth_ && !complete_one(client, flights, tallies, samples))
          return;
      }
      while (!flights.empty())
        if (!complete_one(client, flights, tallies, samples)) return;
    } catch (...) {
      // A failed send or receive leaves the connection's stream unusable:
      // every request in flight ends with that failure, and the client stops.
      std::string what;
      const Outcome outcome = classify_current_exception(what);
      if (sending) flights.push_back(*sending);
      for (const InFlight& f : flights) {
        if (f.op.is_write) block_state(f.op.block).unknown = true;
        tallies[epoch_of(f.word)].note(outcome);
      }
      if (outcome == Outcome::Untyped) report_untyped(name(), what);
    }
  }

  /// Receives one response, settles the request it answers and records
  /// its latency from the send. Returns false, after counting an untyped
  /// failure, when the response answers no request in flight.
  bool complete_one(spe::net::Client& client, std::vector<InFlight>& flights,
                    EpochTallies& tallies, SampleLog& samples) {
    const spe::net::Frame response = client.recv_response();
    const auto now = Clock::now();
    const auto it = std::find_if(flights.begin(), flights.end(), [&](const InFlight& f) {
      return f.id == response.request_id;
    });
    if (it == flights.end()) {
      tallies[epoch_of(flights.front().word)].note(Outcome::Untyped);
      report_untyped(name(), "response id matches no request in flight");
      return false;
    }
    const InFlight f = *it;
    flights.erase(it);
    Tally& tally = tallies[epoch_of(f.word)];
    BlockState& state = block_state(f.op.block);
    const double rtt = micros_between(f.sent, now);
    if (response.status != spe::net::Status::Ok) {
      if (f.op.is_write) state.unknown = true;
      tally.note(Outcome::Typed);
    } else if (f.op.is_write) {
      state = {state.version + 1, false};
      samples.add(epoch_of(f.word), SampleKind::Write, rtt);
      tally.note(Outcome::Ok);
    } else {
      const Outcome outcome = check_read(f.op.block, state, response.payload);
      if (outcome == Outcome::Ok) samples.add(epoch_of(f.word), SampleKind::Read, rtt);
      tally.note(outcome);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  std::size_t depth_;  ///< requests in flight per connection
  std::string name_;
  std::vector<std::thread> threads_;
};

// --- wire_open_parallel -----------------------------------------------------

constexpr std::uint64_t kStripeBlocks = 2048;
constexpr double kOpenWriteShare = 0.5;

std::uint64_t stripe_base(unsigned conn) { return static_cast<std::uint64_t>(conn + 1) << 24; }

/// Op stream of one connection: 50/50 reads and writes, uniform over its
/// stripe.
struct StripeStream {
  spe::util::Xoshiro256ss rng;
  std::uint64_t base;
  StripeStream(std::uint64_t seed, unsigned conn)
      : rng(spe::util::mix64(seed ^ (0x0Bull << 40) ^ conn)), base(stripe_base(conn)) {}
  BlockOp next() {
    const bool is_write = rng.uniform() < kOpenWriteShare;
    return {base + rng.below(kStripeBlocks), is_write};
  }
};

/// One pipelined loopback connection speaking the wire protocol through
/// net's public frame codec. Client has no readiness query, so an open loop
/// that must both send on schedule and collect responses on one thread owns
/// its socket here.
class PipelinedConn {
public:
  PipelinedConn(Workload& wl, std::uint16_t port, unsigned index, EpochTallies& tallies,
                SampleLog& samples, const OpenLoopSchedule& schedule,
                std::atomic<std::uint64_t>& completed)
      : wl_(wl),
        tallies_(tallies),
        samples_(samples),
        schedule_(schedule),
        completed_(completed),
        ops_(wl.seed(), index) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("perfbench: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("perfbench: connect failed: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~PipelinedConn() { ::close(fd_); }
  PipelinedConn(const PipelinedConn&) = delete;
  PipelinedConn& operator=(const PipelinedConn&) = delete;

  void send(std::uint64_t op, int word) {
    const int epoch = epoch_of(word);
    Tally& tally = tallies_[epoch];
    ++tally.attempted;
    const auto [block, is_write] = ops_.next();
    Rec rec{Clock::time_point{}, block, 0, static_cast<std::uint8_t>(epoch), is_write};
    if (broken_) {
      tally.note(Outcome::Untyped);
      return;
    }
    BlockState& state = wl_.block_state(block);
    out_.clear();
    if (is_write) {
      std::uint8_t image[kBlockBytes];
      rec.version = ++state.version;
      fill_image(wl_.seed(), block, rec.version, image);
      spe::net::append_frame(out_, spe::net::make_write_request(op + 1, block, image));
    } else {
      rec.version = state.version;
      spe::net::append_frame(out_, spe::net::make_read_request(op + 1, block));
    }
    if (recs_.size() <= op) recs_.resize(op + 1);
    const auto t0 = Clock::now();
    rec.sent = t0;
    recs_[op] = rec;
    std::size_t sent = 0;
    while (sent < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        fail(std::string("send failed: ") + std::strerror(errno));
        tally.note(Outcome::Untyped);
        return;
      }
    }
    if (is_traced(word)) {
      tally.send_us += micros_between(t0, Clock::now());
      ++tally.sends;
    }
    ++outstanding_;
  }

  void poll(Clock::time_point until) {
    const auto left = until - Clock::now();
    const auto ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(left).count());
    if (broken_) {
      if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
      return;
    }
    timespec ts{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready <= 0) return;
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0) {
      fail("server closed the connection");
      return;
    }
    if (n < 0) {
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
        fail(std::string("recv failed: ") + std::strerror(errno));
      return;
    }
    const auto done = Clock::now();
    decoder_.feed(buf, static_cast<std::size_t>(n));
    spe::net::Frame frame;
    for (;;) {
      const spe::net::DecodeStatus st = decoder_.next(frame);
      if (st == spe::net::DecodeStatus::NeedMore) break;
      if (st == spe::net::DecodeStatus::Error) {
        fail(std::string("bad response stream: ") + spe::net::to_string(decoder_.error()));
        return;
      }
      settle(frame, done);
    }
  }

  void drain() {
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (outstanding_ > 0 && !broken_ && Clock::now() < deadline)
      poll(Clock::now() + std::chrono::milliseconds(10));
    // Whatever is still unanswered never completed: a failure of the run.
    for (const Rec& rec : recs_) {
      if (rec.sent == Clock::time_point{} || rec.settled) continue;
      tallies_[rec.epoch].note(broken_ ? Outcome::Untyped : Outcome::Typed);
    }
    outstanding_ = 0;
  }

private:
  struct Rec {
    Clock::time_point sent;
    std::uint64_t block = 0;
    std::uint32_t version = 0;
    std::uint8_t epoch = 0;
    bool is_write = false;
    bool settled = false;
  };

  void settle(const spe::net::Frame& frame, Clock::time_point done) {
    const std::uint64_t op = frame.request_id - 1;
    if (frame.request_id == 0 || op >= recs_.size() || recs_[op].settled ||
        recs_[op].sent == Clock::time_point{}) {
      fail("response to an unknown request id");
      return;
    }
    Rec& rec = recs_[op];
    rec.settled = true;
    --outstanding_;
    completed_.fetch_add(1, std::memory_order_relaxed);
    Tally& tally = tallies_[rec.epoch];
    // Open loop: latency runs from the op's due time, not from its send.
    const double latency = schedule_.latency_us(op, done);
    // Pipelined ops may still be in flight behind a failed write, so here
    // a block whose image became unknown stays unknown.
    BlockState& state = wl_.block_state(rec.block);
    if (frame.status != spe::net::Status::Ok) {
      if (rec.is_write) state.unknown = true;
      tally.note(Outcome::Typed);
    } else if (rec.is_write) {
      samples_.add(rec.epoch, SampleKind::Write, latency);
      tally.note(Outcome::Ok);
    } else {
      const Outcome outcome =
          wl_.check_read(rec.block, BlockState{rec.version, state.unknown}, frame.payload);
      if (outcome == Outcome::Ok) samples_.add(rec.epoch, SampleKind::Read, latency);
      tally.note(outcome);
    }
  }

  void fail(const std::string& what) {
    if (!broken_) report_untyped("wire_open_parallel", what);
    broken_ = true;
  }

  Workload& wl_;
  EpochTallies& tallies_;
  SampleLog& samples_;
  const OpenLoopSchedule& schedule_;
  std::atomic<std::uint64_t>& completed_;
  StripeStream ops_;
  int fd_ = -1;
  bool broken_ = false;
  std::size_t outstanding_ = 0;
  std::vector<Rec> recs_;
  std::vector<std::uint8_t> out_;
  spe::net::FrameDecoder decoder_;
};

/// Offered rate of wire_open_parallel, ops/s over both connections, in
/// thousands: about half the configuration's closed-loop capacity (see
/// README.md). A constant, so a faster program
/// is offered the same load and its latencies stay comparable.
constexpr double kOfferedKops = 4.5;

/// Parallel mode, default domain, two pipelined connections on an open loop
/// at a fixed offered rate, 50/50 reads and writes over per-connection
/// stripes.
class WireOpenParallel final : public Workload {
public:
  explicit WireOpenParallel(std::uint64_t seed) : Workload(seed, SpeMode::Parallel, true) {}

  const char* name() const override { return "wire_open_parallel"; }

  void start_clients(const std::atomic<int>& word) override {
    // Each connection offers half the rate; the second is offset by half a
    // period so the two interleave.
    const auto period = std::chrono::nanoseconds(
        static_cast<std::int64_t>(kClients * 1e6 / kOfferedKops));
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    for (unsigned c = 0; c < kClients; ++c) {
      schedules_.emplace_back(start + period * c / kClients, period);
    }
    for (unsigned c = 0; c < kClients; ++c)
      threads_.emplace_back([this, c, &word] { drive(c, word); });
  }

  void join_clients() override {
    for (auto& t : threads_) t.join();
    threads_.clear();
    schedules_.clear();
  }

  std::vector<BlockOp> probe_ops(std::size_t n) const override {
    std::vector<BlockOp> ops;
    StripeStream streams[kClients] = {{seed_, 0}, {seed_, 1}};
    for (std::size_t i = 0; i < n; ++i) ops.push_back(streams[i % kClients].next());
    return ops;
  }

protected:
  std::vector<std::uint64_t> warm_blocks() const override {
    std::vector<std::uint64_t> blocks;
    for (unsigned c = 0; c < kClients; ++c)
      for (std::uint64_t b = 0; b < kStripeBlocks; ++b) blocks.push_back(stripe_base(c) + b);
    return blocks;
  }

private:
  void drive(unsigned c, const std::atomic<int>& word) {
    try {
      PipelinedConn conn(*this, server_->port(), c, client_tallies_[c], client_samples_[c],
                         schedules_[c], completed_);
      (void)run_open_loop(conn, schedules_[c], word, client_samples_[c]);
    } catch (...) {
      std::string what;
      (void)classify_current_exception(what);
      report_untyped(name(), what);
      client_tallies_[c][0].note(Outcome::Untyped);
    }
  }

  std::vector<OpenLoopSchedule> schedules_;
  std::vector<std::thread> threads_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"svc_trace_serial", "wire_tenant_d2",
                                                 "wire_tenant_d1", "wire_open_parallel"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "svc_trace_serial") return std::make_unique<SvcTraceSerial>(seed);
  if (name == "wire_tenant_d2") return std::make_unique<WireTenant>(seed, 2);
  if (name == "wire_tenant_d1") return std::make_unique<WireTenant>(seed, 1);
  if (name == "wire_open_parallel")
    return std::make_unique<WireOpenParallel>(seed);
  return nullptr;
}

}  // namespace perfbench

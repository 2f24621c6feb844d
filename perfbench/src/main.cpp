// Repository benchmark: runs one workload against the real
// MemoryService (in-process or behind a loopback net::Server), checks every
// read, and prints its metrics — one "metric <name> <value> <unit>" line
// each, then a single JSON result line as the last line of stdout.
//
//   spe_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every run sets up three fresh service instances. --trace 0 times twelve
// slices on each, with no spans, and computes the end-to-end metrics over
// the slices the host's CPU steal disturbed least. --trace 1 times the third
// instance only: an untraced quarter, a traced half and an untraced quarter
// (the throughput ratio is the tracing overhead); it takes the per-layer
// metrics from the traced half and from counter snapshots, then runs the
// probe pass.
//
// Exit status: 0 for a correct run; 1 when a read was corrupt, an error was
// untyped, or no op completed (the JSON line says correct: false); 2 for a
// usage error or a run that could not be measured (no JSON line).

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "metrics.hpp"
#include "probes.hpp"
#include "quantile.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Untraced runs compute the end-to-end metrics over the kKeptSlices
/// least-stolen of their kSetupReps * kSlicesPerSetup slices, and over every
/// slice whose CPU steal is at most kStealFloor.
constexpr std::size_t kKeptSlices = 9;
constexpr double kStealFloor = 0.01;
/// Room each client's sample log gets per timed second: a fixed capacity,
/// well above the fastest workload's rate (about 4.3k ops/s per client on a
/// 4-core machine), so peak_rss_mb does not follow throughput.
constexpr double kSamplesPerClientSecond = 16'000;
constexpr auto kSampleInterval = std::chrono::milliseconds(20);
constexpr std::size_t kProbeOps = 512;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool seed_set = false;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    char* end = nullptr;
    if (arg != "--workload" && arg != "--seed" && arg != "--seconds" && arg != "--trace") {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return false;
    }
    if ((v = value()) == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return false;
    }
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, &end, 0);
      opt.seed_set = end != v && *end == '\0';
      if (!opt.seed_set) return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds > 0.0)) return false;
    } else {
      const std::string t = v;
      if (t != "0" && t != "1") return false;
      opt.trace = t == "1";
    }
  }
  return true;
}

/// Counter snapshots at a segment boundary.
struct Snapshot {
  Clock::time_point at;
  double cpu_s = 0.0;
  CpuTicks host;
  spe::runtime::ServiceStatsSnapshot svc;
  spe::net::ServerCountersSnapshot net;
  std::uint64_t tenant_denied = 0;
};

Snapshot snapshot(Workload& wl) {
  Snapshot s;
  s.svc = wl.service().stats();
  if (wl.server() != nullptr) s.net = wl.server()->counters();
  if (const auto* reg = wl.registry()) {
    std::vector<std::uint32_t> ids = reg->ids();
    ids.push_back(spe::tenant::kDefaultTenant);
    for (const std::uint32_t id : ids) {
      const auto& c = reg->counters(id);
      s.tenant_denied += c.denied.load() + c.auth_failures.load() +
                         c.quota_rejections.load() + c.admission_rejections.load();
    }
  }
  s.cpu_s = process_cpu_seconds();
  s.host = read_cpu_ticks();
  s.at = Clock::now();
  return s;
}

/// One timed segment: boundaries plus what the controller sampled.
struct Segment {
  Snapshot begin, end;
  double enc_frac_sum = 0.0;
  std::uint64_t samples = 0;
  std::size_t plaintext_max = 0;
  [[nodiscard]] double wall_s() const { return seconds_between(begin.at, end.at); }
  [[nodiscard]] double encrypted_fraction() const {
    return samples ? enc_frac_sum / static_cast<double>(samples) : 1.0;
  }
  /// Share of the host's CPU time stolen by the hypervisor in the segment.
  [[nodiscard]] double steal() const {
    const std::uint64_t total = end.host.total - begin.host.total;
    return total ? static_cast<double>(end.host.steal - begin.host.steal) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

/// Switches the client threads to `next_word` and samples the service at a fixed
/// interval for `seconds`.
Segment measure(Workload& wl, std::atomic<int>& word, int next_word, double seconds,
                bool sample_plaintext) {
  Segment seg;
  seg.begin = snapshot(wl);
  word.store(next_word, std::memory_order_release);
  const auto end = seg.begin.at + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  auto tick = seg.begin.at;
  while ((tick += kSampleInterval) < end) {
    std::this_thread::sleep_until(tick);
    seg.enc_frac_sum += wl.service().encrypted_fraction();
    ++seg.samples;
    if (sample_plaintext)
      seg.plaintext_max =
          std::max(seg.plaintext_max, wl.service().stats().totals.plaintext_blocks);
  }
  std::this_thread::sleep_until(end);
  seg.end = snapshot(wl);
  return seg;
}

struct Warmup {
  double seconds = 0.0;
  std::uint64_t ops = 0;
  bool steady = false;
};

/// Runs untimed traffic until the completion rate settles — the last three
/// 250 ms windows differ by at most 10% of their mean — after at least 1 s
/// and at most 4 s.
Warmup warm_up(Workload& wl) {
  constexpr auto kWindow = std::chrono::milliseconds(250);
  Warmup w;
  const auto start = Clock::now();
  const std::uint64_t ops0 = wl.completed();
  std::vector<double> rates;
  std::uint64_t last = ops0;
  auto tick = start;
  while (seconds_between(start, tick) < 4.0) {
    std::this_thread::sleep_until(tick += kWindow);
    const std::uint64_t now_ops = wl.completed();
    rates.push_back(static_cast<double>(now_ops - last));
    last = now_ops;
    if (rates.size() >= 4 && seconds_between(start, tick) >= 1.0) {
      const double a = rates[rates.size() - 1], b = rates[rates.size() - 2],
                   c = rates[rates.size() - 3];
      const double mean = (a + b + c) / 3.0;
      if (mean > 0 && std::max({a, b, c}) - std::min({a, b, c}) <= 0.10 * mean) {
        w.steady = true;
        break;
      }
    }
  }
  w.seconds = seconds_between(start, Clock::now());
  w.ops = wl.completed() - ops0;
  return w;
}

double mean_delta_us(const spe::runtime::LatencyHistogram::Snapshot& a,
                     const spe::runtime::LatencyHistogram::Snapshot& b) {
  const std::uint64_t n = b.count - a.count;
  return n ? static_cast<double>(b.sum_ns - a.sum_ns) / static_cast<double>(n) / 1000.0
           : 0.0;
}

std::uint64_t ops_of(const Tally& t) { return t.ok + t.typed + t.corrupt + t.untyped; }
double kops(const Tally& t, const Segment& seg) {
  return static_cast<double>(t.ok) / seg.wall_s() / 1000.0;
}

std::size_t count_samples(const std::vector<SampleLog>& logs, int epoch, SampleKind kind) {
  std::size_t n = 0;
  for (const SampleLog& log : logs) n += log.count(epoch, kind);
  return n;
}

/// Gathers into `pool` the samples of `kind` from the epochs `keep` marks.
void pool_samples(const std::vector<SampleLog>& logs, SampleKind kind,
                  const std::array<bool, kEpochs>& keep, std::vector<float>& pool) {
  pool.clear();
  for (const SampleLog& log : logs) log.collect(kind, keep, pool);
}

/// The end-to-end metrics over the timed slices the host disturbed least.
/// On a VM the hypervisor steals CPU in bursts of seconds; a slice it hit
/// measures the host, not the program. So the slices are ranked by the steal
/// /proc/stat reports over them, and a slice is kept when its steal is at
/// most the kKeptSlices-th smallest or at most kStealFloor. Keeping every
/// lightly stolen slice matters for the p99s: they need all the samples a
/// quiet host gives (README.md, Tail latency). Samples and counts of the
/// kept slices are pooled; `pool` is the preallocated buffer the quantiles
/// are taken in.
void end_to_end(Report& report, const EpochTallies& tallies, const std::vector<SampleLog>& logs,
                std::vector<float>& pool, const std::vector<std::pair<int, Segment>>& slices,
                double setup_s) {
  std::vector<double> steals;
  for (const auto& [epoch, seg] : slices) steals.push_back(seg.steal());
  std::sort(steals.begin(), steals.end());
  const double cutoff =
      std::max(steals[std::min(kKeptSlices, steals.size()) - 1], kStealFloor);

  std::array<bool, kEpochs> keep{};
  Tally kept;
  double wall_s = 0.0, cpu_s = 0.0, enc_sum = 0.0;
  std::uint64_t enc_samples = 0;
  for (const auto& [epoch, seg] : slices) {
    const Tally& t = tallies[static_cast<std::size_t>(epoch)];
    keep[static_cast<std::size_t>(epoch)] = seg.steal() <= cutoff;
    std::printf("slice %d: steal %.2f%%, %.3f kops/s, %zu reads, %zu writes%s\n", epoch,
                100.0 * seg.steal(), kops(t, seg), count_samples(logs, epoch, SampleKind::Read),
                count_samples(logs, epoch, SampleKind::Write),
                keep[static_cast<std::size_t>(epoch)] ? "" : " (set aside)");
    if (!keep[static_cast<std::size_t>(epoch)]) continue;
    kept.merge(t);
    wall_s += seg.wall_s();
    cpu_s += seg.end.cpu_s - seg.begin.cpu_s;
    enc_sum += seg.enc_frac_sum;
    enc_samples += seg.samples;
  }
  report.set("throughput_kops", static_cast<double>(kept.ok) / wall_s / 1000.0);
  for (const auto& [kind, p50, p99] :
       {std::tuple{SampleKind::Read, "read_p50_us", "read_p99_us"},
        std::tuple{SampleKind::Write, "write_p50_us", "write_p99_us"}}) {
    pool_samples(logs, kind, keep, pool);
    for (const auto& [name, q] : {std::pair{p50, 0.50}, std::pair{p99, 0.99}}) {
      const QuantileResult r = exact_quantile(pool, q);
      std::printf("quantile %-13s n=%zu beyond=%zu\n", name, r.samples, r.beyond);
      if (!reportable(r))
        throw std::runtime_error(std::string(name) + " has " + std::to_string(r.beyond) +
                                 " samples beyond it; need " + std::to_string(kMinBeyond));
      report.set(name, r.value);
    }
  }
  report.set("cpu_us_per_op",
             cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(ops_of(kept), 1)));
  report.set("encrypted_fraction",
             enc_samples ? enc_sum / static_cast<double>(enc_samples) : 1.0);
  report.set("ok_frac", kept.attempted ? static_cast<double>(kept.ok) /
                                             static_cast<double>(kept.attempted)
                                       : 0.0);
  report.set("setup_s", setup_s);
}

/// Per-layer metrics of the traced slice `epoch`, whose counts are `t` and
/// whose boundaries are `seg`.
void per_layer(Report& report, Workload& wl, const Tally& untraced, double untraced_wall_s,
               int epoch, const Tally& t, const Segment& seg,
               const std::vector<SetupTiming>& setups) {
  const bool wire = wl.server() != nullptr;
  const std::string name = wl.name();
  const auto& s0 = seg.begin.svc.totals;
  const auto& s1 = seg.end.svc.totals;
  const double kop = std::max(1.0, static_cast<double>(ops_of(t))) / 1000.0;

  std::vector<double> service_s, warm_s;
  for (const SetupTiming& s : setups) {
    service_s.push_back(s.service_s);
    warm_s.push_back(s.warm_s);
  }
  report.set("setup.service_s", median_of(service_s));
  report.set("setup.warm_s", median_of(warm_s));

  std::array<bool, kEpochs> traced{};
  traced[static_cast<std::size_t>(epoch)] = true;
  std::vector<float> lag, reads, writes;
  for (const SampleLog& log : wl.samples()) {
    log.collect(SampleKind::Lag, traced, lag);
    log.collect(SampleKind::Read, traced, reads);
    log.collect(SampleKind::Write, traced, writes);
  }
  const double lag_mean = mean_of(lag);
  report.set("driver.send_lag_p99_us", lag.empty() ? 0.0 : exact_quantile(lag, 0.99).value);

  // runtime: exact means from the stats() histogram sums.
  const double rt_read = mean_delta_us(s0.read_latency, s1.read_latency);
  const double rt_write = mean_delta_us(s0.write_latency, s1.write_latency);
  const std::uint64_t rt_n = (s1.read_latency.count - s0.read_latency.count) +
                             (s1.write_latency.count - s0.write_latency.count);
  const double rt_op =
      rt_n ? static_cast<double>((s1.read_latency.sum_ns - s0.read_latency.sum_ns) +
                                 (s1.write_latency.sum_ns - s0.write_latency.sum_ns)) /
                 static_cast<double>(rt_n) / 1000.0
           : 0.0;
  report.set("runtime.read_us", rt_read);
  report.set("runtime.write_us", rt_write);
  report.set("runtime.scrub_per_kop",
             static_cast<double>(s1.blocks_scrubbed - s0.blocks_scrubbed) / kop);
  report.set("runtime.bg_encrypt_per_kop",
             static_cast<double>(s1.background_encrypted - s0.background_encrypted) / kop);
  report.set("runtime.plaintext_max", static_cast<double>(seg.plaintext_max));
  report.set("runtime.queue_high_water", static_cast<double>(s1.queue_high_water));
  report.set("runtime.coalesced_per_kop",
             static_cast<double>(s1.writes_coalesced - s0.writes_coalesced) / kop);
  report.set("runtime.retries",
             static_cast<double>((s1.read_retries - s0.read_retries) +
                                 (s1.write_retries - s0.write_retries) +
                                 (s1.faults_corrected - s0.faults_corrected)));

  // OpSummary spans: from the traced clients in-process, else from a probe
  // of sampled ops on the (now idle) live service.
  const std::vector<BlockOp> sample = wl.probe_ops(kProbeOps);
  const Tally spans = wire ? wl.runtime_probe(sample) : t;
  if (spans.corrupt != 0 || spans.untyped != 0)
    throw std::runtime_error("runtime probe read a wrong image or failed untyped");
  const std::uint64_t span_ops = spans.exec_reads + spans.exec_writes;
  const double queue_wait =
      span_ops ? spans.queue_ns / static_cast<double>(span_ops) / 1000.0 : 0.0;
  report.set("runtime.queue_wait_us", queue_wait);
  const double exec_read =
      spans.exec_reads ? spans.exec_read_ns / static_cast<double>(spans.exec_reads) / 1000.0
                       : 0.0;
  const double exec_write =
      spans.exec_writes ? spans.exec_write_ns / static_cast<double>(spans.exec_writes) / 1000.0
                        : 0.0;
  report.set("runtime.execute_read_us", exec_read);
  report.set("runtime.execute_write_us", exec_write);

  // net: server request span and client-side RTT split.
  const double n_reads = static_cast<double>(reads.size());
  const double n_writes = static_cast<double>(writes.size());
  const double e2e_mean = n_reads + n_writes > 0
                              ? (mean_of(reads) * n_reads + mean_of(writes) * n_writes) /
                                    (n_reads + n_writes)
                              : 0.0;
  const double send_us = t.sends ? t.send_us / static_cast<double>(t.sends) : 0.0;
  double server_us = 0.0, codec_ns = 0.0;
  if (wire) {
    const auto& n0 = seg.begin.net;
    const auto& n1 = seg.end.net;
    server_us = mean_delta_us(n0.request_latency, n1.request_latency);
    const std::uint64_t requests = n1.requests_completed - n0.requests_completed;
    report.set("net.bytes_per_op",
               requests ? static_cast<double>((n1.bytes_rx - n0.bytes_rx) +
                                              (n1.bytes_tx - n0.bytes_tx)) /
                              static_cast<double>(requests)
                        : 0.0);
    report.set("net.shed", static_cast<double>((n1.busy_shed - n0.busy_shed) +
                                               (n1.overload_rejected - n0.overload_rejected) +
                                               (n1.request_timeouts - n0.request_timeouts)));
    const std::uint32_t tenant = wl.registry() != nullptr ? 1 : 0;
    codec_ns = probe_codec_ns(wl, sample, tenant);
  } else {
    report.set("net.bytes_per_op", 0.0);
    report.set("net.shed", 0.0);
  }
  // RTT = latency minus lateness (zero on a closed loop).
  const double rtt = e2e_mean - lag_mean;
  report.set("net.send_us", send_us);
  report.set("net.server_request_us", server_us);
  report.set("net.completion_us", wire ? server_us - rt_op : 0.0);
  report.set("net.transport_us", wire ? rtt - server_us : 0.0);
  report.set("net.codec_ns", codec_ns);

  const TenantProbe tp = probe_tenant(wl, sample);
  report.set("tenant.auth_ns", tp.auth_ns);
  report.set("tenant.owner_ns", tp.owner_ns);
  report.set("tenant.denied", static_cast<double>(seg.end.tenant_denied - seg.begin.tenant_denied));

  const CoreProbe cp = probe_core(wl, sample);
  report.set("core.cipher_write_us", cp.cipher_write_us);
  report.set("core.cipher_read_us", cp.cipher_read_us);
  report.set("core.cipher_bg_us", cp.cipher_bg_us);
  report.set("core.pulses_per_op", cp.pulses_per_op);
  report.set("ecc.refresh_us", cp.ecc_refresh_us);
  report.set("ecc.verify_us", cp.ecc_verify_us);

  const double traced_kops = kops(t, seg);
  const double untraced_kops = static_cast<double>(untraced.ok) / untraced_wall_s / 1000.0;
  report.set("obs.trace_overhead_frac",
             untraced_kops > 0 ? 1.0 - traced_kops / untraced_kops : 0.0);

  // e2e mean = named layer terms + residual.
  const double read_share = n_reads + n_writes > 0 ? n_reads / (n_reads + n_writes) : 0.0;
  std::vector<std::pair<std::string, double>> terms;
  if (!wire) {
    terms = {{"runtime.queue_wait_us", queue_wait},
             {"runtime.execute_read_us*read_share", exec_read * read_share},
             {"runtime.execute_write_us*write_share", exec_write * (1.0 - read_share)}};
  } else {
    if (lag_mean > 0.0) terms.push_back({"schedule lag (mean)", lag_mean});
    terms.push_back({"net.send_us", send_us});
    terms.push_back({"net.codec_ns/1000", codec_ns / 1000.0});
    if (wl.registry() != nullptr)
      terms.push_back({"(tenant.auth_ns+tenant.owner_ns)/1000",
                       (tp.auth_ns + tp.owner_ns) / 1000.0});
    terms.push_back({"runtime.read_us|write_us (op mean)", rt_op});
  }
  double named = 0.0;
  std::printf("attribution %s: attr.e2e_mean_us %.3f =", name.c_str(), e2e_mean);
  for (const auto& [term, value] : terms) {
    std::printf(" %s %.3f +", term.c_str(), value);
    named += value;
  }
  std::printf(" attr.residual_us %.3f (%.1f%% of e2e)\n", e2e_mean - named,
              e2e_mean > 0 ? 100.0 * (e2e_mean - named) / e2e_mean : 0.0);
  report.set("attr.e2e_mean_us", e2e_mean);
  report.set("attr.residual_us", e2e_mean - named);
}

int run(const Options& opt) {
  std::unique_ptr<Workload> wl = make_workload(opt.workload, opt.seed);
  // The sample logs and the quantile pool are sized and touched before the
  // first setup, so the driver's memory does not grow with the ops done.
  const auto per_client = static_cast<std::size_t>(std::ceil(opt.seconds * kSamplesPerClientSecond));
  wl->begin_run(per_client);
  std::vector<float> pool;
  reserve_touched(pool, kClients * per_client);
  // Untraced runs time kSlicesPerSetup slices on each of the kSetupReps
  // services, so one slow instance is a third of the run. Traced runs time
  // only the last service: untraced / traced / untraced (a quarter, a half,
  // a quarter), so drift does not read as tracing overhead.
  std::vector<SetupTiming> setups;
  std::vector<std::pair<int, Segment>> slices;
  std::atomic<int> word{kStop};
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    setups.push_back(wl->setup(rep));
    std::printf("setup %u: service %.3f s, server %.3f s, warm %.3f s\n", rep,
                setups.back().service_s, setups.back().server_s, setups.back().warm_s);
    if (opt.trace && rep + 1 < kSetupReps) continue;
    word.store(epoch_word(0, false), std::memory_order_release);
    wl->start_clients(word);
    const Warmup w = warm_up(*wl);
    std::printf("warmup %u: excluded %.3f s and %llu ops (%s)\n", rep, w.seconds,
                static_cast<unsigned long long>(w.ops),
                w.steady ? "rate steady" : "cap reached before the rate settled");
    if (!opt.trace) {
      for (unsigned k = 0; k < kSlicesPerSetup; ++k) {
        const int e = 1 + static_cast<int>(rep * kSlicesPerSetup + k);
        slices.emplace_back(e, measure(*wl, word, epoch_word(e, false),
                                       opt.seconds / (kSetupReps * kSlicesPerSetup), false));
      }
    } else {
      slices.emplace_back(1, measure(*wl, word, epoch_word(1, false), opt.seconds / 4, false));
      slices.emplace_back(2, measure(*wl, word, epoch_word(2, true), opt.seconds / 2, true));
      slices.emplace_back(3, measure(*wl, word, epoch_word(3, false), opt.seconds / 4, false));
    }
    word.store(kStop, std::memory_order_release);
    wl->join_clients();
  }
  std::vector<double> totals;
  for (const SetupTiming& s : setups) totals.push_back(s.total_s());
  for (const SampleLog& log : wl->samples())
    if (log.overflowed())
      std::printf("samples: a client outgrew its reserved %zu samples; peak_rss_mb includes "
                  "the growth\n",
                  per_client);

  const EpochTallies tallies = wl->tallies();
  Tally all, timed;
  for (const Tally& t : tallies) all.merge(t);
  for (const auto& [epoch, seg] : slices) timed.merge(tallies[static_cast<std::size_t>(epoch)]);
  std::printf("ops: %llu ok, %llu typed failures, %llu corrupt reads, %llu untyped errors\n",
              static_cast<unsigned long long>(all.ok), static_cast<unsigned long long>(all.typed),
              static_cast<unsigned long long>(all.corrupt),
              static_cast<unsigned long long>(all.untyped));
  bool every_slice_ok = true;
  for (const auto& [epoch, seg] : slices)
    every_slice_ok = every_slice_ok && tallies[static_cast<std::size_t>(epoch)].ok > 0;

  Report report(opt.trace);
  if (opt.trace) {
    Tally untraced = tallies[1];
    untraced.merge(tallies[3]);
    per_layer(report, *wl, untraced, slices[0].second.wall_s() + slices[2].second.wall_s(), 2,
              tallies[2], slices[1].second, setups);
  } else {
    end_to_end(report, tallies, wl->samples(), pool, slices, median_of(totals));
  }
  wl->shutdown();
  if (!opt.trace) report.set("peak_rss_mb", peak_rss_mb());

  const bool correct = all.corrupt == 0 && all.untyped == 0 && every_slice_ok;
  if (const std::string m = report.missing(); !m.empty())
    throw std::logic_error("metric " + m + " was not computed");
  std::printf("workload %s seed %llu seconds %.3f trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  report.print_table(stdout);
  std::printf("%s\n", report.json(correct, timed.attempted,
                                   timed.typed + timed.corrupt + timed.untyped)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt) || !opt.seed_set ||
      std::find(perfbench::workload_names().begin(), perfbench::workload_names().end(),
                opt.workload) == perfbench::workload_names().end()) {
    std::fprintf(stderr,
                 "usage: spe_perfbench --workload "
                 "svc_trace_serial|wire_tenant_d2|wire_tenant_d1|wire_open_parallel --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 2;
  }
}

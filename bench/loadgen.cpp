// Load generator for the multi-tenant schedule server (src/net).
//
// Hammers a server over real TCP connections with thousands of interleaved
// solve / lookup requests across hundreds of distinct problem fingerprints
// and mixed tenant weights, then reports client-observed p50/p99 round-trip
// latency, throughput, cache-hit rate, and weighted-fairness deviation.
//
// Three phases:
//
//   seed      every shared problem solved once (cold solver path) — this
//             populates the cache and the distinct-fingerprint set;
//   mixed     tenants * connections worker threads interleave cache-hit
//             solves and lookups over the shared problems;
//   fairness  every tenant floods its lane with *unique* problems (all
//             cache misses) through several parallel connections, each
//             keeping a window of solves in flight, so the weighted-
//             deficit-round-robin dispatcher stays saturated; the
//             per-tenant dispatched deltas between two stats snapshots
//             (taken while every lane is backlogged) are compared
//             against the configured weights.
//
// By default the server is self-hosted in-process on an ephemeral port
// (tenant t0 weight 4, t1 weight 2, the rest weight 1); pass
// `--connect host:port` to aim at an external `ssched --serve` instance
// (expected shares then come from the weights the server reports).
//
// The run FAILS (exit 1) unless: every request succeeds, the server counts
// zero protocol errors, >= 1000 requests cross >= 100 fingerprints and
// >= 8 tenants, and no tenant's achieved share of solver dispatches
// deviates from its configured weight share by more than the tolerance
// (default 20%). `--json <file>` writes the bench records consumed by
// tools/bench_compare (committed baseline: bench/BENCH_net.json).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "chaos.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/time.hpp"
#include "graph/graph_io.hpp"
#include "graph/synthetic.hpp"
#include "net/async_client.hpp"
#include "net/resilient_client.hpp"
#include "net/server.hpp"
#include "raw_conn.hpp"
#include "service/schedule_service.hpp"
#include "tenant/tenant.hpp"
#include "tenant/tenant_service.hpp"

namespace ss {
namespace {

struct LoadgenOptions {
  int tenants = 8;
  int connections_per_tenant = 4;
  /// Distinct shared problems (the fingerprint universe of the mixed
  /// phase); the fairness phase adds tenants * fairness_solves more.
  int shared_problems = 120;
  /// Interleaved solve/lookup requests in the mixed phase.
  int mixed_requests = 800;
  /// Unique (cache-missing) solves per tenant in the fairness phase.
  int fairness_solves = 48;
  double fairness_tolerance = 0.20;
  std::string connect_host;  // empty = self-host in-process
  int connect_port = 0;
  std::string json_path;
  /// Chaos soak mode (--chaos-soak): fault-injected transport phases
  /// instead of the throughput/fairness phases. Always self-hosted (the
  /// soak drains and restarts the server on purpose).
  bool chaos_soak = false;
  /// Randomized chaos seeds in the flip phase of the soak.
  int chaos_seeds = 8;
  /// Pipelined mode (--pipelined): out-of-order throughput phases
  /// instead of the mixed/fairness phases. Always self-hosted (the
  /// loop-scaling phase restarts the server with different loop_threads).
  bool pipelined = false;
  /// Hit-path requests per measured pipelined burst.
  int pipelined_requests = 2000;
};

/// Solves each fairness connection keeps in flight: 8 tenants x 4
/// connections x 4 = 128, under the server's default cap of 256 pending
/// solves.
constexpr int kFairnessWindow = 4;

std::string TenantName(int i) {
  std::string name = "t";
  name += std::to_string(i);
  return name;
}

double TenantWeight(int i) {
  if (i == 0) return 4.0;
  if (i == 1) return 2.0;
  return 1.0;
}

/// Deterministic distinct problem: family and shape keyed by `salt`, costs
/// from the salted rng. Small shapes on a 2-proc node keep one optimal
/// solve in the low milliseconds so the loadgen measures the service, not
/// one giant search.
std::string MakeProblemText(std::uint64_t salt) {
  Rng rng(0x10adC0DEULL * 2654435761ULL + salt);
  graph::SyntheticOptions opts;
  opts.max_width = 3;
  opts.layers = 2;
  graph::SyntheticProblem made;
  switch (salt % 3) {
    case 0:
      made = graph::MakeChain(rng, 4 + static_cast<int>(salt % 4), opts);
      break;
    case 1:
      made = graph::MakeForkJoin(rng, 2 + static_cast<int>(salt % 3), opts);
      break;
    default:
      made = graph::MakeLayered(rng, opts);
      break;
  }
  graph::ProblemSpec spec;
  spec.graph = std::move(made.graph);
  spec.costs = std::move(made.costs);
  spec.machine = graph::MachineConfig::SingleNode(2);
  spec.regime_count = 1;
  return graph::FormatProblem(spec);
}

/// Shared mutable state the worker threads report into.
struct Collector {
  std::mutex mu;
  std::vector<double> cold_ms;
  std::vector<double> hit_ms;
  std::vector<double> lookup_ms;
  std::set<std::string> fingerprints;
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> cache_hits{0};

  void RecordLatency(std::vector<double> Collector::*bucket, double ms) {
    std::lock_guard<std::mutex> lock(mu);
    (this->*bucket).push_back(ms);
  }
  void RecordFingerprint(const std::string& hex) {
    std::lock_guard<std::mutex> lock(mu);
    fingerprints.insert(hex);
  }
  void Fail(const char* phase, const Status& status) {
    failures.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "FAIL [%s]: %s\n", phase,
                 status.ToString().c_str());
  }
};

net::SolveRequestMsg SolveMsg(const std::string& tenant,
                              const std::string& problem_text) {
  net::SolveRequestMsg msg;
  msg.tenant = tenant;
  msg.problem_text = problem_text;
  msg.regime = 0;
  return msg;
}

double MsSince(Tick start) { return ticks::ToMillis(WallNow() - start); }

/// Per-tenant dispatched counts keyed by name, plus reported weights.
struct DispatchSnapshot {
  std::vector<std::string> names;
  std::vector<double> weights;
  std::vector<std::uint64_t> dispatched;
  std::vector<double> queued;
};

/// Reads each tenant's `tenant_weight`, `tenant_dispatched` and
/// `tenant_queued` rows.
Expected<DispatchSnapshot> SnapshotDispatch(net::AsyncClient& client) {
  auto stats = client.Stats();
  if (!stats.ok()) return stats.status();
  DispatchSnapshot snap;
  for (const MetricRow& row : stats->metrics.rows) {
    if (row.name != "tenant_weight" || row.labels.empty()) continue;
    const MetricLabels tenant = {row.labels.front()};
    snap.names.push_back(tenant.front().second);
    snap.weights.push_back(row.value);
    snap.dispatched.push_back(
        stats->metrics.Count("tenant_dispatched", tenant));
    snap.queued.push_back(stats->metrics.Gauge("tenant_queued", tenant));
  }
  return snap;
}

/// Whether each of the first `tenants` loadgen tenants has solves queued.
bool AllLanesBacklogged(const DispatchSnapshot& snap, int tenants) {
  for (int t = 0; t < tenants; ++t) {
    const auto it =
        std::find(snap.names.begin(), snap.names.end(), TenantName(t));
    if (it == snap.names.end() ||
        !(snap.queued[static_cast<std::size_t>(it - snap.names.begin())] >
          0.0)) {
      return false;
    }
  }
  return true;
}

int Run(const LoadgenOptions& options) {
  bench::PrintHeader("net loadgen: multi-tenant schedule server over TCP");

  // ---- Server (self-hosted unless --connect) -----------------------------
  std::unique_ptr<service::ScheduleService> service;
  std::unique_ptr<tenant::TenantScheduler> tenant_front;
  std::unique_ptr<net::Server> server;
  std::string host = options.connect_host;
  int port = options.connect_port;
  if (host.empty()) {
    // Solves run on the two tenant dispatchers; the service's own worker
    // pool and queue serve only SubmitAsync callers, and none run here.
    service::ServiceOptions sopts;
    sopts.cache_capacity = 4096;
    service = std::make_unique<service::ScheduleService>(sopts);
    tenant::TenantSchedulerOptions topts;
    topts.dispatch_threads = 2;
    tenant_front =
        std::make_unique<tenant::TenantScheduler>(service.get(), topts);
    for (int t = 0; t < options.tenants; ++t) {
      tenant::TenantConfig config;
      config.name = TenantName(t);
      config.weight = TenantWeight(t);
      config.queue_capacity = 256;
      Status registered = tenant_front->RegisterTenant(std::move(config));
      SS_CHECK(registered.ok());
    }
    net::ServerOptions nopts;
    nopts.port = 0;  // ephemeral
    server = std::make_unique<net::Server>(nopts, service.get(),
                                           tenant_front.get());
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", started.ToString().c_str());
      return 1;
    }
    host = server->host();
    port = server->port();
    std::printf("self-hosted server on %s:%d (2 dispatchers)\n",
                host.c_str(), port);
  } else {
    std::printf("external server %s:%d\n", host.c_str(), port);
  }

  auto connect = [&](net::AsyncClient& client) -> Status {
    return client.Connect(host, port);
  };

  Collector collect;
  const Stopwatch wall;

  // ---- Phase 1: seed — every shared problem solved once (cold) -----------
  std::vector<std::string> shared_texts;
  shared_texts.reserve(static_cast<std::size_t>(options.shared_problems));
  for (int p = 0; p < options.shared_problems; ++p) {
    shared_texts.push_back(MakeProblemText(static_cast<std::uint64_t>(p)));
  }
  {
    const int seed_threads = options.tenants;
    std::vector<std::thread> threads;
    for (int w = 0; w < seed_threads; ++w) {
      threads.emplace_back([&, w] {
        net::AsyncClient client;
        if (Status s = connect(client); !s.ok()) {
          collect.Fail("seed/connect", s);
          return;
        }
        for (int p = w; p < options.shared_problems; p += seed_threads) {
          const Tick start = WallNow();
          auto resp =
              client.Solve(SolveMsg(TenantName(w), shared_texts[
                  static_cast<std::size_t>(p)]));
          collect.requests.fetch_add(1, std::memory_order_relaxed);
          if (!resp.ok()) {
            collect.Fail("seed/solve", resp.status());
            continue;
          }
          collect.RecordLatency(&Collector::cold_ms, MsSince(start));
          collect.RecordFingerprint(resp->summary.fingerprint_hex);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  std::printf("seeded %d shared problems (%zu distinct fingerprints)\n",
              options.shared_problems, collect.fingerprints.size());

  // ---- Phase 2: mixed — interleaved hit-solves and lookups ---------------
  {
    const int workers = options.tenants * options.connections_per_tenant;
    const int per_worker =
        (options.mixed_requests + workers - 1) / workers;
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        const std::string tenant = TenantName(w % options.tenants);
        Rng rng(0xF00D + static_cast<std::uint64_t>(w));
        net::AsyncClient client;
        if (Status s = connect(client); !s.ok()) {
          collect.Fail("mixed/connect", s);
          return;
        }
        for (int i = 0; i < per_worker; ++i) {
          const auto& text = shared_texts[static_cast<std::size_t>(
              rng.NextBelow(shared_texts.size()))];
          const Tick start = WallNow();
          collect.requests.fetch_add(1, std::memory_order_relaxed);
          if (rng.NextBelow(2) == 0) {
            auto resp = client.Solve(SolveMsg(tenant, text));
            if (!resp.ok()) {
              collect.Fail("mixed/solve", resp.status());
              continue;
            }
            if (resp->cache_hit) {
              collect.cache_hits.fetch_add(1, std::memory_order_relaxed);
            }
            collect.RecordLatency(&Collector::hit_ms, MsSince(start));
            collect.RecordFingerprint(resp->summary.fingerprint_hex);
          } else {
            net::LookupRequestMsg msg;
            msg.tenant = tenant;
            msg.problem_text = text;
            auto resp = client.Lookup(msg);
            if (!resp.ok()) {
              collect.Fail("mixed/lookup", resp.status());
              continue;
            }
            if (resp->found) {
              collect.cache_hits.fetch_add(1, std::memory_order_relaxed);
              collect.RecordFingerprint(resp->summary.fingerprint_hex);
            }
            collect.RecordLatency(&Collector::lookup_ms, MsSince(start));
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  std::printf("mixed phase done (%llu requests so far)\n",
              static_cast<unsigned long long>(collect.requests.load()));

  // ---- Phase 3: fairness under saturation --------------------------------
  // Unique problems per tenant, a window of them in flight on every
  // connection, keep every lane backlogged; the dispatched deltas between
  // `before` (taken once every lane has solves queued) and the snapshot
  // taken the moment the FIRST tenant finishes (all other lanes still
  // saturated) measure each tenant's achieved share of the solver.
  net::AsyncClient stats_client;
  if (Status s = connect(stats_client); !s.ok()) {
    collect.Fail("fairness/connect", s);
    return 1;
  }
  Expected<DispatchSnapshot> before = DispatchSnapshot{};
  DispatchSnapshot at_first_finish;
  std::atomic<bool> first_done{false};
  std::mutex stats_mu;
  {
    std::vector<std::unique_ptr<std::atomic<int>>> remaining;
    for (int t = 0; t < options.tenants; ++t) {
      remaining.push_back(std::make_unique<std::atomic<int>>(
          options.fairness_solves));
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < options.tenants; ++t) {
      for (int c = 0; c < options.connections_per_tenant; ++c) {
        threads.emplace_back([&, t, c] {
          const std::string tenant = TenantName(t);
          net::AsyncClientOptions client_options;
          client_options.window = kFairnessWindow;
          net::AsyncClient client(client_options);
          if (Status s = connect(client); !s.ok()) {
            collect.Fail("fairness/connect", s);
            return;
          }
          const int base = options.fairness_solves * (t + 1);
          std::ptrdiff_t mine = 0;
          for (int i = c; i < options.fairness_solves;
               i += options.connections_per_tenant) {
            ++mine;
          }
          std::latch answered(mine);
          for (int i = c; i < options.fairness_solves;
               i += options.connections_per_tenant) {
            // Salt disjoint from the shared universe and per-tenant.
            const std::uint64_t salt =
                0x100000ULL + static_cast<std::uint64_t>(base + i) +
                static_cast<std::uint64_t>(t) * 0x10000ULL;
            // Blocks while the window is full; completes on the client's
            // reader thread.
            client.SolveAsync(
                SolveMsg(tenant, MakeProblemText(salt)),
                [&, t](Expected<net::SolveResponseMsg> resp) {
                  collect.requests.fetch_add(1, std::memory_order_relaxed);
                  if (!resp.ok()) {
                    collect.Fail("fairness/solve", resp.status());
                  } else {
                    collect.RecordFingerprint(resp->summary.fingerprint_hex);
                    if (remaining[static_cast<std::size_t>(t)]->fetch_sub(
                            1) == 1 &&
                        !first_done.exchange(true)) {
                      // This tenant drained first; grab the saturated-
                      // window snapshot while every other lane is still
                      // backlogged.
                      std::lock_guard<std::mutex> lock(stats_mu);
                      auto snap = SnapshotDispatch(stats_client);
                      if (snap.ok()) {
                        at_first_finish = std::move(*snap);
                      } else {
                        collect.Fail("fairness/stats", snap.status());
                      }
                    }
                  }
                  answered.count_down();
                });
          }
          answered.wait();
        });
      }
    }
    // `before` waits for every lane's backlog: a lane still filling would
    // forfeit its deficit-round-robin credit inside the window.
    const Tick give_up = WallNow() + ticks::FromSeconds(10);
    for (;;) {
      std::lock_guard<std::mutex> lock(stats_mu);
      if (first_done.load() || WallNow() > give_up) {
        before = Status(FailedPreconditionError(
            "the lanes were never all backlogged at once"));
        break;
      }
      before = SnapshotDispatch(stats_client);
      if (!before.ok() || AllLanesBacklogged(*before, options.tenants)) {
        break;
      }
    }
    if (!before.ok()) collect.Fail("fairness/stats", before.status());
    for (auto& t : threads) t.join();
  }

  // Achieved vs configured share, over tenants seen in both snapshots.
  double fairness_deviation = 1.0;
  if (before.ok() && !at_first_finish.names.empty()) {
    std::vector<double> weights;
    std::vector<double> deltas;
    double weight_sum = 0.0;
    double delta_sum = 0.0;
    for (std::size_t i = 0; i < at_first_finish.names.size(); ++i) {
      for (std::size_t j = 0; j < before->names.size(); ++j) {
        if (before->names[j] != at_first_finish.names[i]) continue;
        const double delta = static_cast<double>(
            at_first_finish.dispatched[i] - before->dispatched[j]);
        weights.push_back(at_first_finish.weights[i]);
        deltas.push_back(delta);
        weight_sum += at_first_finish.weights[i];
        delta_sum += delta;
        break;
      }
    }
    if (delta_sum > 0 && weight_sum > 0) {
      fairness_deviation = 0.0;
      std::printf("\nfairness (dispatched deltas in the saturated "
                  "window):\n");
      for (std::size_t i = 0; i < weights.size(); ++i) {
        const double expected = weights[i] / weight_sum;
        const double achieved = deltas[i] / delta_sum;
        const double dev = std::abs(achieved - expected) / expected;
        fairness_deviation = std::max(fairness_deviation, dev);
        std::printf("  %-6s weight %.1f  expected %5.1f%%  achieved "
                    "%5.1f%%  (dev %4.1f%%)\n",
                    at_first_finish.names[i].c_str(), weights[i],
                    100 * expected, 100 * achieved, 100 * dev);
      }
    }
  }

  const double wall_s = wall.ElapsedSeconds();

  // ---- Final stats + gates ----------------------------------------------
  auto final_stats = stats_client.Stats();
  std::uint64_t server_protocol_errors = 0;
  if (final_stats.ok()) {
    server_protocol_errors = final_stats->protocol_errors;
  } else {
    collect.Fail("final/stats", final_stats.status());
  }

  if (server != nullptr) {
    server->Stop();
    tenant_front->Shutdown();
    service->Shutdown();
  }

  const std::uint64_t total = collect.requests.load();
  const std::uint64_t failures = collect.failures.load();
  const double throughput =
      wall_s > 0 ? static_cast<double>(total) / wall_s : 0.0;
  const std::uint64_t lookups =
      static_cast<std::uint64_t>(collect.lookup_ms.size());
  const std::uint64_t hit_eligible =
      static_cast<std::uint64_t>(collect.hit_ms.size()) + lookups;
  const double hit_rate =
      hit_eligible > 0 ? static_cast<double>(collect.cache_hits.load()) /
                             static_cast<double>(hit_eligible)
                       : 0.0;

  const Summary cold = Summarize(collect.cold_ms);
  const Summary hit = Summarize(collect.hit_ms);
  const Summary lookup = Summarize(collect.lookup_ms);

  std::printf("\n%llu requests in %.2f s  (%.0f req/s), %zu distinct "
              "fingerprints, %d tenants\n",
              static_cast<unsigned long long>(total), wall_s, throughput,
              collect.fingerprints.size(), options.tenants);
  std::printf("rtt solve (cold): p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
              cold.median, cold.p95, cold.p99);
  std::printf("rtt solve (hit):  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
              hit.median, hit.p95, hit.p99);
  std::printf("rtt lookup:       p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
              lookup.median, lookup.p95, lookup.p99);
  std::printf("mixed-phase cache hit rate: %.3f\n", hit_rate);
  std::printf("max fairness deviation: %.1f%% (tolerance %.0f%%)\n",
              100 * fairness_deviation, 100 * options.fairness_tolerance);

  bool ok = true;
  auto gate = [&ok](bool pass, const std::string& what) {
    std::printf("  [%s] %s\n", pass ? "PASS" : "FAIL", what.c_str());
    if (!pass) ok = false;
  };
  std::printf("\ngates:\n");
  gate(failures == 0, "zero failed requests (" +
                          std::to_string(failures) + " failed)");
  gate(server_protocol_errors == 0,
       "zero server protocol errors (" +
           std::to_string(server_protocol_errors) + ")");
  gate(total >= 1000,
       ">= 1000 requests (" + std::to_string(total) + ")");
  gate(collect.fingerprints.size() >= 100,
       ">= 100 distinct fingerprints (" +
           std::to_string(collect.fingerprints.size()) + ")");
  gate(options.tenants >= 8,
       ">= 8 tenants (" + std::to_string(options.tenants) + ")");
  gate(fairness_deviation <= options.fairness_tolerance,
       "fairness deviation within tolerance");

  using Better = bench::JsonReport::Better;
  bench::JsonReport json(options.json_path);
  json.Add("net_rtt_solve_cold", cold.median, cold.p95, "ms", Better::kLower);
  json.Add("net_rtt_solve_hit", hit.median, hit.p95, "ms", Better::kLower);
  json.Add("net_rtt_lookup", lookup.median, lookup.p95, "ms",
           Better::kLower);
  json.Add("net_throughput_kreq_s_x", throughput / 1000.0,
           throughput / 1000.0, "kreq/s", Better::kHigher);
  json.Add("net_cache_hit_rate_x", hit_rate, hit_rate, "ratio",
           Better::kHigher);
  json.Add("net_fairness_dev", fairness_deviation, fairness_deviation,
           "ratio", Better::kLower);
  json.Write();

  return ok ? 0 : 1;
}

// ---- Chaos soak ----------------------------------------------------------
//
// `--chaos-soak` replaces the throughput/fairness phases with three
// fault-injection phases against a self-hosted server:
//
//   resilience  a ResilientClient fleet solves through a ChaosProxy that
//               resets, dribbles, and delays (no flips), while the whole
//               server stack is drained and restarted on the same port
//               mid-run; the gate is ZERO failed requests — every reset
//               and the restart gap must be absorbed by retry/reconnect;
//   flips       `--chaos-seeds` randomized plans that additionally flip
//               bytes; every request must resolve to exactly one typed
//               outcome and the server must answer a direct health probe
//               after every seed;
//   overload    a fresh 1-worker server with max_pending_solves=4 is
//               flooded by 16 direct connections; every failure must be
//               exactly kOverloaded, the shed counter must move, and the
//               p99 of admitted solves must stay bounded.

/// Self-hosted server bundle the soak can tear down and rebuild on a
/// fixed port (the listener sets SO_REUSEADDR, so an immediate rebind
/// after a graceful drain works).
struct SoakServer {
  std::unique_ptr<service::ScheduleService> service;
  std::unique_ptr<tenant::TenantScheduler> tenants;
  std::unique_ptr<net::Server> server;

  Status Start(int port, int dispatch_threads, int tenant_count,
               net::ServerOptions nopts) {
    service::ServiceOptions sopts;
    sopts.cache_capacity = 1024;
    service = std::make_unique<service::ScheduleService>(sopts);
    tenant::TenantSchedulerOptions topts;
    topts.dispatch_threads = dispatch_threads;
    tenants = std::make_unique<tenant::TenantScheduler>(service.get(), topts);
    for (int t = 0; t < tenant_count; ++t) {
      tenant::TenantConfig config;
      config.name = TenantName(t);
      config.weight = TenantWeight(t);
      config.queue_capacity = 256;
      if (Status st = tenants->RegisterTenant(std::move(config)); !st.ok()) {
        return st;
      }
    }
    nopts.port = port;
    server =
        std::make_unique<net::Server>(nopts, service.get(), tenants.get());
    return server->Start();
  }

  void Stop() {
    if (server != nullptr) server->Stop();
    if (tenants != nullptr) tenants->Shutdown();
    if (service != nullptr) service->Shutdown();
    server.reset();
    tenants.reset();
    service.reset();
  }
};

int RunChaosSoak(const LoadgenOptions& options) {
  bench::PrintHeader("net loadgen: chaos soak (faults, restart, overload)");

  bool ok = true;
  auto gate = [&ok](bool pass, const std::string& what) {
    std::printf("  [%s] %s\n", pass ? "PASS" : "FAIL", what.c_str());
    if (!pass) ok = false;
  };

  // ---- Phase 1: resilience across resets and a live restart --------------
  constexpr int kTenants = 4;
  constexpr int kFleet = 8;
  constexpr int kSolvesPerWorker = 12;
  std::vector<double> resilient_ms;
  int port = 0;
  {
    SoakServer soak;
    net::ServerOptions nopts;
    nopts.drain_timeout = ticks::FromSeconds(2);
    Status started = soak.Start(/*port=*/0, /*dispatch_threads=*/2,
                                kTenants, nopts);
    if (!started.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", started.ToString().c_str());
      return 1;
    }
    port = soak.server->port();
    const std::string host = soak.server->host();

    net::ChaosPlan plan;
    plan.seed = 42;
    plan.reset_prob = 0.35;
    plan.dribble_prob = 0.5;
    plan.dribble_max_bytes = 9;
    plan.delay_prob = 0.2;
    plan.max_delay = ticks::FromMillis(2);
    net::ChaosProxy proxy(plan, host, port);
    if (Status st = proxy.Start(); !st.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
      return 1;
    }

    std::printf("phase 1: %d resilient clients x %d solves through "
                "reset/dribble/delay proxy, restart mid-run\n",
                kFleet, kSolvesPerWorker);
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> failures{0};
    std::mutex lat_mu;
    std::vector<std::thread> fleet;
    for (int w = 0; w < kFleet; ++w) {
      fleet.emplace_back([&, w] {
        net::ResilientClientOptions ropts;
        ropts.total_deadline = ticks::FromSeconds(30);
        ropts.io_timeout = ticks::FromMillis(500);
        ropts.max_attempts = 0;  // budget-only
        ropts.seed = static_cast<std::uint64_t>(w + 1);
        net::ResilientClient client(ropts);
        if (Status s = client.Connect("127.0.0.1", proxy.port()); !s.ok()) {
          std::fprintf(stderr, "FAIL [resilience/connect]: %s\n",
                       s.ToString().c_str());
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kSolvesPerWorker; ++i) {
          const Tick start = WallNow();
          auto resp = client.Solve(SolveMsg(
              TenantName(w % kTenants),
              MakeProblemText(static_cast<std::uint64_t>(i % 6))));
          done.fetch_add(1);
          if (!resp.ok()) {
            std::fprintf(stderr, "FAIL [resilience/solve]: %s\n",
                         resp.status().ToString().c_str());
            failures.fetch_add(1);
            continue;
          }
          std::lock_guard<std::mutex> lock(lat_mu);
          resilient_ms.push_back(MsSince(start));
        }
      });
    }

    // Drain and restart the entire stack on the same port once roughly a
    // third of the work is through; the fleet must ride it out.
    while (done.load() < kFleet * kSolvesPerWorker / 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::printf("  restarting server on port %d mid-run...\n", port);
    soak.Stop();
    Status restarted = soak.Start(port, /*dispatch_threads=*/2, kTenants,
                                  nopts);
    if (!restarted.ok()) {
      std::fprintf(stderr, "FAIL [resilience/restart]: %s\n",
                   restarted.ToString().c_str());
      for (auto& t : fleet) t.join();
      return 1;
    }
    for (auto& t : fleet) t.join();

    const auto pstats = proxy.Stats();
    proxy.Stop();

    // Post-chaos health/stats round-trip against the restarted server,
    // bypassing the proxy.
    net::AsyncClient direct;
    bool healthy = false;
    std::uint64_t protocol_errors = 0;
    if (direct.Connect(host, port).ok()) {
      auto health = direct.Health();
      healthy = health.ok() && health->state == "ok";
      if (auto stats = direct.Stats(); stats.ok()) {
        protocol_errors = stats->protocol_errors;
      } else {
        healthy = false;
      }
    }
    soak.Stop();

    std::printf("  %llu solves, %llu failures, %llu proxy resets, %llu "
                "upstream connect failures\n",
                static_cast<unsigned long long>(done.load()),
                static_cast<unsigned long long>(failures.load()),
                static_cast<unsigned long long>(pstats.resets),
                static_cast<unsigned long long>(
                    pstats.upstream_connect_failures));
    std::printf("\nphase 1 gates:\n");
    gate(failures.load() == 0,
         "zero failed requests across resets + restart (" +
             std::to_string(failures.load()) + " failed)");
    gate(pstats.resets > 0, "proxy injected at least one reset (" +
                                std::to_string(pstats.resets) + ")");
    gate(healthy, "post-chaos health/stats round-trip succeeds");
    gate(protocol_errors == 0,
         "restarted server counts zero protocol errors (" +
             std::to_string(protocol_errors) + ")");
  }

  // ---- Phase 2: randomized flip seeds, exactly-one-typed-outcome ---------
  std::uint64_t issued = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t flipped = 0;
  bool health_after_every_seed = true;
  {
    SoakServer soak;
    net::ServerOptions nopts;
    Status started = soak.Start(/*port=*/0, /*dispatch_threads=*/2,
                                kTenants, nopts);
    if (!started.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("\nphase 2: %d randomized flip seeds\n", options.chaos_seeds);
    for (int s = 0; s < options.chaos_seeds; ++s) {
      net::ChaosPlan plan;
      plan.seed = 1000 + static_cast<std::uint64_t>(s);
      plan.flip_prob = 0.2;
      plan.flip_window = 96;
      plan.reset_prob = 0.3;
      plan.dribble_prob = 0.5;
      plan.dribble_max_bytes = 9;
      plan.delay_prob = 0.2;
      plan.max_delay = ticks::FromMillis(2);
      plan.stall_prob = 0.05;
      plan.stall_after_bytes = 10;
      plan.stall_duration = ticks::FromMillis(30);
      net::ChaosProxy proxy(plan, soak.server->host(), soak.server->port());
      if (Status st = proxy.Start(); !st.ok()) {
        std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
        return 1;
      }
      net::ResilientClientOptions ropts;
      ropts.total_deadline = ticks::FromSeconds(8);
      ropts.io_timeout = ticks::FromMillis(400);
      ropts.max_attempts = 5;
      ropts.seed = plan.seed;
      net::ResilientClient client(ropts);
      if (client.Connect("127.0.0.1", proxy.port()).ok()) {
        for (int i = 0; i < 6; ++i) {
          ++issued;
          auto resp = client.Solve(SolveMsg(
              TenantName((s + i) % kTenants),
              MakeProblemText(static_cast<std::uint64_t>(40 + i % 5))));
          // Expected<> carries exactly one outcome: a response or a typed
          // Status. Anything else would have crashed right here.
          if (resp.ok()) ++succeeded;
        }
      }
      client.Close();
      flipped += proxy.Stats().flipped_bytes;
      proxy.Stop();
      net::AsyncClient direct;
      bool seed_healthy = false;
      if (direct.Connect(soak.server->host(), soak.server->port()).ok()) {
        auto health = direct.Health();
        seed_healthy = health.ok() && health->state == "ok";
      }
      if (!seed_healthy) {
        std::fprintf(stderr, "FAIL [flips/health]: seed %llu\n",
                     static_cast<unsigned long long>(plan.seed));
        health_after_every_seed = false;
      }
    }
    soak.Stop();
    std::printf("  %llu issued, %llu succeeded, %llu bytes flipped\n",
                static_cast<unsigned long long>(issued),
                static_cast<unsigned long long>(succeeded),
                static_cast<unsigned long long>(flipped));
    std::printf("\nphase 2 gates:\n");
    gate(issued ==
             static_cast<std::uint64_t>(options.chaos_seeds) * 6,
         "every planned request was issued and resolved typed");
    gate(succeeded * 4 >= issued * 3,
         ">= 75% of requests succeeded despite flips (" +
             std::to_string(succeeded) + "/" + std::to_string(issued) + ")");
    gate(health_after_every_seed,
         "direct health probe answered 'ok' after every seed");
  }

  // ---- Phase 3: overload shedding ----------------------------------------
  std::vector<double> admitted_ms;
  std::uint64_t shed_wire = 0;
  std::uint64_t shed_server = 0;
  std::atomic<std::uint64_t> overload_failures{0};
  std::atomic<std::uint64_t> untyped_failures{0};
  {
    SoakServer soak;
    net::ServerOptions nopts;
    nopts.max_pending_solves = 4;
    Status started = soak.Start(/*port=*/0, /*dispatch_threads=*/1,
                                kTenants, nopts);
    if (!started.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", started.ToString().c_str());
      return 1;
    }
    constexpr int kFlood = 16;
    constexpr int kPerConn = 8;
    std::printf("\nphase 3: %d direct connections flood a 1-worker server "
                "(max_pending_solves=4)\n",
                kFlood);
    std::mutex lat_mu;
    std::vector<std::thread> flood;
    for (int t = 0; t < kFlood; ++t) {
      flood.emplace_back([&, t] {
        net::AsyncClient client;
        if (!client.Connect(soak.server->host(), soak.server->port()).ok()) {
          untyped_failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kPerConn; ++i) {
          // Unique salts: every solve is a cache-missing cold solve.
          const std::uint64_t salt = 0x200000ULL +
                                     static_cast<std::uint64_t>(t) * 64 +
                                     static_cast<std::uint64_t>(i);
          const Tick start = WallNow();
          auto resp = client.Solve(
              SolveMsg(TenantName(t % kTenants), MakeProblemText(salt)));
          if (resp.ok()) {
            std::lock_guard<std::mutex> lock(lat_mu);
            admitted_ms.push_back(MsSince(start));
          } else if (resp.status().code() == StatusCode::kOverloaded) {
            overload_failures.fetch_add(1);
          } else {
            std::fprintf(stderr, "FAIL [overload/solve]: %s\n",
                         resp.status().ToString().c_str());
            untyped_failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : flood) t.join();
    net::AsyncClient direct;
    if (direct.Connect(soak.server->host(), soak.server->port()).ok()) {
      if (auto stats = direct.Stats(); stats.ok()) {
        shed_wire = stats->metrics.Count("net_shed_overload");
      }
    }
    shed_server =
        soak.server->StatsSnapshot().Count("net_shed_overload");
    soak.Stop();
  }
  const Summary admitted = Summarize(admitted_ms);
  std::printf("  %zu admitted (p50 %.3f ms  p99 %.3f ms), %llu shed "
              "kOverloaded, %llu shed per server counter\n",
              admitted_ms.size(), admitted.median, admitted.p99,
              static_cast<unsigned long long>(overload_failures.load()),
              static_cast<unsigned long long>(shed_server));
  std::printf("\nphase 3 gates:\n");
  gate(untyped_failures.load() == 0,
       "every failure under overload is typed kOverloaded (" +
           std::to_string(untyped_failures.load()) + " other)");
  gate(overload_failures.load() > 0 && shed_server > 0 && shed_wire > 0,
       "load shedding engaged and counted (client " +
           std::to_string(overload_failures.load()) + ", server " +
           std::to_string(shed_server) + ", wire " +
           std::to_string(shed_wire) + ")");
  gate(!admitted_ms.empty() && admitted.p99 < 10000.0,
       "admitted-request p99 bounded under overload (" +
           std::to_string(admitted.p99) + " ms)");

  const Summary resilient = Summarize(resilient_ms);
  using Better = bench::JsonReport::Better;
  bench::JsonReport json(options.json_path);
  json.Add("net_chaos_resilient_rtt", resilient.median, resilient.p95, "ms",
           Better::kLower);
  json.Add("net_chaos_success_rate_x",
           issued > 0 ? static_cast<double>(succeeded) /
                            static_cast<double>(issued)
                      : 0.0,
           1.0, "ratio", Better::kHigher);
  json.Add("net_chaos_admitted_rtt", admitted.median, admitted.p99, "ms",
           Better::kLower);
  json.Write();

  return ok ? 0 : 1;
}

// ---- Pipelined throughput ------------------------------------------------
//
// `--pipelined` replaces the mixed/fairness phases with pipelining
// phases against a self-hosted server:
//
//   baseline   one thread sends a solve frame over a raw connection and
//              reads its response before sending the next — one request
//              per round trip, no reader thread: the synchronous floor on
//              the (pre-seeded) hit path;
//   windows    one AsyncClient repeats the same burst at in-flight
//              windows 1, 8, and 64; window 1 doubles as the TCP_NODELAY
//              canary (with Nagle + delayed ACK a small-frame ping-pong
//              sits near 40 ms per round trip, so its p50 must stay in
//              single-digit milliseconds);
//   scaling    the window-64 burst re-runs across several connections
//              against loop_threads=1 and loop_threads=4 servers; the
//              throughput ratio is recorded as-is (on a single-core host
//              it is honestly ~1x — the record exists so multi-core CI
//              shows real scaling, not to flatter this machine).
//
// The headline gate: window-64 pipelined throughput >= 3x the blocking
// baseline on the same hit path.

/// One blocking round trip: sends a solve frame and reads its response
/// before returning, on the calling thread.
Status RoundTripSolve(net::RawConn& conn, std::uint64_t request_id,
                      const net::SolveRequestMsg& msg) {
  const std::vector<std::uint8_t> frame =
      net::EncodeFrame(net::MsgType::kSolve, net::EncodeBody(msg),
                       net::kProtocolVersion2, request_id);
  SS_RETURN_IF_ERROR(conn.SendBytes(frame.data(), frame.size()));
  auto reply = conn.ReadFrame();
  if (!reply.ok()) return reply.status();
  if (reply->request_id != request_id) {
    return InternalError("response for request " +
                         std::to_string(reply->request_id) + ", wanted " +
                         std::to_string(request_id));
  }
  if (reply->type == net::MsgType::kError) {
    net::ErrorResponseMsg err;
    SS_RETURN_IF_ERROR(
        net::Decode(reply->body.data(), reply->body.size(), &err));
    return net::StatusFromWireError(err.code, err.message);
  }
  net::SolveResponseMsg resp;
  return reply->type == net::MsgType::kSolveOk
             ? net::Decode(reply->body.data(), reply->body.size(), &resp)
             : InternalError("unexpected response type");
}

/// One pipelined hit-path burst over a single AsyncClient.
struct PipelinedRun {
  Summary rtt;
  double kreq_s = 0.0;
  std::uint64_t failures = 0;
  std::uint64_t completed = 0;
};

PipelinedRun RunHitBurst(const std::string& host, int port, int window,
                         int requests, int tenant_count,
                         const std::vector<std::string>& texts) {
  PipelinedRun out;
  net::AsyncClientOptions copts;
  copts.window = window;
  net::AsyncClient client(copts);
  if (Status s = client.Connect(host, port); !s.ok()) {
    std::fprintf(stderr, "FAIL [pipelined/connect]: %s\n",
                 s.ToString().c_str());
    out.failures = static_cast<std::uint64_t>(requests);
    return out;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(requests));
  int done = 0;
  // Corked chunks: one send syscall per kCorkChunk submissions instead of
  // one per request (chunk < window, so flushed requests always keep the
  // window draining).
  constexpr int kCorkChunk = 16;
  int corked = 0;
  const Stopwatch wall;
  client.Cork();
  for (int i = 0; i < requests; ++i) {
    const Tick start = WallNow();
    client.SolveAsync(
        SolveMsg(TenantName(i % tenant_count),
                 texts[static_cast<std::size_t>(i) % texts.size()]),
        [&, start](Expected<net::SolveResponseMsg> resp) {
          std::lock_guard<std::mutex> lock(mu);
          ++done;
          if (resp.ok()) {
            ms.push_back(MsSince(start));
          } else {
            ++out.failures;
            std::fprintf(stderr, "FAIL [pipelined/solve]: %s\n",
                         resp.status().ToString().c_str());
          }
          // Only the last completion wakes the waiter: a notify per
          // completion would put a futex wake + context switch on the
          // measured path.
          if (done == requests) cv.notify_all();
        });
    if (++corked == kCorkChunk) {
      client.Uncork();
      client.Cork();
      corked = 0;
    }
  }
  client.Uncork();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == requests; });
  }
  const double wall_s = wall.ElapsedSeconds();
  client.Close();
  out.completed = static_cast<std::uint64_t>(done);
  out.kreq_s =
      wall_s > 0 ? static_cast<double>(requests) / wall_s / 1000.0 : 0.0;
  out.rtt = Summarize(std::move(ms));
  return out;
}

/// Aggregate window-64 throughput over `conns` concurrent pipelined
/// connections (the loop-scaling probe; with multiple loops each
/// connection lands on its own shard).
double AggregateHitKreqS(const std::string& host, int port, int conns,
                         int per_conn, int tenant_count,
                         const std::vector<std::string>& texts,
                         std::uint64_t* failures) {
  std::atomic<std::uint64_t> failed{0};
  const Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&] {
      PipelinedRun run =
          RunHitBurst(host, port, /*window=*/64, per_conn, tenant_count,
                      texts);
      failed.fetch_add(run.failures, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();
  *failures += failed.load();
  return wall_s > 0 ? static_cast<double>(conns) *
                          static_cast<double>(per_conn) / wall_s / 1000.0
                    : 0.0;
}

int RunPipelined(const LoadgenOptions& options) {
  bench::PrintHeader(
      "net loadgen: pipelined protocol v2 (out-of-order completion)");

  bool ok = true;
  auto gate = [&ok](bool pass, const std::string& what) {
    std::printf("  [%s] %s\n", pass ? "PASS" : "FAIL", what.c_str());
    if (!pass) ok = false;
  };

  constexpr int kTenants = 4;
  constexpr int kHitProblems = 32;
  const int requests = options.pipelined_requests;
  std::uint64_t failures = 0;

  std::vector<std::string> texts;
  texts.reserve(kHitProblems);
  for (int p = 0; p < kHitProblems; ++p) {
    texts.push_back(MakeProblemText(static_cast<std::uint64_t>(p)));
  }

  auto seed_cache = [&](const std::string& host, int port) -> Status {
    net::AsyncClient seeder;
    if (Status s = seeder.Connect(host, port); !s.ok()) return s;
    for (int p = 0; p < kHitProblems; ++p) {
      auto resp = seeder.Solve(SolveMsg(TenantName(p % kTenants),
                                        texts[static_cast<std::size_t>(p)]));
      if (!resp.ok()) return resp.status();
    }
    return OkStatus();
  };

  // ---- Phase 1: baseline + windows on a single-loop server ---------------
  Summary blocking_rtt;
  double blocking_kreq_s = 0.0;
  PipelinedRun w1;
  PipelinedRun w8;
  PipelinedRun w64;
  std::uint64_t protocol_errors = 0;
  {
    SoakServer soak;
    net::ServerOptions nopts;
    Status started = soak.Start(/*port=*/0, /*dispatch_threads=*/2,
                                kTenants, nopts);
    if (!started.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", started.ToString().c_str());
      return 1;
    }
    const std::string host = soak.server->host();
    const int port = soak.server->port();
    if (Status s = seed_cache(host, port); !s.ok()) {
      std::fprintf(stderr, "FAIL [pipelined/seed]: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("seeded %d hit problems; %d requests per burst\n",
                kHitProblems, requests);

    {
      net::RawConn conn;
      if (Status s = conn.Connect(host, port); !s.ok()) {
        std::fprintf(stderr, "FAIL [pipelined/connect]: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      std::vector<double> ms;
      ms.reserve(static_cast<std::size_t>(requests));
      const Stopwatch wall;
      for (int i = 0; i < requests; ++i) {
        const Tick start = WallNow();
        Status solved = RoundTripSolve(
            conn, static_cast<std::uint64_t>(i) + 1,
            SolveMsg(TenantName(i % kTenants),
                     texts[static_cast<std::size_t>(i) % texts.size()]));
        if (!solved.ok()) {
          ++failures;
          std::fprintf(stderr, "FAIL [blocking/solve]: %s\n",
                       solved.ToString().c_str());
          continue;
        }
        ms.push_back(MsSince(start));
      }
      const double wall_s = wall.ElapsedSeconds();
      blocking_kreq_s =
          wall_s > 0 ? static_cast<double>(requests) / wall_s / 1000.0 : 0.0;
      blocking_rtt = Summarize(std::move(ms));
    }
    std::printf("blocking baseline: %.2f kreq/s  (p50 %.3f ms  p99 %.3f "
                "ms)\n",
                blocking_kreq_s, blocking_rtt.median, blocking_rtt.p99);

    w1 = RunHitBurst(host, port, 1, requests, kTenants, texts);
    w8 = RunHitBurst(host, port, 8, requests, kTenants, texts);
    w64 = RunHitBurst(host, port, 64, requests, kTenants, texts);
    failures += w1.failures + w8.failures + w64.failures;
    for (const auto* run : {&w1, &w8, &w64}) {
      const int window = run == &w1 ? 1 : run == &w8 ? 8 : 64;
      std::printf("pipelined w=%-2d:    %.2f kreq/s  (p50 %.3f ms  p99 "
                  "%.3f ms)\n",
                  window, run->kreq_s, run->rtt.median, run->rtt.p99);
    }

    net::AsyncClient direct;
    if (direct.Connect(host, port).ok()) {
      if (auto stats = direct.Stats(); stats.ok()) {
        protocol_errors = stats->protocol_errors;
      } else {
        ++failures;
      }
    } else {
      ++failures;
    }
    soak.Stop();
  }

  // ---- Phase 2: loop scaling (1 loop vs 4 loops, 4 connections) ----------
  constexpr int kScaleConns = 4;
  const int per_conn = std::max(1, requests / kScaleConns);
  double kreq_1loop = 0.0;
  double kreq_4loop = 0.0;
  for (const int loops : {1, 4}) {
    SoakServer soak;
    net::ServerOptions nopts;
    nopts.loop_threads = loops;
    Status started = soak.Start(/*port=*/0, /*dispatch_threads=*/2,
                                kTenants, nopts);
    if (!started.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", started.ToString().c_str());
      return 1;
    }
    if (Status s = seed_cache(soak.server->host(), soak.server->port());
        !s.ok()) {
      std::fprintf(stderr, "FAIL [scaling/seed]: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    const double kreq =
        AggregateHitKreqS(soak.server->host(), soak.server->port(),
                          kScaleConns, per_conn, kTenants, texts, &failures);
    (loops == 1 ? kreq_1loop : kreq_4loop) = kreq;
    std::printf("loop scaling: %d loop(s), %d conns -> %.2f kreq/s\n",
                loops, kScaleConns, kreq);
    soak.Stop();
  }
  const double loop_scaling =
      kreq_1loop > 0 ? kreq_4loop / kreq_1loop : 0.0;
  const double speedup =
      blocking_kreq_s > 0 ? w64.kreq_s / blocking_kreq_s : 0.0;
  std::printf("window-64 speedup over blocking: %.2fx;  4-loop/1-loop "
              "scaling: %.2fx\n",
              speedup, loop_scaling);

  std::printf("\ngates:\n");
  gate(failures == 0,
       "zero failed requests (" + std::to_string(failures) + " failed)");
  gate(protocol_errors == 0,
       "zero server protocol errors (" +
           std::to_string(protocol_errors) + ")");
  gate(w1.rtt.median < 5.0,
       "window-1 p50 in single-digit ms — TCP_NODELAY live on both sides "
       "(" + std::to_string(w1.rtt.median) + " ms)");
  gate(speedup >= 3.0, "pipelined window-64 >= 3x blocking throughput (" +
                           std::to_string(speedup) + "x)");

  using Better = bench::JsonReport::Better;
  bench::JsonReport json(options.json_path);
  json.Add("net_pipelined_rtt_w1", w1.rtt.median, w1.rtt.p99, "ms",
           Better::kLower);
  json.Add("net_pipelined_rtt_w8", w8.rtt.median, w8.rtt.p99, "ms",
           Better::kLower);
  json.Add("net_pipelined_rtt_w64", w64.rtt.median, w64.rtt.p99, "ms",
           Better::kLower);
  json.Add("net_blocking_kreq_s_x", blocking_kreq_s, blocking_kreq_s,
           "kreq/s", Better::kHigher);
  json.Add("net_pipelined_kreq_s_w64_x", w64.kreq_s, w64.kreq_s, "kreq/s",
           Better::kHigher);
  json.Add("net_pipelined_speedup_x", speedup, speedup, "x",
           Better::kHigher);
  json.Add("net_loop_scaling_x", loop_scaling, loop_scaling, "x",
           Better::kHigher);
  json.Write();

  return ok ? 0 : 1;
}

bool ParseInt(const char* flag, const char* text, int* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (*end != '\0') {
    std::fprintf(stderr, "error: %s expects an integer, got '%s'\n", flag,
                 text);
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace
}  // namespace ss

int main(int argc, char** argv) {
  ss::LoadgenOptions options;
  options.json_path = ss::bench::JsonReport::PathFromArgs(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--json") {
      next();  // consumed by PathFromArgs
    } else if (arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return 2;
      const std::string addr = v;
      const std::size_t colon = addr.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "error: --connect expects host:port\n");
        return 2;
      }
      options.connect_host = addr.substr(0, colon);
      if (!ss::ParseInt("--connect", addr.c_str() + colon + 1,
                        &options.connect_port)) {
        return 2;
      }
    } else if (arg == "--tenants") {
      if (!ss::ParseInt("--tenants", next(), &options.tenants) ||
          options.tenants <= 0) {
        return 2;
      }
    } else if (arg == "--conns") {
      if (!ss::ParseInt("--conns", next(),
                        &options.connections_per_tenant) ||
          options.connections_per_tenant <= 0) {
        return 2;
      }
    } else if (arg == "--problems") {
      if (!ss::ParseInt("--problems", next(), &options.shared_problems) ||
          options.shared_problems <= 0) {
        return 2;
      }
    } else if (arg == "--mixed") {
      if (!ss::ParseInt("--mixed", next(), &options.mixed_requests) ||
          options.mixed_requests < 0) {
        return 2;
      }
    } else if (arg == "--fairness-solves") {
      if (!ss::ParseInt("--fairness-solves", next(),
                        &options.fairness_solves) ||
          options.fairness_solves <= 0) {
        return 2;
      }
    } else if (arg == "--tolerance") {
      int pct = 0;
      if (!ss::ParseInt("--tolerance", next(), &pct) || pct <= 0) return 2;
      options.fairness_tolerance = pct / 100.0;
    } else if (arg == "--pipelined") {
      options.pipelined = true;
    } else if (arg == "--pipelined-requests") {
      if (!ss::ParseInt("--pipelined-requests", next(),
                        &options.pipelined_requests) ||
          options.pipelined_requests <= 0) {
        return 2;
      }
    } else if (arg == "--chaos-soak") {
      options.chaos_soak = true;
    } else if (arg == "--chaos-seeds") {
      if (!ss::ParseInt("--chaos-seeds", next(), &options.chaos_seeds) ||
          options.chaos_seeds <= 0) {
        return 2;
      }
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (options.chaos_soak || options.pipelined) {
    if (!options.connect_host.empty()) {
      std::fprintf(stderr, "error: --%s is self-hosted; drop --connect\n",
                   options.chaos_soak ? "chaos-soak" : "pipelined");
      return 2;
    }
    if (options.chaos_soak && options.pipelined) {
      std::fprintf(stderr,
                   "error: pick one of --chaos-soak / --pipelined\n");
      return 2;
    }
    return options.chaos_soak ? ss::RunChaosSoak(options)
                              : ss::RunPipelined(options);
  }
  return ss::Run(options);
}

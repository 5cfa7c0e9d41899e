// ssched — command-line schedule explorer.
//
// Reads a scheduling problem (.ssg text format, see graph/graph_io.hpp),
// runs the paper's Fig. 6 optimal scheduler (or the list heuristic), and
// prints the schedule, its pipelined form, a Gantt chart and the channel
// occupancy analysis.
//
//   ssched <file.ssg> [--regime N] [--heuristic] [--frames N]
//          [--no-rotation] [--gantt-ms N] [--dot]
//   ssched --demo   # built-in color tracker problem, regime = 8 models
//   ssched --demo --serve-bench 8   # hammer the schedule service
//   ssched --serve --listen 127.0.0.1:7077   # multi-tenant TCP server
//   ssched stats 127.0.0.1:7077              # query a running server
//   ssched verify <file.ssg> <file.sscache>  # audit a cache snapshot
//                                            # with the static verifier
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_io.hpp"
#include "graph/op_graph.hpp"
#include "net/async_client.hpp"
#include "net/server.hpp"
#include "regime/regime.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/occupancy.hpp"
#include "sched/optimal.hpp"
#include "sched/pipeline.hpp"
#include "service/schedule_cache.hpp"
#include "service/schedule_service.hpp"
#include "verify/verifier.hpp"
#include "sim/schedule_executor.hpp"
#include "sim/trace.hpp"
#include "tenant/tenant.hpp"
#include "tenant/tenant_service.hpp"
#include "tracker/costs.hpp"
#include "tracker/graph_builder.hpp"

using namespace ss;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <file.ssg> [options]\n"
      "       %s --demo [options]\n"
      "       ssched --serve --listen <[host:]port> [--tenants <file>]\n"
      "              [--max-tenants N] [--workers N] [--snapshot <file>]\n"
      "       ssched stats <host:port>   # query a running server\n"
      "       ssched verify <file.ssg> <file.sscache> [--regime N]\n"
      "                     [--capacity N]   # audit snapshot artifacts\n"
      "options:\n"
      "  --regime N     schedule regime N (default 0; 7 with --demo)\n"
      "  --heuristic    use the critical-path list scheduler instead of\n"
      "                 the exhaustive optimal search\n"
      "  --frames N     frames to replay for the Gantt chart (default 6)\n"
      "  --no-rotation  disallow processor rotation when pipelining\n"
      "  --gantt-ms N   Gantt row granularity in milliseconds (default\n"
      "                 latency/24)\n"
      "  --throughput-bound T   maximize throughput subject to latency <= T\n"
      "                 (time with unit suffix, e.g. 150ms) instead of\n"
      "                 minimizing latency\n"
      "  --solver-threads N  threads for the branch-and-bound search\n"
      "                 (default 1; 0 = one per hardware thread; results\n"
      "                 are identical for every thread count)\n"
      "  --solver-pruning full|basic|none  search reductions for the exact\n"
      "                 solver (default full; basic = processor/ready\n"
      "                 symmetry only, unseeded; none = pure enumeration,\n"
      "                 for cross-checking). All levels find the same\n"
      "                 minimum latency and report its first 32 ties in\n"
      "                 search order; weaker levels explore more nodes\n"
      "  --dot          also print the task graph in Graphviz dot format\n"
      "  --serve-bench N  skip the schedule printout and instead run N\n"
      "                 client threads through the in-process schedule\n"
      "                 service (mixed regimes), printing throughput and\n"
      "                 the service counters; with a .ssg input the warm\n"
      "                 cache is snapshotted next to the file\n"
      "serve options (with --serve):\n"
      "  --listen ADDR  [host:]port to bind (port 0 = ephemeral, printed\n"
      "                 at startup); default 127.0.0.1:7077\n"
      "  --tenants F    tenant config file: one line per tenant,\n"
      "                 'tenant <name> [weight=W] [rate=R] [burst=B]\n"
      "                 [queue=N]'; unlisted tenants auto-register with\n"
      "                 defaults\n"
      "  --max-tenants N  registry capacity (default 64)\n"
      "  --workers N    solver threads: fair-queue dispatchers that each\n"
      "                 run one solve at a time (default: half the\n"
      "                 hardware threads, at least 2)\n"
      "  --snapshot F   warm-cache snapshot file loaded at startup and\n"
      "                 written on drain\n"
      "  --max-pending-solves N  queued+inflight solve admission bound;\n"
      "                 excess solves are shed with kOverloaded\n"
      "                 (default 256, 0 = unbounded)\n"
      "  --max-inflight N  per-connection pipelined-solve cap, shed with\n"
      "                 kOverloaded past it (default 64, 0 = unbounded)\n"
      "  --loop-threads N  sharded epoll event loops; connections are\n"
      "                 spread round-robin across them (default 1)\n",
      argv0, argv0);
  return 2;
}

/// Strict integer operand parser: the whole string must be a base-10
/// integer. Returns false (caller prints usage, exit 2) otherwise.
bool ParseIntArg(const char* flag, const char* text, int* out) {
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

bool ParseDoubleArg(const char* flag, const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0') {
    std::fprintf(stderr, "error: %s expects a number, got '%s'\n", flag,
                 text);
    return false;
  }
  *out = v;
  return true;
}

/// `--serve-bench N` implementation: N client threads, each issuing sync
/// Solves over all regimes of the problem, against one shared service.
/// Exercises the cache, single-flight coalescing, and the worker pool the
/// same way a long-lived scheduling daemon would be used.
int ServeBench(graph::ProblemSpec spec, const std::string& snapshot_source,
               int clients, int solver_threads) {
  constexpr int kRequestsPerClient = 64;
  auto problem =
      std::make_shared<const graph::ProblemSpec>(std::move(spec));

  service::ServiceOptions options;
  options.workers = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency() / 2));
  options.queue_capacity = static_cast<std::size_t>(clients) * 4 + 16;
  options.solver_threads = solver_threads;
  if (!snapshot_source.empty()) {
    options.snapshot_path =
        service::ScheduleCache::SnapshotPathFor(snapshot_source);
  }
  service::ScheduleService service(options);

  std::printf("serve-bench: %d clients x %d requests over %zu regime(s), "
              "%d workers\n",
              clients, kRequestsPerClient, problem->regime_count,
              options.workers);

  std::atomic<std::uint64_t> failures{0};
  const Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        service::SolveRequest request;
        request.problem = problem;
        request.regime = RegimeId(static_cast<int>(
            static_cast<std::size_t>(c + i) % problem->regime_count));
        auto result = service.Solve(request);
        if (!result.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "request failed: %s\n",
                       result.status().ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();
  service.Shutdown();  // also writes the snapshot, if configured

  const std::uint64_t total =
      static_cast<std::uint64_t>(clients) * kRequestsPerClient;
  std::printf("\n%llu requests in %.3f s  (%.0f req/s, %llu failed)\n\n",
              static_cast<unsigned long long>(total), seconds,
              seconds > 0 ? static_cast<double>(total) / seconds : 0.0,
              static_cast<unsigned long long>(failures.load()));
  std::printf("%s", service.metrics().Snapshot().ToTable().c_str());
  if (!options.snapshot_path.empty()) {
    std::printf("\nwarm cache snapshot: %s\n",
                options.snapshot_path.c_str());
  }
  return failures.load() == 0 ? 0 : 1;
}

/// `ssched verify` implementation: load a problem spec and a cache
/// snapshot, then run every stored artifact through the independent static
/// verifier (src/verify). Exit 0 only when every artifact verifies with no
/// errors. The snapshot's fingerprint keys are one-way, so the spec an
/// entry was solved for cannot be recovered from the key — each entry is
/// checked against the given problem, using its stored regime unless
/// --regime overrides it.
int VerifyCommand(int argc, char** argv) {
  std::vector<std::string> paths;
  int regime_override = -1;
  int capacity = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--regime") {
      if (!ParseIntArg("--regime", next(), &regime_override) ||
          regime_override < 0) {
        return Usage(argv[0]);
      }
    } else if (arg == "--capacity") {
      if (!ParseIntArg("--capacity", next(), &capacity) || capacity < 0) {
        std::fprintf(stderr,
                     "error: --capacity expects a bound >= 0 (0 = none)\n");
        return Usage(argv[0]);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "error: verify needs a problem file and a snapshot\n");
    return Usage(argv[0]);
  }

  auto loaded = graph::LoadProblemFile(paths[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const graph::ProblemSpec spec = std::move(*loaded);

  service::ScheduleCache cache(/*capacity=*/1 << 20);
  Status snapshot = cache.Load(paths[1]);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "error: %s\n", snapshot.ToString().c_str());
    return 1;
  }
  const auto entries = cache.Entries();
  std::printf("%s: %zu artifact(s)\n", paths[1].c_str(), entries.size());

  verify::VerifyOptions vopts;
  vopts.uniform_channel_capacity = static_cast<std::size_t>(capacity);
  std::size_t failed = 0;
  for (const auto& entry : entries) {
    const RegimeId regime =
        regime_override >= 0 ? RegimeId(regime_override) : entry->regime;
    std::printf("\nartifact %s  regime %d  latency %s  II %s  rotation %d\n",
                entry->key.ToHex().c_str(), regime.value(),
                FormatTick(entry->schedule.iteration.Latency()).c_str(),
                FormatTick(entry->schedule.initiation_interval).c_str(),
                entry->schedule.rotation);
    if (!regime.valid() ||
        static_cast<std::size_t>(regime.index()) >= spec.regime_count) {
      std::printf("  ERROR: regime %d not in the problem's %zu regime(s) "
                  "(pre-v2 snapshot? pass --regime)\n",
                  regime.value(), spec.regime_count);
      ++failed;
      continue;
    }
    verify::ScheduleVerifier verifier(spec, regime, vopts);
    verify::VerifyReport report = verifier.VerifyArtifact(
        entry->schedule, entry->min_latency, &entry->occupancy);
    if (report.clean()) {
      std::printf("  verified clean\n");
    } else {
      std::printf("%s", report.ToTable().c_str());
    }
    if (!report.ok()) ++failed;
  }
  if (failed > 0) {
    std::printf("\n%zu of %zu artifact(s) FAILED verification\n", failed,
                entries.size());
    return 1;
  }
  std::printf("\nall %zu artifact(s) verified\n", entries.size());
  return 0;
}

/// Parses "[host:]port" strictly. A bare port listens on 127.0.0.1.
bool ParseListenAddr(const std::string& text, std::string* host, int* port) {
  const std::size_t colon = text.rfind(':');
  std::string port_text;
  if (colon == std::string::npos) {
    *host = "127.0.0.1";
    port_text = text;
  } else {
    *host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
    if (host->empty()) *host = "127.0.0.1";
  }
  char* end = nullptr;
  const long p = std::strtol(port_text.c_str(), &end, 10);
  if (port_text.empty() || *end != '\0' || p < 0 || p > 65535) {
    std::fprintf(stderr, "error: bad port in address '%s'\n", text.c_str());
    return false;
  }
  *port = static_cast<int>(p);
  return true;
}

volatile std::sig_atomic_t g_stop_requested = 0;
void HandleStopSignal(int) { g_stop_requested = 1; }

/// `--serve` implementation: the full multi-tenant scheduling daemon —
/// ScheduleService (solver + cache) behind a TenantScheduler (admission +
/// weighted fair queueing; its dispatchers run the solves) behind the
/// epoll TCP server (docs/net.md). Runs until SIGINT/SIGTERM, then drains
/// gracefully.
int ServeCommand(const std::string& host, int port,
                 const std::string& tenants_file, int max_tenants,
                 int workers, int solver_threads,
                 const std::string& snapshot_path, int max_pending_solves,
                 int max_inflight, int loop_threads) {
  // Served solves run on the tenant dispatchers (SolveOnCaller), so the
  // service's own pool and queue are never used here and stay unset.
  service::ServiceOptions sopts;
  sopts.solver_threads = solver_threads;
  sopts.snapshot_path = snapshot_path;
  service::ScheduleService service(sopts);

  tenant::TenantSchedulerOptions topts;
  topts.registry.max_tenants = static_cast<std::size_t>(max_tenants);
  topts.dispatch_threads =
      workers > 0 ? workers
                  : static_cast<int>(std::max(
                        2u, std::thread::hardware_concurrency() / 2));
  tenant::TenantScheduler tenants(&service, topts);
  if (!tenants_file.empty()) {
    auto configs = tenant::LoadTenantConfigFile(tenants_file);
    if (!configs.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   configs.status().ToString().c_str());
      return 1;
    }
    for (auto& config : *configs) {
      const std::string name = config.name;
      Status registered = tenants.RegisterTenant(std::move(config));
      if (!registered.ok()) {
        std::fprintf(stderr, "error: tenant '%s': %s\n", name.c_str(),
                     registered.ToString().c_str());
        return 1;
      }
    }
    std::printf("loaded %zu tenant(s) from %s\n", tenants.tenant_count(),
                tenants_file.c_str());
  }

  net::ServerOptions nopts;
  nopts.host = host;
  nopts.port = port;
  nopts.max_pending_solves = static_cast<std::size_t>(max_pending_solves);
  nopts.max_inflight_per_conn = max_inflight;
  nopts.loop_threads = loop_threads;
  net::Server server(nopts, &service, &tenants);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("ssched serving on %s:%d  (%d workers, max %d tenants)\n",
              host.c_str(), server.port(), topts.dispatch_threads,
              max_tenants);
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("\ndraining...\n");
  server.Stop();
  tenants.Shutdown();
  service.Shutdown();  // also writes the snapshot, if configured
  const MetricSnapshot metrics = server.StatsSnapshot();
  auto count = [&](const char* name) {
    return static_cast<unsigned long long>(metrics.Count(name));
  };
  std::printf("served %llu frame(s) over %llu connection(s), "
              "%llu protocol error(s)\n\n",
              count("net_frames_received"), count("net_conns_accepted"),
              count("net_protocol_errors"));
  std::printf("%s", metrics.ToTable().c_str());
  return 0;
}

/// `ssched stats <host:port>`: one stats request against a running server,
/// rendered as the same table `ssched --serve` prints when it exits.
int StatsCommand(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "error: stats needs a server address, e.g. "
                         "ssched stats 127.0.0.1:7077\n");
    return 2;
  }
  std::string host;
  int port = 0;
  if (!ParseListenAddr(argv[1], &host, &port) || port == 0) {
    return 2;
  }
  net::AsyncClientOptions copts;
  copts.io_timeout = ticks::FromSeconds(5);
  net::AsyncClient client(copts);
  Status connected = client.Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n", connected.ToString().c_str());
    return 1;
  }
  auto stats = client.Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", stats->metrics.ToTable().c_str());
  return 0;
}

graph::ProblemSpec DemoProblem() {
  graph::ProblemSpec spec;
  tracker::TrackerGraph tg = tracker::BuildTrackerGraph();
  regime::RegimeSpace space(1, 8);
  spec.costs = tracker::PaperCostModel(tg, space);
  spec.graph = std::move(tg.graph);
  spec.machine = graph::MachineConfig::SingleNode(4);
  spec.regime_count = space.size();
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "verify") == 0) {
    return VerifyCommand(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "stats") == 0) {
    return StatsCommand(argc - 1, argv + 1);
  }
  std::string path;
  bool demo = false;
  bool heuristic = false;
  bool dot = false;
  bool allow_rotation = true;
  bool serve = false;
  int regime_index = 0;
  bool regime_given = false;
  int frames_arg = 6;
  int serve_bench = 0;
  int solver_threads = 1;
  std::string solver_pruning = "full";
  int max_tenants = 64;
  int workers = 0;
  int max_pending_solves = 256;
  int max_inflight = 64;
  int loop_threads = 1;
  double gantt_ms = 0;
  std::string throughput_bound;
  std::string listen = "127.0.0.1:7077";
  std::string tenants_file;
  std::string snapshot_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--heuristic") {
      heuristic = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--no-rotation") {
      allow_rotation = false;
    } else if (arg == "--regime") {
      if (!ParseIntArg("--regime", next(), &regime_index)) {
        return Usage(argv[0]);
      }
      regime_given = true;
    } else if (arg == "--frames") {
      if (!ParseIntArg("--frames", next(), &frames_arg) || frames_arg < 0) {
        return Usage(argv[0]);
      }
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--listen") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        std::fprintf(stderr, "error: --listen expects [host:]port\n");
        return Usage(argv[0]);
      }
      listen = v;
    } else if (arg == "--tenants") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        std::fprintf(stderr, "error: --tenants expects a config file\n");
        return Usage(argv[0]);
      }
      tenants_file = v;
    } else if (arg == "--max-tenants") {
      if (!ParseIntArg("--max-tenants", next(), &max_tenants) ||
          max_tenants <= 0) {
        std::fprintf(stderr,
                     "error: --max-tenants expects a positive count\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--workers") {
      if (!ParseIntArg("--workers", next(), &workers) || workers <= 0) {
        std::fprintf(stderr, "error: --workers expects a positive count\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--max-pending-solves") {
      if (!ParseIntArg("--max-pending-solves", next(),
                       &max_pending_solves) ||
          max_pending_solves < 0) {
        std::fprintf(stderr,
                     "error: --max-pending-solves expects a bound >= 0 "
                     "(0 = unbounded)\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--max-inflight") {
      if (!ParseIntArg("--max-inflight", next(), &max_inflight) ||
          max_inflight < 0) {
        std::fprintf(stderr,
                     "error: --max-inflight expects a bound >= 0 "
                     "(0 = unbounded)\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--loop-threads") {
      if (!ParseIntArg("--loop-threads", next(), &loop_threads) ||
          loop_threads < 1) {
        std::fprintf(stderr,
                     "error: --loop-threads expects a positive count\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--snapshot") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        std::fprintf(stderr, "error: --snapshot expects a file path\n");
        return Usage(argv[0]);
      }
      snapshot_path = v;
    } else if (arg == "--serve-bench") {
      if (!ParseIntArg("--serve-bench", next(), &serve_bench) ||
          serve_bench <= 0) {
        std::fprintf(stderr,
                     "error: --serve-bench expects a positive count\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--solver-threads") {
      if (!ParseIntArg("--solver-threads", next(), &solver_threads) ||
          solver_threads < 0) {
        std::fprintf(stderr,
                     "error: --solver-threads expects a count >= 0\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--solver-pruning") {
      const char* value = next();
      if (value == nullptr) {
        std::fprintf(stderr, "error: --solver-pruning expects a level\n");
        return Usage(argv[0]);
      }
      solver_pruning = value;
      if (solver_pruning != "full" && solver_pruning != "basic" &&
          solver_pruning != "none") {
        std::fprintf(stderr,
                     "error: --solver-pruning expects full, basic or none "
                     "(got %s)\n",
                     solver_pruning.c_str());
        return Usage(argv[0]);
      }
    } else if (arg == "--gantt-ms") {
      if (!ParseDoubleArg("--gantt-ms", next(), &gantt_ms)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--throughput-bound") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      throughput_bound = v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return Usage(argv[0]);
    } else if (!path.empty()) {
      std::fprintf(stderr, "error: more than one input file ('%s', '%s')\n",
                   path.c_str(), arg.c_str());
      return Usage(argv[0]);
    } else {
      path = arg;
    }
  }
  if (serve) {
    if (demo || !path.empty() || serve_bench > 0) {
      std::fprintf(stderr,
                   "error: --serve takes no input file, --demo, or "
                   "--serve-bench\n");
      return Usage(argv[0]);
    }
    std::string host;
    int port = 0;
    if (!ParseListenAddr(listen, &host, &port)) return Usage(argv[0]);
    return ServeCommand(host, port, tenants_file, max_tenants, workers,
                        solver_threads, snapshot_path, max_pending_solves,
                        max_inflight, loop_threads);
  }
  if (!demo && path.empty()) return Usage(argv[0]);
  const std::size_t frames = static_cast<std::size_t>(frames_arg);

  graph::ProblemSpec spec;
  if (demo) {
    spec = DemoProblem();
    if (!regime_given) regime_index = 7;  // 8 models
  } else {
    auto loaded = graph::LoadProblemFile(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    spec = std::move(*loaded);
  }
  if (serve_bench > 0) {
    return ServeBench(std::move(spec), path, serve_bench, solver_threads);
  }
  if (regime_index < 0 ||
      static_cast<std::size_t>(regime_index) >= spec.regime_count) {
    std::fprintf(stderr, "error: regime %d out of range (0..%zu)\n",
                 regime_index, spec.regime_count - 1);
    return 1;
  }
  const RegimeId regime(regime_index);

  std::printf("problem: %zu tasks, %zu channels, %zu regime(s), %s\n\n",
              spec.graph.task_count(), spec.graph.channel_count(),
              spec.regime_count, spec.machine.ToString().c_str());
  std::printf("%s\n", spec.graph.ToText().c_str());
  if (dot) std::printf("%s\n", spec.graph.ToDot().c_str());

  sched::PipelinedSchedule schedule;
  if (heuristic) {
    sched::ListScheduler list(spec.comm, spec.machine);
    auto iter = list.ScheduleBestVariant(spec.graph, spec.costs, regime);
    if (!iter.ok()) {
      std::fprintf(stderr, "error: %s\n", iter.status().ToString().c_str());
      return 1;
    }
    sched::PipelineOptions popts;
    popts.allow_rotation = allow_rotation;
    schedule = sched::PipelineComposer::Compose(
        *iter, spec.machine.total_procs(), popts);
    std::printf("list-scheduler result (heuristic, not optimal):\n");
  } else {
    sched::OptimalScheduler scheduler(spec.graph, spec.costs, spec.comm,
                                      spec.machine);
    sched::OptimalOptions opts;
    opts.pipeline.allow_rotation = allow_rotation;
    opts.solver_threads = solver_threads;
    if (solver_pruning != "full") {
      opts.pruning.empty_node_symmetry = false;
      opts.pruning.seed_incumbent = false;
      if (solver_pruning == "none") {
        opts.pruning.proc_symmetry = false;
        opts.pruning.ready_symmetry = false;
      }
    }
    Stopwatch sw;
    Expected<sched::OptimalResult> result = [&] {
      if (throughput_bound.empty()) return scheduler.Schedule(regime, opts);
      auto bound = graph::ParseTickValue(throughput_bound);
      if (!bound.ok()) return Expected<sched::OptimalResult>(bound.status());
      std::printf("throughput mode: maximizing throughput with latency <= "
                  "%s\n", FormatTick(*bound).c_str());
      return scheduler.ScheduleForThroughput(regime, *bound, opts);
    }();
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("optimal schedule (regime %d): searched %llu nodes over "
                "%llu variant combos in %.1f ms%s\n",
                regime_index,
                static_cast<unsigned long long>(result->nodes_explored),
                static_cast<unsigned long long>(
                    result->variant_combinations),
                1e3 * sw.ElapsedSeconds(),
                result->budget_exhausted ? "  [budget exhausted]" : "");
    std::printf("latency-optimal schedules: %zu\n", result->optimal.size());
    schedule = std::move(result->best);
  }

  graph::OpGraph og = graph::OpGraph::Expand(
      spec.graph, spec.costs, regime, schedule.iteration.variants());
  std::printf("\n%s\n", schedule.iteration.ToString(og).c_str());
  std::printf("pipelined: %s\n\n", schedule.ToString().c_str());

  auto occupancy = sched::AnalyzeOccupancy(spec.graph, og, schedule);
  std::printf("channel occupancy (max live items): ");
  for (std::size_t c = 0; c < occupancy.channels.size(); ++c) {
    if (c) std::printf(", ");
    std::printf("%s=%zu", occupancy.channels[c].name.c_str(),
                occupancy.channels[c].max_items);
  }
  std::printf("  (required capacity %zu)\n\n",
              occupancy.required_capacity);

  sim::ScheduleRunOptions run;
  run.frames = frames;
  auto replay = sim::RunSchedule(schedule, og, run);
  sim::GanttOptions gantt;
  gantt.row_ticks =
      gantt_ms > 0
          ? ticks::FromMillis(gantt_ms)
          : std::max<Tick>(1, schedule.iteration.Latency() / 24);
  gantt.max_rows = 60;
  std::printf("%s\n",
              RenderGantt(replay.trace, spec.machine.total_procs(), gantt)
                  .c_str());
  std::printf("replay: %s\n", replay.metrics.ToString().c_str());
  return 0;
}

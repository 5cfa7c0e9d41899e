// Shared pieces of the schedule-server benchmark: seeded inputs, the
// served-process handle, /proc readers, percentiles and metric output.
//
// The timed runs (timed.cpp) use only what a client of the server has: the
// wire protocol through net::AsyncClient, graph's generators and
// graph::Fingerprint. The traced run (traced.cpp) is the only code that
// calls layer internals.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph_io.hpp"
#include "net/protocol.hpp"

namespace ss::perfbench {

// ---- Workloads -------------------------------------------------------------

enum class Workload { kHit, kCold, kChurn };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

/// Fixed per-workload parameters. The latency limit and the reference rate
/// are part of the benchmark's definition (BENCHMARK.json states them in
/// each workload's `why`); changing them redefines the metrics.
struct WorkloadSpec {
  /// p99 limit, from each request's scheduled send time, for capacity.
  double limit_ms;
  /// Offered rate of the reference segments (lat_p50_ms, lat_p99_ms,
  /// cpu_us_per_op).
  double reference_rate;
  /// First rate of the capacity search, which steps down x0.8 while it
  /// fails, climbs x1.25 (to at most max_rate) while steps pass, and then
  /// bisects.
  double start_rate;
  double max_rate;
  /// Duration of one capacity step.
  double step_s;
};

const WorkloadSpec& SpecFor(Workload w);

/// Served configuration of every workload, set explicitly so that it does
/// not depend on the host: ssched --workers / --loop-threads /
/// --solver-threads.
inline constexpr int kServedWorkers = 2;
inline constexpr int kServedLoopThreads = 1;
inline constexpr int kServedSolverThreads = 1;
/// Admission bounds of the served configuration: no server-side shedding
/// (ssched --max-pending-solves 0 --max-inflight 0). The generator sends
/// everything on one connection, and when the host stalls the server or the
/// pacer, the requests that fell due meanwhile arrive at once; under the
/// default 64-solve cap per connection a ~70 ms stall at cold's reference
/// rate would be refused as OVERLOADED. Queued solves are bounded by each
/// tenant's queue instead (the workload's tenants file, MakeInputs).
inline constexpr int kServedMaxPendingSolves = 0;
inline constexpr int kServedMaxInflight = 0;

/// One problem a workload sends, with everything the client checks an
/// answer against.
struct Problem {
  std::string text;
  /// Request key the server must answer with: the problem's
  /// graph::Fingerprint extended by the default solve options.
  std::string key_hex;
  /// In-process reference answer: every problem a timed run sends is
  /// solved here first.
  net::ScheduleSummary reference;
  /// Nodes the serial reference search explored.
  std::uint64_t reference_nodes = 0;
};

enum class Verb : std::uint8_t { kSolve, kLookup };

struct Request {
  Verb verb = Verb::kSolve;
  std::uint32_t problem = 0;
  std::uint8_t tenant = 0;
};

/// The seeded inputs of one workload run.
struct Inputs {
  Workload workload = Workload::kHit;
  std::vector<std::string> tenants;
  /// --tenants file contents for the server ("" = none).
  std::string tenant_config;
  std::vector<Problem> problems;
  /// Problems solved during set-up, in order (the warm state).
  std::vector<std::uint32_t> seed_set;
  /// The request stream; cold never repeats a problem, so its stream is
  /// extended (ExtendColdStream) as the run needs.
  std::vector<Request> stream;
  /// cold: seeded draws consumed so far.
  std::uint64_t cold_draws = 0;
};

/// Appends `count` fresh cold problems (with references) to the stream.
Status ExtendColdStream(Inputs* in, std::uint64_t seed, std::size_t count);

/// Serial reference solve (the answer check and the node-count filter).
Status SolveReference(const graph::ProblemSpec& spec, Problem* problem);

/// Builds a workload's inputs. `stream_len` sizes cold's stream; the other
/// workloads cycle through a fixed seeded stream over a fixed universe.
Expected<Inputs> MakeInputs(Workload w, std::uint64_t seed,
                            std::size_t stream_len);

/// A seeded synthetic problem of the cold family mix (chain 4-6, fork-join
/// width 2, 2-layer DAG of width <= 2, one 2-way node).
graph::ProblemSpec MakeColdSpec(std::uint64_t seed, std::uint64_t index);

/// The paper's color tracker (regimes 1-8, one 4-way node) as one problem.
graph::ProblemSpec MakeKioskSpec();

/// A seeded problem whose serial search exhausts the 20M-node budget.
graph::ProblemSpec MakeExhaustingSpec(std::uint64_t seed);

/// Request key as the server computes it for default solve options.
std::string RequestKeyHex(const graph::ProblemSpec& spec, int regime);

/// The SOLVE or LOOKUP body of one request.
std::vector<std::uint8_t> EncodeRequestBody(const Inputs& in,
                                            const Request& r);

// ---- The served process ----------------------------------------------------

struct ServerConfig {
  std::string binary;
  /// --tenants file ("" = none).
  std::string tenants_file;
};

/// `ssched --serve` as a child process on an ephemeral loopback port, with
/// the served configuration (kServedWorkers, ...).
class ServerProcess {
 public:
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and waits for its "serving on" line.
  static Expected<std::unique_ptr<ServerProcess>> Launch(
      const ServerConfig& config);

  int port() const { return port_; }
  /// CPU time of every thread of the process so far (schedstat, ns).
  double CpuSeconds() const;
  /// VmHWM of the process, in MB.
  double PeakRssMb() const;
  /// SIGTERM, drain its output, reap it. Idempotent.
  Status Stop();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

// ---- Measurement helpers ---------------------------------------------------

/// Monotonic clock in nanoseconds.
std::int64_t NowNs();

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// A named measurement and its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The metrics BENCHMARK.json lists (and gates, for end-to-end ones).
  std::vector<Metric> metrics;
  /// Printed beside them but not part of the JSON result: measured every
  /// run, too much at the mercy of the host to gate (see README.md).
  std::vector<Metric> reported;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Report(const std::string& name, double value,
              const std::string& unit) {
    reported.push_back({name, value, unit});
  }
};

/// Prints `<prefix>/<name> value unit` for every metric (reported ones
/// marked), then the JSON result line the harness reads (last line of
/// stdout). A listed metric that is not a finite number fails the run:
/// it prints an error and no result line, and returns false.
bool PrintResult(const std::string& prefix, const RunResult& result);

/// One traced interval: a call into a layer, or a client request.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  /// Index of the enclosing span in the same log, or -1.
  std::int64_t parent;
  std::uint64_t request;
};

/// What the traced run needs from one TCP pass at the reference rate.
struct TcpPass {
  double rtt_floor_us = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double traced_p50_ms = 0;
  double hit_ratio = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t wrong = 0;
  std::uint64_t solves = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t retries = 0;
  std::uint64_t protocol_errors = 0;
};

struct Options {
  Workload workload = Workload::kHit;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string ssched;
  std::string trace_out;
};

/// Sets the workload's server up once (as a timed run does), measures the
/// HEALTH round trip on the idle server, then runs the reference rate for
/// `phase_s` untraced and again with a client span per request in `spans`.
Expected<TcpPass> RunTcpPass(const Options& options, Inputs* inputs,
                             double phase_s, std::vector<Span>* spans);

/// Server configuration of a workload (writes its --tenants file).
ServerConfig ServerConfigFor(const Options& options, const Inputs& inputs);

int RunTimed(const Options& options);
int RunTraced(const Options& options);

}  // namespace ss::perfbench

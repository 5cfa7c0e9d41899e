// Timed runs: one open-loop generator process drives a child
// `ssched --serve` over loopback with protocol v2 and checks every answer.
//
// A run is: set-up (server launch and seeding) of the measured server,
// then reference-rate segments at the workload's fixed rate
// interleaved with a capacity search over open-loop rate steps. Before each
// segment a fresh side server is set up and stopped, so the set-up samples
// are spread over the run. Latency is timed from each request's scheduled
// send time, so a stall also delays the requests queued behind it. Only
// STATS counts a client cannot see (solves, coalesced, retries, protocol
// errors) are read from the server, in ReadServerCounts.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "net/async_client.hpp"

namespace ss::perfbench {

namespace {

/// Reference-rate segments per run, each a side set-up, a latency phase
/// (kLatencyShare of it) and then a CPU phase.
constexpr std::size_t kSegments = 12;
constexpr double kLatencyShare = 0.5;
/// Requests per latency window.
constexpr std::size_t kLatencyWindow = 1000;
/// Generator threads: the pacer plus the AsyncClient reader of its one
/// connection.
constexpr int kGeneratorThreads = 2;
constexpr int kConnections = 1;
/// Open-loop schedule: requests fall due in bursts, one burst per period
/// (or one request every 1/rate when that is longer), as from a client
/// that pipelines what it has.
///
/// Latency phases use kLatencyBurstNs: a steady 50 us cadence keeps the
/// host's vCPUs from idling between requests; with one request per tick
/// the wake-up latency of an idle vCPU (10-40 us here, varying with the
/// neighbours) would decide a ~30 us hit.
///
/// CPU phases use kCpuBurstNs: bursts of 300 hits at the reference rate,
/// so that the server's per-request work, not the cost of its wake-ups
/// (which moves with the host's load) or how many requests a wake-up
/// happens to find (which a stall of the host changes), sets the CPU per
/// request.
constexpr double kLatencyBurstNs = 50'000;
constexpr double kCpuBurstNs = 5'000'000;

enum class Outcome : std::uint8_t {
  kPending,
  kOk,
  kShed,      // OVERLOADED
  kRejected,  // ADMISSION_REJECTED or QUEUE_FULL (WOULD_BLOCK)
  kTimeout,
  kError,
  kWrong,
};

/// Counts a client can see, per phase.
struct PhaseStats {
  double rate = 0;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t rejected = 0;
  std::size_t timeouts = 0;
  std::size_t errors = 0;
  std::size_t wrong = 0;
  std::size_t cache_hits = 0;  // SOLVE answered with cache_hit
  std::size_t found = 0;       // LOOKUP answered found
  /// Latency from scheduled send to answer (failures = +inf). p99 is
  /// taken per window of kLatencyWindow consecutive requests (ten beyond each
  /// p99) and the median over the windows is reported: the VM stalls a
  /// thread for 1-30 ms now and then, and a stall decides the p99 of the
  /// window it lands in but not of the phase. `all_p99_ms` is the plain
  /// p99 over every request, printed beside it.
  double p50_ms = 0;
  double p99_ms = 0;
  double all_p99_ms = 0;
  /// Median window p99 over the last quarter of the windows: a growing
  /// backlog shows there.
  double late_quarter_p99_ms = 0;
  std::size_t windows = 0;
  /// How late the pacer sent, p90 and max, in microseconds. The host
  /// preempts any thread for milliseconds now and then, so the tail of
  /// this is the host's; p90 shows a pacer that cannot keep up.
  double gen_late_p90_us = 0;
  double gen_late_max_us = 0;
  double server_cpu_s = 0;

  std::size_t failed() const {
    return shed + rejected + timeouts + errors + wrong;
  }
};

struct ServerCounts {
  std::uint64_t solves = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t retries = 0;
  std::uint64_t protocol_errors = 0;
};

/// The one place the timed runs read STATS.
Expected<ServerCounts> ReadServerCounts(net::AsyncClient& client) {
  auto stats = client.Stats();
  if (!stats.ok()) return stats.status();
  return ServerCounts{stats->solves, stats->coalesced, stats->retries,
                      stats->protocol_errors};
}

bool SameAnswer(const net::ScheduleSummary& a, const net::ScheduleSummary& b) {
  return a.fingerprint_hex == b.fingerprint_hex && a.latency == b.latency &&
         a.initiation_interval == b.initiation_interval &&
         a.rotation == b.rotation && a.quality == b.quality;
}

class Generator {
 public:
  /// Every problem in `inputs` carries its in-process reference answer.
  explicit Generator(Inputs* inputs) : in_(*inputs) {
    // hit and churn reuse one body per (problem, tenant, verb); cold has
    // one per request, encoded as its stream grows (EnsureStream).
    if (in_.workload != Workload::kCold) {
      const std::size_t tenants = in_.tenants.size();
      bodies_.resize(in_.problems.size() * tenants * 2);
      for (std::uint32_t p = 0; p < in_.problems.size(); ++p) {
        for (std::uint8_t t = 0; t < tenants; ++t) {
          for (Verb v : {Verb::kSolve, Verb::kLookup}) {
            bodies_[BodyIndex(Request{v, p, t}, 0)] =
                EncodeRequestBody(in_, Request{v, p, t});
          }
        }
      }
    }
  }

  /// With a log set, every request of a phase also records a client span.
  void set_spans(std::vector<Span>* spans) { spans_ = spans; }

  Status Connect(int port) {
    net::AsyncClientOptions options;
    options.window = 1 << 20;  // open loop: the pacer never waits for a slot
    options.io_timeout = ticks::FromSeconds(10);
    client_ = std::make_unique<net::AsyncClient>(options);
    return client_->Connect("127.0.0.1", port);
  }
  net::AsyncClient& client() { return *client_; }
  void Close() { client_.reset(); }

  /// Solves the set-up problems, pipelined within the server's
  /// per-connection solve cap, and returns their answers.
  Status Seed(const std::vector<std::uint32_t>& seed_set,
              std::vector<net::ScheduleSummary>* answers) {
    constexpr std::size_t kInFlight = 32;
    std::atomic<std::size_t> done{0};
    std::atomic<bool> bad{false};
    answers->assign(seed_set.size(), {});
    for (std::size_t i = 0; i < seed_set.size(); ++i) {
      while (i - done.load(std::memory_order_acquire) >= kInFlight) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      Status s = client_->Submit(
          net::MsgType::kSolve,
          EncodeRequestBody(in_, Request{Verb::kSolve, seed_set[i], 0}),
          [&, i](Expected<net::Frame> frame) {
            net::SolveResponseMsg resp;
            if (!frame.ok() || frame->type != net::MsgType::kSolveOk ||
                !net::Decode(frame->body.data(), frame->body.size(), &resp)
                     .ok()) {
              bad.store(true);
            } else {
              (*answers)[i] = resp.summary;
            }
            done.fetch_add(1, std::memory_order_release);
          });
      if (!s.ok()) return s;
    }
    while (done.load(std::memory_order_acquire) < seed_set.size()) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    if (bad.load()) return InternalError("a seeding solve failed");
    return OkStatus();
  }

  /// cold: makes sure `count` more requests are ready to send.
  Status EnsureStream(std::size_t count, std::uint64_t seed) {
    if (in_.workload != Workload::kCold) return OkStatus();
    const std::size_t have = in_.stream.size() - cursor_;
    if (have < count) {
      SS_RETURN_IF_ERROR(ExtendColdStream(&in_, seed, count - have));
    }
    for (std::size_t i = bodies_.size(); i < in_.stream.size(); ++i) {
      bodies_.push_back(EncodeRequestBody(in_, in_.stream[i]));
    }
    return OkStatus();
  }

  /// Sends `rate` requests per second for `seconds` on an open-loop
  /// schedule of bursts every `burst_ns` and waits for every answer.
  PhaseStats RunPhase(double rate, double seconds, double burst_ns,
                      ServerProcess* server) {
    PhaseStats st;
    st.rate = rate;
    const auto n = static_cast<std::size_t>(rate * seconds);
    if (n == 0) return st;
    slots_.assign(n, Slot{});
    completed_.store(0);
    std::vector<double> late_us(n);
    const double cpu0 = server->CpuSeconds();
    // Request i falls due at the tick of its burst.
    const std::int64_t t0 = NowNs() + 1'000'000;
    const double burst = std::max(1.0, rate * burst_ns * 1e-9);
    const double tick_ns = burst / rate * 1e9;
    auto due = [&](std::size_t i) {
      return t0 + static_cast<std::int64_t>(
                      std::floor(static_cast<double>(i) / burst) * tick_ns);
    };
    std::size_t i = 0;
    while (i < n) {
      std::int64_t now = NowNs();
      const std::int64_t next = due(i);
      if (now < next) {
        // Sleep to 15 us before the tick (timer slack is 1 ns, see
        // RunTimed) and spin the rest, so pacing error stays small next to
        // a ~30 us hit.
        if (next - now > 20'000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(next - now - 15'000));
        }
        continue;
      }
      client_->Cork();
      const std::size_t batch_begin = i;
      for (; i < n && due(i) <= now; ++i) Submit(i, due(i));
      (void)client_->Uncork();
      now = NowNs();
      for (std::size_t k = batch_begin; k < i; ++k) {
        late_us[k] = static_cast<double>(now - slots_[k].due_ns) * 1e-3;
      }
    }
    const std::int64_t give_up = NowNs() + 15'000'000'000LL;
    while (completed_.load(std::memory_order_acquire) < n &&
           NowNs() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    st.server_cpu_s = server->CpuSeconds() - cpu0;

    const std::size_t window_count =
        std::max<std::size_t>(1, n / kLatencyWindow);
    std::vector<std::vector<double>> windows(window_count);
    std::vector<double> latencies_ms;
    latencies_ms.reserve(n);
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < n; ++k) {
      const Slot& s = slots_[k];
      double lat = inf;
      switch (s.outcome) {
        case Outcome::kOk:
          ++st.ok;
          lat = static_cast<double>(s.done_ns - s.due_ns) * 1e-6;
          break;
        case Outcome::kShed: ++st.shed; break;
        case Outcome::kRejected: ++st.rejected; break;
        case Outcome::kTimeout:
        case Outcome::kPending: ++st.timeouts; break;
        case Outcome::kError: ++st.errors; break;
        case Outcome::kWrong: ++st.wrong; break;
      }
      st.cache_hits += s.cache_hit;
      st.found += s.found;
      latencies_ms.push_back(lat);
      windows[std::min(window_count - 1, k * window_count / n)].push_back(lat);
    }
    std::vector<double> window_p99;
    for (const auto& w : windows) window_p99.push_back(Percentile(w, 99));
    st.sent = n;
    st.windows = window_count;
    st.p50_ms = Percentile(latencies_ms, 50);
    st.all_p99_ms = Percentile(latencies_ms, 99);
    st.p99_ms = Median(window_p99);
    st.late_quarter_p99_ms = Median(std::vector<double>(
        window_p99.begin() + static_cast<std::ptrdiff_t>(
                                 window_count - (window_count + 3) / 4),
        window_p99.end()));
    st.gen_late_p90_us = Percentile(late_us, 90);
    st.gen_late_max_us = *std::max_element(late_us.begin(), late_us.end());
    return st;
  }

 private:
  struct Slot {
    std::int64_t due_ns = 0;
    std::int64_t done_ns = 0;
    std::uint32_t problem = 0;
    Outcome outcome = Outcome::kPending;
    bool cache_hit = false;
    bool found = false;
    bool lookup = false;
  };

  std::size_t BodyIndex(const Request& r, std::size_t stream_pos) const {
    if (in_.workload == Workload::kCold) return stream_pos;
    return (static_cast<std::size_t>(r.problem) * in_.tenants.size() +
            r.tenant) * 2 +
           (r.verb == Verb::kLookup ? 1 : 0);
  }

  /// The next request of the stream; hit and churn cycle, cold never
  /// repeats (EnsureStream extends it before each phase).
  const Request& NextRequest() {
    if (in_.workload != Workload::kCold && cursor_ == in_.stream.size()) {
      cursor_ = 0;
    }
    SS_CHECK(cursor_ < in_.stream.size());
    return in_.stream[cursor_++];
  }

  void Submit(std::size_t slot, std::int64_t due_ns) {
    const Request& r = NextRequest();
    const std::size_t pos = cursor_ - 1;
    Slot& s = slots_[slot];
    s.due_ns = due_ns;
    s.problem = r.problem;
    s.lookup = r.verb == Verb::kLookup;
    Status sent = client_->Submit(
        s.lookup ? net::MsgType::kLookup : net::MsgType::kSolve,
        bodies_[BodyIndex(r, pos)],
        [this, slot](Expected<net::Frame> frame) {
          Complete(slot, std::move(frame));
        });
    if (!sent.ok()) {
      s.outcome = Outcome::kError;
      s.done_ns = NowNs();
      completed_.fetch_add(1, std::memory_order_release);
    }
  }

  /// Runs on the client's reader thread.
  void Complete(std::size_t slot, Expected<net::Frame> frame) {
    Slot& s = slots_[slot];
    s.done_ns = NowNs();
    s.outcome = Classify(s, frame);
    if (spans_ != nullptr) {
      spans_->push_back(Span{"client.request", s.due_ns, s.done_ns, -1, slot});
    }
    completed_.fetch_add(1, std::memory_order_release);
  }

  Outcome Classify(Slot& s, const Expected<net::Frame>& frame) {
    if (!frame.ok()) {
      return frame.status().code() == StatusCode::kDeadlineExceeded
                 ? Outcome::kTimeout
                 : Outcome::kError;
    }
    if (frame->type == net::MsgType::kError) {
      net::ErrorResponseMsg err;
      if (!net::Decode(frame->body.data(), frame->body.size(), &err).ok()) {
        return Outcome::kError;
      }
      switch (err.code) {
        case net::WireError::kOverloaded: return Outcome::kShed;
        case net::WireError::kAdmissionRejected:
        case net::WireError::kQueueFull: return Outcome::kRejected;
        case net::WireError::kDeadlineExceeded: return Outcome::kTimeout;
        default: return Outcome::kError;
      }
    }
    net::ScheduleSummary got;
    if (frame->type == net::MsgType::kSolveOk && !s.lookup) {
      net::SolveResponseMsg resp;
      if (!net::Decode(frame->body.data(), frame->body.size(), &resp).ok()) {
        return Outcome::kError;
      }
      s.cache_hit = resp.cache_hit;
      got = resp.summary;
      // cold must never be served from the cache.
      if (in_.workload == Workload::kCold && resp.cache_hit) {
        return Outcome::kWrong;
      }
    } else if (frame->type == net::MsgType::kLookupOk && s.lookup) {
      net::LookupResponseMsg resp;
      if (!net::Decode(frame->body.data(), frame->body.size(), &resp).ok()) {
        return Outcome::kError;
      }
      s.found = resp.found;
      // Every hit lookup targets a seeded problem.
      if (!resp.found) {
        return in_.workload == Workload::kHit ? Outcome::kWrong : Outcome::kOk;
      }
      got = resp.summary;
    } else {
      return Outcome::kError;
    }
    // The key check is separate so a wrong fingerprint reads as such.
    const Problem& p = in_.problems[s.problem];
    if (got.fingerprint_hex != p.key_hex) return Outcome::kWrong;
    if (!SameAnswer(got, p.reference)) return Outcome::kWrong;
    return Outcome::kOk;
  }

  Inputs& in_;
  std::vector<std::vector<std::uint8_t>> bodies_;
  std::unique_ptr<net::AsyncClient> client_;
  std::vector<Slot> slots_;
  std::atomic<std::size_t> completed_{0};
  std::size_t cursor_ = 0;
  std::vector<Span>* spans_ = nullptr;
};

void PrintPhase(const char* label, const PhaseStats& st, bool pass) {
  std::fprintf(stderr,
               "  %-9s rate %9.1f/s  n %7zu  p50 %7.3f ms  p99 %8.3f ms "
               "(all %8.3f, %zu windows)  last-quarter p99 %8.3f ms  refused "
               "%zu  failed %zu  pacer late p90 %6.1f us max %8.1f us  "
               "server cpu %8.2f us/op  %s\n",
               label, st.rate, st.sent, st.p50_ms, st.p99_ms, st.all_p99_ms,
               st.windows, st.late_quarter_p99_ms, st.shed + st.rejected,
               st.failed(), st.gen_late_p90_us, st.gen_late_max_us,
               st.ok > 0 ? st.server_cpu_s * 1e6 / static_cast<double>(st.ok)
                         : 0.0,
               pass ? "pass" : "FAIL");
}

/// A step meets the limit when nothing failed, p99 over the step and over
/// its last quarter stay within the limit, and the generator kept its
/// schedule: a step where the pacer ran more than kPacerBehindUs late at
/// p90 never counts (a healthy pacer is ~10 us late at p90).
constexpr double kPacerBehindUs = 500;

bool StepPasses(const PhaseStats& st, const WorkloadSpec& spec) {
  return st.failed() == 0 && st.p99_ms <= spec.limit_ms &&
         st.late_quarter_p99_ms <= spec.limit_ms &&
         st.gen_late_p90_us <= kPacerBehindUs;
}

/// The generator is one process with kGeneratorThreads threads and
/// kConnections connections; it must not oversubscribe the host. Also
/// sets the pacer's timer slack to 1 ns (the default 50 us would dominate
/// a ~30 us hit).
Status PrepareGenerator() {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (kGeneratorThreads + kConnections > nproc) {
    return FailedPreconditionError(
        "generator needs " + std::to_string(kGeneratorThreads) +
        " threads + " + std::to_string(kConnections) +
        " connection(s) but the host has " + std::to_string(nproc) +
        " CPUs");
  }
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  return OkStatus();
}

struct SetUpTime {
  /// Launch to ready, on the wall clock.
  double wall_s = 0;
  /// CPU time the server spent from launch to ready, every thread.
  double server_cpu_s = 0;
};

/// One set-up: launch the server, wait for HEALTH and seed the warm state.
/// Returns its duration.
Expected<SetUpTime> SetUp(Generator& gen, const ServerConfig& config,
                          const Inputs& inputs,
                          std::unique_ptr<ServerProcess>* server,
                          std::vector<net::ScheduleSummary>* answers) {
  const std::int64_t t0 = NowNs();
  auto launched = ServerProcess::Launch(config);
  if (!launched.ok()) return launched.status();
  *server = std::move(*launched);
  SS_RETURN_IF_ERROR(gen.Connect((*server)->port()));
  auto health = gen.client().Health();
  if (!health.ok()) return health.status();
  if (health->state != "ok") return InternalError("server not healthy");
  SS_RETURN_IF_ERROR(gen.Seed(inputs.seed_set, answers));
  return SetUpTime{static_cast<double>(NowNs() - t0) * 1e-9,
                   (*server)->CpuSeconds()};
}

}  // namespace

ServerConfig ServerConfigFor(const Options& options, const Inputs& inputs) {
  ServerConfig config;
  config.binary = options.ssched;
  if (!inputs.tenant_config.empty()) {
    config.tenants_file = options.trace_out + "." +
                          WorkloadName(inputs.workload) + ".tenants";
    std::ofstream(config.tenants_file) << inputs.tenant_config;
  }
  return config;
}

Expected<TcpPass> RunTcpPass(const Options& options, Inputs* inputs,
                             double phase_s, std::vector<Span>* spans) {
  SS_RETURN_IF_ERROR(PrepareGenerator());
  const WorkloadSpec& spec = SpecFor(inputs->workload);
  Generator gen(inputs);
  std::unique_ptr<ServerProcess> server;
  std::vector<net::ScheduleSummary> seeded;
  auto took = SetUp(gen, ServerConfigFor(options, *inputs), *inputs, &server,
                    &seeded);
  if (!took.ok()) return took.status();
  TcpPass pass;
  for (std::size_t i = 0; i < seeded.size(); ++i) {
    if (!SameAnswer(seeded[i],
                    inputs->problems[inputs->seed_set[i]].reference)) {
      ++pass.wrong;
    }
  }
  std::vector<double> rtt_us;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = NowNs();
    auto health = gen.client().Health();
    if (!health.ok()) return health.status();
    rtt_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  pass.rtt_floor_us = Median(rtt_us);
  auto counts0 = ReadServerCounts(gen.client());
  if (!counts0.ok()) return counts0.status();
  const auto per_phase =
      static_cast<std::size_t>(spec.reference_rate * phase_s) + 1;
  SS_RETURN_IF_ERROR(gen.EnsureStream(2 * per_phase, options.seed));
  const PhaseStats plain = gen.RunPhase(spec.reference_rate, phase_s,
                                        kLatencyBurstNs, server.get());
  auto counts1 = ReadServerCounts(gen.client());
  if (!counts1.ok()) return counts1.status();
  spans->reserve(spans->size() + plain.sent + 16);
  gen.set_spans(spans);
  const PhaseStats traced = gen.RunPhase(spec.reference_rate, phase_s,
                                         kLatencyBurstNs, server.get());
  gen.set_spans(nullptr);
  gen.Close();
  SS_RETURN_IF_ERROR(server->Stop());
  pass.p50_ms = plain.p50_ms;
  pass.p99_ms = plain.p99_ms;
  pass.traced_p50_ms = traced.p50_ms;
  pass.hit_ratio = static_cast<double>(plain.cache_hits + plain.found) /
                   static_cast<double>(plain.sent);
  pass.shed = plain.shed + traced.shed;
  pass.rejected = plain.rejected + traced.rejected;
  pass.wrong += plain.wrong + traced.wrong + plain.errors + traced.errors +
                plain.timeouts + traced.timeouts;
  pass.solves = counts1->solves - counts0->solves;
  pass.coalesced = counts1->coalesced - counts0->coalesced;
  pass.retries = counts1->retries - counts0->retries;
  pass.protocol_errors = counts1->protocol_errors - counts0->protocol_errors;
  return pass;
}

int RunTimed(const Options& options) {
  const WorkloadSpec& spec = SpecFor(options.workload);
  const char* name = WorkloadName(options.workload);
  if (Status s = PrepareGenerator(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 3;
  }

  // Time plan: set-ups, then 65% reference segments interleaved with 25%
  // capacity search. Only the reference segments feed gated metrics.
  const double step_s = spec.step_s;
  const double search_s = options.seconds * 0.25;
  const double reference_s = std::max(1.0, options.seconds * 0.65);
  auto inputs = MakeInputs(options.workload, options.seed, 0);
  if (!inputs.ok()) {
    std::fprintf(stderr, "error: inputs: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  const ServerConfig config = ServerConfigFor(options, *inputs);
  Generator gen(&*inputs);
  RunResult result;

  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "error: %s: %s\n", name, what.c_str());
    return 1;
  };

  // ---- Set-up of the measured server. ----------------------------------
  // Every set-up, this one and the side set-ups of the segments, adds a
  // sample of its duration and of the warm server's footprint, taken
  // before any open-loop traffic (a stall of the host during a phase
  // queues requests and grows buffers by however long it lasted).
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  std::vector<double> rss_mb;
  auto set_up = [&](std::unique_ptr<ServerProcess>* into) -> Status {
    std::vector<net::ScheduleSummary> answers;
    auto took = SetUp(gen, config, *inputs, into, &answers);
    if (!took.ok()) return took.status();
    setup_cpu_s.push_back(took->server_cpu_s);
    setup_wall_s.push_back(took->wall_s);
    rss_mb.push_back((*into)->PeakRssMb());
    std::fprintf(stderr,
                 "%s: set-up %.3f s server CPU, %.3f s wall (%.2f MB)\n",
                 name, took->server_cpu_s, took->wall_s, rss_mb.back());
    result.attempted += inputs->seed_set.size();
    // Seeding answers must match the in-process reference, so they repeat
    // on every fresh server, and every later answer (checked against the
    // same reference) equals the seeding answer for its problem.
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (!SameAnswer(answers[i],
                      inputs->problems[inputs->seed_set[i]].reference)) {
        result.correct = false;
        ++result.failed;
      }
    }
    return OkStatus();
  };
  std::unique_ptr<ServerProcess> server;
  if (Status s = set_up(&server); !s.ok()) return fail(s.ToString());
  auto counts0 = ReadServerCounts(gen.client());
  if (!counts0.ok()) return fail(counts0.status().ToString());

  // ---- Reference segments interleaved with the capacity search. -------
  // The VM's neighbours make it noisy for seconds to minutes at a time;
  // kSegments reference segments spread over the run keep one such
  // episode from deciding the run.
  // A segment is a side set-up, a latency phase and a CPU phase (see
  // kCpuBurstNs).
  const double segment_s = reference_s / kSegments;
  std::vector<PhaseStats> segments;
  std::vector<PhaseStats> cpu_segments;
  Status run_ok = OkStatus();
  auto run_segment = [&] {
    // Side set-up: the generator's one connection moves to a fresh server
    // for the set-up, which is then stopped, and back to the measured one.
    gen.Close();
    std::unique_ptr<ServerProcess> side;
    run_ok = set_up(&side);
    gen.Close();
    if (side) {
      Status stopped = side->Stop();
      if (run_ok.ok()) run_ok = stopped;
    }
    if (run_ok.ok()) run_ok = gen.Connect(server->port());
    if (!run_ok.ok()) return;
    for (const double burst_ns : {kLatencyBurstNs, kCpuBurstNs}) {
      const double phase_s =
          segment_s *
          (burst_ns == kCpuBurstNs ? 1 - kLatencyShare : kLatencyShare);
      run_ok = gen.EnsureStream(
          static_cast<std::size_t>(spec.reference_rate * phase_s) + 1,
          options.seed);
      if (!run_ok.ok()) return;
      PhaseStats st = gen.RunPhase(spec.reference_rate, phase_s, burst_ns,
                                   server.get());
      PrintPhase(burst_ns == kCpuBurstNs ? "cpu" : "latency", st,
                 st.failed() == 0);
      result.attempted += st.sent;
      result.failed += st.failed();
      if (st.wrong != 0) result.correct = false;
      (burst_ns == kCpuBurstNs ? cpu_segments : segments)
          .push_back(std::move(st));
    }
  };

  // Capacity: open-loop steps (see the search below). The estimate
  // interpolates p99 between the highest passing and the lowest failing
  // rate.
  std::fprintf(stderr, "%s: reference rate %.0f/s, capacity limit p99 <= "
               "%.1f ms\n", name, spec.reference_rate, spec.limit_ms);
  double lo = 0, lo_p99 = 0, hi = 0, hi_p99 = 0;
  std::size_t steps = 0;
  const std::size_t max_steps =
      static_cast<std::size_t>(std::max(4.0, search_s / step_s));
  std::size_t probe_refused = 0;
  // A failing step is run once more and counts as failed only if it fails
  // again: a VM preemption must not end the climb.
  auto run_step = [&](double r) {
    bool pass = false;
    PhaseStats st;
    for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
      // Segments fall evenly between the steps.
      while (run_ok.ok() && segments.size() < kSegments &&
             segments.size() * max_steps <= steps * kSegments) {
        run_segment();
      }
      if (run_ok.ok()) {
        run_ok = gen.EnsureStream(
            static_cast<std::size_t>(r * step_s) + 1, options.seed);
      }
      if (!run_ok.ok()) return false;
      st = gen.RunPhase(r, step_s, kLatencyBurstNs, server.get());
      pass = StepPasses(st, spec);
      PrintPhase("step", st, pass);
      result.attempted += st.sent;
      result.failed += st.wrong;
      if (st.wrong != 0) result.correct = false;
      if (!pass) probe_refused += st.shed + st.rejected + st.timeouts + st.errors;
      ++steps;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (pass) {
      if (r > lo) {
        lo = r;
        lo_p99 = st.p99_ms;
      }
    } else if (hi == 0 || r < hi) {
      hi = r;
      hi_p99 = st.p99_ms;
    }
    return pass;
  };
  // lo is the highest rate that passed, hi the lowest that failed since.
  // Step down x0.8 from the start rate while it fails, climb x1.25 while
  // steps pass, bisect to 1%, and spend the steps left retrying hi: the
  // neighbours' noise only ever fails a step, so a failure that passes
  // later was noise, raises lo and reopens the climb.
  while (run_ok.ok() && steps < max_steps) {
    double r = 0;
    if (lo == 0) {
      r = hi == 0 ? spec.start_rate : hi * 0.8;
      if (r < spec.start_rate / 16) break;
    } else if (hi == 0) {
      if (lo >= spec.max_rate) break;
      r = std::min(lo * 1.25, spec.max_rate);
    } else if (hi / lo > 1.01) {
      r = std::sqrt(lo * hi);
    } else {
      r = hi;
    }
    if (run_step(r) && r >= hi) hi = 0;
  }
  while (run_ok.ok() && segments.size() < kSegments) run_segment();
  if (!run_ok.ok()) return fail(run_ok.ToString());
  if (lo == 0) return fail("no rate met the latency limit");
  double capacity = lo;
  if (hi > lo && std::isfinite(hi_p99) && hi_p99 > lo_p99) {
    const double f =
        std::clamp((spec.limit_ms - lo_p99) / (hi_p99 - lo_p99), 0.0, 1.0);
    capacity = lo + (hi - lo) * f;
  }

  auto counts1 = ReadServerCounts(gen.client());
  if (!counts1.ok()) return fail(counts1.status().ToString());
  gen.Close();
  if (Status s = server->Stop(); !s.ok()) return fail(s.ToString());

  // ---- Answer checks that need the server's counts or a reference. ------
  const std::uint64_t solves = counts1->solves - counts0->solves;
  const std::uint64_t protocol_errors =
      counts1->protocol_errors - counts0->protocol_errors;
  std::fprintf(stderr,
               "%s: server counts over the measured phases: solves %llu "
               "coalesced %llu retries %llu protocol_errors %llu\n",
               name, static_cast<unsigned long long>(solves),
               static_cast<unsigned long long>(counts1->coalesced -
                                               counts0->coalesced),
               static_cast<unsigned long long>(counts1->retries -
                                               counts0->retries),
               static_cast<unsigned long long>(protocol_errors));
  // cold answers served from the cache already failed as wrong answers.
  const bool layers_ok =
      protocol_errors == 0 &&
      (options.workload != Workload::kHit || solves == 0);
  if (!layers_ok) {
    std::fprintf(stderr, "error: %s did not exercise the layers it is for\n",
                 name);
    result.correct = false;
  }
  std::vector<double> p50, p99, cpu_us;
  std::size_t samples = 0, hits = 0;
  for (const PhaseStats& st : segments) {
    p50.push_back(st.p50_ms);
    p99.push_back(st.p99_ms);
    samples += st.sent;
    hits += st.cache_hits + st.found;
  }
  for (const PhaseStats& st : cpu_segments) {
    // A server that answers nothing must not read as one that costs
    // nothing.
    if (st.ok == 0) return fail("a CPU phase completed no request");
    cpu_us.push_back(st.server_cpu_s * 1e6 / static_cast<double>(st.ok));
  }
  std::fprintf(stderr,
               "%s: reference %zu latency segments, %zu samples (%zu per "
               "segment, %zu beyond each p99), hit ratio %.3f; probe "
               "refusals above capacity %zu\n",
               name, segments.size(), samples, samples / segments.size(),
               samples / segments.size() / 100,
               static_cast<double>(hits) / static_cast<double>(samples),
               probe_refused);
  // Set-up is gated as the server's CPU time from launch to ready: the
  // VM's neighbours stretch wall-clock set-ups for minutes at a time, far
  // more than the CPU time the same work takes (see README.md). Wall-clock
  // set-up and latency are reported as the lower quartile over the samples
  // spread over the run: that noise only ever adds time, so the quieter
  // samples measure the server, and a regression moves every sample.
  result.Add("setup_s", Median(setup_cpu_s), "s");
  result.Add("cpu_us_per_op", Median(cpu_us), "us");
  result.Add("peak_rss_mb", Median(rss_mb), "MB");
  result.Report("setup_wall_s", Percentile(setup_wall_s, 25), "s");
  result.Report("capacity_per_s", capacity, "req/s");
  result.Report("lat_p50_ms", Percentile(p50, 25), "ms");
  result.Report("lat_p99_ms", Percentile(p99, 25), "ms");
  std::printf("%s/requests attempted %llu succeeded %llu failed %llu\n", name,
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.attempted -
                                              result.failed),
              static_cast<unsigned long long>(result.failed));
  return (PrintResult(name, result) && result.correct) ? 0 : 1;
}

}  // namespace ss::perfbench

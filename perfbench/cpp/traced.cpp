// Traced run: per-layer metrics. For each workload it replays the seeded
// stream of a timed run in-process, timing calls into each layer's public
// entry points (net codec, graph, TenantScheduler, ScheduleService,
// ScheduleCache, OptimalScheduler, ScheduleVerifier), then runs the TCP
// path once untraced and once with a client span per request. It also
// measures the kiosk regimes' thread scaling and sends one
// budget-exhausting problem. Spans stay in memory and are written to
// `<trace-out>.spans.jsonl` at exit.
//
// Every metric is named `<workload>.<layer>.<metric>`, so each traced run
// prints all of them whatever --workload it was given.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "bench.hpp"
#include "graph/op_graph.hpp"
#include "net/async_client.hpp"
#include "sched/occupancy.hpp"
#include "sched/optimal.hpp"
#include "service/schedule_cache.hpp"
#include "service/schedule_service.hpp"
#include "tenant/tenant_service.hpp"
#include "verify/verifier.hpp"

namespace ss::perfbench {

namespace {

/// Requests replayed in-process per workload.
constexpr std::size_t kReplayRequests = 4000;
/// cold's replay: every request is a distinct problem and a full solve.
constexpr std::size_t kColdReplay = 1000;
/// The service queue capacity ssched --serve sets itself (ServeCommand in
/// tools/ssched.cpp); it has no flag.
constexpr std::size_t kServedQueueCapacity = 256;

class TraceLog {
 public:
  /// Times `fn` as one span and returns its duration in microseconds.
  /// Each pass times one layer's entry point, so spans do not nest (their
  /// parent is -1); a layer's self time is its pass minus the pass below.
  template <typename Fn>
  double Time(const char* name, std::uint64_t request, Fn&& fn) {
    const std::int64_t t0 = NowNs();
    fn();
    const std::int64_t t1 = NowNs();
    spans_.push_back(Span{name, t0, t1, -1, request});
    return static_cast<double>(t1 - t0) * 1e-3;
  }
  void Add(const Span& span) { spans_.push_back(span); }
  std::vector<Span>* spans() { return &spans_; }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}\n";
    }
    if (!out) return InternalError("cannot write " + path);
    return OkStatus();
  }

 private:
  std::vector<Span> spans_;
};

struct Solved {
  std::shared_ptr<const graph::ProblemSpec> spec;
  std::shared_ptr<service::CachedSolve> artifact;
};

/// A served-like request: the parsed problem with its fingerprint
/// supplied, as net::Server's parse memo hands it to the tenant layer.
service::SolveRequest MakeRequest(const Solved& solved,
                                  const graph::Fingerprint& fp) {
  service::SolveRequest request;
  request.problem = solved.spec;
  request.problem_fingerprint = fp;
  request.has_problem_fingerprint = true;
  request.regime = RegimeId(0);
  return request;
}

/// Sleeps until `due_ns` (open-loop pacing of the in-process passes).
void PaceTo(std::int64_t due_ns) {
  const std::int64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

class Replay {
 public:
  Replay(Workload w, Inputs* inputs, TraceLog* log, RunResult* result)
      : w_(w), in_(*inputs), log_(*log), result_(*result),
        prefix_(std::string(WorkloadName(w)) + ".") {
    const std::size_t n = w == Workload::kCold
                              ? std::min(kColdReplay, in_.stream.size())
                              : std::min(kReplayRequests, in_.stream.size());
    requests_.assign(in_.stream.begin(),
                     in_.stream.begin() + static_cast<std::ptrdiff_t>(n));
  }

  void Metric(const std::string& name, double value, const char* unit) {
    result_.Add(prefix_ + name, value, unit);
  }

  Status Run(double pass_s) {
    NetPass();
    SS_RETURN_IF_ERROR(GraphPass());
    SS_RETURN_IF_ERROR(SchedPass());
    VerifyPass();
    CachePass();
    SS_RETURN_IF_ERROR(ServicePass(pass_s));
    SS_RETURN_IF_ERROR(TenantPass(pass_s));
    return OkStatus();
  }

  /// Sum of the p50 self times along the request path, for the
  /// accounting check against the TCP pass's lat_p50.
  double PathSumUs(double rtt_floor_us) const {
    double sum = rtt_floor_us + decode_us_ + encode_us_;
    if (w_ == Workload::kHit) return sum + submit_us_;
    return sum + parse_us_ + fingerprint_us_ + tenant_wait_us_ +
           service_wait_us_ + solve_us_;
  }

 private:
  // net: the server's decode of each request frame and encode of its
  // answer.
  void NetPass() {
    std::vector<double> decode_us;
    std::vector<double> encode_us;
    std::uint64_t id = 1;
    for (const Request& r : requests_) {
      const auto type = r.verb == Verb::kSolve ? net::MsgType::kSolve
                                               : net::MsgType::kLookup;
      const std::vector<std::uint8_t> wire = net::EncodeFrame(
          type, EncodeRequestBody(in_, r), net::kProtocolVersion2, id);
      net::FrameDecoder decoder;
      decoder.Append(wire.data(), wire.size());
      decode_us.push_back(log_.Time("net.decode", id, [&] {
        net::Frame frame;
        (void)decoder.Next(&frame);
        if (r.verb == Verb::kSolve) {
          net::SolveRequestMsg msg;
          (void)net::Decode(frame.body.data(), frame.body.size(), &msg);
        } else {
          net::LookupRequestMsg msg;
          (void)net::Decode(frame.body.data(), frame.body.size(), &msg);
        }
      }));
      net::SolveResponseMsg resp;
      resp.summary.fingerprint_hex = in_.problems[r.problem].key_hex;
      encode_us.push_back(log_.Time("net.encode", id, [&] {
        const auto frame =
            net::EncodeFrame(net::MsgType::kSolveOk, net::EncodeBody(resp),
                             net::kProtocolVersion2, id);
        (void)frame;
      }));
      ++id;
    }
    decode_us_ = Median(decode_us);
    encode_us_ = Median(encode_us);
    Metric("net.decode_us", decode_us_, "us");
    Metric("net.encode_us", encode_us_, "us");
  }

  // graph: one parse and fingerprint per distinct text.
  Status GraphPass() {
    std::set<std::uint32_t> distinct;
    for (const Request& r : requests_) distinct.insert(r.problem);
    Metric("graph.distinct_share",
           static_cast<double>(distinct.size()) /
               static_cast<double>(requests_.size()),
           "ratio");
    std::vector<double> parse_us;
    std::vector<double> fp_us;
    for (std::uint32_t p : distinct) {
      Expected<graph::ProblemSpec> parsed = InternalError("unparsed");
      parse_us.push_back(log_.Time("graph.parse", p, [&] {
        parsed = graph::ParseProblem(in_.problems[p].text);
      }));
      if (!parsed.ok()) return parsed.status();
      graph::Fingerprint fp;
      fp_us.push_back(log_.Time("graph.fingerprint", p, [&] {
        fp = graph::Fingerprint(*parsed);
      }));
      Solved& s = solved_[p];
      s.spec = std::make_shared<const graph::ProblemSpec>(std::move(*parsed));
      fingerprints_[p] = fp;
    }
    parse_us_ = Median(parse_us);
    fingerprint_us_ = Median(fp_us);
    if (w_ != Workload::kHit) {
      Metric("graph.parse_us_p50", parse_us_, "us");
      Metric("graph.parse_us_p99", Percentile(parse_us, 99), "us");
      Metric("graph.fingerprint_us", fingerprint_us_, "us");
    }
    return OkStatus();
  }

  // sched: the serial search per distinct problem, as the server runs it.
  Status SchedPass() {
    std::vector<double> solve_us;
    std::vector<double> nodes;
    std::vector<double> ns_per_node;
    std::uint64_t exhausted = 0;
    for (auto& [p, s] : solved_) {
      const graph::ProblemSpec& spec = *s.spec;
      sched::OptimalScheduler scheduler(spec.graph, spec.costs, spec.comm,
                                        spec.machine);
      sched::OptimalOptions options;
      options.solver_threads = 1;
      Expected<sched::OptimalResult> result = InternalError("unsolved");
      const double us = log_.Time("sched.solve", p, [&] {
        result = scheduler.Schedule(RegimeId(0), options);
      });
      if (!result.ok()) return result.status();
      solve_us.push_back(us);
      nodes.push_back(static_cast<double>(result->nodes_explored));
      ns_per_node.push_back(us * 1e3 /
                            static_cast<double>(result->nodes_explored));
      exhausted += result->budget_exhausted;
      auto artifact = std::make_shared<service::CachedSolve>();
      service::SolveRequest request = MakeRequest(s, fingerprints_[p]);
      artifact->key = service::ScheduleService::RequestKey(request);
      artifact->regime = RegimeId(0);
      artifact->schedule = result->best;
      artifact->min_latency = result->min_latency;
      artifact->stats = result->Stats();
      const graph::OpGraph og = graph::OpGraph::Expand(
          spec.graph, spec.costs, RegimeId(0),
          artifact->schedule.iteration.variants());
      artifact->occupancy =
          sched::AnalyzeOccupancy(spec.graph, og, artifact->schedule);
      s.artifact = std::move(artifact);
    }
    solve_us_ = Median(solve_us);
    if (w_ != Workload::kHit) {
      Metric("sched.solve_us_p50", solve_us_, "us");
      Metric("sched.solve_us_p99", Percentile(solve_us, 99), "us");
      Metric("sched.nodes", Median(nodes), "count");
      Metric("sched.ns_per_node", Median(ns_per_node), "ns");
      Metric("sched.budget_exhausted", static_cast<double>(exhausted),
             "count");
    }
    return OkStatus();
  }

  // verify: the full artifact check of every schedule the workload serves.
  void VerifyPass() {
    std::vector<double> us;
    std::uint64_t dirty = 0;
    for (auto& [p, s] : solved_) {
      const verify::ScheduleVerifier verifier(*s.spec, RegimeId(0));
      us.push_back(log_.Time("verify.artifact", p, [&] {
        const verify::VerifyReport report = verifier.VerifyArtifact(
            s.artifact->schedule, s.artifact->min_latency,
            &s.artifact->occupancy);
        dirty += report.ok() ? 0 : 1;
      }));
    }
    if (dirty != 0) result_.correct = false;
    Metric("verify.artifact_us", Median(us), "us");
  }

  // service cache: probe on a hit; insert into a full cache.
  void CachePass() {
    const service::ServiceOptions served = ServedOptions();
    service::ScheduleCache cache(served.cache_capacity,
                                 static_cast<std::size_t>(served.cache_shards));
    for (auto& [p, s] : solved_) cache.Insert(s.artifact);
    std::vector<double> probe_us;
    std::vector<double> insert_us;
    for (const Request& r : requests_) {
      const Solved& s = solved_[r.problem];
      if (w_ == Workload::kCold) {
        insert_us.push_back(log_.Time("service.cache_insert", r.problem,
                                      [&] { cache.Insert(s.artifact); }));
      } else {
        probe_us.push_back(log_.Time("service.cache_probe", r.problem, [&] {
          (void)cache.Lookup(s.artifact->key);
        }));
      }
    }
    if (w_ == Workload::kChurn) {
      // Inserting the universe's other problems into the full cache.
      for (auto& [p, s] : solved_) {
        insert_us.push_back(log_.Time("service.cache_insert", p,
                                      [&] { cache.Insert(s.artifact); }));
      }
    }
    if (!probe_us.empty()) {
      Metric("service.cache_probe_us", Median(probe_us), "us");
    }
    if (!insert_us.empty()) {
      Metric("service.cache_insert_us", Median(insert_us), "us");
    }
  }

  /// Seeds a fresh service the way a timed run's set-up does.
  Status SeedService(service::ScheduleService* svc) {
    for (std::uint32_t p : in_.seed_set) {
      auto it = solved_.find(p);
      std::shared_ptr<const graph::ProblemSpec> spec;
      graph::Fingerprint fp;
      if (it != solved_.end()) {
        spec = it->second.spec;
        fp = fingerprints_[p];
      } else {
        auto parsed = graph::ParseProblem(in_.problems[p].text);
        if (!parsed.ok()) return parsed.status();
        fp = graph::Fingerprint(*parsed);
        spec = std::make_shared<const graph::ProblemSpec>(std::move(*parsed));
      }
      Solved tmp;
      tmp.spec = spec;
      auto r = svc->Solve(MakeRequest(tmp, fp));
      if (!r.ok()) return r.status();
    }
    return OkStatus();
  }

  /// What ssched --serve builds from the served flags; the cache keeps
  /// the ServiceOptions defaults, as the server does.
  static service::ServiceOptions ServedOptions() {
    service::ServiceOptions options;
    options.workers = kServedWorkers;
    options.queue_capacity = kServedQueueCapacity;
    options.solver_threads = kServedSolverThreads;
    return options;
  }

  // service: SubmitAsync -> ready at the reference rate; the wait is that
  // span minus the solve's own wall time. Lookup on a hit.
  Status ServicePass(double pass_s) {
    service::ScheduleService svc(ServedOptions());
    SS_RETURN_IF_ERROR(SeedService(&svc));
    const service::CacheStats cache0 = svc.cache().Stats();
    const double rate = SpecFor(w_).reference_rate;
    const std::size_t n = std::min(
        requests_.size(), static_cast<std::size_t>(rate * pass_s) + 1);
    ready_.assign(n, -1);
    submitted_.assign(n, 0);
    struct Waiting {
      std::size_t i;
      service::SolveFuture future;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Waiting> queue;
    bool done = false;
    std::vector<double> wait_us;
    // The collector polls every outstanding future and stamps each the
    // first time it sees it ready (to within one ~10 us poll), so a short
    // solve that finishes behind a long one keeps its own ready time.
    std::thread collector([&] {
      std::vector<Waiting> outstanding;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          if (outstanding.empty()) {
            cv.wait(lock, [&] { return done || !queue.empty(); });
          }
          for (Waiting& w : queue) outstanding.push_back(std::move(w));
          queue.clear();
          if (done && outstanding.empty()) return;
        }
        for (std::size_t k = 0; k < outstanding.size();) {
          Waiting& w = outstanding[k];
          if (w.future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            ++k;
            continue;
          }
          const std::int64_t now = NowNs();
          ready_[w.i] = now;
          const Expected<service::SolveResult>& r = w.future.get();
          if (r.ok()) {
            wait_us.push_back(
                static_cast<double>(now - submitted_[w.i]) * 1e-3 -
                static_cast<double>((*r)->stats.wall_ticks));
          }
          if (k + 1 != outstanding.size()) {
            outstanding[k] = std::move(outstanding.back());
          }
          outstanding.pop_back();
        }
        if (!outstanding.empty()) {
          std::this_thread::sleep_for(std::chrono::microseconds(2));
        }
      }
    });
    std::vector<double> lookup_us;
    Status submitted = OkStatus();
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < n && submitted.ok(); ++i) {
      PaceTo(t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                            rate));
      const Request& r = requests_[i];
      const service::SolveRequest request =
          MakeRequest(solved_[r.problem], fingerprints_[r.problem]);
      if (r.verb == Verb::kLookup) {
        lookup_us.push_back(log_.Time("service.lookup", i, [&] {
          (void)svc.Lookup(request);
        }));
        continue;
      }
      submitted_[i] = NowNs();
      auto future = svc.SubmitAsync(request);
      if (!future.ok()) {
        submitted = future.status();
        break;
      }
      if (future->wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        continue;  // a hit: no wait
      }
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(Waiting{i, std::move(*future)});
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    }
    collector.join();
    SS_RETURN_IF_ERROR(submitted);
    for (std::size_t i = 0; i < n; ++i) {
      if (ready_[i] >= 0) {
        log_.Add(Span{"service.submit_to_ready", submitted_[i], ready_[i], -1,
                      i});
      }
    }
    service_wait_us_ = wait_us.empty() ? 0.0 : Median(wait_us);
    if (w_ != Workload::kCold) {
      Metric("service.lookup_us", Median(lookup_us), "us");
    }
    if (w_ != Workload::kHit) {
      Metric("service.wait_us_p50", service_wait_us_, "us");
      Metric("service.wait_us_p99", Percentile(wait_us, 99), "us");
      Metric("service.cache_evictions",
             static_cast<double>(svc.cache().Stats().evictions -
                                 cache0.evictions),
             "count");
    }
    svc.Shutdown();
    return OkStatus();
  }

  // tenant: SubmitSolve at the reference rate through a TenantScheduler
  // configured as the server configures it. On a hit the callback runs
  // inline; on a miss the tenant wait is submit->callback minus the
  // service pass's submit->ready for the same request.
  Status TenantPass(double pass_s) {
    service::ScheduleService svc(ServedOptions());
    tenant::TenantSchedulerOptions topts;
    topts.dispatch_threads = kServedWorkers;
    tenant::TenantScheduler tenants(&svc, topts);
    if (!in_.tenant_config.empty()) {
      auto configs = tenant::ParseTenantConfig(in_.tenant_config);
      if (!configs.ok()) return configs.status();
      for (auto& c : *configs) {
        SS_RETURN_IF_ERROR(tenants.RegisterTenant(std::move(c)));
      }
    }
    SS_RETURN_IF_ERROR(SeedService(&svc));
    const double rate = SpecFor(w_).reference_rate;
    const std::size_t n = std::min(ready_.size(),
                                   static_cast<std::size_t>(rate * pass_s) + 1);
    std::vector<std::int64_t> submitted(n, 0);
    // Written by whichever thread runs the callback: inline on a hit, a
    // dispatcher thread on a miss.
    std::vector<std::atomic<std::int64_t>> called(n);
    std::vector<std::atomic<bool>> hit(n);
    for (auto& c : called) c.store(-1);
    std::atomic<std::size_t> pending{0};
    std::vector<double> submit_us;
    std::uint64_t rejected = 0;
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < n; ++i) {
      PaceTo(t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                            rate));
      const Request& r = requests_[i];
      if (r.verb == Verb::kLookup) continue;
      pending.fetch_add(1);
      submitted[i] = NowNs();
      Status s = tenants.SubmitSolve(
          in_.tenants[r.tenant],
          MakeRequest(solved_[r.problem], fingerprints_[r.problem]),
          [&, i](Expected<service::SolveResult>, bool cache_hit) {
            hit[i].store(cache_hit);
            called[i].store(NowNs());
            pending.fetch_sub(1);
          });
      const std::int64_t returned = NowNs();
      if (!s.ok()) {
        ++rejected;
        pending.fetch_sub(1);
        continue;
      }
      if (called[i].load() >= 0 && hit[i].load()) {
        log_.Add(Span{"tenant.submit", submitted[i], returned, -1, i});
        submit_us.push_back(static_cast<double>(returned - submitted[i]) *
                            1e-3);
      }
    }
    while (pending.load() != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::vector<double> wait_us;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t at = called[i].load();
      if (at < 0 || hit[i].load() || ready_[i] < 0) continue;  // not a miss
      log_.Add(Span{"tenant.submit_to_callback", submitted[i], at, -1, i});
      wait_us.push_back(static_cast<double>((at - submitted[i]) -
                                            (ready_[i] - submitted_[i])) *
                        1e-3);
    }
    tenant_wait_us_ = wait_us.empty() ? 0.0 : Median(wait_us);
    submit_us_ = submit_us.empty() ? 0.0 : Median(submit_us);
    if (w_ != Workload::kCold) Metric("tenant.submit_us", submit_us_, "us");
    if (w_ != Workload::kHit) {
      Metric("tenant.wait_us_p50", tenant_wait_us_, "us");
      Metric("tenant.wait_us_p99",
             wait_us.empty() ? 0.0 : Percentile(wait_us, 99), "us");
    }
    if (rejected != 0) result_.correct = false;
    tenants.Shutdown();
    svc.Shutdown();
    return OkStatus();
  }

  const Workload w_;
  Inputs& in_;
  TraceLog& log_;
  RunResult& result_;
  const std::string prefix_;
  std::vector<Request> requests_;
  std::map<std::uint32_t, Solved> solved_;
  std::map<std::uint32_t, graph::Fingerprint> fingerprints_;
  std::vector<std::int64_t> submitted_;
  std::vector<std::int64_t> ready_;
  double decode_us_ = 0, encode_us_ = 0, parse_us_ = 0, fingerprint_us_ = 0,
         solve_us_ = 0, submit_us_ = 0, tenant_wait_us_ = 0,
         service_wait_us_ = 0;
};

/// The kiosk: the paper's tracker, regimes 7 and 8 at the served thread
/// count (nproc) and regime 8 serial.
Status Kiosk(TraceLog* log, RunResult* result) {
  const graph::ProblemSpec built = MakeKioskSpec();
  const std::string text = graph::FormatProblem(built);
  Expected<graph::ProblemSpec> parsed = InternalError("unparsed");
  result->Add("kiosk.graph.parse_us", log->Time("graph.parse", 0, [&] {
    parsed = graph::ParseProblem(text);
  }), "us");
  if (!parsed.ok()) return parsed.status();
  graph::Fingerprint fp;
  result->Add("kiosk.graph.fingerprint_us",
              log->Time("graph.fingerprint", 0,
                        [&] { fp = graph::Fingerprint(*parsed); }),
              "us");
  if (fp != graph::Fingerprint(built)) result->correct = false;
  const graph::ProblemSpec& spec = *parsed;
  sched::OptimalScheduler scheduler(spec.graph, spec.costs, spec.comm,
                                    spec.machine);
  const int threads = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  auto solve = [&](int regime_state, int solver_threads,
                   sched::OptimalResult* out) -> Expected<double> {
    sched::OptimalOptions options;
    options.solver_threads = solver_threads;
    Expected<sched::OptimalResult> r = InternalError("unsolved");
    const double us = log->Time("sched.solve", regime_state, [&] {
      r = scheduler.Schedule(RegimeId(regime_state - 1), options);
    });
    if (!r.ok()) return r.status();
    *out = std::move(*r);
    return us * 1e-6;
  };
  sched::OptimalResult r7, r8, r8_serial;
  auto t7 = solve(7, threads, &r7);
  if (!t7.ok()) return t7.status();
  auto t8 = solve(8, threads, &r8);
  if (!t8.ok()) return t8.status();
  auto t8s = solve(8, 1, &r8_serial);
  if (!t8s.ok()) return t8s.status();
  // Thread count never changes the answer.
  if (r8.min_latency != r8_serial.min_latency ||
      r8.best.initiation_interval != r8_serial.best.initiation_interval) {
    result->correct = false;
  }
  result->Add("kiosk.sched.r7_s", *t7, "s");
  result->Add("kiosk.sched.r8_s", *t8, "s");
  result->Add("kiosk.sched.speedup_r8", *t8s / *t8, "x");
  result->Add("kiosk.sched.steals", static_cast<double>(r8.steals), "count");
  result->Add("kiosk.sched.nodes",
              static_cast<double>(r8_serial.nodes_explored), "count");
  result->Add("kiosk.sched.ns_per_node",
              *t8s * 1e9 / static_cast<double>(r8_serial.nodes_explored),
              "ns");
  result->Add("kiosk.sched.budget_exhausted",
              static_cast<double>(r7.budget_exhausted + r8.budget_exhausted),
              "count");
  const verify::ScheduleVerifier verifier(spec, RegimeId(7));
  bool clean = false;
  result->Add("kiosk.verify.artifact_us",
              log->Time("verify.artifact", 8, [&] {
                clean = verifier.VerifyArtifact(r8.best, r8.min_latency).ok();
              }),
              "us");
  if (!clean) result->correct = false;
  return OkStatus();
}

/// Sends one budget-exhausting problem to a cold-configured server and
/// reports the quality tag it comes back with (0 = optimal). The server
/// cannot tell an exhausted search from a finished one today, so the
/// count is 1 until that is fixed; it is reported, not gated.
Status ExhaustionProbe(const Options& options, RunResult* result) {
  const graph::ProblemSpec spec = MakeExhaustingSpec(options.seed);
  Inputs in;
  in.workload = Workload::kCold;
  in.tenants = {"probe"};
  Problem p;
  p.text = graph::FormatProblem(spec);
  p.key_hex = RequestKeyHex(spec, 0);
  in.problems.push_back(p);
  // The in-process search confirms the exhaustion while the server works.
  std::future<Expected<sched::OptimalResult>> local =
      std::async(std::launch::async, [&spec] {
        sched::OptimalScheduler scheduler(spec.graph, spec.costs, spec.comm,
                                          spec.machine);
        sched::OptimalOptions o;
        o.solver_threads = 1;
        return scheduler.Schedule(RegimeId(0), o);
      });
  auto server = ServerProcess::Launch(ServerConfigFor(options, in));
  if (!server.ok()) return server.status();
  net::AsyncClientOptions copts;
  copts.io_timeout = ticks::FromSeconds(60);
  net::AsyncClient client(copts);
  SS_RETURN_IF_ERROR(client.Connect("127.0.0.1", (*server)->port()));
  net::SolveRequestMsg msg;
  msg.tenant = "probe";
  msg.problem_text = p.text;
  auto answer = client.Solve(msg);
  client.Close();
  SS_RETURN_IF_ERROR((*server)->Stop());
  Expected<sched::OptimalResult> mine = local.get();
  if (!answer.ok()) return answer.status();
  if (!mine.ok()) return mine.status();
  if (answer->summary.fingerprint_hex != p.key_hex) result->correct = false;
  result->Add("sched.exhausted_tagged_optimal",
              mine->budget_exhausted && answer->summary.quality == 0 ? 1.0
                                                                     : 0.0,
              "count");
  return OkStatus();
}

}  // namespace

int RunTraced(const Options& options) {
  // The service pass polls its futures every few microseconds; the default
  // 50 us timer slack would stretch each poll. Threads inherit the slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  TraceLog log;
  RunResult result;
  // Each replay's service and tenant passes run this long at the
  // workload's reference rate; the TCP passes run this long per phase.
  const double pass_s = std::clamp(options.seconds * 0.05, 0.2, 1.0);
  for (Workload w : {Workload::kHit, Workload::kCold, Workload::kChurn}) {
    const char* name = WorkloadName(w);
    auto inputs = MakeInputs(w, options.seed, kColdReplay);
    if (!inputs.ok()) {
      std::fprintf(stderr, "error: %s inputs: %s\n", name,
                   inputs.status().ToString().c_str());
      return 1;
    }
    Replay replay(w, &*inputs, &log, &result);
    if (Status s = replay.Run(pass_s); !s.ok()) {
      std::fprintf(stderr, "error: %s replay: %s\n", name,
                   s.ToString().c_str());
      return 1;
    }
    // The TCP pass sends the stream from its start again, so cold's
    // problems must be fresh to the new server: they are, one server per
    // pass.
    auto tcp = RunTcpPass(options, &*inputs, pass_s, log.spans());
    if (!tcp.ok()) {
      std::fprintf(stderr, "error: %s tcp pass: %s\n", name,
                   tcp.status().ToString().c_str());
      return 1;
    }
    const std::string prefix = std::string(name) + ".";
    result.Add(prefix + "net.shed", static_cast<double>(tcp->shed), "count");
    result.Add(prefix + "net.protocol_errors",
               static_cast<double>(tcp->protocol_errors), "count");
    result.Add(prefix + "tenant.rejected", static_cast<double>(tcp->rejected),
               "count");
    result.Add(prefix + "service.hit_ratio", tcp->hit_ratio, "ratio");
    result.Add(prefix + "service.solves", static_cast<double>(tcp->solves),
               "count");
    if (w != Workload::kHit) {
      result.Add(prefix + "service.coalesced",
                 static_cast<double>(tcp->coalesced), "count");
      result.Add(prefix + "service.retries",
                 static_cast<double>(tcp->retries), "count");
    }
    if (tcp->wrong != 0 || tcp->protocol_errors != 0) result.correct = false;
    if (w == Workload::kHit) {
      result.Add("hit.net.rtt_floor_us", tcp->rtt_floor_us, "us");
    }
    if (w != Workload::kChurn) {
      // Accounting: p50 self times along the request path against the
      // untraced TCP p50; the client spans' cost is the tracing overhead.
      const double lat_us = tcp->p50_ms * 1e3;
      const double sum_us = replay.PathSumUs(tcp->rtt_floor_us);
      result.Add(prefix + "trace.lat_p50_us", lat_us, "us");
      result.Add(prefix + "trace.lat_p99_us", tcp->p99_ms * 1e3, "us");
      result.Add(prefix + "trace.layer_sum_us", sum_us, "us");
      result.Add(prefix + "trace.unaccounted_share",
                 lat_us > 0 ? 1.0 - sum_us / lat_us : 0.0, "ratio");
      result.Add(prefix + "trace.overhead_us",
                 (tcp->traced_p50_ms - tcp->p50_ms) * 1e3, "us");
      if (lat_us > 0 && std::abs(1.0 - sum_us / lat_us) > 0.15) {
        std::fprintf(stderr,
                     "%s: layer self times sum to %.1f us against a p50 of "
                     "%.1f us: %.0f%% unaccounted\n",
                     name, sum_us, lat_us, 100.0 * (1.0 - sum_us / lat_us));
      }
    }
  }
  if (Status s = Kiosk(&log, &result); !s.ok()) {
    std::fprintf(stderr, "error: kiosk: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = ExhaustionProbe(options, &result); !s.ok()) {
    std::fprintf(stderr, "error: exhaustion probe: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  if (Status s = log.Write(options.trace_out + ".spans.jsonl"); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  result.attempted = log.spans()->size();
  return (PrintResult("trace", result) && result.correct) ? 0 : 1;
}

}  // namespace ss::perfbench

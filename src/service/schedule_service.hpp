// Scheduler-as-a-service: a front end over the Fig. 6 optimal scheduler
// with a fingerprint-keyed schedule cache.
//
// The service accepts synchronous, asynchronous and run-on-caller Solve
// requests with per-request deadlines. Requests are keyed by the canonical
// fingerprint of (problem, regime, scheduler options):
//
//   * cache hit      -> the stored schedule is returned immediately;
//   * in-flight hit  -> the request coalesces onto the running solve
//                       (single-flight: N concurrent identical requests cost
//                       one solver invocation);
//   * otherwise      -> one job body solves it, on a worker thread
//                       (SubmitAsync) or on the caller's (SolveOnCaller).
//
// Backpressure is typed, not fatal: a full request queue rejects with
// kWouldBlock, a request whose deadline passes before its solve starts
// (or before the solve ends: Solve stops waiting, SolveOnCaller answers
// when it ends) fails with kDeadlineExceeded, and shutdown drains the
// queue with kCancelled. Every path counts itself in the service's
// metrics registry (metrics()), which the STATS verb reports.
//
// SubmitAsync jobs are tasks on the shared ss::WorkerPool, started on first
// use (core/worker_pool.hpp); the same pool primitive runs the parallel
// branch-and-bound subtrees inside each solve.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/deadline.hpp"
#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/sync.hpp"
#include "core/time.hpp"
#include "core/worker_pool.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph_io.hpp"
#include "sched/optimal.hpp"
#include "service/schedule_cache.hpp"

namespace ss::service {

struct ServiceOptions {
  /// SubmitAsync worker threads. 0 is a valid (paused) configuration:
  /// requests queue up but are only resolved by cache hits — used by tests
  /// and for staged startup.
  int workers = 2;
  /// Bounded SubmitAsync queue depth; submissions beyond it are rejected
  /// with kWouldBlock (backpressure).
  std::size_t queue_capacity = 64;
  std::size_t cache_capacity = 256;
  int cache_shards = 8;
  /// Default branch-and-bound thread count applied to every solve whose
  /// request left OptimalOptions::solver_threads at its unset sentinel
  /// (sched::kSolverThreadsUnset); a request that asks for a specific count
  /// — including an explicit 1 for serial — keeps it. Thread count never
  /// changes solver results, so it is excluded from the request key and
  /// safe to vary per deployment.
  int solver_threads = 1;
  /// When non-empty, a cache snapshot is loaded from this path on
  /// construction (if present) and saved back on Shutdown(), so a restarted
  /// service starts warm.
  std::string snapshot_path;
  /// Per-invocation solver budget: a branch-and-bound solve still running
  /// this many ticks after it starts stops itself at that time limit
  /// (OptimalOptions::stop_at; the search keeps its best incumbent, which
  /// is served tagged kHeuristic). kTickInfinity disables the watchdog.
  Tick solver_watchdog = kTickInfinity;
};

struct SolveRequest {
  std::shared_ptr<const graph::ProblemSpec> problem;
  /// Optional precomputed graph::Fingerprint(*problem). Hashing the whole
  /// problem dominates the cache-hit request cost, and front ends that
  /// memoize parsed problems (net::Server) already know the answer; it
  /// must be exactly Fingerprint(*problem) or cache keys diverge. Unset
  /// (has_problem_fingerprint false) means the service computes it.
  graph::Fingerprint problem_fingerprint{};
  bool has_problem_fingerprint = false;
  RegimeId regime{0};
  sched::OptimalOptions options;
  /// Absolute deadline in WallNow() ticks; kTickInfinity = none. A request
  /// still queued past its deadline fails with kDeadlineExceeded.
  Tick deadline = kTickInfinity;
  /// Graceful degradation: when true, the solve stops shortly before the
  /// deadline and a search stopped by its time limit serves its best
  /// incumbent (the list-scheduler seed when the deadline had already
  /// passed); a solve that fails is answered with a list-scheduler result.
  /// Either is tagged ScheduleQuality::kHeuristic instead of an error.
  /// Degraded results are never cached, so a later unhurried request still
  /// gets the optimum.
  bool allow_degraded = false;
};

using SolveResult = std::shared_ptr<const CachedSolve>;
using SolveFuture = std::shared_future<Expected<SolveResult>>;
using SolveCallback = std::function<void(Expected<SolveResult>)>;

class ScheduleService {
 public:
  explicit ScheduleService(ServiceOptions options = {});
  ~ScheduleService();

  ScheduleService(const ScheduleService&) = delete;
  ScheduleService& operator=(const ScheduleService&) = delete;

  /// Full request key: the problem's canonical fingerprint extended with
  /// regime and the scheduler options that shape the result.
  static graph::Fingerprint RequestKey(const SolveRequest& request);

  /// Enqueues a solve. Returns a future that yields the cached solve (or a
  /// typed error); returns immediately-failed status for backpressure
  /// (kWouldBlock when the queue is full) and after Shutdown (kCancelled).
  Expected<SolveFuture> SubmitAsync(SolveRequest request);

  /// Synchronous solve: SubmitAsync + wait. Honors request.deadline while
  /// waiting: if the deadline passes first the caller gets
  /// kDeadlineExceeded (the solve keeps running and still warms the cache).
  Expected<SolveResult> Solve(SolveRequest request);

  /// Runs the solve on the calling thread and completes `done` exactly
  /// once, Shutdown() included. A key already in flight joins that solve
  /// and returns at once; the thread running it completes `done`. If the
  /// request's deadline passed by the time the solve ends, `done` gets
  /// kDeadlineExceeded (the result is still cached).
  void SolveOnCaller(SolveRequest request, SolveCallback done);

  /// Cache-only probe: the cached solve for the request's key (restored
  /// artifacts are verified exactly as on the SubmitAsync hit path — a
  /// corrupt one is evicted and reported kCorruptArtifact), or kNotFound
  /// on a miss. Never queues solver work; does not count towards
  /// `requests`.
  Expected<SolveResult> Lookup(const SolveRequest& request);

  /// Every counter of the service and its cache, as `service_*` and
  /// `cache_*` rows (docs/net.md lists them).
  const MetricsRegistry& metrics() const { return metrics_; }
  ScheduleCache& cache() { return cache_; }

  /// Stops workers, fails queued requests with kCancelled, waits for every
  /// running solve (SolveOnCaller ones included) to finish, then saves the
  /// snapshot when configured. SolveOnCaller calls made after it fail with
  /// kCancelled. Idempotent; called by the destructor.
  void Shutdown();

 private:
  struct Job {
    graph::Fingerprint key;
    SolveRequest request;
  };
  /// Key -> everyone waiting on its queued or running solve.
  using FlightMap = std::unordered_map<graph::Fingerprint,
                                       std::vector<SolveCallback>,
                                       graph::FingerprintHash>;

  /// Gate for serving a cache hit: entries restored from a snapshot are
  /// statically verified against the requesting problem spec before first
  /// use (freshly solved entries are born verified and skip this). A hit
  /// that fails is evicted and the request fails with kCorruptArtifact — a
  /// retry re-solves from scratch.
  Status VerifyHit(const graph::Fingerprint& key, const SolveRequest& request,
                   const SolveResult& hit);

  /// Body of one job, on a pool worker or a SolveOnCaller caller:
  /// cancellation / deadline / second-chance-cache checks, then the solve.
  void RunJob(const Job& job) SS_EXCLUDES(mu_);
  void FinishJob(const Job& job, const Expected<SolveResult>& result)
      SS_EXCLUDES(mu_);
  /// The exact solve, stopped at `stop_at`; counts the nodes it explored,
  /// whether its time limit stopped it and whether its node budget ran out.
  Expected<SolveResult> RunSolve(const Job& job, Tick stop_at);

  /// One solve with the resilience stack: its time limit and — for
  /// degradable requests — the heuristic fallback.
  Expected<SolveResult> SolveWithResilience(const Job& job);

  /// Heuristic fallback: list-schedule + pipeline, tagged kHeuristic.
  static Expected<SolveResult> RunDegraded(const graph::Fingerprint& key,
                                           const SolveRequest& request);

  ServiceOptions options_;
  ScheduleCache cache_;

  mutable Mutex mu_;
  /// Single-flight registry.
  FlightMap inflight_ SS_GUARDED_BY(mu_);
  /// Signalled when inflight_ empties; Shutdown() waits on it.
  CondVar drained_cv_;
  bool shutdown_ SS_GUARDED_BY(mu_) = false;
  /// Accepted jobs not yet picked up by a pool thread; bounds the queue.
  std::size_t queued_jobs_ SS_GUARDED_BY(mu_) = 0;
  std::unique_ptr<WorkerPool> pool_ SS_GUARDED_BY(mu_);
  std::atomic<bool> snapshot_saved_{false};

  MetricsRegistry metrics_;
  Counter& requests_ = metrics_.AddCounter("service_requests", "requests");
  Counter& cache_hits_ =
      metrics_.AddCounter("service_cache_hits", "cache hits");
  Counter& lookups_ =
      metrics_.AddCounter("service_lookups", "lookups (cache probes)");
  Counter& lookup_hits_ =
      metrics_.AddCounter("service_lookup_hits", "lookup hits");
  Counter& coalesced_ =
      metrics_.AddCounter("service_coalesced", "coalesced (single-flight)");
  Counter& solves_ =
      metrics_.AddCounter("service_solves", "solver invocations");
  Counter& solve_failures_ =
      metrics_.AddCounter("service_solve_failures", "solver failures");
  Counter& deadline_exceeded_ =
      metrics_.AddCounter("service_deadline_exceeded", "deadline exceeded");
  Counter& queue_rejected_ =
      metrics_.AddCounter("service_queue_rejected", "queue rejected");
  Counter& cancelled_ = metrics_.AddCounter("service_cancelled", "cancelled");
  Counter& corrupt_rejected_ = metrics_.AddCounter(
      "service_corrupt_rejected", "corrupt artifacts rejected");
  Counter& degraded_ =
      metrics_.AddCounter("service_degraded", "degraded (heuristic) serves");
  Counter& watchdog_cancellations_ = metrics_.AddCounter(
      "service_watchdog_cancellations", "watchdog cancellations");
  Counter& snapshot_io_errors_ = metrics_.AddCounter(
      "service_snapshot_io_errors", "snapshot I/O errors");
  Counter& solve_wall_us_ =
      metrics_.AddCounter("service_solve_wall_us", "solver wall time");
  Counter& solver_nodes_ =
      metrics_.AddCounter("service_solver_nodes", "solver nodes explored");
  Counter& solver_budget_exhausted_ = metrics_.AddCounter(
      "service_solver_budget_exhausted", "solves out of node budget");
};

}  // namespace ss::service

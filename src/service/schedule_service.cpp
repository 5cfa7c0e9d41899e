#include "service/schedule_service.hpp"

#include <algorithm>
#include <utility>

#include "graph/op_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/occupancy.hpp"
#include "sched/pipeline.hpp"
#include "verify/verifier.hpp"

namespace ss::service {

ScheduleService::ScheduleService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards) {
  SS_CHECK_MSG(options_.workers >= 0, "negative worker count");
  SS_CHECK_MSG(options_.queue_capacity > 0, "queue capacity must be > 0");
  metrics_.AddGauge("cache_entries", "cache entries", {}, [this] {
    return static_cast<double>(cache_.size());
  });
  metrics_.AddCounterFn("cache_hits", "cache probes that hit", {},
                        [this] { return cache_.Stats().hits; });
  metrics_.AddCounterFn("cache_misses", "cache probes that missed", {},
                        [this] { return cache_.Stats().misses; });
  metrics_.AddCounterFn("cache_insertions", "cache insertions", {},
                        [this] { return cache_.Stats().insertions; });
  metrics_.AddCounterFn("cache_evictions", "cache evictions", {},
                        [this] { return cache_.Stats().evictions; });
  metrics_.AddCounterFn("cache_invalidations", "cache invalidations", {},
                        [this] { return cache_.Stats().invalidations; });
  if (!options_.snapshot_path.empty()) {
    // A missing snapshot just means a cold start. A corrupt or unreadable
    // one must not take the service down either: warn and start cold — the
    // cache is a performance artifact, never the source of truth.
    Status loaded = cache_.Load(options_.snapshot_path);
    if (!loaded.ok() && loaded.code() != StatusCode::kNotFound) {
      std::fprintf(stderr,
                   "warning: ignoring cache snapshot '%s': %s\n",
                   options_.snapshot_path.c_str(),
                   loaded.ToString().c_str());
      cache_.Clear();
    }
  }
}

ScheduleService::~ScheduleService() { Shutdown(); }

graph::Fingerprint ScheduleService::RequestKey(const SolveRequest& request) {
  SS_CHECK(request.problem != nullptr);
  const sched::OptimalOptions& o = request.options;
  // solver_threads is deliberately absent: the parallel search is
  // deterministic across thread counts, so results are interchangeable.
  // The symmetry toggles are present because they determine which
  // representative of each symmetry class appears in the reported set;
  // seeding is absent (it only changes how fast the same result is found).
  const std::uint64_t pruning_bits =
      (o.pruning.proc_symmetry ? 1ULL : 0ULL) |
      (o.pruning.ready_symmetry ? 2ULL : 0ULL) |
      (o.pruning.empty_node_symmetry ? 4ULL : 0ULL);
  const graph::Fingerprint base =
      request.has_problem_fingerprint ? request.problem_fingerprint
                                      : graph::Fingerprint(*request.problem);
  return base.Extended(
      {static_cast<std::uint64_t>(request.regime.value()),
       static_cast<std::uint64_t>(o.max_optimal_schedules), o.max_nodes,
       o.pipeline.allow_rotation ? 1ULL : 0ULL, pruning_bits});
}

Expected<SolveFuture> ScheduleService::SubmitAsync(SolveRequest request) {
  requests_.Inc();
  if (!request.problem) {
    return Status(InvalidArgumentError("request has no problem"));
  }
  const graph::Fingerprint key = RequestKey(request);

  if (auto hit = cache_.Lookup(key)) {
    Status usable = VerifyHit(key, request, hit);
    if (!usable.ok()) return usable;
    cache_hits_.Inc();
    std::promise<Expected<SolveResult>> ready;
    ready.set_value(Expected<SolveResult>(std::move(hit)));
    return ready.get_future().share();
  }

  MutexLock lock(mu_);
  if (shutdown_) {
    return Status(CancelledError("schedule service is shut down"));
  }
  const bool joining = inflight_.contains(key);
  if (!joining && queued_jobs_ >= options_.queue_capacity) {
    queue_rejected_.Inc();
    return Status(WouldBlockError(
        "schedule service queue full (" +
        std::to_string(options_.queue_capacity) + " pending); retry later"));
  }
  auto promise = std::make_shared<std::promise<Expected<SolveResult>>>();
  SolveFuture future = promise->get_future().share();
  inflight_[key].push_back([promise](Expected<SolveResult> result) {
    promise->set_value(std::move(result));
  });
  if (joining) {
    coalesced_.Inc();
    return future;
  }
  ++queued_jobs_;
  // Started on first use; threadless when workers == 0, so that jobs only
  // surface in Shutdown().
  if (!pool_) pool_ = std::make_unique<WorkerPool>(options_.workers);
  pool_->Submit([this, job = Job{key, std::move(request)}] {
    {
      MutexLock picked_up(mu_);
      SS_CHECK(queued_jobs_ > 0);
      --queued_jobs_;
    }
    RunJob(job);
  });
  return future;
}

Expected<SolveResult> ScheduleService::Solve(SolveRequest request) {
  const Deadline deadline = Deadline::AtWall(request.deadline);
  auto submitted = SubmitAsync(std::move(request));
  if (!submitted.ok()) return submitted.status();
  SolveFuture future = *submitted;
  if (!deadline.infinite() &&
      future.wait_until(deadline.time_point()) != std::future_status::ready) {
    deadline_exceeded_.Inc();
    return Status(DeadlineExceededError(
        "solve still running at the request deadline (the result will "
        "warm the cache when it completes)"));
  }
  return future.get();
}

void ScheduleService::SolveOnCaller(SolveRequest request,
                                    SolveCallback done) {
  requests_.Inc();
  if (!request.problem) {
    done(Status(InvalidArgumentError("request has no problem")));
    return;
  }
  Job job{RequestKey(request), std::move(request)};
  if (job.request.deadline != kTickInfinity) {
    // Answered when the solve ends, which may be past the deadline.
    done = [this, deadline = job.request.deadline,
            done = std::move(done)](Expected<SolveResult> result) {
      if (WallNow() > deadline &&
          result.status().code() != StatusCode::kDeadlineExceeded) {
        deadline_exceeded_.Inc();
        result = Status(DeadlineExceededError(
            "solve ended after the request deadline"));
      }
      done(std::move(result));
    };
  }
  MutexLock lock(mu_);
  if (shutdown_) {
    lock.Unlock();
    done(Status(CancelledError("schedule service is shut down")));
    return;
  }
  auto [it, fresh] = inflight_.try_emplace(job.key);
  it->second.push_back(std::move(done));
  if (!fresh) {
    // The flight's own thread completes this request.
    coalesced_.Inc();
    return;
  }
  lock.Unlock();
  RunJob(job);
}

Expected<SolveResult> ScheduleService::Lookup(const SolveRequest& request) {
  lookups_.Inc();
  if (!request.problem) {
    return Status(InvalidArgumentError("request has no problem"));
  }
  const graph::Fingerprint key = RequestKey(request);
  if (auto hit = cache_.Lookup(key)) {
    Status usable = VerifyHit(key, request, hit);
    if (!usable.ok()) return usable;
    lookup_hits_.Inc();
    return Expected<SolveResult>(std::move(hit));
  }
  return Status(NotFoundError("no cached schedule for " + key.ToHex()));
}

namespace {

Status ValidateRegime(const graph::ProblemSpec& spec, RegimeId regime) {
  if (!regime.valid() || regime.index() >= spec.regime_count) {
    return InvalidArgumentError(
        "regime " + std::to_string(regime.value()) +
        " outside the problem's " + std::to_string(spec.regime_count) +
        " regime(s)");
  }
  return OkStatus();
}

/// Subtracted from a degradable request's deadline to get its solve's stop
/// time: time reserved to compose and answer the stopped search's result.
constexpr Tick kDegradedMargin = ticks::FromMillis(2);

}  // namespace

Expected<SolveResult> ScheduleService::RunSolve(const Job& job,
                                                Tick stop_at) {
  const SolveRequest& request = job.request;
  const graph::ProblemSpec& spec = *request.problem;
  SS_RETURN_IF_ERROR(ValidateRegime(spec, request.regime));
  sched::OptimalOptions effective = request.options;
  if (effective.solver_threads == sched::kSolverThreadsUnset) {
    effective.solver_threads = options_.solver_threads;
  }
  effective.stop_at = stop_at;
  sched::OptimalScheduler scheduler(spec.graph, spec.costs, spec.comm,
                                    spec.machine);
  auto result = scheduler.Schedule(request.regime, effective);
  if (!result.ok()) return result.status();
  solver_nodes_.Inc(result->nodes_explored);
  // A stopped search is flagged budget_exhausted as well; count it once.
  if (result->cancelled) {
    watchdog_cancellations_.Inc();
  } else if (result->budget_exhausted) {
    solver_budget_exhausted_.Inc();
  }

  auto solved = std::make_shared<CachedSolve>();
  solved->key = job.key;
  solved->regime = request.regime;
  solved->schedule = std::move(result->best);
  solved->min_latency = result->min_latency;
  solved->stats = result->Stats();
  // A search cut short — stopped by its time limit, or out of node budget —
  // hands out its best incumbent: legal, but not proven optimal.
  solved->quality = result->cancelled || result->budget_exhausted
                        ? sched::ScheduleQuality::kHeuristic
                        : sched::ScheduleQuality::kOptimal;
  const graph::OpGraph og = graph::OpGraph::Expand(
      spec.graph, spec.costs, request.regime,
      solved->schedule.iteration.variants());
  solved->occupancy = sched::AnalyzeOccupancy(spec.graph, og,
                                              solved->schedule);
  return Expected<SolveResult>(std::move(solved));
}

Expected<SolveResult> ScheduleService::RunDegraded(
    const graph::Fingerprint& key, const SolveRequest& request) {
  const graph::ProblemSpec& spec = *request.problem;
  SS_RETURN_IF_ERROR(ValidateRegime(spec, request.regime));
  const sched::ListScheduler fallback(spec.comm, spec.machine);
  auto iter =
      fallback.ScheduleBestVariant(spec.graph, spec.costs, request.regime);
  if (!iter.ok()) return iter.status();

  auto solved = std::make_shared<CachedSolve>();
  solved->key = key;
  solved->regime = request.regime;
  solved->min_latency = iter->Latency();
  solved->schedule = sched::PipelineComposer::Compose(
      std::move(*iter), spec.machine.total_procs(),
      request.options.pipeline);
  solved->quality = sched::ScheduleQuality::kHeuristic;
  const graph::OpGraph og = graph::OpGraph::Expand(
      spec.graph, spec.costs, request.regime,
      solved->schedule.iteration.variants());
  solved->occupancy = sched::AnalyzeOccupancy(spec.graph, og,
                                              solved->schedule);
  return Expected<SolveResult>(std::move(solved));
}

Expected<SolveResult> ScheduleService::SolveWithResilience(const Job& job) {
  // Stop time: the earlier of the per-solve watchdog budget and, for
  // degradable requests, the deadline minus the margin needed to still
  // answer in time. A deadline already past stops the search before its
  // first node, so it answers with its list-scheduler seed.
  Tick stop_at = kTickInfinity;
  if (options_.solver_watchdog != kTickInfinity) {
    stop_at = WallNow() + options_.solver_watchdog;
  }
  const Tick deadline = job.request.deadline;
  if (job.request.allow_degraded && deadline != kTickInfinity) {
    stop_at = std::min(stop_at, std::max<Tick>(0, deadline - kDegradedMargin));
  }
  Expected<SolveResult> result = RunSolve(job, stop_at);

  if (!job.request.allow_degraded) return result;
  if (result.ok()) {
    // A search stopped with an incumbent: already a (quality-tagged)
    // degraded answer.
    if ((*result)->stats.cancelled) {
      degraded_.Inc();
    }
    return result;
  }
  Expected<SolveResult> heuristic = RunDegraded(job.key, job.request);
  if (!heuristic.ok()) return result;  // the original error says more
  degraded_.Inc();
  return heuristic;
}

Status ScheduleService::VerifyHit(const graph::Fingerprint& key,
                                  const SolveRequest& request,
                                  const SolveResult& hit) {
  if (hit->verified.load(std::memory_order_acquire)) return OkStatus();
  verify::ScheduleVerifier verifier(*request.problem, request.regime);
  verify::VerifyReport report = verifier.VerifyArtifact(
      hit->schedule, hit->min_latency, &hit->occupancy);
  if (report.ok()) {
    hit->verified.store(true, std::memory_order_release);
    return OkStatus();
  }
  cache_.Erase(key);
  corrupt_rejected_.Inc();
  Status status = report.ToStatus();
  std::fprintf(stderr, "warning: rejecting cached schedule %s: %s\n",
               key.ToHex().c_str(), status.ToString().c_str());
  return status;
}

void ScheduleService::RunJob(const Job& job) {
  bool cancelled;
  {
    MutexLock lock(mu_);
    // The pool drains still-queued tasks on the caller during Shutdown();
    // those must fail, not solve.
    cancelled = shutdown_;
  }
  if (cancelled) {
    cancelled_.Inc();
    FinishJob(job, Status(CancelledError(
                       "service shut down before the solve ran")));
    return;
  }

  // A degradable request past its deadline still runs: its solve stops
  // before the first node and answers with the seed.
  if (!job.request.allow_degraded && job.request.deadline != kTickInfinity &&
      WallNow() > job.request.deadline) {
    deadline_exceeded_.Inc();
    FinishJob(job,
              Status(DeadlineExceededError("request expired while queued")));
    return;
  }

  // Second-chance lookup: the key may have been solved and published
  // between this job's submission and now (e.g. the single-flight entry
  // for an earlier identical request was retired just before submission,
  // or a snapshot load raced ahead). Without it the service could solve
  // the same fingerprint twice.
  if (auto hit = cache_.Lookup(job.key)) {
    // A hit that fails verification was evicted by VerifyHit; fall through
    // to the solve, which re-derives a correct artifact for this key.
    if (VerifyHit(job.key, job.request, hit).ok()) {
      cache_hits_.Inc();
      FinishJob(job, Expected<SolveResult>(std::move(hit)));
      return;
    }
  }

  solves_.Inc();
  Expected<SolveResult> result = SolveWithResilience(job);
  if (result.ok()) {
    solve_wall_us_.Inc(static_cast<std::uint64_t>((*result)->stats.wall_ticks));
    // Results stopped by their time limit, and the list-scheduler
    // fallback, are served but never cached: a later request with a
    // generous deadline must still trigger the full solve.
    // A budget-exhausted search is cached: the node budget is part of the
    // key, so a repeat could not do better.
    const SolveResult& solved = *result;
    if (solved->quality == sched::ScheduleQuality::kOptimal ||
        (solved->stats.budget_exhausted && !solved->stats.cancelled)) {
      cache_.Insert(solved);
    }
  } else {
    solve_failures_.Inc();
  }
  FinishJob(job, result);
}

void ScheduleService::FinishJob(const Job& job,
                                const Expected<SolveResult>& result) {
  FlightMap::node_type flight;
  {
    MutexLock lock(mu_);
    flight = inflight_.extract(job.key);
    if (inflight_.empty()) drained_cv_.NotifyAll();
  }
  SS_CHECK(!flight.empty());
  for (SolveCallback& done : flight.mapped()) done(result);
}

void ScheduleService::Shutdown() {
  WorkerPool* pool;
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    pool = pool_.get();  // no SubmitAsync can start it from here on
  }
  // Running jobs finish normally; every job still queued in the pool runs
  // in cancel mode (RunJob observes shutdown_) either on a worker or, for
  // a threadless pool, right here on the caller.
  if (pool != nullptr) pool->Shutdown();
  {
    // Wait out SolveOnCaller solves too: their results belong in the
    // snapshot.
    MutexLock lock(mu_);
    while (!inflight_.empty()) drained_cv_.Wait(lock);
  }

  if (!options_.snapshot_path.empty() && !snapshot_saved_.exchange(true)) {
    Status saved = cache_.Save(options_.snapshot_path);
    if (!saved.ok()) {
      if (saved.code() == StatusCode::kSnapshotIoError) {
        snapshot_io_errors_.Inc();
      }
      std::fprintf(stderr, "warning: %s\n", saved.ToString().c_str());
    }
  }
}

}  // namespace ss::service

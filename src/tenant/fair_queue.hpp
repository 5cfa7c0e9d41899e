// Weighted deficit-round-robin dispatch over bounded per-tenant queues.
//
// The fair scheduler sits between admission control and the solver: every
// admitted request waits in its own tenant's bounded FIFO, and a small set
// of dispatcher threads drains the queues in deficit-round-robin order.
// Each visit credits a tenant `weight` units (fractional weights carry
// over) and dispatches whole jobs (cost 1) while credit lasts, so over any
// busy window tenant i receives a weight_i / sum(weights) share of
// dispatches: heavy tenants cannot monopolize the solver and light tenants
// never starve (every active tenant is visited once per round). A tenant
// whose queue drains forfeits its remaining deficit — credit never
// accumulates while idle, which is what bounds burstiness.
//
// Jobs are closures that dispatcher threads run to completion before taking
// the next one. The tenant front end's job solves right there (or joins an
// in-flight solve and returns), so `dispatch_threads` caps running solves.
#pragma once

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/sync.hpp"
#include "core/time.hpp"

namespace ss::tenant {

/// Why a queued job's closure is being invoked.
enum class FairOutcome {
  /// Normal dispatch on a dispatcher thread: do the work.
  kDispatched,
  /// Shutdown drain: fail the caller promptly, do not do the work.
  kCancelled,
  /// The job's deadline passed while it waited in its lane: fail the
  /// caller with kDeadlineExceeded, do not do the work (solving a request
  /// nobody is waiting for anymore only steals solver time from live ones).
  kExpired,
};

/// One unit of queued work. Invoked exactly once with the outcome above —
/// kDispatched on a dispatcher thread, kCancelled/kExpired on whichever
/// thread noticed (shutdown caller or a dispatcher scanning the lanes).
using FairJob = std::function<void(FairOutcome)>;

struct FairQueueOptions {
  /// Dispatcher threads; also the in-flight cap. 0 is a valid (paused)
  /// configuration where jobs are only drained by DispatchOne()/Shutdown()
  /// — used by tests for deterministic accounting.
  int dispatch_threads = 2;
};

class FairScheduler {
 public:
  explicit FairScheduler(FairQueueOptions options = {});
  ~FairScheduler();

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  /// Adds a tenant lane. Returns the dense index expected by Submit(),
  /// which the TenantScheduler keeps as TenantState::lane.
  int AddTenant(double weight, std::size_t queue_capacity);

  /// Enqueues a job on the tenant's lane. kWouldBlock when that lane is at
  /// capacity; kCancelled after Shutdown(). `deadline` is an absolute Tick
  /// (kTickInfinity = none): a job still queued past it is completed with
  /// kExpired the next time a dispatcher scans its lane, without ever
  /// reaching the solver.
  Status Submit(int tenant_index, FairJob job,
                Tick deadline = kTickInfinity);

  /// Runs at most one job inline using the same DRR accounting as the
  /// dispatcher threads. Returns false when every lane is empty. Intended
  /// for tests (deterministic fairness measurements with 0 threads).
  bool DispatchOne();

  /// Current backlog of one lane.
  std::size_t QueuedFor(int tenant_index) const;

  /// Stops dispatcher threads, then fails every queued job with
  /// cancelled == true on the calling thread. Idempotent.
  void Shutdown();

 private:
  struct Entry {
    FairJob job;
    /// Absolute expiry; kTickInfinity when the request has no deadline.
    Tick deadline = kTickInfinity;
  };

  struct Lane {
    double weight = 1.0;
    std::size_t capacity = 0;
    std::deque<Entry> jobs;
    double deficit = 0.0;
  };

  /// Picks the next job per DRR under mu_ (caller holds the lock). Lane
  /// fronts whose deadline passed are popped into `expired` (no deficit
  /// charged — they never reach the solver) and the caller completes them
  /// with kExpired outside the lock. Returns false when every lane is
  /// empty of dispatchable work.
  bool NextJobLocked(FairJob* out, std::vector<FairJob>* expired, Tick now)
      SS_REQUIRES(mu_);
  void DispatcherLoop() SS_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::vector<Lane> lanes_ SS_GUARDED_BY(mu_);
  /// Round-robin cursor: lane to visit next.
  std::size_t cursor_ SS_GUARDED_BY(mu_) = 0;
  std::size_t total_queued_ SS_GUARDED_BY(mu_) = 0;
  bool shutdown_ SS_GUARDED_BY(mu_) = false;
  /// Written in the constructor (single-threaded) and swapped out under
  /// mu_ by Shutdown so a concurrent Shutdown joins each thread once.
  std::vector<std::thread> threads_ SS_GUARDED_BY(mu_);
};

}  // namespace ss::tenant

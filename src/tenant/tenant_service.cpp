#include "tenant/tenant_service.hpp"

#include <utility>

namespace ss::tenant {

TenantScheduler::TenantScheduler(service::ScheduleService* service,
                                 TenantSchedulerOptions options)
    : service_(service),
      registry_(std::move(options.registry)),
      fair_(FairQueueOptions{options.dispatch_threads}) {
  SS_CHECK(service_ != nullptr);
}

TenantScheduler::~TenantScheduler() { Shutdown(); }

Status TenantScheduler::RegisterTenant(TenantConfig config) {
  MutexLock lock(register_mu_);
  auto registered = registry_.Register(std::move(config));
  if (!registered.ok()) return registered.status();
  AddLane(**registered);
  return OkStatus();
}

void TenantScheduler::AddLane(const TenantState& state) {
  const int lane =
      fair_.AddTenant(state.config.weight, state.config.queue_capacity);
  SS_CHECK_MSG(lane == state.index, "registry/fair-queue lane skew");
  registry_.metrics().AddGauge(
      "tenant_queued", "queued", {{"tenant", state.config.name}},
      [this, lane] { return static_cast<double>(fair_.QueuedFor(lane)); });
}

Expected<std::shared_ptr<TenantState>> TenantScheduler::ResolveTenant(
    const std::string& name) {
  // register_mu_ serializes auto-registration with explicit RegisterTenant
  // calls so the lane added here cannot interleave with another
  // registration and drift from the registry index.
  MutexLock lock(register_mu_);
  bool created = false;
  auto state = registry_.Resolve(name, &created);
  if (state.ok() && created) AddLane(**state);
  return state;
}

Status TenantScheduler::SubmitSolve(const std::string& tenant_name,
                                    service::SolveRequest request,
                                    Callback done) {
  auto resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantState> state = std::move(*resolved);

  {
    MutexLock lock(state->bucket_mu);
    if (!state->bucket.TryAcquire(WallNow())) {
      state->rejected_rate_limited.Inc();
      return AdmissionRejectedError(
          "tenant '" + tenant_name + "' over its admission rate; retry later");
    }
  }
  state->admitted.Inc();

  // Cache fast path: hits (and typed verification failures of restored
  // artifacts) complete inline and never occupy the tenant's lane.
  const Tick start = WallNow();
  auto probe = service_->Lookup(request);
  if (probe.ok()) {
    state->cache_hits.Inc();
    state->completed.Inc();
    state->latency.Add(WallNow() - start);
    done(std::move(probe), /*cache_hit=*/true);
    return OkStatus();
  }
  if (probe.status().code() != StatusCode::kNotFound) {
    // e.g. kCorruptArtifact: the poisoned entry was evicted; surface the
    // typed error to this caller, a retry re-solves from scratch.
    state->failed.Inc();
    done(probe.status(), /*cache_hit=*/true);
    return OkStatus();
  }

  const Tick queue_deadline = request.deadline;
  Status queued = fair_.Submit(
      state->index,
      [this, state, request = std::move(request), done = std::move(done),
       start](FairOutcome outcome) mutable {
        if (outcome == FairOutcome::kCancelled) {
          state->cancelled.Inc();
          done(Status(CancelledError(
                   "tenant front end shut down before dispatch")),
               /*cache_hit=*/false);
          return;
        }
        if (outcome == FairOutcome::kExpired) {
          state->expired_in_queue.Inc();
          state->failed.Inc();
          done(Status(DeadlineExceededError(
                   "deadline passed while queued; request was never "
                   "dispatched")),
               /*cache_hit=*/false);
          return;
        }
        state->dispatched.Inc();
        // Solves on this dispatcher thread, or joins an in-flight solve.
        service_->SolveOnCaller(
            std::move(request),
            [state, done = std::move(done),
             start](Expected<service::SolveResult> result) {
              state->latency.Add(WallNow() - start);
              if (result.ok()) {
                state->completed.Inc();
              } else {
                state->failed.Inc();
              }
              done(std::move(result), /*cache_hit=*/false);
            });
      },
      queue_deadline);
  if (!queued.ok() && queued.code() == StatusCode::kWouldBlock) {
    state->rejected_queue_full.Inc();
  }
  return queued;
}

Expected<service::SolveResult> TenantScheduler::Lookup(
    const std::string& tenant_name, const service::SolveRequest& request,
    bool* miss) {
  if (miss != nullptr) *miss = false;
  auto resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  auto probe = service_->Lookup(request);
  if (probe.ok()) {
    (*resolved)->cache_hits.Inc();
  } else if (miss != nullptr) {
    *miss = probe.status().code() == StatusCode::kNotFound;
  }
  return probe;
}

void TenantScheduler::Shutdown() { fair_.Shutdown(); }

}  // namespace ss::tenant

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
  const auto& state = *registered;
  const int lane =
      fair_.AddTenant(state->config.weight, state->config.queue_capacity);
  SS_CHECK_MSG(lane == state->index, "registry/fair-queue lane skew");
  return OkStatus();
}

Expected<std::shared_ptr<TenantState>> TenantScheduler::ResolveTenant(
    const std::string& name) {
  // register_mu_ serializes auto-registration with explicit RegisterTenant
  // calls so the lane added here cannot interleave with another
  // registration and drift from the registry index.
  MutexLock lock(register_mu_);
  const std::size_t before = registry_.size();
  auto state = registry_.Resolve(name);
  if (!state.ok()) return state;
  if (registry_.size() > before) {
    const int lane = fair_.AddTenant((*state)->config.weight,
                                     (*state)->config.queue_capacity);
    SS_CHECK_MSG(lane == (*state)->index, "registry/fair-queue lane skew");
  }
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
      state->rejected_rate_limited.fetch_add(1, std::memory_order_relaxed);
      return AdmissionRejectedError(
          "tenant '" + tenant_name + "' over its admission rate; retry later");
    }
  }
  state->admitted.fetch_add(1, std::memory_order_relaxed);

  // Cache fast path: hits (and typed verification failures of restored
  // artifacts) complete inline and never occupy the tenant's lane.
  const Tick start = WallNow();
  auto probe = service_->Lookup(request);
  if (probe.ok()) {
    state->cache_hits.fetch_add(1, std::memory_order_relaxed);
    state->completed.fetch_add(1, std::memory_order_relaxed);
    state->latency.Add(WallNow() - start);
    done(std::move(probe), /*cache_hit=*/true);
    return OkStatus();
  }
  if (probe.status().code() != StatusCode::kNotFound) {
    // e.g. kCorruptArtifact: the poisoned entry was evicted; surface the
    // typed error to this caller, a retry re-solves from scratch.
    state->failed.fetch_add(1, std::memory_order_relaxed);
    done(probe.status(), /*cache_hit=*/true);
    return OkStatus();
  }

  const Tick queue_deadline = request.deadline;
  Status queued = fair_.Submit(
      state->index,
      [this, state, request = std::move(request), done = std::move(done),
       start](FairOutcome outcome) mutable {
        if (outcome == FairOutcome::kCancelled) {
          state->cancelled.fetch_add(1, std::memory_order_relaxed);
          done(Status(CancelledError(
                   "tenant front end shut down before dispatch")),
               /*cache_hit=*/false);
          return;
        }
        if (outcome == FairOutcome::kExpired) {
          state->expired_in_queue.fetch_add(1, std::memory_order_relaxed);
          state->failed.fetch_add(1, std::memory_order_relaxed);
          done(Status(DeadlineExceededError(
                   "deadline passed while queued; request was never "
                   "dispatched")),
               /*cache_hit=*/false);
          return;
        }
        state->dispatched.fetch_add(1, std::memory_order_relaxed);
        // Solves on this dispatcher thread, or joins an in-flight solve.
        service_->SolveOnCaller(
            std::move(request),
            [state, done = std::move(done),
             start](Expected<service::SolveResult> result) {
              state->latency.Add(WallNow() - start);
              if (result.ok()) {
                state->completed.fetch_add(1, std::memory_order_relaxed);
              } else {
                state->failed.fetch_add(1, std::memory_order_relaxed);
              }
              done(std::move(result), /*cache_hit=*/false);
            });
      },
      queue_deadline);
  if (!queued.ok() && queued.code() == StatusCode::kWouldBlock) {
    state->rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
  }
  return queued;
}

Expected<service::SolveResult> TenantScheduler::Lookup(
    const std::string& tenant_name, const service::SolveRequest& request) {
  auto resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  auto probe = service_->Lookup(request);
  if (probe.ok()) {
    (*resolved)->cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return probe;
}

Status TenantScheduler::TouchTenant(const std::string& tenant_name) {
  return ResolveTenant(tenant_name).status();
}

std::vector<TenantStats> TenantScheduler::Stats() const {
  std::vector<TenantStats> stats;
  for (const auto& state : registry_.All()) {
    stats.push_back(state->Stats(fair_.QueuedFor(state->index)));
  }
  return stats;
}

void TenantScheduler::Shutdown() { fair_.Shutdown(); }

}  // namespace ss::tenant

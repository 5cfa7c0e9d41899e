#include "tenant/tenant_service.hpp"

#include <cmath>
#include <utility>

namespace ss::tenant {

namespace {

Status ValidateConfig(const TenantConfig& config) {
  if (config.name.empty()) {
    return InvalidArgumentError("tenant name must be non-empty");
  }
  if (config.name.size() > kMaxTenantNameBytes) {
    return InvalidArgumentError(
        "tenant name is " + std::to_string(config.name.size()) +
        " bytes; the limit is " + std::to_string(kMaxTenantNameBytes));
  }
  if (!(config.weight > 0.0) || !std::isfinite(config.weight)) {
    return InvalidArgumentError("tenant '" + config.name +
                                "' weight must be finite and > 0");
  }
  if (config.queue_capacity == 0) {
    return InvalidArgumentError("tenant '" + config.name +
                                "' queue capacity must be > 0");
  }
  return OkStatus();
}

}  // namespace

TenantScheduler::TenantScheduler(service::ScheduleService* service,
                                 TenantSchedulerOptions options)
    : service_(service),
      options_(std::move(options.registry)),
      fair_(FairQueueOptions{options.dispatch_threads}),
      slots_(options_.max_tenants) {
  SS_CHECK(service_ != nullptr);
  SS_CHECK_MSG(options_.max_tenants > 0, "max_tenants must be positive");
}

TenantScheduler::~TenantScheduler() { Shutdown(); }

Status TenantScheduler::RegisterTenant(TenantConfig config) {
  return Register(std::move(config)).status();
}

Expected<const TenantScheduler::Slot*> TenantScheduler::Register(
    TenantConfig config) {
  SS_RETURN_IF_ERROR(ValidateConfig(config));
  MutexLock lock(register_mu_);
  if (Find(config.name) != nullptr) {
    return Status(AlreadyExistsError("tenant '" + config.name +
                                     "' already registered"));
  }
  const std::size_t n = count_.load(std::memory_order_relaxed);
  if (n == slots_.size()) {
    return Status(FailedPreconditionError(
        "tenant table full (" + std::to_string(slots_.size()) + " tenants)"));
  }
  const int lane = fair_.AddTenant(config.weight, config.queue_capacity);
  slots_[n] = std::make_shared<TenantState>(std::move(config), lane,
                                            WallNow(), metrics_);
  metrics_->AddGauge(
      "tenant_queued", "queued", {{"tenant", slots_[n]->config.name}},
      [this, lane] { return static_cast<double>(fair_.QueuedFor(lane)); });
  count_.store(n + 1, std::memory_order_release);
  return &slots_[n];
}

const TenantScheduler::Slot* TenantScheduler::Find(
    const std::string& name) const {
  const std::size_t n = count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    if (slots_[i]->config.name == name) return &slots_[i];
  }
  return nullptr;
}

Expected<const TenantScheduler::Slot*> TenantScheduler::Resolve(
    const std::string& name) {
  if (const Slot* found = Find(name)) return found;
  if (!options_.auto_register) {
    return Status(NotFoundError("unknown tenant '" + name + "'"));
  }
  TenantConfig config = options_.default_config;
  config.name = name;
  auto registered = Register(std::move(config));
  if (registered.ok() ||
      registered.status().code() != StatusCode::kAlreadyExists) {
    return registered;
  }
  // Lost a registration race: the winner's slot is published.
  return Find(name);
}

Status TenantScheduler::SubmitSolve(const std::string& tenant_name,
                                    service::SolveRequest request,
                                    Callback done) {
  auto resolved = Resolve(tenant_name);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantState>& state = **resolved;

  if (!state->bucket.TryAcquire(WallNow())) {
    state->rejected_rate_limited.Inc();
    return AdmissionRejectedError(
        "tenant '" + tenant_name + "' over its admission rate; retry later");
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
      state->lane,
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
  auto resolved = Resolve(tenant_name);
  if (!resolved.ok()) return resolved.status();
  auto probe = service_->Lookup(request);
  if (probe.ok()) {
    (**resolved)->cache_hits.Inc();
  } else if (miss != nullptr) {
    *miss = probe.status().code() == StatusCode::kNotFound;
  }
  return probe;
}

void TenantScheduler::Shutdown() { fair_.Shutdown(); }

}  // namespace ss::tenant

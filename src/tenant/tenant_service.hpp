// Multi-tenant front end over the ScheduleService.
//
// TenantScheduler composes the three tenancy pieces in request order:
//
//   1. TenantRegistry   — resolve (or auto-register) the named tenant;
//   2. admission        — the tenant's token bucket; a refusal is a typed
//                         kAdmissionRejected, never a queue entry;
//   3. cache fast path  — admitted requests probe the schedule cache
//                         first (ScheduleService::Lookup); hits complete
//                         inline without consuming the tenant's fair-queue
//                         share (cache bandwidth is effectively free next
//                         to solver time);
//   4. FairScheduler    — misses wait in the tenant's bounded lane and are
//                         dispatched weighted-deficit-round-robin to threads
//                         that run the solves (SolveOnCaller).
//
// Completion is a callback (possibly inline for hits and rejected
// submissions never invoke it), so the network layer can run this from an
// event loop without blocking. Per-tenant counters, lane depths and a
// streaming latency histogram are rows of this front end's metrics
// registry, labelled by tenant; the STATS verb reports them.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/sync.hpp"
#include "service/schedule_service.hpp"
#include "tenant/fair_queue.hpp"
#include "tenant/tenant.hpp"

namespace ss::tenant {

struct TenantSchedulerOptions {
  RegistryOptions registry;
  /// Dispatcher threads draining the fair queues. Each runs its dispatched
  /// solve itself (ScheduleService::SolveOnCaller), so this is also the
  /// cap on concurrently running solves submitted through this front end.
  int dispatch_threads = 2;
};

class TenantScheduler {
 public:
  /// Completion callback. `cache_hit` is true when the result came from
  /// the admission-time cache probe (no queueing, no solver dispatch).
  using Callback =
      std::function<void(Expected<service::SolveResult>, bool cache_hit)>;

  /// `service` must outlive this object and is not owned.
  TenantScheduler(service::ScheduleService* service,
                  TenantSchedulerOptions options = {});
  ~TenantScheduler();

  TenantScheduler(const TenantScheduler&) = delete;
  TenantScheduler& operator=(const TenantScheduler&) = delete;

  /// Pre-registers a tenant with an explicit config (e.g. from a tenant
  /// config file). Typed failures mirror TenantRegistry::Register.
  Status RegisterTenant(TenantConfig config);

  /// Admits and enqueues a solve for `tenant_name`. On any non-OK return
  /// (unknown tenant kNotFound, rate limit kAdmissionRejected, lane full
  /// kWouldBlock, shutdown kCancelled) the callback is NOT invoked;
  /// otherwise it is invoked exactly once — inline for cache hits and
  /// fast-path errors, on the thread that ran the solve otherwise.
  Status SubmitSolve(const std::string& tenant_name,
                     service::SolveRequest request, Callback done);

  /// Cache-only probe on behalf of a tenant: never queues, never consumes
  /// a token. kNotFound on a miss and for an unknown tenant; `miss` (when
  /// given) is set only for the former, so callers can tell them apart.
  Expected<service::SolveResult> Lookup(const std::string& tenant_name,
                                        const service::SolveRequest& request,
                                        bool* miss = nullptr);

  /// Every tenant's rows (`tenant_*`, labelled tenant=<name>), registered
  /// with the tenant, in registration order.
  const MetricsRegistry& metrics() const { return registry_.metrics(); }
  std::size_t tenant_count() const { return registry_.size(); }

  /// Stops dispatchers and fails queued jobs with kCancelled (their
  /// callbacks do run). Idempotent. Does not touch the ScheduleService.
  void Shutdown();

 private:
  /// Resolves the tenant and guarantees its fair-queue lane exists.
  Expected<std::shared_ptr<TenantState>> ResolveTenant(
      const std::string& name);
  /// Adds a just-registered tenant's lane and its `tenant_queued` row.
  void AddLane(const TenantState& state) SS_REQUIRES(register_mu_);

  service::ScheduleService* service_;
  TenantRegistry registry_;
  FairScheduler fair_;
  /// Serializes registration so registry indexes and fair-queue lanes
  /// stay aligned. Guards no fields directly: the invariant it protects
  /// (registry index == fair-queue lane) spans two internally-synchronized
  /// components.
  Mutex register_mu_;
};

}  // namespace ss::tenant

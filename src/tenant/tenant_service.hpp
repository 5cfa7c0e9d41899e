// Multi-tenant front end over the ScheduleService.
//
// TenantScheduler composes the three tenancy pieces in request order:
//
//   1. tenant table     — find (or auto-register) the named tenant;
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
// The tenant table is a fixed array of `max_tenants` slots that is only
// appended to: registration fills the next slot under a mutex only writers
// take, and requests find their tenant with an acquire load of the count
// and a scan of the published slots, so a cached SOLVE or LOOKUP takes no
// lock here before the cache's own.
//
// Completion is a callback (possibly inline for hits and rejected
// submissions never invoke it), so the network layer can run this from an
// event loop without blocking. Per-tenant counters, lane depths and a
// streaming latency histogram are rows of this front end's metrics
// registry, labelled by tenant; the STATS verb reports them.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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
  /// config file). Fails with kInvalidArgument (empty name, name longer
  /// than kMaxTenantNameBytes, bad weight or queue capacity),
  /// kAlreadyExists, or kFailedPrecondition (table full).
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
  const MetricsRegistry& metrics() const { return *metrics_; }
  std::size_t tenant_count() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Stops dispatchers and fails queued jobs with kCancelled (their
  /// callbacks do run). Idempotent. Does not touch the ScheduleService.
  void Shutdown();

 private:
  using Slot = std::shared_ptr<TenantState>;

  /// The published slot holding `name`, or nullptr. Takes no lock.
  const Slot* Find(const std::string& name) const;
  /// Finds the tenant, auto-registering it when the policy allows.
  Expected<const Slot*> Resolve(const std::string& name);
  Expected<const Slot*> Register(TenantConfig config)
      SS_EXCLUDES(register_mu_);

  service::ScheduleService* service_;
  const RegistryOptions options_;
  FairScheduler fair_;
  const std::shared_ptr<MetricsRegistry> metrics_ =
      std::make_shared<MetricsRegistry>();
  /// Serializes registration; readers never take it.
  Mutex register_mu_;
  /// `max_tenants` slots, never resized. A slot is written once, under
  /// register_mu_, and published by the release store that moves count_
  /// past it; it never changes after, so a reader that loads count_ with
  /// acquire reads the slots below it holding no lock. That is why they
  /// are not SS_GUARDED_BY.
  std::vector<Slot> slots_;
  std::atomic<std::size_t> count_{0};
};

}  // namespace ss::tenant

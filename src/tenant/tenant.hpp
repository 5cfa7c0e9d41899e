// Tenant registry and admission control for the multi-tenant front end.
//
// The scheduler-as-a-service layer (src/service) answers one request at a
// time for whoever calls it; this layer makes "whoever" explicit. Every
// request names a tenant; each tenant has a weight (its share of solver
// capacity under contention), a token-bucket rate limit (admission
// control), and a bounded pending queue (per-tenant backpressure, so one
// misbehaving tenant fills its own queue, not the shared one).
//
// The registry is a fixed-capacity name -> TenantState map: registration
// beyond `max_tenants` is refused, and lookups of unknown tenants either
// auto-register with the default config or fail, depending on policy.
// Tenant configs can be loaded from a text file (one `tenant` line per
// tenant, same key=value idiom as the .ssg problem format).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/sync.hpp"
#include "core/time.hpp"

namespace ss::tenant {

struct TenantConfig {
  std::string name;
  /// Relative share of solver capacity under contention (finite, > 0).
  double weight = 1.0;
  /// Sustained admission rate in requests/second; <= 0 means unlimited.
  double rate_per_sec = 0.0;
  /// Token-bucket burst: requests admitted back-to-back after idling.
  double burst = 16.0;
  /// Bound on this tenant's pending (admitted, not yet dispatched) queue.
  std::size_t queue_capacity = 64;
};

/// Classic token bucket over the virtual-microsecond clock. Not internally
/// synchronized: callers serialize access per tenant (the registry's
/// per-tenant mutex does this).
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double burst, Tick now)
      : rate_per_sec_(rate_per_sec),
        burst_(burst < 1.0 ? 1.0 : burst),
        tokens_(burst_),
        last_refill_(now) {}

  bool unlimited() const { return rate_per_sec_ <= 0.0; }

  /// Admits one request if a token is available at `now`.
  bool TryAcquire(Tick now) {
    if (unlimited()) return true;
    Refill(now);
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double available(Tick now) {
    if (unlimited()) return burst_;
    Refill(now);
    return tokens_;
  }

 private:
  void Refill(Tick now) {
    if (now <= last_refill_) return;
    tokens_ += ticks::ToSeconds(now - last_refill_) * rate_per_sec_;
    if (tokens_ > burst_) tokens_ = burst_;
    last_refill_ = now;
  }

  double rate_per_sec_ = 0.0;
  double burst_ = 1.0;
  double tokens_ = 1.0;
  Tick last_refill_ = 0;
};

/// Everything the front end tracks about one tenant. The mutex guards the
/// token bucket; the counters are handles into the front end's metrics
/// registry, registered with the tenant and labelled with its name
/// (incremented from dispatcher threads and the submit path concurrently).
struct TenantState {
  TenantState(TenantConfig config_in, int index_in, Tick now,
              std::shared_ptr<MetricsRegistry> metrics_in);

  const TenantConfig config;
  /// Dense index assigned at registration; keys the fair scheduler.
  const int index;
  /// Owns the counters below: a completion can hold this state after the
  /// front end that registered it is gone.
  const std::shared_ptr<MetricsRegistry> metrics;

  Mutex bucket_mu;
  TokenBucket bucket SS_GUARDED_BY(bucket_mu);

  Counter& admitted;
  Counter& rejected_rate_limited;
  Counter& rejected_queue_full;
  /// Requests answered from the schedule cache without queueing.
  Counter& cache_hits;
  /// Jobs handed to a dispatcher by the fair scheduler (cache misses).
  Counter& dispatched;
  Counter& completed;
  Counter& failed;
  Counter& cancelled;
  /// Queued requests completed with kDeadlineExceeded because their
  /// deadline passed before a dispatcher reached them.
  Counter& expired_in_queue;
  /// Submit -> completion, in microseconds.
  LatencyHistogram& latency;
};

/// Longest tenant name the registry accepts, in bytes. A tenant's name
/// labels each of its rows in every STATS response, so the bound is what
/// keeps a registry of 1,024 tenants inside one frame.
inline constexpr std::size_t kMaxTenantNameBytes = 32;

struct RegistryOptions {
  /// Hard cap on registered tenants; registration past it is refused.
  std::size_t max_tenants = 64;
  /// When true, a request naming an unknown tenant registers it on the fly
  /// with `default_config` (name filled in). When false such requests fail
  /// with kNotFound.
  bool auto_register = true;
  TenantConfig default_config;
};

class TenantRegistry {
 public:
  explicit TenantRegistry(RegistryOptions options = {});

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Registers a tenant. Fails with kInvalidArgument (empty name, name
  /// longer than kMaxTenantNameBytes, bad weight or queue capacity),
  /// kAlreadyExists, or kFailedPrecondition (registry full).
  Expected<std::shared_ptr<TenantState>> Register(TenantConfig config);

  /// Finds a tenant, auto-registering when the policy allows. `created`
  /// (when given) is set to whether this call registered it.
  Expected<std::shared_ptr<TenantState>> Resolve(const std::string& name,
                                                 bool* created = nullptr);

  std::size_t size() const;
  const RegistryOptions& options() const { return options_; }
  /// Every registered tenant's rows, labelled tenant=<name>.
  MetricsRegistry& metrics() const { return *metrics_; }

 private:
  RegistryOptions options_;
  const std::shared_ptr<MetricsRegistry> metrics_ =
      std::make_shared<MetricsRegistry>();
  mutable Mutex mu_;
  std::vector<std::shared_ptr<TenantState>> tenants_
      SS_GUARDED_BY(mu_);  // index order
};

/// Parses a tenant config file: '#' comments, blank lines, and
///
///   tenant <name> [weight=W] [rate=R] [burst=B] [queue=N]
///
/// Unknown keys, duplicate names, non-numeric and non-finite values, and a
/// queue that is not a whole number from 1 to 1,048,576 are errors with
/// their line number (same strictness as the .ssg parser).
Expected<std::vector<TenantConfig>> ParseTenantConfig(std::string_view text);

/// Reads and parses a tenant config file from disk.
Expected<std::vector<TenantConfig>> LoadTenantConfigFile(
    const std::string& path);

}  // namespace ss::tenant

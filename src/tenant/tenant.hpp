// Tenant configs and admission control for the multi-tenant front end.
//
// The scheduler-as-a-service layer (src/service) answers one request at a
// time for whoever calls it; this layer makes "whoever" explicit. Every
// request names a tenant; each tenant has a weight (its share of solver
// capacity under contention), a token-bucket rate limit (admission
// control), and a bounded pending queue (per-tenant backpressure, so one
// misbehaving tenant fills its own queue, not the shared one).
//
// The front end (tenant_service.hpp) keeps the tenants in a fixed table:
// registration beyond `max_tenants` is refused, and requests naming an
// unknown tenant either auto-register it with the default config or fail,
// depending on policy. Tenant configs can be loaded from a text file (one
// `tenant` line per tenant, same key=value idiom as the .ssg problem
// format).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
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

/// Token bucket over the virtual-microsecond clock, kept as one number in
/// the GCRA form: the time its next token falls due. A bucket of `burst`
/// tokens that refills one token per `interval` holds a token at `now`
/// exactly when `now >= due`; taking it moves `due` one interval on, from
/// no earlier than `now - (burst - 1) * interval` (a full bucket). Thread
/// safe: one compare-and-swap per admitted request.
class TokenBucket {
 public:
  TokenBucket(double rate_per_sec, double burst, Tick now)
      : interval_(rate_per_sec > 0.0 ? 1e6 / rate_per_sec : 0.0),
        full_lead_(((burst < 1.0 ? 1.0 : burst) - 1.0) * interval_),
        due_(static_cast<double>(now) - full_lead_) {}

  /// Admits one request if a token is available at `now`.
  bool TryAcquire(Tick now) {
    if (interval_ == 0.0) return true;  // no rate limit
    const double t = static_cast<double>(now);
    double due = due_.load(std::memory_order_relaxed);
    do {
      if (t < due) return false;
    } while (!due_.compare_exchange_weak(
        due, std::max(due, t - full_lead_) + interval_,
        std::memory_order_relaxed));
    return true;
  }

 private:
  /// Microseconds per token; 0 when the rate is unlimited.
  const double interval_;
  /// How far a full bucket's next token lies in the past.
  const double full_lead_;
  std::atomic<double> due_;
};

/// Everything the front end tracks about one tenant. The counters are
/// handles into the front end's metrics registry, registered with the
/// tenant and labelled with its name (incremented from dispatcher threads
/// and the submit path concurrently).
struct TenantState {
  TenantState(TenantConfig config_in, int lane_in, Tick now,
              std::shared_ptr<MetricsRegistry> metrics_in);

  const TenantConfig config;
  /// The fair-queue lane FairScheduler::AddTenant returned for it.
  const int lane;
  /// Owns the counters below: a completion can hold this state after the
  /// front end that registered it is gone.
  const std::shared_ptr<MetricsRegistry> metrics;

  TokenBucket bucket;

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

/// Longest tenant name registration accepts, in bytes. A tenant's name
/// labels each of its rows in every STATS response, so the bound is what
/// keeps a table of 1,024 tenants inside one frame.
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

// One metrics registry per serving object (the schedule service, the
// tenant front end, the network server). Each metric is registered once,
// with a name, a help text and fixed labels such as {"loop", "0"}; the
// returned handle has a stable address, so the request path never looks a
// metric up by name: an increment is one relaxed atomic add. A row's value
// comes from a handle or from a function run at snapshot time, for state
// that lives elsewhere (a lane's depth, uptime). Snapshot() returns the
// rows in registration order: what STATS sends (net/protocol.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/histogram.hpp"
#include "core/sync.hpp"

namespace ss {

/// Stable on the wire (net/protocol.hpp) — append only.
enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One metric as a snapshot saw it.
struct MetricRow {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  MetricLabels labels;
  std::uint64_t count = 0;  // counter value, or a histogram's sample count
  double value = 0.0;       // gauge value
  double p50 = 0.0;         // histogram percentiles, in the recorded unit
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Rows in registration order, with lookups by name and labels. A lookup
/// matches every row of that name carrying all the given labels (it may
/// carry more), so a counter named without its `loop` label sums over
/// loops.
struct MetricSnapshot {
  std::vector<MetricRow> rows;

  /// Sum of the matching rows' `count`; 0 when none match.
  std::uint64_t Count(std::string_view name,
                      const MetricLabels& match = {}) const;
  /// Sum of the matching rows' `value`.
  double Gauge(std::string_view name, const MetricLabels& match = {}) const;
  /// First matching row, or nullptr.
  const MetricRow* Find(std::string_view name,
                        const MetricLabels& match = {}) const;
  void Append(MetricSnapshot other);
  /// One table: metric, labels, value, help; a rule between name prefixes.
  std::string ToTable() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Handles live as long as the registry.
  Counter& AddCounter(std::string name, std::string help,
                      MetricLabels labels = {}) SS_EXCLUDES(mu_);
  LatencyHistogram& AddHistogram(std::string name, std::string help,
                                 MetricLabels labels = {}) SS_EXCLUDES(mu_);
  /// Rows whose value `read` returns at snapshot time.
  void AddCounterFn(std::string name, std::string help, MetricLabels labels,
                    std::function<std::uint64_t()> read) SS_EXCLUDES(mu_);
  void AddGauge(std::string name, std::string help, MetricLabels labels,
                std::function<double()> read) SS_EXCLUDES(mu_);

  /// Read functions run outside the registry's lock, so they may take
  /// their owners' locks.
  MetricSnapshot Snapshot() const SS_EXCLUDES(mu_);

 private:
  struct Metric;
  /// Builds and appends a metric; returns it for the handle.
  Metric& Publish(MetricRow row, std::unique_ptr<LatencyHistogram> histogram,
                  std::function<void(MetricRow&)> read) SS_EXCLUDES(mu_);

  mutable Mutex mu_;
  /// Never shrinks; each Metric is heap-allocated so handles stay valid.
  std::vector<std::unique_ptr<Metric>> metrics_ SS_GUARDED_BY(mu_);
};

}  // namespace ss

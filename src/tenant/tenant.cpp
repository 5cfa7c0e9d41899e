#include "tenant/tenant.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

namespace ss::tenant {

namespace {

Counter& Row(MetricsRegistry& m, const TenantConfig& c, const char* name,
             const char* help) {
  return m.AddCounter(name, help, {{"tenant", c.name}});
}

}  // namespace

TenantState::TenantState(TenantConfig config_in, int lane_in, Tick now,
                         std::shared_ptr<MetricsRegistry> metrics_in)
    : config(std::move(config_in)),
      lane(lane_in),
      metrics(std::move(metrics_in)),
      bucket(config.rate_per_sec, config.burst, now),
      admitted(Row(*metrics, config, "tenant_admitted", "admitted")),
      rejected_rate_limited(Row(*metrics, config,
                                "tenant_rejected_rate_limited",
                                "rejected by the rate limit")),
      rejected_queue_full(Row(*metrics, config, "tenant_rejected_queue_full",
                              "rejected, lane full")),
      cache_hits(Row(*metrics, config, "tenant_cache_hits", "cache hits")),
      dispatched(Row(*metrics, config, "tenant_dispatched", "dispatched")),
      completed(Row(*metrics, config, "tenant_completed", "completed")),
      failed(Row(*metrics, config, "tenant_failed", "failed")),
      cancelled(Row(*metrics, config, "tenant_cancelled", "cancelled")),
      expired_in_queue(Row(*metrics, config, "tenant_expired_in_queue",
                           "expired in queue")),
      latency(metrics->AddHistogram("tenant_latency_us",
                                    "latency, submit to completion",
                                    {{"tenant", config.name}})) {
  metrics->AddGauge("tenant_weight", "weight", {{"tenant", config.name}},
                    [weight = config.weight] { return weight; });
}

namespace {

/// Largest `queue=` a config file may ask for: far above any real lane,
/// and low enough that the value converts to size_t exactly.
constexpr double kMaxConfigQueue = 1 << 20;

Status ConfigError(int line, const std::string& message) {
  return InvalidArgumentError("tenant config line " + std::to_string(line) +
                              ": " + message);
}

/// A finite number, the whole of `text`; inf and nan are refused.
bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

Expected<std::vector<TenantConfig>> ParseTenantConfig(std::string_view text) {
  std::vector<TenantConfig> configs;
  std::unordered_set<std::string> names;
  std::istringstream stream{std::string(text)};
  std::string raw;
  int line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    if (const std::size_t hash = raw.find('#'); hash != std::string::npos) {
      raw.erase(hash);
    }
    std::istringstream line(raw);
    std::string keyword;
    if (!(line >> keyword)) continue;  // blank / comment-only line
    if (keyword != "tenant") {
      return ConfigError(line_no, "expected 'tenant', got '" + keyword + "'");
    }
    TenantConfig config;
    if (!(line >> config.name)) {
      return ConfigError(line_no, "missing tenant name");
    }
    if (!names.insert(config.name).second) {
      return ConfigError(line_no,
                         "duplicate tenant '" + config.name + "'");
    }
    std::string token;
    while (line >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        return ConfigError(line_no, "expected key=value, got '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      double num = 0.0;
      if (!ParseDouble(value, &num)) {
        return ConfigError(line_no, "non-numeric or non-finite value for '" +
                                        key + "': " + value);
      }
      if (key == "weight") {
        if (!(num > 0.0)) return ConfigError(line_no, "weight must be > 0");
        config.weight = num;
      } else if (key == "rate") {
        config.rate_per_sec = num;
      } else if (key == "burst") {
        if (!(num >= 1.0)) return ConfigError(line_no, "burst must be >= 1");
        config.burst = num;
      } else if (key == "queue") {
        if (!(num >= 1.0 && num <= kMaxConfigQueue) || num != std::floor(num)) {
          return ConfigError(line_no,
                             "queue must be a whole number from 1 to 1048576");
        }
        config.queue_capacity = static_cast<std::size_t>(num);
      } else {
        return ConfigError(line_no, "unknown key '" + key + "'");
      }
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

Expected<std::vector<TenantConfig>> LoadTenantConfigFile(
    const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status(NotFoundError("cannot open tenant config '" + path + "'"));
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return ParseTenantConfig(contents.str());
}

}  // namespace ss::tenant

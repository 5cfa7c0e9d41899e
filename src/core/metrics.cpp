#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "core/ascii_table.hpp"

namespace ss {

// Everything but the atomics is set before Publish and read-only after.
struct MetricsRegistry::Metric {
  MetricRow row;  // name, help, kind, labels; Snapshot fills the value
  Counter counter;
  std::unique_ptr<LatencyHistogram> histogram;
  std::function<void(MetricRow&)> read;  // function-valued rows
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Metric& MetricsRegistry::Publish(
    MetricRow row, std::unique_ptr<LatencyHistogram> histogram,
    std::function<void(MetricRow&)> read) {
  auto metric = std::make_unique<Metric>();
  metric->row = std::move(row);
  metric->histogram = std::move(histogram);
  metric->read = std::move(read);
  Metric& handle = *metric;
  MutexLock lock(mu_);
  metrics_.push_back(std::move(metric));
  return handle;
}

Counter& MetricsRegistry::AddCounter(std::string name, std::string help,
                                     MetricLabels labels) {
  return Publish({std::move(name), std::move(help), MetricKind::kCounter,
                  std::move(labels)},
                 nullptr, nullptr)
      .counter;
}

LatencyHistogram& MetricsRegistry::AddHistogram(std::string name,
                                                std::string help,
                                                MetricLabels labels) {
  return *Publish({std::move(name), std::move(help), MetricKind::kHistogram,
                   std::move(labels)},
                  std::make_unique<LatencyHistogram>(), nullptr)
              .histogram;
}

void MetricsRegistry::AddCounterFn(std::string name, std::string help,
                                   MetricLabels labels,
                                   std::function<std::uint64_t()> read) {
  Publish({std::move(name), std::move(help), MetricKind::kCounter,
           std::move(labels)},
          nullptr, [read = std::move(read)](MetricRow& row) {
            row.count = read();
          });
}

void MetricsRegistry::AddGauge(std::string name, std::string help,
                               MetricLabels labels,
                               std::function<double()> read) {
  Publish({std::move(name), std::move(help), MetricKind::kGauge,
           std::move(labels)},
          nullptr, [read = std::move(read)](MetricRow& row) {
            row.value = read();
          });
}

MetricSnapshot MetricsRegistry::Snapshot() const {
  std::vector<const Metric*> metrics;
  {
    MutexLock lock(mu_);
    for (const auto& metric : metrics_) metrics.push_back(metric.get());
  }
  MetricSnapshot snap;
  snap.rows.reserve(metrics.size());
  for (const Metric* m : metrics) {
    MetricRow row = m->row;
    if (m->read) {
      m->read(row);
    } else if (m->histogram) {
      const LatencyHistogram::Snapshot h = m->histogram->TakeSnapshot();
      row.count = h.total;
      row.p50 = h.p50();
      row.p99 = h.p99();
      row.p999 = h.p999();
    } else {
      row.count = m->counter.value();
    }
    snap.rows.push_back(std::move(row));
  }
  return snap;
}

namespace {

bool Matches(const MetricRow& row, std::string_view name,
             const MetricLabels& match) {
  return row.name == name &&
         std::all_of(match.begin(), match.end(), [&](const auto& label) {
           return std::find(row.labels.begin(), row.labels.end(), label) !=
                  row.labels.end();
         });
}

}  // namespace

std::uint64_t MetricSnapshot::Count(std::string_view name,
                                    const MetricLabels& match) const {
  std::uint64_t sum = 0;
  for (const MetricRow& row : rows) {
    if (Matches(row, name, match)) sum += row.count;
  }
  return sum;
}

double MetricSnapshot::Gauge(std::string_view name,
                             const MetricLabels& match) const {
  double sum = 0.0;
  for (const MetricRow& row : rows) {
    if (Matches(row, name, match)) sum += row.value;
  }
  return sum;
}

const MetricRow* MetricSnapshot::Find(std::string_view name,
                                      const MetricLabels& match) const {
  for (const MetricRow& row : rows) {
    if (Matches(row, name, match)) return &row;
  }
  return nullptr;
}

void MetricSnapshot::Append(MetricSnapshot other) {
  rows.insert(rows.end(), std::make_move_iterator(other.rows.begin()),
              std::make_move_iterator(other.rows.end()));
}

std::string MetricSnapshot::ToTable() const {
  AsciiTable table;
  table.SetHeader({"metric", "labels", "value", "help"});
  std::string_view section;
  for (const MetricRow& row : rows) {
    const std::string_view prefix =
        std::string_view(row.name).substr(0, row.name.find('_'));
    if (!section.empty() && prefix != section) table.AddRule();
    section = prefix;
    std::string labels;
    for (const auto& [key, value] : row.labels) {
      labels += (labels.empty() ? "" : ",") + key + "=" + value;
    }
    std::string value = std::to_string(row.count);
    if (row.kind == MetricKind::kGauge) {
      value = row.value == std::floor(row.value) && std::abs(row.value) < 1e15
                  ? std::to_string(static_cast<std::int64_t>(row.value))
                  : FormatDouble(row.value, 3);
    } else if (row.kind == MetricKind::kHistogram) {
      value = "n=" + value + " p50=" + FormatDouble(row.p50, 1) +
              " p99=" + FormatDouble(row.p99, 1) +
              " p999=" + FormatDouble(row.p999, 1);
    }
    table.AddRow({row.name, labels, value, row.help});
  }
  return table.Render();
}

}  // namespace ss

// Microbenchmark of the scheduler-as-a-service layer: how much a warm
// schedule cache saves over a cold branch-and-bound solve on the paper's
// tracker problem, and how much the service's worker pool shortens the
// off-line regime-table precompute.
//
// The paper's run-time story (§3.4) depends on schedule lookup being
// effectively free compared to solving; the warm/cold ratio printed here is
// that claim, measured. Pass `--json <file>` to record machine-readable
// results.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/ascii_table.hpp"
#include "core/stats.hpp"
#include "core/time.hpp"
#include "regime/schedule_table.hpp"
#include "service/schedule_service.hpp"
#include "service/table_builder.hpp"

namespace ss {
namespace {

std::shared_ptr<graph::ProblemSpec> TrackerProblem(
    const bench::PaperSetup& setup) {
  auto spec = std::make_shared<graph::ProblemSpec>();
  spec->graph = setup.tg.graph;
  spec->costs = setup.costs;
  spec->comm = setup.comm;
  spec->machine = setup.machine;
  spec->regime_count = setup.space.size();
  return spec;
}

double TicksToMs(Tick t) { return static_cast<double>(t) / 1000.0; }

service::ServiceOptions PoolOptions(int workers,
                                    std::size_t queue_capacity = 64) {
  service::ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = queue_capacity;
  return options;
}

/// Times `body()` `samples` times and returns per-call milliseconds.
template <typename Fn>
Summary Measure(int samples, Fn&& body) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const Stopwatch watch;
    body();
    ms.push_back(TicksToMs(watch.Elapsed()));
  }
  return Summarize(std::move(ms));
}

int Run(int argc, char** argv) {
  bench::JsonReport json(bench::JsonReport::PathFromArgs(argc, argv));
  bench::PaperSetup setup;
  auto problem = TrackerProblem(setup);
  const RegimeId demo_regime = setup.space.FromState(4);

  bench::PrintHeader("schedule service: cold solve vs warm cache");

  // Cold: a fresh service per sample, so every solve runs the full
  // branch-and-bound search.
  const Summary cold = Measure(5, [&] {
    service::ScheduleService service(
        PoolOptions(1));
    service::SolveRequest request;
    request.problem = problem;
    request.regime = demo_regime;
    auto result = service.Solve(request);
    SS_CHECK(result.ok());
  });

  // Warm: one service, one prefill solve, then every Solve is a cache hit.
  service::ScheduleService warm_service(
      PoolOptions(1));
  {
    service::SolveRequest request;
    request.problem = problem;
    request.regime = demo_regime;
    SS_CHECK(warm_service.Solve(request).ok());
  }
  const Summary warm = Measure(200, [&] {
    service::SolveRequest request;
    request.problem = problem;
    request.regime = demo_regime;
    auto result = warm_service.Solve(request);
    SS_CHECK(result.ok());
  });

  const double speedup =
      warm.median > 0.0 ? cold.median / warm.median : 0.0;

  AsciiTable table;
  table.SetHeader({"path", "median (ms)", "p95 (ms)"});
  table.AddRow({"cold solve", FormatDouble(cold.median, 3),
                FormatDouble(cold.p95, 3)});
  table.AddRow({"warm cache hit", FormatDouble(warm.median, 4),
                FormatDouble(warm.p95, 4)});
  std::printf("%s", table.Render().c_str());
  std::printf("warm-cache speedup: %sx (acceptance floor: 100x)\n",
              FormatDouble(speedup, 1).c_str());
  json.Add("service_cold_solve", cold.median, cold.p95, "ms",
           bench::JsonReport::Better::kLower);
  json.Add("service_warm_hit", warm.median, warm.p95, "ms",
           bench::JsonReport::Better::kLower);
  json.Add("service_warm_speedup_x", speedup, speedup, "x",
           bench::JsonReport::Better::kHigher);

  bench::PrintHeader("regime table precompute: serial vs service pool");

  const Summary serial = Measure(3, [&] {
    auto built = regime::ScheduleTable::Precompute(
        setup.space, setup.tg.graph, setup.costs, setup.comm,
        setup.machine);
    SS_CHECK(built.ok());
  });
  const Summary pooled = Measure(3, [&] {
    // Fresh service per sample: the point is parallel solving, not caching.
    service::ScheduleService service(
        PoolOptions(4, 16));
    auto built =
        service::PrecomputeTableParallel(service, setup.space, problem);
    SS_CHECK(built.ok());
  });

  AsciiTable table2;
  table2.SetHeader({"builder", "median (ms)", "p95 (ms)"});
  table2.AddRow({"serial Precompute", FormatDouble(serial.median, 2),
                 FormatDouble(serial.p95, 2)});
  table2.AddRow({"service pool (4 workers)", FormatDouble(pooled.median, 2),
                 FormatDouble(pooled.p95, 2)});
  std::printf("%s", table2.Render().c_str());
  std::printf("parallel speedup: %sx over serial\n",
              FormatDouble(pooled.median > 0.0 ? serial.median / pooled.median
                                               : 0.0,
                           2)
                  .c_str());
  json.Add("table_serial", serial.median, serial.p95, "ms",
           bench::JsonReport::Better::kLower);
  json.Add("table_service_pool", pooled.median, pooled.p95, "ms",
           bench::JsonReport::Better::kLower);

  json.Write();
  return 0;
}

}  // namespace
}  // namespace ss

int main(int argc, char** argv) { return ss::Run(argc, argv); }

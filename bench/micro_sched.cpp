// Microbenchmarks of the scheduling stack: branch-and-bound search cost as
// the data-parallel expansion grows, variant enumeration over all regimes,
// pipeline composition, and online-simulation speed.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "graph/op_graph.hpp"
#include "graph/synthetic.hpp"
#include "regime/regime.hpp"
#include "regime/schedule_table.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal.hpp"
#include "sched/pipeline.hpp"
#include "sim/online_sim.hpp"
#include "tracker/costs.hpp"
#include "tracker/graph_builder.hpp"

namespace ss {
namespace {

struct Setup {
  tracker::TrackerGraph tg;
  regime::RegimeSpace space{1, 8};
  graph::CostModel costs;
  graph::CommModel comm;
  graph::MachineConfig machine = graph::MachineConfig::SingleNode(4);

  Setup() : tg(tracker::BuildTrackerGraph()) {
    costs = tracker::PaperCostModel(tg, space);
  }
};

Setup& GetSetup() {
  static Setup setup;
  return setup;
}

void BM_OptimalSchedulePerRegime(benchmark::State& state) {
  Setup& s = GetSetup();
  const RegimeId regime =
      s.space.FromState(static_cast<int>(state.range(0)));
  sched::OptimalScheduler scheduler(s.tg.graph, s.costs, s.comm, s.machine);
  for (auto _ : state) {
    auto result = scheduler.Schedule(regime);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_OptimalSchedulePerRegime)->DenseRange(1, 8)
    ->Unit(benchmark::kMillisecond);

void BM_OptimalFixedVariantChunks(benchmark::State& state) {
  // Search cost as a function of the T4 chunk count alone.
  Setup& s = GetSetup();
  const RegimeId regime = s.space.FromState(8);
  const auto& t4 = s.costs.Get(regime, s.tg.target_detection);
  VariantId wanted(0);
  for (std::size_t v = 0; v < t4.variant_count(); ++v) {
    if (t4.variant(VariantId(static_cast<int>(v))).chunks ==
        static_cast<int>(state.range(0))) {
      wanted = VariantId(static_cast<int>(v));
    }
  }
  std::vector<VariantId> variants(s.tg.graph.task_count(), VariantId(0));
  variants[s.tg.target_detection.index()] = wanted;
  sched::OptimalScheduler scheduler(s.tg.graph, s.costs, s.comm, s.machine);
  for (auto _ : state) {
    auto result = scheduler.ScheduleWithVariants(regime, variants);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_OptimalFixedVariantChunks)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_ListScheduler(benchmark::State& state) {
  Setup& s = GetSetup();
  const RegimeId regime = s.space.FromState(8);
  sched::ListScheduler list(s.comm, s.machine);
  for (auto _ : state) {
    auto result = list.ScheduleBestVariant(s.tg.graph, s.costs, regime);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ListScheduler)->Unit(benchmark::kMicrosecond);

void BM_PipelineCompose(benchmark::State& state) {
  Setup& s = GetSetup();
  const RegimeId regime = s.space.FromState(8);
  sched::OptimalScheduler scheduler(s.tg.graph, s.costs, s.comm, s.machine);
  auto result = scheduler.Schedule(regime);
  SS_CHECK(result.ok());
  for (auto _ : state) {
    auto composed = sched::PipelineComposer::Compose(
        result->best.iteration, s.machine.total_procs());
    benchmark::DoNotOptimize(composed);
  }
}
BENCHMARK(BM_PipelineCompose)->Unit(benchmark::kMicrosecond);

void BM_OnlineSimulation(benchmark::State& state) {
  Setup& s = GetSetup();
  const RegimeId regime = s.space.FromState(8);
  std::vector<VariantId> serial(s.tg.graph.task_count(), VariantId(0));
  graph::OpGraph og =
      graph::OpGraph::Expand(s.tg.graph, s.costs, regime, serial);
  for (auto _ : state) {
    sim::OnlineSimOptions opts;
    opts.digitizer_period = ticks::FromSeconds(1);
    opts.frames = static_cast<std::size_t>(state.range(0));
    sim::OnlineSimulator sim(og, s.machine, opts);
    auto result = sim.Run();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_OnlineSimulation)->Arg(32)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_OptimalOnSyntheticGraphs(benchmark::State& state) {
  // Search cost across random layered DAGs of growing depth.
  Rng rng(static_cast<std::uint64_t>(state.range(0)) * 31 + 1);
  graph::SyntheticOptions gen;
  gen.layers = static_cast<int>(state.range(0));
  graph::SyntheticProblem p = graph::MakeLayered(rng, gen);
  sched::OptimalScheduler scheduler(p.graph, p.costs, graph::CommModel(),
                                    graph::MachineConfig::SingleNode(4));
  sched::OptimalOptions opts;
  opts.max_nodes = 1'000'000;  // bounded so the bench stays snappy
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    auto result = scheduler.Schedule(RegimeId(0), opts);
    benchmark::DoNotOptimize(result);
    if (result.ok()) nodes = result->nodes_explored;
  }
  state.counters["tasks"] =
      static_cast<double>(p.graph.task_count());
  state.counters["bnb_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_OptimalOnSyntheticGraphs)->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

void BM_ScheduleTablePrecompute(benchmark::State& state) {
  // The whole off-line cost of constrained dynamism: all 8 regimes.
  Setup& s = GetSetup();
  for (auto _ : state) {
    auto table = regime::ScheduleTable::Precompute(
        s.space, s.tg.graph, s.costs, s.comm, s.machine);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_ScheduleTablePrecompute)->Unit(benchmark::kMillisecond);

/// Console reporter that also forwards each run's per-iteration real time
/// into a JsonReport. google-benchmark reports one aggregate per benchmark
/// here (no repetitions configured), so median == p95 == that measurement.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(bench::JsonReport* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations == 0) continue;
      const double ms = run.real_accumulated_time /
                        static_cast<double>(run.iterations) * 1e3;
      json_->Add(run.benchmark_name(), ms, ms, "ms",
                 bench::JsonReport::Better::kLower);
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::JsonReport* json_;
};

}  // namespace
}  // namespace ss

int main(int argc, char** argv) {
  ss::bench::JsonReport json(ss::bench::JsonReport::PathFromArgs(argc, argv));
  argc = ss::bench::JsonReport::StripJsonFlag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ss::JsonCapturingReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  json.Write();
  return 0;
}

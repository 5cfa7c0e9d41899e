// Microbenchmark of the work-stealing branch-and-bound solver: serial vs
// 2/4/8 threads on a small synthetic DAG, a medium and a large synthetic
// DAG (the large tier is the "2-3x bigger exact solve" target), and the
// paper's kiosk graph with its full variant odometer. The cold_mix tier
// times serial solves of a seeded batch of small problems, the regime a
// cold schedule server spends its CPU in, where the fixed cost per solve
// (seeding, reporting the optimal set) weighs as much as the search.
//
// The acceptance target for the parallel solver is a >=2x median speedup at
// 4 threads on the medium problem -- only meaningful on a multi-core host;
// single-core runners honestly report ~1x, and there the serial-time wins
// from seeding, interchange pruning and the floored lower bound are the
// numbers to watch. Results are bit-identical across thread counts, so the
// speedup is free of quality tradeoffs. Pass `--json <file>` to record
// machine-readable results for tools/bench_compare; `_x` records are
// higher-is-better speedups and `_count` records are informational search
// counters (steals, nodes pruned by the symmetry rules).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/ascii_table.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/time.hpp"
#include "graph/synthetic.hpp"
#include "sched/optimal.hpp"

namespace ss {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

double TicksToMs(Tick t) { return static_cast<double>(t) / 1000.0; }

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

struct Case {
  std::string name;
  graph::TaskGraph graph;
  graph::CostModel costs;
  graph::CommModel comm;
  graph::MachineConfig machine = graph::MachineConfig::SingleNode(3);
  RegimeId regime{0};
  int samples = 5;
};

Case SmallSynthetic() {
  Case c;
  c.name = "small";
  Rng rng(11);
  graph::SyntheticOptions gen;
  gen.layers = 2;
  gen.max_width = 2;
  gen.max_chunks = 3;
  graph::SyntheticProblem dag = graph::MakeLayered(rng, gen);
  c.graph = std::move(dag.graph);
  c.costs = std::move(dag.costs);
  c.comm.intra_latency = 5;
  c.machine = graph::MachineConfig::SingleNode(2);
  c.samples = 20;
  return c;
}

/// The medium case drives the speedup claim: with 40us link latency the
/// comm-free lower bounds prune late, so the search tree is wide enough
/// (~270k nodes) for the subtree fan-out to matter.
Case MediumSynthetic() {
  Case c;
  c.name = "medium";
  Rng rng(23);
  graph::SyntheticOptions gen;
  gen.layers = 5;
  gen.max_width = 3;
  graph::SyntheticProblem dag = graph::MakeLayered(rng, gen);
  c.graph = std::move(dag.graph);
  c.costs = std::move(dag.costs);
  c.comm.intra_latency = 40;
  c.comm.intra_bytes_per_us = 50;
  c.samples = 5;
  return c;
}

/// The large case is the "2-3x larger exact solve" tier: a wider layered
/// DAG whose pruned search tree runs ~2x the medium case's node count
/// (~540k nodes) yet still completes exactly (no budget exhaustion),
/// thanks to the seeded incumbent, the interchange rules and the floored
/// lower bound.
Case LargeSynthetic() {
  Case c;
  c.name = "large";
  Rng rng(19);
  graph::SyntheticOptions gen;
  gen.layers = 6;
  gen.max_width = 3;
  graph::SyntheticProblem dag = graph::MakeLayered(rng, gen);
  c.graph = std::move(dag.graph);
  c.costs = std::move(dag.costs);
  c.comm.intra_latency = 40;
  c.comm.intra_bytes_per_us = 50;
  c.samples = 3;
  return c;
}

Case Kiosk(const bench::PaperSetup& setup) {
  Case c;
  c.name = "kiosk_r8";
  c.graph = setup.tg.graph;
  c.costs = setup.costs;
  c.comm = setup.comm;
  c.machine = setup.machine;
  // The heaviest regime (8 tracked models): the full variant odometer.
  c.regime = setup.space.FromState(8);
  c.samples = 10;
  return c;
}

/// The cold_mix tier: a seeded batch of the small problems a cold schedule
/// server solves (the mix perfbench's `cold` workload sends): half chains
/// of 4-6 tasks, a quarter 2-way fork-joins, a quarter 2-layer width-2
/// DAGs, on two processors with the default communication model.
constexpr std::size_t kColdMixProblems = 200;
constexpr int kColdMixSamples = 10;

std::vector<graph::SyntheticProblem> ColdMix() {
  std::vector<graph::SyntheticProblem> problems;
  problems.reserve(kColdMixProblems);
  for (std::uint64_t i = 0; i < kColdMixProblems; ++i) {
    Rng rng(0xC01D0000ULL + i);
    graph::SyntheticOptions gen;
    gen.max_width = 2;
    gen.layers = 2;
    const std::uint64_t family = rng.NextBelow(4);
    if (family < 2) {
      problems.push_back(graph::MakeChain(
          rng, 4 + static_cast<int>(rng.NextBelow(3)), gen));
    } else if (family == 2) {
      problems.push_back(graph::MakeForkJoin(rng, 2, gen));
    } else {
      problems.push_back(graph::MakeLayered(rng, gen));
    }
  }
  return problems;
}

/// Times serial solves of the whole cold_mix batch; the record is the
/// batch's wall time.
void RunColdMix(bench::JsonReport* json) {
  const std::vector<graph::SyntheticProblem> problems = ColdMix();
  const graph::MachineConfig machine = graph::MachineConfig::SingleNode(2);
  std::vector<sched::OptimalScheduler> solvers;
  solvers.reserve(problems.size());
  for (const auto& p : problems) {
    solvers.emplace_back(p.graph, p.costs, graph::CommModel(), machine);
  }
  sched::OptimalOptions opts;
  opts.solver_threads = 1;
  std::uint64_t nodes = 0;
  const Summary s = Measure(kColdMixSamples, [&] {
    nodes = 0;
    for (const auto& solver : solvers) {
      auto result = solver.Schedule(RegimeId(0), opts);
      SS_CHECK(result.ok());
      nodes += result->nodes_explored;
    }
  });
  const double per_solve_us =
      s.median * 1000.0 / static_cast<double>(problems.size());
  std::printf(
      "case cold_mix (%zu problems, %llu nodes, serial): median %.3f ms "
      "per batch (p95 %.3f), %.1f us per solve\n",
      problems.size(), static_cast<unsigned long long>(nodes), s.median,
      s.p95, per_solve_us);
  json->Add("optimal_cold_mix_t1", s.median, s.p95, "ms",
            bench::JsonReport::Better::kLower);
}

int Run(int argc, char** argv) {
  bench::JsonReport json(bench::JsonReport::PathFromArgs(argc, argv));
  bench::PaperSetup setup;

  std::vector<Case> cases;
  cases.push_back(SmallSynthetic());
  cases.push_back(MediumSynthetic());
  cases.push_back(LargeSynthetic());
  cases.push_back(Kiosk(setup));

  bench::PrintHeader("optimal solver: serial vs parallel branch-and-bound");

  for (const Case& c : cases) {
    sched::OptimalScheduler sched(c.graph, c.costs, c.comm, c.machine);
    AsciiTable table;
    table.SetHeader({"threads", "median (ms)", "p95 (ms)", "speedup"});
    double serial_median = 0.0;
    double speedup_4t = 0.0;
    double speedup_4t_p95 = 0.0;
    double speedup_8t = 0.0;
    double speedup_8t_p95 = 0.0;
    std::uint64_t nodes = 0;
    std::uint64_t steals = 0;
    std::uint64_t pruned_symmetry = 0;
    for (int threads : kThreadCounts) {
      sched::OptimalOptions opts;
      opts.solver_threads = threads;
      const Summary s = Measure(c.samples, [&] {
        auto result = sched.Schedule(c.regime, opts);
        SS_CHECK(result.ok());
        nodes = result->nodes_explored;
        steals = result->steals;
        pruned_symmetry = result->nodes_pruned_symmetry;
      });
      if (threads == 1) serial_median = s.median;
      const double speedup =
          s.median > 0.0 ? serial_median / s.median : 0.0;
      // The p95 speedup is derived from the p95 *time* of the parallel
      // trials, so tail stalls show up as a speedup drop instead of being
      // masked by a copy of the median.
      const double speedup_p95 = s.p95 > 0.0 ? serial_median / s.p95 : 0.0;
      if (threads == 4) {
        speedup_4t = speedup;
        speedup_4t_p95 = speedup_p95;
      }
      if (threads == 8) {
        speedup_8t = speedup;
        speedup_8t_p95 = speedup_p95;
      }
      table.AddRow({std::to_string(threads), FormatDouble(s.median, 3),
                    FormatDouble(s.p95, 3), FormatDouble(speedup, 2) + "x"});
      json.Add("optimal_" + c.name + "_t" + std::to_string(threads),
               s.median, s.p95, "ms", bench::JsonReport::Better::kLower);
    }
    std::printf(
        "case %s (%zu ops, %llu nodes, %llu steals, pruned sym=%llu):\n%s",
        c.name.c_str(), c.graph.task_count(),
        static_cast<unsigned long long>(nodes),
        static_cast<unsigned long long>(steals),
        static_cast<unsigned long long>(pruned_symmetry),
        table.Render().c_str());
    using Better = bench::JsonReport::Better;
    json.Add("optimal_" + c.name + "_speedup_4t_x", speedup_4t,
             speedup_4t_p95, "x", Better::kHigher);
    json.Add("optimal_" + c.name + "_speedup_8t_x", speedup_8t,
             speedup_8t_p95, "x", Better::kHigher);
    // Search counters from the widest run: informational, never gated.
    json.Add("optimal_" + c.name + "_steals_count",
             static_cast<double>(steals), static_cast<double>(steals),
             "count", Better::kNone);
    json.Add("optimal_" + c.name + "_nodes_pruned_symmetry_count",
             static_cast<double>(pruned_symmetry),
             static_cast<double>(pruned_symmetry), "count", Better::kNone);
  }
  RunColdMix(&json);
  bench::PrintNote(
      "acceptance: medium-case 4-thread speedup >= 2x on a 4+ core host");

  json.Write();
  return 0;
}

}  // namespace
}  // namespace ss

int main(int argc, char** argv) { return ss::Run(argc, argv); }

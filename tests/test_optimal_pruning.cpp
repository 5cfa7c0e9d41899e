// Soundness property tests for the branch-and-bound search reductions.
//
// Every PruningOptions rule claims to preserve the minimal latency. The
// oracle here is the prune-free search itself: for a sweep of random
// graphs, machines and communication models (including nonzero intra-node
// communication, the adversarial case for the processor-interchange rule),
// the fully-pruned solve must report exactly the minimum the unpruned
// enumeration finds. Every reported schedule must additionally pass the
// independent static verifier, which shares no legality bookkeeping with
// the solver.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.hpp"
#include "graph/graph_io.hpp"
#include "graph/machine.hpp"
#include "graph/op_graph.hpp"
#include "graph/synthetic.hpp"
#include "sched/optimal.hpp"
#include "verify/verifier.hpp"

namespace ss {
namespace {

using graph::CommModel;
using graph::MachineConfig;
using graph::SyntheticOptions;
using graph::SyntheticProblem;
using sched::OptimalOptions;
using sched::OptimalScheduler;
using sched::PruningOptions;

constexpr RegimeId kR0 = RegimeId(0);

PruningOptions AllOff() {
  PruningOptions p;
  p.proc_symmetry = false;
  p.ready_symmetry = false;
  p.empty_node_symmetry = false;
  p.seed_incumbent = false;
  return p;
}

struct SweepCase {
  std::string label;
  SyntheticProblem problem;
  MachineConfig machine;
  CommModel comm;
};

std::vector<SweepCase> BuildSweep() {
  std::vector<SweepCase> cases;
  const MachineConfig machines[] = {
      MachineConfig::SingleNode(3),
      MachineConfig::Cluster(2, 2),
  };
  // Free comm isolates order/assignment symmetry; the nonzero intra model
  // is the adversarial case for merging same-node processors that still
  // hold live producers; the cluster default adds inter-node cost.
  CommModel intra_costly;
  intra_costly.intra_latency = 7;
  intra_costly.inter_latency = 25;
  const CommModel comms[] = {CommModel::Free(), intra_costly, CommModel()};
  for (int seed : {3, 17, 29, 41}) {
    Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 5);
    SyntheticOptions gen;
    gen.layers = 2;
    gen.max_width = 2;
    gen.max_chunks = 2;
    SyntheticProblem problems[] = {
        graph::MakeChain(rng, 4, gen),
        graph::MakeForkJoin(rng, 3, gen),
        graph::MakeLayered(rng, gen),
    };
    for (auto& problem : problems) {
      const auto& machine =
          machines[static_cast<std::size_t>(seed) % std::size(machines)];
      const auto& comm =
          comms[static_cast<std::size_t>(seed) % std::size(comms)];
      cases.push_back(SweepCase{
          problem.family + "/seed" + std::to_string(seed),
          std::move(problem), machine, comm});
    }
  }
  return cases;
}

TEST(OptimalPruningTest, PrunedSearchMatchesPruneFreeReference) {
  for (const SweepCase& c : BuildSweep()) {
    SCOPED_TRACE(c.label);
    OptimalScheduler solver(c.problem.graph, c.problem.costs, c.comm,
                            c.machine);

    OptimalOptions reference;
    reference.pruning = AllOff();
    reference.max_nodes = 30'000'000;
    auto unpruned = solver.Schedule(kR0, reference);
    ASSERT_TRUE(unpruned.ok()) << unpruned.status().ToString();
    ASSERT_FALSE(unpruned->budget_exhausted) << "reference budget too small";

    auto pruned = solver.Schedule(kR0, OptimalOptions{});
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ASSERT_FALSE(pruned->budget_exhausted);

    // The reductions may choose different representatives among the ties,
    // but the minimum itself must be exact.
    EXPECT_EQ(pruned->min_latency, unpruned->min_latency);
    EXPECT_LE(pruned->nodes_explored, unpruned->nodes_explored);
  }
}

TEST(OptimalPruningTest, EachRuleAloneMatchesPruneFreeReference) {
  // Isolate every rule: a bug in one must not hide behind another rule
  // pruning the same subtree first.
  for (const SweepCase& c : BuildSweep()) {
    OptimalScheduler solver(c.problem.graph, c.problem.costs, c.comm,
                            c.machine);
    OptimalOptions reference;
    reference.pruning = AllOff();
    reference.max_nodes = 30'000'000;
    auto unpruned = solver.Schedule(kR0, reference);
    ASSERT_TRUE(unpruned.ok()) << unpruned.status().ToString();
    ASSERT_FALSE(unpruned->budget_exhausted);

    for (int rule = 0; rule < 4; ++rule) {
      SCOPED_TRACE(c.label + " rule " + std::to_string(rule));
      OptimalOptions opt;
      opt.pruning = AllOff();
      switch (rule) {
        case 0: opt.pruning.proc_symmetry = true; break;
        case 1: opt.pruning.ready_symmetry = true; break;
        case 2: opt.pruning.empty_node_symmetry = true; break;
        case 3: opt.pruning.seed_incumbent = true; break;
      }
      opt.max_nodes = 30'000'000;
      auto result = solver.Schedule(kR0, opt);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_FALSE(result->budget_exhausted);
      EXPECT_EQ(result->min_latency, unpruned->min_latency);
    }
  }
}

TEST(OptimalPruningTest, ReportedSchedulesSurviveIndependentVerifier) {
  for (const SweepCase& c : BuildSweep()) {
    SCOPED_TRACE(c.label);
    OptimalScheduler solver(c.problem.graph, c.problem.costs, c.comm,
                            c.machine);
    auto result = solver.Schedule(kR0, OptimalOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    graph::ProblemSpec spec;
    spec.graph = c.problem.graph;
    spec.costs = c.problem.costs;
    spec.machine = c.machine;
    spec.comm = c.comm;
    spec.regime_count = 1;
    const verify::ScheduleVerifier verifier(spec, kR0);
    const auto artifact =
        verifier.VerifyArtifact(result->best, result->min_latency);
    EXPECT_TRUE(artifact.clean()) << artifact.ToTable();
    ASSERT_FALSE(result->optimal.empty());
    for (const auto& s : result->optimal) {
      EXPECT_EQ(s.Latency(), result->min_latency);
      const auto report = verifier.VerifyIteration(s);
      EXPECT_TRUE(report.ok()) << report.ToTable();
    }
  }
}

}  // namespace
}  // namespace ss

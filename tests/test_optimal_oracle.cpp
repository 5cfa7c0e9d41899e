// Differential check of the exact solver against the brute-force oracle
// (tests/brute_force_oracle.hpp), which shares no code with src/sched. Over
// a seeded sweep of small synthetic problems (at most 6 ops, at most 3
// processors) the solver's minimal latency must equal the oracle's, every
// schedule it reports must be one of the oracle's ties, and its best
// pipelined schedule must reach the smallest initiation interval of any
// tie. A bug in candidate generation, earliest-start placement, comm
// charging or any pruning rule shows up here even when the solver agrees
// with itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "brute_force_oracle.hpp"
#include "core/rng.hpp"
#include "graph/machine.hpp"
#include "graph/op_graph.hpp"
#include "graph/synthetic.hpp"
#include "sched/optimal.hpp"
#include "sched/pipeline.hpp"

namespace ss {
namespace {

using graph::CommModel;
using graph::MachineConfig;
using graph::SyntheticOptions;
using graph::SyntheticProblem;

constexpr RegimeId kR0 = RegimeId(0);
constexpr std::size_t kMaxOps = 6;
constexpr std::uint64_t kOracleNodes = 50'000'000;

oracle::Part PartOf(graph::OpKind kind) {
  switch (kind) {
    case graph::OpKind::kWhole: return oracle::Part::kWhole;
    case graph::OpKind::kSplit: return oracle::Part::kSplit;
    case graph::OpKind::kChunk: return oracle::Part::kChunk;
    case graph::OpKind::kJoin: return oracle::Part::kJoin;
  }
  return oracle::Part::kWhole;
}

/// A solver schedule in the oracle's terms.
oracle::Schedule ToOracle(const SyntheticProblem& p,
                          const sched::IterationSchedule& s) {
  const graph::OpGraph og =
      graph::OpGraph::Expand(p.graph, p.costs, kR0, s.variants());
  oracle::Schedule out;
  for (VariantId v : s.variants()) out.variants.push_back(v.value());
  for (const sched::ScheduleEntry& e : s.entries()) {
    const graph::Op& op = og.op(e.op);
    out.placements.push_back(oracle::Placement{
        static_cast<int>(op.task.index()), PartOf(op.kind), op.chunk_index,
        e.proc.value(), e.start});
  }
  std::sort(out.placements.begin(), out.placements.end());
  return out;
}

/// An oracle tie as a solver schedule, so the solver's pipeliner can
/// compose it.
sched::IterationSchedule FromOracle(const SyntheticProblem& p,
                                    const oracle::Schedule& s) {
  std::vector<VariantId> variants;
  for (int v : s.variants) variants.push_back(VariantId(v));
  const graph::OpGraph og =
      graph::OpGraph::Expand(p.graph, p.costs, kR0, variants);
  std::map<std::tuple<int, oracle::Part, int>, int> id_of;
  for (std::size_t i = 0; i < og.op_count(); ++i) {
    const graph::Op& op = og.op(static_cast<int>(i));
    id_of[{static_cast<int>(op.task.index()), PartOf(op.kind),
           op.chunk_index}] = static_cast<int>(i);
  }
  std::vector<sched::ScheduleEntry> entries;
  for (const oracle::Placement& pl : s.placements) {
    const int op = id_of.at({pl.task, pl.part, pl.chunk});
    entries.push_back(sched::ScheduleEntry{
        op, ProcId(pl.proc), pl.start, og.op(op).cost});
  }
  return sched::IterationSchedule(std::move(variants), std::move(entries));
}

/// The largest op count over the problem's variant combinations.
std::size_t MaxOps(const SyntheticProblem& p) {
  std::size_t ops = 0;
  for (std::size_t t = 0; t < p.graph.task_count(); ++t) {
    std::size_t widest = 1;
    for (const graph::DpVariant& v :
         p.costs.Get(kR0, TaskId(static_cast<TaskId::underlying_type>(t)))
             .variants) {
      if (v.chunks > 1 || v.split_cost != 0 || v.join_cost != 0) {
        widest = std::max(widest, static_cast<std::size_t>(v.chunks) + 2);
      }
    }
    ops += widest;
  }
  return ops;
}

struct OracleCase {
  std::string label;
  SyntheticProblem problem;
  MachineConfig machine;
  CommModel comm;
};

/// Five families, 24 problems each that expand to at most kMaxOps ops
/// under every variant combination, half their tasks data-parallel: chains
/// of 3-6 tasks and 2-4-way fork-joins on three processors of one node
/// (with a 7-tick intra-node latency and free comm respectively), width-2
/// layered DAGs on a 3x1 cluster with the default comm model, and width-3
/// layered DAGs on both machines (the shape of
/// ParallelOptimalTest.WidthThreeSweepKeepsTheMinimumAndItsTies, cut down
/// to the oracle's size).
std::vector<OracleCase> OracleSweep() {
  CommModel intra;
  intra.intra_latency = 7;
  struct Family {
    const char* name;
    MachineConfig machine;
    CommModel comm;
    SyntheticProblem (*make)(Rng&, const SyntheticOptions&);
    int max_width;
  };
  const Family families[] = {
      {"chain", MachineConfig::SingleNode(3), intra,
       [](Rng& rng, const SyntheticOptions& gen) {
         return graph::MakeChain(rng, 3 + static_cast<int>(rng.NextBelow(4)),
                                 gen);
       },
       1},
      {"forkjoin", MachineConfig::SingleNode(3), CommModel::Free(),
       [](Rng& rng, const SyntheticOptions& gen) {
         return graph::MakeForkJoin(rng, 2 + static_cast<int>(rng.NextBelow(3)),
                                    gen);
       },
       1},
      {"layered-w2", MachineConfig::Cluster(3, 1), CommModel(),
       graph::MakeLayered, 2},
      {"layered-w3", MachineConfig::SingleNode(3), intra, graph::MakeLayered,
       3},
      {"layered-w3-cluster", MachineConfig::Cluster(3, 1), CommModel(),
       graph::MakeLayered, 3},
  };
  std::vector<OracleCase> cases;
  std::uint64_t salt = 0;
  for (const Family& f : families) {
    SyntheticOptions gen;
    gen.max_width = f.max_width;
    gen.layers = 2;
    gen.max_chunks = 2;
    gen.variant_percent = 50;
    int kept = 0;
    for (std::uint64_t seed = 0; kept < 24; ++seed) {
      Rng rng(0x0a5c1e0000 + (salt << 16) + seed);
      SyntheticProblem p = f.make(rng, gen);
      if (MaxOps(p) > kMaxOps) continue;
      cases.push_back(OracleCase{
          std::string(f.name) + "/seed" + std::to_string(seed), std::move(p),
          f.machine, f.comm});
      ++kept;
    }
    ++salt;
  }
  return cases;
}

TEST(OptimalOracleTest, SolverMatchesBruteForceOnSmallProblems) {
  sched::PruningOptions none;
  none.proc_symmetry = false;
  none.ready_symmetry = false;
  none.empty_node_symmetry = false;
  none.seed_incumbent = false;
  const std::vector<OracleCase> sweep = OracleSweep();
  int capped = 0;
  for (const OracleCase& c : sweep) {
    SCOPED_TRACE(c.label);
    ASSERT_TRUE(c.problem.graph.Validate().ok());
    oracle::BruteForce brute(c.problem.graph, c.problem.costs, kR0, c.comm,
                             c.machine);
    const oracle::Result want = brute.Solve(kOracleNodes);
    ASSERT_FALSE(want.timed_out) << want.nodes << " oracle nodes";
    ASSERT_FALSE(want.ties.empty());

    sched::OptimalScheduler solver(c.problem.graph, c.problem.costs, c.comm,
                                   c.machine);
    for (bool pruned : {true, false}) {
      SCOPED_TRACE(pruned ? "default pruning" : "no pruning");
      sched::OptimalOptions opts;
      if (!pruned) opts.pruning = none;
      auto got = solver.Schedule(kR0, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_FALSE(got->budget_exhausted);
      EXPECT_EQ(got->min_latency, want.min_latency);
      for (const sched::IterationSchedule& s : got->optimal) {
        EXPECT_TRUE(want.ties.count(ToOracle(c.problem, s)) == 1)
            << "reported schedule is not one of the oracle's "
            << want.ties.size() << " ties";
      }
      if (!pruned) continue;
      Tick oracle_ii = kTickInfinity;
      for (const oracle::Schedule& tie : want.ties) {
        oracle_ii = std::min(
            oracle_ii, sched::PipelineComposer::Compose(
                           FromOracle(c.problem, tie),
                           c.machine.total_procs(), opts.pipeline)
                           .initiation_interval);
      }
      // Below the cap S holds one member of every relabeling class of
      // ties. On at most three processors a relabeling maps each pipeline
      // rotation to another, so it keeps the pipelined II, and step 3 must
      // reach the oracle's minimum II over all ties. A capped S may not.
      if (got->optimal.size() <
          static_cast<std::size_t>(opts.max_optimal_schedules)) {
        EXPECT_EQ(got->best.initiation_interval, oracle_ii)
            << "best II misses the oracle's minimum over "
            << want.ties.size() << " ties";
      } else {
        EXPECT_GE(got->best.initiation_interval, oracle_ii);
        ++capped;
      }
    }
  }
  std::printf("S reached the cap on %d of %zu problems\n", capped,
              sweep.size());
}

}  // namespace
}  // namespace ss

// The paper's off-line optimal scheduler (Fig. 6).
//
// Input:  the application task graph, execution times for each task
//         *including its data-parallel variants* (per regime), communication
//         times within and across nodes, and the machine shape.
// Output: (1) the minimal latency L for a single iteration,
//         (2) the set S of single-iteration schedules with latency L,
//         (3) the multi-iteration schedule built from a member of S with the
//             highest steady-state throughput.
//
// The paper argues exhaustive evaluation is affordable because the graphs
// are tiny and the schedule runs for months; we implement the search as a
// branch-and-bound over (data-parallel variant selection) x (op order) x
// (processor assignment), with soundness-preserving reductions:
//   * processor symmetry: interchangeable processors (same node, same free
//     time, no live producers) are branched once, and entirely idle nodes
//     are interchangeable with each other;
//   * ready-op symmetry: interchangeable ready ops (chunks of the same task)
//     are branched once;
//   * lower-bound pruning on remaining critical path and remaining work,
//     against an incumbent seeded from the list scheduler's makespan.
// One pass finds L and collects S together: the incumbent prune keeps every
// subtree that can still tie it, and each worker retains its ties by serial
// position, so S is the serially-first `max_optimal_schedules` ties.
// The search runs on `solver_threads` threads via work stealing: each worker
// owns a bounded Chase-Lev deque of subtree tasks and donates sibling
// branches while its deque is hungry; idle workers steal the shallowest
// (largest) subtrees. Results are bit-identical from 1 to N threads — see
// docs/solver.md for the determinism argument.
// One documented restriction: ops are placed at the earliest feasible time
// on the chosen processor (no deliberate idle insertion). With communication
// delays this can in principle exclude an optimal schedule; for the
// application class's graph shapes it does not, and the paper's hand
// schedules are all of this form.
#pragma once

#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "core/time.hpp"
#include "graph/cost_model.hpp"
#include "graph/machine.hpp"
#include "graph/op_graph.hpp"
#include "graph/task_graph.hpp"
#include "sched/pipeline.hpp"
#include "sched/schedule.hpp"

namespace ss::sched {

/// Sentinel for OptimalOptions::solver_threads: no explicit thread-count
/// request. Direct scheduler calls treat it as serial; the schedule service
/// substitutes its deployment default (ServiceOptions::solver_threads).
inline constexpr int kSolverThreadsUnset = -1;

/// Search-space reduction toggles, all on by default; exposed so ablations,
/// the pruning property tests, and `ssched --solver-pruning` can isolate
/// them. None changes the minimal latency L. The three symmetry rules each
/// branch one representative per relabeling class (processors, ops or idle
/// nodes swapped), so below the `max_optimal_schedules` cap S holds one
/// member of every class of schedules at L; which member depends on the
/// rules. The seed changes no result (docs/solver.md carries the per-rule
/// arguments).
struct PruningOptions {
  /// Branch once per interchangeable-processor class: two same-node
  /// processors with equal free times merge when intra-node communication
  /// is free, or when their live producers (scheduled ops still feeding
  /// unscheduled successors) pair up as interchangeable ops with equal
  /// finish times — then relabeling the processors is a makespan-
  /// preserving bijection of the completions.
  bool proc_symmetry = true;
  /// Branch one representative per ready-op equivalence class (same cost,
  /// predecessors and successors — e.g. chunks of one data-parallel task).
  bool ready_symmetry = true;
  /// Entirely idle nodes are interchangeable: candidates are generated on
  /// the first idle node only.
  bool empty_node_symmetry = true;
  /// Seed the shared incumbent with the list scheduler's makespan so the
  /// search starts tight instead of discovering its first bound late.
  bool seed_incumbent = true;
};

struct OptimalOptions {
  /// Cap on how many latency-optimal iteration schedules are retained in S.
  /// Latency mode rejects a cap below 1 with kInvalidArgument; throughput
  /// (bound) mode accepts it, since there it only limits what is reported.
  int max_optimal_schedules = 32;
  /// Branch-and-bound node budget across all variant combinations. The cap
  /// is global: with multiple solver threads the workers draw chunks from a
  /// shared pool, so the total node count never exceeds it.
  std::uint64_t max_nodes = 20'000'000;
  /// Threads used for the branch-and-bound search. kSolverThreadsUnset
  /// (the default) = no explicit choice: direct calls run serial, and the
  /// schedule service substitutes ServiceOptions::solver_threads. 1 = serial
  /// requested explicitly (the service honors it); 0 = one per hardware
  /// thread. The search result is a pure function of the problem and the
  /// options, never of this value: min_latency, the reported schedule set
  /// and the best pipelined schedule are identical for every thread count
  /// (as long as the node budget is not exhausted — an exhausted search
  /// stops at a timing-dependent frontier).
  int solver_threads = kSolverThreadsUnset;
  /// Search-space reductions. The symmetry toggles participate in cache
  /// keys (they determine which relabeling of each schedule at L the
  /// reported set holds); seeding does not (it only affects how fast the
  /// same result is found).
  PruningOptions pruning;
  /// Pipelining options for step 3.
  PipelineOptions pipeline;
  /// Time limit, as an absolute WallNow() tick; kTickInfinity = none. The
  /// search checks the clock at node-budget refills (every ~1024 nodes per
  /// worker) and, once the tick has passed, winds down, returning the best
  /// result found so far (the seed when nothing better completed) with
  /// `cancelled` set, or an error if nothing completed yet. Runtime-only:
  /// does not participate in cache keys.
  Tick stop_at = kTickInfinity;
};

/// Compact solver diagnostics, carried alongside cached / service results
/// so hit-path consumers can still report what the original solve cost.
struct SolveStats {
  std::uint64_t nodes_explored = 0;
  std::uint64_t complete_schedules = 0;
  std::uint64_t variant_combinations = 0;
  bool budget_exhausted = false;
  bool cancelled = false;
  /// Wall-clock duration of the solve, in ticks (microseconds).
  Tick wall_ticks = 0;
};

struct OptimalResult {
  /// Step 1: minimal single-iteration latency (in throughput mode: the
  /// minimal latency encountered within the bound).
  Tick min_latency = 0;
  /// Step 2: latency-optimal iteration schedules, reported in
  /// canonical-key order. Capped at max_optimal_schedules: when the
  /// enumeration holds more ties than the cap, the retained
  /// representatives are the serially-first ones (a deterministic choice,
  /// identical for every thread count); below the cap the set is every
  /// tie the pruned enumeration admits.
  std::vector<IterationSchedule> optimal;
  /// Step 3: the best software-pipelined schedule from the set above.
  PipelinedSchedule best;
  /// Diagnostics.
  std::uint64_t nodes_explored = 0;
  std::uint64_t complete_schedules = 0;
  std::uint64_t variant_combinations = 0;
  bool budget_exhausted = false;
  /// The search was cut short by OptimalOptions::stop_at; the result is the
  /// best found up to that point and carries no optimality guarantee.
  bool cancelled = false;
  /// Wall-clock duration of the solve call that produced this result.
  Tick solve_wall_ticks = 0;
  /// Work-stealing and pruning telemetry (run diagnostics only; not part
  /// of SolveStats, so cache snapshots are unaffected). Steal counts and,
  /// above one thread, the pruning counter are timing-dependent: the
  /// incumbent's history decides which subtrees are visited at all.
  std::uint64_t steals = 0;
  std::uint64_t nodes_pruned_symmetry = 0;
  /// Makespan of the heuristic seed schedule (0 = search ran unseeded).
  Tick seed_makespan = 0;

  SolveStats Stats() const {
    return SolveStats{nodes_explored, complete_schedules,
                      variant_combinations, budget_exhausted, cancelled,
                      solve_wall_ticks};
  }
};

class OptimalScheduler {
 public:
  OptimalScheduler(const graph::TaskGraph& graph,
                   const graph::CostModel& costs, graph::CommModel comm,
                   graph::MachineConfig machine);

  /// Runs the Fig. 6 algorithm for one regime.
  Expected<OptimalResult> Schedule(RegimeId regime,
                                   const OptimalOptions& options = {}) const;

  /// Finds the minimal-makespan schedule for a *fixed* variant selection
  /// (used by ablations and tests).
  Expected<OptimalResult> ScheduleWithVariants(
      RegimeId regime, const std::vector<VariantId>& variants,
      const OptimalOptions& options = {}) const;

  /// Throughput mode: maximizes steady-state throughput (minimal pipelined
  /// initiation interval) over all schedules whose single-iteration latency
  /// is at most `latency_bound`. With bound = the regime's minimal latency
  /// this reduces to Fig. 6; looser bounds trade latency for throughput
  /// (the frontier the related work of [13] studies).
  Expected<OptimalResult> ScheduleForThroughput(
      RegimeId regime, Tick latency_bound,
      const OptimalOptions& options = {}) const;

 private:
  const graph::TaskGraph& graph_;
  const graph::CostModel& costs_;
  graph::CommModel comm_;
  graph::MachineConfig machine_;
};

}  // namespace ss::sched

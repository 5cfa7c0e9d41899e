// Schedule intermediate representation.
//
// An IterationSchedule places every op of one iteration (one timestamp
// through all tasks) on a processor at a start time — paper §3.3's view of
// the work for a given time-stamp as an iteration. A PipelinedSchedule
// replays the iteration every `initiation_interval` ticks, rotating the
// processor assignment by `rotation` processors per successive timestamp
// (the wrap-around of paper Fig. 5a).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/ids.hpp"
#include "core/time.hpp"
#include "graph/machine.hpp"
#include "graph/op_graph.hpp"

namespace ss::sched {

/// Provenance of a schedule: proven-optimal (full Fig. 6 search) or a
/// heuristic stand-in (list scheduler, or a search cut short by a deadline).
/// Heuristic schedules are still verified-legal; they just carry no
/// optimality guarantee.
enum class ScheduleQuality { kOptimal = 0, kHeuristic = 1 };

inline const char* ToString(ScheduleQuality q) {
  return q == ScheduleQuality::kOptimal ? "optimal" : "heuristic";
}

struct ScheduleEntry {
  int op = -1;
  ProcId proc;
  Tick start = 0;
  Tick duration = 0;

  Tick end() const { return start + duration; }
};

class IterationSchedule {
 public:
  IterationSchedule() = default;
  IterationSchedule(std::vector<VariantId> variants,
                    std::vector<ScheduleEntry> entries);

  const std::vector<ScheduleEntry>& entries() const { return entries_; }
  const std::vector<VariantId>& variants() const { return variants_; }

  /// Entry for a given op id (ops are scheduled exactly once).
  const ScheduleEntry& EntryFor(int op) const;

  /// Makespan: completion time of the last op (iteration latency).
  Tick Latency() const { return latency_; }

  /// Total busy time on `proc` within the iteration.
  Tick ProcBusy(ProcId proc) const;

  /// Highest processor index used, plus one.
  int ProcsUsed() const;

  /// Sum of idle gaps inside [0, Latency()) across the first `procs`
  /// processors (the "wasted space" of paper §3.3).
  Tick IdleTime(int procs) const;

  /// Checks that entries never overlap on a processor and that `og`'s
  /// dependencies are respected (with communication charged via `comm` and
  /// `machine` when endpoints sit on different nodes).
  Status Validate(const graph::OpGraph& og, const graph::MachineConfig& machine,
                  const graph::CommModel& comm) const;

  /// Deterministic canonical string: the variants, then every op's
  /// placement in op-id order, as decimal text. Equal schedules have equal
  /// keys, and the keys' string order is the tie-break of the solver's
  /// reported set and of PipelineComposer::BetterThroughput.
  std::string CanonicalKey() const;

  /// Human-readable listing.
  std::string ToString(const graph::OpGraph& og) const;

 private:
  std::vector<VariantId> variants_;
  std::vector<ScheduleEntry> entries_;  // sorted by (start, proc)
  Tick latency_ = 0;
};

/// The multi-iteration (software-pipelined) schedule: iteration k executes
/// entry e at proc (e.proc + k*rotation) mod procs, time e.start + k*II.
struct PipelinedSchedule {
  IterationSchedule iteration;
  Tick initiation_interval = 0;
  int rotation = 0;
  int procs = 0;  // modulus for the rotation

  /// Steady-state frames per second.
  double ThroughputPerSec() const {
    if (initiation_interval <= 0) return 0.0;
    return 1e6 / static_cast<double>(initiation_interval);
  }

  /// Per-frame latency (constant in steady state).
  Tick Latency() const { return iteration.Latency(); }

  /// Processor executing op-entry `e` for iteration `k`.
  ProcId ProcFor(const ScheduleEntry& e, std::int64_t k) const {
    SS_CHECK(procs > 0);
    auto p = (e.proc.value() +
              static_cast<std::int64_t>(rotation) * k) % procs;
    return ProcId(static_cast<ProcId::underlying_type>(p));
  }

  std::string ToString() const;
};

}  // namespace ss::sched

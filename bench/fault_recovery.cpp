// Fault-recovery benchmark: measures what the degraded-table design buys.
//
// Part 1 — recovery latency. A processor fail-stop during a replayed run is
// detected after a heartbeat period and handled as a table switch to the
// precomputed (and verifier-checked) degraded schedule. Over many random
// (fail time, victim) trials we report the recovery latency and frames lost
// per fault, and check every trial against the analytic bound
//   detection + one initiation interval + table lookup.
//
// Part 2 — snapshot kill torture. Children of this process save the schedule
// cache snapshot in a tight loop while the parent SIGKILLs them at random
// points. Because saves go through a temp file + fsync + atomic rename, the
// snapshot on disk must always load cleanly (old or new content, never a
// torn mix); any kCorruptArtifact is a failure.
//
// `--json <file>` writes the measurements as a machine-readable sidecar.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench_util.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "fault/fault.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph_io.hpp"
#include "regime/arrivals.hpp"
#include "regime/degraded_table.hpp"
#include "regime/fault_manager.hpp"
#include "regime/regime.hpp"
#include "sched/optimal.hpp"
#include "service/schedule_cache.hpp"

namespace ss {
namespace {

/// Small three-task pipeline with a data-parallel middle stage, on a
/// two-node cluster so both processor and node loss are meaningful.
graph::ProblemSpec MakeSpec() {
  graph::ProblemSpec spec;
  const TaskId src = spec.graph.AddTask("src", /*is_source=*/true);
  const TaskId mid = spec.graph.AddTask("mid");
  const TaskId sink = spec.graph.AddTask("sink");
  const ChannelId a = spec.graph.AddChannel("a", 100);
  spec.graph.SetProducer(src, a);
  spec.graph.AddConsumer(mid, a);
  const ChannelId b = spec.graph.AddChannel("b", 100);
  spec.graph.SetProducer(mid, b);
  spec.graph.AddConsumer(sink, b);
  spec.costs.Set(RegimeId(0), src, graph::TaskCost::Serial(100));
  graph::TaskCost mid_cost = graph::TaskCost::Serial(400);
  mid_cost.AddVariant(graph::DpVariant{"x2", 2, 180, 20, 20});
  spec.costs.Set(RegimeId(0), mid, mid_cost);
  spec.costs.Set(RegimeId(0), sink, graph::TaskCost::Serial(50));
  spec.machine = graph::MachineConfig::Cluster(2, 2);
  spec.comm = graph::CommModel::Free();
  spec.regime_count = 1;
  return spec;
}

struct Percentiles {
  double median = 0;
  double p95 = 0;
};

Percentiles Pct(std::vector<double> v) {
  Percentiles p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  p.median = v[v.size() / 2];
  p.p95 = v[std::min(v.size() - 1, (v.size() * 95) / 100)];
  return p;
}

int RunRecoveryTrials(bench::JsonReport& report) {
  const graph::ProblemSpec spec = MakeSpec();
  const regime::RegimeSpace space(0, 0);
  const fault::HealthSpace hs(spec.machine, /*max_proc_failures=*/1,
                              /*max_node_failures=*/1);

  auto table = regime::DegradedScheduleTable::Precompute(space, hs, spec);
  if (!table.ok()) {
    std::fprintf(stderr, "table precompute failed: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }
  std::printf("degraded table: %zu entries (%zu heuristic), all verified\n",
              table->size(), table->heuristic_entries());

  regime::FaultRunOptions options;
  options.horizon = ticks::FromMillis(500);
  options.fault_detection_latency = ticks::FromMillis(5);
  const regime::StateTimeline timeline(0, {});
  const regime::FaultTolerantManager manager(space, *table);

  const regime::DegradedEntry& full =
      table->Get(RegimeId(0), fault::HealthSpace::FullHealth());
  const Tick ii = std::max<Tick>(1, full.schedule.initiation_interval);
  const Tick bound =
      options.fault_detection_latency + ii + options.lookup_cost;

  Rng rng(20260805);
  const int trials = 200;
  std::vector<double> latency_ms;
  std::vector<double> frames_lost;
  int over_bound = 0;
  for (int t = 0; t < trials; ++t) {
    const Tick fail_at = static_cast<Tick>(
        rng.NextInRange(ticks::FromMillis(10), ticks::FromMillis(400)));
    const ProcId victim(static_cast<int>(
        rng.NextBelow(static_cast<std::uint64_t>(spec.machine.total_procs()))));
    auto plan = fault::FaultPlan::Create(
        {fault::FaultEvent::ProcFailStop(fail_at, victim)}, spec.machine);
    if (!plan.ok()) return 1;
    auto run = manager.Replay(timeline, *plan, options);
    if (run.recoveries.size() != 1) {
      std::fprintf(stderr, "trial %d: expected 1 recovery, got %zu\n", t,
                   run.recoveries.size());
      return 1;
    }
    const regime::RecoveryRecord& rec = run.recoveries[0];
    latency_ms.push_back(ticks::ToSeconds(rec.recovery_latency) * 1e3);
    frames_lost.push_back(static_cast<double>(rec.frames_lost));
    if (rec.recovery_latency > bound) ++over_bound;
  }

  const Percentiles lat = Pct(latency_ms);
  const Percentiles lost = Pct(frames_lost);
  std::printf(
      "proc fail-stop -> table switch, %d trials:\n"
      "  recovery latency  median %.3f ms   p95 %.3f ms   bound %.3f ms\n"
      "  frames lost       median %.0f      p95 %.0f\n"
      "  trials over bound: %d\n",
      trials, lat.median, lat.p95, ticks::ToSeconds(bound) * 1e3,
      lost.median, lost.p95, over_bound);
  report.Add("fault_recovery_latency", lat.median, lat.p95, "ms",
             bench::JsonReport::Better::kLower);
  report.Add("fault_frames_lost", lost.median, lost.p95, "frames",
             bench::JsonReport::Better::kLower);
  return over_bound == 0 ? 0 : 1;
}

/// Builds a one-entry cache from a real solve, for the kill torture.
Status PopulateCache(service::ScheduleCache& cache,
                     const graph::ProblemSpec& spec) {
  const sched::OptimalScheduler scheduler(spec.graph, spec.costs, spec.comm,
                                          spec.machine);
  auto result = scheduler.Schedule(RegimeId(0));
  SS_RETURN_IF_ERROR(result.status());
  auto solve = std::make_shared<service::CachedSolve>();
  solve->key = graph::Fingerprint(spec);
  solve->schedule = result->best;
  solve->min_latency = result->min_latency;
  solve->stats = result->Stats();
  solve->regime = RegimeId(0);
  cache.Insert(std::move(solve));
  return OkStatus();
}

int RunKillTorture(bench::JsonReport& report) {
  const std::string path = "/tmp/fault_recovery_kill.sscache";
  std::remove(path.c_str());

  const graph::ProblemSpec spec = MakeSpec();
  service::ScheduleCache seed_cache;
  Status populated = PopulateCache(seed_cache, spec);
  if (!populated.ok()) {
    std::fprintf(stderr, "populate failed: %s\n",
                 populated.ToString().c_str());
    return 1;
  }
  if (Status saved = seed_cache.Save(path); !saved.ok()) {
    std::fprintf(stderr, "seed save failed: %s\n", saved.ToString().c_str());
    return 1;
  }

  Rng rng(97);
  const int rounds = 20;
  int loads_ok = 0;
  for (int round = 0; round < rounds; ++round) {
    const pid_t child = fork();
    if (child < 0) {
      std::perror("fork");
      return 1;
    }
    if (child == 0) {
      // Child: hammer Save until killed. Each save goes temp + rename, so a
      // SIGKILL mid-write can only ever strand a temp file.
      for (;;) {
        (void)seed_cache.Save(path);
      }
    }
    const auto delay_us =
        static_cast<useconds_t>(rng.NextInRange(50, 4000));
    ::usleep(delay_us);
    ::kill(child, SIGKILL);
    int wstatus = 0;
    ::waitpid(child, &wstatus, 0);

    service::ScheduleCache check;
    Status loaded = check.Load(path);
    if (!loaded.ok() || check.size() != 1) {
      std::fprintf(stderr,
                   "round %d: snapshot unusable after SIGKILL (+%u us): %s "
                   "(%zu entries)\n",
                   round, static_cast<unsigned>(delay_us),
                   loaded.ToString().c_str(), check.size());
      return 1;
    }
    ++loads_ok;
  }

  std::printf(
      "snapshot kill torture: %d/%d SIGKILL'd writers left a loadable "
      "snapshot\n",
      loads_ok, rounds);
  report.Add("snapshot_kill_loads_ok", loads_ok, loads_ok, "count",
             bench::JsonReport::Better::kHigher);
  std::remove(path.c_str());
  return loads_ok == rounds ? 0 : 1;
}

}  // namespace
}  // namespace ss

int main(int argc, char** argv) {
  ss::bench::JsonReport report(
      ss::bench::JsonReport::PathFromArgs(argc, argv));
  ss::bench::PrintHeader("Fault recovery: fail-stop -> degraded-table switch");
  int rc = ss::RunRecoveryTrials(report);
  if (rc == 0) rc = ss::RunKillTorture(report);
  if (!report.Write()) rc = 1;
  return rc;
}

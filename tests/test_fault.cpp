// Fault-tolerance tests: the fault model (plans, machine health, degraded
// mode spaces), fault injection in the online simulator, degraded schedule
// tables and the fault-tolerant manager's table-switch recovery, the
// service's resilience paths (the solve time limit, graceful
// degradation), and crash-safe snapshot round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "fault/fault.hpp"
#include "graph/graph_io.hpp"
#include "graph/op_graph.hpp"
#include "graph/synthetic.hpp"
#include "net/async_client.hpp"
#include "net/server.hpp"
#include "regime/arrivals.hpp"
#include "regime/degraded_table.hpp"
#include "regime/fault_manager.hpp"
#include "regime/regime.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal.hpp"
#include "sched/pipeline.hpp"
#include "service/schedule_cache.hpp"
#include "service/schedule_service.hpp"
#include "sim/online_sim.hpp"
#include "tenant/tenant_service.hpp"

namespace ss {
namespace {

using graph::MachineConfig;

constexpr RegimeId kR0 = RegimeId(0);

/// A small three-task pipeline (same shape as the service tests); `salt`
/// perturbs costs so distinct salts give distinct fingerprints.
std::shared_ptr<graph::ProblemSpec> MakeSpec(int salt,
                                             std::size_t regimes = 1,
                                             MachineConfig machine =
                                                 MachineConfig::SingleNode(2)) {
  auto spec = std::make_shared<graph::ProblemSpec>();
  const TaskId src = spec->graph.AddTask("src", /*is_source=*/true);
  const TaskId mid = spec->graph.AddTask("mid");
  const TaskId sink = spec->graph.AddTask("sink");
  const ChannelId a = spec->graph.AddChannel("a", 100);
  spec->graph.SetProducer(src, a);
  spec->graph.AddConsumer(mid, a);
  const ChannelId b = spec->graph.AddChannel("b", 100);
  spec->graph.SetProducer(mid, b);
  spec->graph.AddConsumer(sink, b);
  for (std::size_t r = 0; r < regimes; ++r) {
    const RegimeId rid(static_cast<RegimeId::underlying_type>(r));
    const Tick scale = static_cast<Tick>(r + 1);
    spec->costs.Set(rid, src, graph::TaskCost::Serial(100 + salt));
    graph::TaskCost mid_cost = graph::TaskCost::Serial(400 * scale);
    mid_cost.AddVariant(graph::DpVariant{"x2", 2, 180 * scale, 20, 20});
    spec->costs.Set(rid, mid, mid_cost);
    spec->costs.Set(rid, sink, graph::TaskCost::Serial(50));
  }
  spec->machine = machine;
  spec->comm = graph::CommModel::Free();
  spec->regime_count = regimes;
  return spec;
}

// ---- fault plan --------------------------------------------------------------

TEST(FaultPlanTest, ValidatesEvents) {
  const MachineConfig machine = MachineConfig::Cluster(2, 2);
  EXPECT_FALSE(fault::FaultPlan::Create(
                   {fault::FaultEvent::ProcFailStop(0, ProcId(4))}, machine)
                   .ok());
  EXPECT_FALSE(fault::FaultPlan::Create(
                   {fault::FaultEvent::NodeFailStop(0, NodeId(2))}, machine)
                   .ok());
  EXPECT_FALSE(fault::FaultPlan::Create(
                   {fault::FaultEvent::ProcFailStop(-1, ProcId(0))}, machine)
                   .ok());
  EXPECT_FALSE(fault::FaultPlan::Create({fault::FaultEvent::TransientSlowdown(
                                            0, ProcId(0), /*duration=*/0,
                                            /*factor=*/2.0)},
                                        machine)
                   .ok());
  EXPECT_FALSE(fault::FaultPlan::Create({fault::FaultEvent::TransientSlowdown(
                                            0, ProcId(0), /*duration=*/10,
                                            /*factor=*/0.5)},
                                        machine)
                   .ok());
  EXPECT_TRUE(fault::FaultPlan::Create({}, machine).ok());
}

TEST(FaultPlanTest, SortsEventsAndAnswersQueries) {
  const MachineConfig machine = MachineConfig::Cluster(2, 2);
  auto plan = fault::FaultPlan::Create(
      {fault::FaultEvent::ProcFailStop(100, ProcId(1)),
       fault::FaultEvent::TransientSlowdown(50, ProcId(0), 100, 2.0),
       fault::FaultEvent::TransientSlowdown(100, ProcId(0), 100, 3.0),
       fault::FaultEvent::NodeFailStop(300, NodeId(1))},
      machine);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->events().size(), 4u);
  EXPECT_EQ(plan->events().front().at, 50);
  EXPECT_EQ(plan->events().back().at, 300);

  EXPECT_EQ(plan->HealthAt(99).surviving_procs(), 4);
  EXPECT_EQ(plan->HealthAt(100).surviving_procs(), 3);
  EXPECT_EQ(plan->HealthAt(300).surviving_procs(), 1);

  EXPECT_FALSE(plan->ProcDeadAt(ProcId(1), 99));
  EXPECT_TRUE(plan->ProcDeadAt(ProcId(1), 100));
  EXPECT_TRUE(plan->ProcDeadAt(ProcId(2), 300));  // via its node
  EXPECT_FALSE(plan->ProcDeadAt(ProcId(0), 10'000));

  EXPECT_DOUBLE_EQ(plan->SlowdownAt(ProcId(0), 49), 1.0);
  EXPECT_DOUBLE_EQ(plan->SlowdownAt(ProcId(0), 120), 6.0);  // windows multiply
  EXPECT_DOUBLE_EQ(plan->SlowdownAt(ProcId(0), 160), 3.0);
  EXPECT_DOUBLE_EQ(plan->SlowdownAt(ProcId(0), 200), 1.0);
  EXPECT_DOUBLE_EQ(plan->SlowdownAt(ProcId(1), 120), 1.0);
}

// ---- health space ------------------------------------------------------------

TEST(HealthSpaceTest, SizeAndConfigs) {
  const MachineConfig machine = MachineConfig::Cluster(2, 2);
  const fault::HealthSpace hs(machine, /*max_proc_failures=*/1,
                              /*max_node_failures=*/1);
  EXPECT_EQ(hs.size(), 4u);
  const MachineConfig full = hs.ConfigOf(fault::HealthSpace::FullHealth());
  EXPECT_EQ(full.nodes, 2);
  EXPECT_EQ(full.procs_per_node, 2);
  for (HealthId h : hs.AllModes()) {
    const MachineConfig c = hs.ConfigOf(h);
    EXPECT_GE(c.total_procs(), 1) << hs.Name(h);
    EXPECT_LE(c.total_procs(), machine.total_procs());
  }
  // Clamping keeps at least one processor alive even for absurd maxima.
  const fault::HealthSpace clamped(machine, 99, 99);
  EXPECT_EQ(clamped.max_proc_failures(), 1);
  EXPECT_EQ(clamped.max_node_failures(), 1);
}

TEST(HealthSpaceTest, FromHealthMapsOntoModes) {
  const MachineConfig machine = MachineConfig::Cluster(2, 2);
  const fault::HealthSpace hs(machine, 1, 1);

  fault::MachineHealth all_up = fault::MachineHealth::AllUp(machine);
  EXPECT_EQ(hs.FromHealth(all_up), fault::HealthSpace::FullHealth());

  fault::MachineHealth one_proc = all_up;
  one_proc.FailProc(ProcId(3));
  const HealthId proc_mode = hs.FromHealth(one_proc);
  EXPECT_NE(proc_mode, fault::HealthSpace::FullHealth());
  EXPECT_EQ(hs.ConfigOf(proc_mode).procs_per_node, 1);
  EXPECT_EQ(hs.ConfigOf(proc_mode).nodes, 2);

  fault::MachineHealth node_down = all_up;
  node_down.FailNode(machine, NodeId(0));
  const HealthId node_mode = hs.FromHealth(node_down);
  EXPECT_EQ(hs.ConfigOf(node_mode).nodes, 1);
  EXPECT_EQ(hs.ConfigOf(node_mode).procs_per_node, 2);
}

TEST(HealthSpaceTest, MapToSurvivorLandsOnAliveProcs) {
  const MachineConfig machine = MachineConfig::Cluster(2, 2);
  const fault::HealthSpace hs(machine, 1, 1);

  // P0 and P3 dead: one survivor per node, mode = 1 proc down per node.
  fault::MachineHealth health = fault::MachineHealth::AllUp(machine);
  health.FailProc(ProcId(0));
  health.FailProc(ProcId(3));
  const HealthId mode = hs.FromHealth(health);
  const MachineConfig degraded = hs.ConfigOf(mode);
  ASSERT_EQ(degraded.total_procs(), 2);
  EXPECT_EQ(hs.MapToSurvivor(mode, ProcId(0), health), ProcId(1));
  EXPECT_EQ(hs.MapToSurvivor(mode, ProcId(1), health), ProcId(2));

  // Whole node 0 down: the degraded single node maps onto node 1 intact,
  // preserving intra-node locality.
  fault::MachineHealth node_down = fault::MachineHealth::AllUp(machine);
  node_down.FailNode(machine, NodeId(0));
  const HealthId node_mode = hs.FromHealth(node_down);
  EXPECT_EQ(hs.MapToSurvivor(node_mode, ProcId(0), node_down), ProcId(2));
  EXPECT_EQ(hs.MapToSurvivor(node_mode, ProcId(1), node_down), ProcId(3));
}

// ---- fault injection in the online simulator ---------------------------------

class FaultSimTest : public ::testing::Test {
 protected:
  FaultSimTest() : spec_(MakeSpec(0)) {
    std::vector<VariantId> serial(spec_->graph.task_count(), VariantId(0));
    og_ = std::make_unique<graph::OpGraph>(graph::OpGraph::Expand(
        spec_->graph, spec_->costs, kR0, serial));
  }

  sim::OnlineSimOptions BaseOptions() const {
    sim::OnlineSimOptions opts;
    opts.digitizer_period = og_->TotalWork();
    opts.frames = 20;
    return opts;
  }

  std::shared_ptr<graph::ProblemSpec> spec_;
  std::unique_ptr<graph::OpGraph> og_;
};

TEST_F(FaultSimTest, ProcFailStopLosesFramesButRunContinues) {
  const MachineConfig machine = MachineConfig::SingleNode(2);
  sim::OnlineSimOptions opts = BaseOptions();
  auto plan = fault::FaultPlan::Create(
      {fault::FaultEvent::ProcFailStop(opts.digitizer_period * 5, ProcId(1))},
      machine);
  ASSERT_TRUE(plan.ok());
  opts.faults = &*plan;

  sim::OnlineSimulator sim(*og_, machine, opts);
  auto result = sim.Run();
  EXPECT_EQ(result.procs_failed, 1);
  // The run keeps completing frames on the survivor.
  EXPECT_GT(result.metrics.frames_completed, 5u);
  // Accounting stays exact: every digitized frame completed, dropped, or
  // was lost to the fault.
  EXPECT_EQ(result.metrics.frames_digitized,
            result.metrics.frames_completed + result.metrics.frames_dropped +
                result.frames_lost_to_faults);
}

TEST_F(FaultSimTest, NodeFailStopKillsEveryProcOfTheNode) {
  const MachineConfig machine = MachineConfig::Cluster(2, 2);
  sim::OnlineSimOptions opts = BaseOptions();
  auto plan = fault::FaultPlan::Create(
      {fault::FaultEvent::NodeFailStop(opts.digitizer_period * 4, NodeId(1))},
      machine);
  ASSERT_TRUE(plan.ok());
  opts.faults = &*plan;

  sim::OnlineSimulator sim(*og_, machine, opts);
  auto result = sim.Run();
  EXPECT_EQ(result.procs_failed, 2);
  EXPECT_GT(result.metrics.frames_completed, 0u);
}

TEST_F(FaultSimTest, TransientSlowdownStretchesTheRun) {
  const MachineConfig machine = MachineConfig::SingleNode(2);
  sim::OnlineSimOptions opts = BaseOptions();
  sim::OnlineSimulator clean_sim(*og_, machine, opts);
  auto clean = clean_sim.Run();

  auto plan = fault::FaultPlan::Create(
      {fault::FaultEvent::TransientSlowdown(
          0, ProcId(0), opts.digitizer_period * opts.frames * 4, 4.0)},
      machine);
  ASSERT_TRUE(plan.ok());
  sim::OnlineSimOptions slow_opts = opts;
  slow_opts.faults = &*plan;
  sim::OnlineSimulator slow_sim(*og_, machine, slow_opts);
  auto slow = slow_sim.Run();

  EXPECT_EQ(slow.procs_failed, 0);
  EXPECT_GT(slow.end_time, clean.end_time);
  ASSERT_GT(slow.metrics.frames_completed, 0u);
  EXPECT_GT(slow.metrics.latency_seconds.mean,
            clean.metrics.latency_seconds.mean);
}

TEST_F(FaultSimTest, DeterministicUnderFaults) {
  const MachineConfig machine = MachineConfig::SingleNode(2);
  sim::OnlineSimOptions opts = BaseOptions();
  auto plan = fault::FaultPlan::Create(
      {fault::FaultEvent::ProcFailStop(opts.digitizer_period * 3, ProcId(1)),
       fault::FaultEvent::TransientSlowdown(opts.digitizer_period, ProcId(0),
                                            opts.digitizer_period * 2, 2.0)},
      machine);
  ASSERT_TRUE(plan.ok());
  opts.faults = &*plan;

  sim::OnlineSimulator a(*og_, machine, opts);
  sim::OnlineSimulator b(*og_, machine, opts);
  auto ra = a.Run();
  auto rb = b.Run();
  EXPECT_EQ(ra.end_time, rb.end_time);
  EXPECT_EQ(ra.metrics.frames_completed, rb.metrics.frames_completed);
  EXPECT_EQ(ra.frames_lost_to_faults, rb.frames_lost_to_faults);
}

// ---- solver time limit -------------------------------------------------------

TEST(SolverCancelTest, PastStopTimeStopsTheSearch) {
  auto spec = MakeSpec(0);
  sched::OptimalScheduler scheduler(spec->graph, spec->costs, spec->comm,
                                    spec->machine);
  sched::OptimalOptions opts;
  opts.stop_at = WallNow();
  // Seeded (the default): the search stops before its first node and
  // answers with the list-scheduler seed.
  auto result = scheduler.Schedule(kR0, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->cancelled);
  EXPECT_TRUE(result->budget_exhausted);
  EXPECT_EQ(result->nodes_explored, 0u);
  EXPECT_EQ(result->min_latency, result->seed_makespan);
  // Unseeded, nothing completed: the stop is a typed error.
  opts.pruning.seed_incumbent = false;
  auto unseeded = scheduler.Schedule(kR0, opts);
  ASSERT_FALSE(unseeded.ok());
  EXPECT_EQ(unseeded.status().code(), StatusCode::kCancelled)
      << unseeded.status().ToString();
}

// ---- degraded schedule tables ------------------------------------------------

TEST(DegradedTableTest, PrecomputesVerifiedRegimeByHealthGrid) {
  auto spec = MakeSpec(0, /*regimes=*/2);
  const regime::RegimeSpace space(1, 2);
  const fault::HealthSpace hs(spec->machine, /*max_proc_failures=*/1);

  auto table = regime::DegradedScheduleTable::Precompute(space, hs, *spec);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->size(), 4u);  // 2 regimes x 2 health modes

  const HealthId degraded_mode = HealthId(1);
  for (RegimeId r : space.AllRegimes()) {
    const regime::DegradedEntry& full =
        table->Get(r, fault::HealthSpace::FullHealth());
    const regime::DegradedEntry& degraded = table->Get(r, degraded_mode);
    EXPECT_EQ(full.machine.total_procs(), 2);
    EXPECT_EQ(degraded.machine.total_procs(), 1);
    // Losing a processor can never improve the optimum.
    EXPECT_GE(degraded.schedule.Latency(), full.schedule.Latency());
    EXPECT_GT(degraded.schedule.Latency(), 0);
  }
}

TEST(DegradedTableTest, HeuristicFallbackWhenBudgetExhausted) {
  auto spec = MakeSpec(0, /*regimes=*/1);
  const regime::RegimeSpace space(1, 1);
  const fault::HealthSpace hs(spec->machine, 1);
  regime::DegradedTableOptions options;
  options.solver.max_nodes = 1;  // guarantees budget exhaustion
  auto table = regime::DegradedScheduleTable::Precompute(space, hs, *spec,
                                                         options);
  // Precompute verifies every entry, so a successful return means the
  // heuristic stand-ins are legal schedules too.
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_GT(table->heuristic_entries(), 0u);

  regime::DegradedTableOptions strict = options;
  strict.allow_heuristic_fallback = false;
  EXPECT_FALSE(regime::DegradedScheduleTable::Precompute(space, hs, *spec,
                                                         strict)
                   .ok());
}

// ---- fault-tolerant manager --------------------------------------------------

TEST(FaultManagerTest, ProcFailureSwitchesToDegradedTable) {
  auto spec = MakeSpec(0, /*regimes=*/1);
  const regime::RegimeSpace space(1, 1);
  const fault::HealthSpace hs(spec->machine, 1);
  auto table = regime::DegradedScheduleTable::Precompute(space, hs, *spec);
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  const Tick fail_at = ticks::FromMillis(100);
  auto plan = fault::FaultPlan::Create(
      {fault::FaultEvent::ProcFailStop(fail_at, ProcId(1))}, spec->machine);
  ASSERT_TRUE(plan.ok());

  regime::FaultRunOptions options;
  options.horizon = ticks::FromSeconds(1);
  options.fault_detection_latency = ticks::FromMillis(5);
  const regime::StateTimeline timeline(1, {});

  regime::FaultTolerantManager manager(space, *table);
  auto run = manager.Replay(timeline, *plan, options);

  ASSERT_EQ(run.recoveries.size(), 1u);
  const regime::RecoveryRecord& rec = run.recoveries[0];
  EXPECT_EQ(rec.at, fail_at);
  EXPECT_EQ(rec.detected_at, fail_at + options.fault_detection_latency);
  EXPECT_EQ(rec.from_health, fault::HealthSpace::FullHealth());
  EXPECT_EQ(rec.to_health, HealthId(1));
  EXPECT_EQ(run.final_health, HealthId(1));
  EXPECT_EQ(run.frames_lost_to_faults, rec.frames_lost);

  // Recovery latency: detection window + at most one initiation interval of
  // the pre-fault schedule + the table lookup.
  const regime::DegradedEntry& full =
      table->Get(kR0, fault::HealthSpace::FullHealth());
  const Tick ii = std::max<Tick>(1, full.schedule.initiation_interval);
  EXPECT_GE(rec.recovery_latency, options.fault_detection_latency);
  EXPECT_LE(rec.recovery_latency,
            options.fault_detection_latency + ii + options.lookup_cost);

  // Frames released after recovery run under the degraded schedule.
  const regime::DegradedEntry& degraded = table->Get(kR0, HealthId(1));
  ASSERT_FALSE(run.frames.empty());
  const sim::FrameRecord& last = run.frames.back();
  ASSERT_TRUE(last.completed());
  EXPECT_EQ(last.Latency(), degraded.schedule.Latency());
  EXPECT_GT(run.metrics.frames_completed, 0u);
}

TEST(FaultManagerTest, SlowdownInflatesLatencyWithoutTableSwitch) {
  auto spec = MakeSpec(0, /*regimes=*/1);
  const regime::RegimeSpace space(1, 1);
  const fault::HealthSpace hs(spec->machine, 1);
  auto table = regime::DegradedScheduleTable::Precompute(space, hs, *spec);
  ASSERT_TRUE(table.ok());

  auto plan = fault::FaultPlan::Create(
      {fault::FaultEvent::TransientSlowdown(ticks::FromMillis(10), ProcId(0),
                                            ticks::FromMillis(50), 3.0)},
      spec->machine);
  ASSERT_TRUE(plan.ok());

  regime::FaultRunOptions options;
  options.horizon = ticks::FromMillis(200);
  const regime::StateTimeline timeline(1, {});
  regime::FaultTolerantManager manager(space, *table);
  auto run = manager.Replay(timeline, *plan, options);

  EXPECT_TRUE(run.recoveries.empty());
  EXPECT_EQ(run.final_health, fault::HealthSpace::FullHealth());
  const Tick base = table->Get(kR0, fault::HealthSpace::FullHealth())
                        .schedule.Latency();
  bool saw_inflated = false;
  bool saw_base = false;
  for (const sim::FrameRecord& f : run.frames) {
    if (!f.completed()) continue;
    if (f.Latency() > base) saw_inflated = true;
    if (f.Latency() == base) saw_base = true;
  }
  EXPECT_TRUE(saw_inflated);
  EXPECT_TRUE(saw_base);
}

// ---- resilient service paths -------------------------------------------------

/// The rows a STATS request answers for `service`, over a real socket to
/// a server started around it for this one request.
Expected<MetricSnapshot> StatsOverTheWire(service::ScheduleService* service) {
  tenant::TenantScheduler tenants(service, tenant::TenantSchedulerOptions{});
  net::Server server(net::ServerOptions{}, service, &tenants);
  SS_RETURN_IF_ERROR(server.Start());
  Expected<net::StatsResponseMsg> stats = [&] {
    net::AsyncClient client;
    Status connected = client.Connect("127.0.0.1", server.port());
    return connected.ok() ? client.Stats()
                          : Expected<net::StatsResponseMsg>(connected);
  }();
  server.Stop();
  tenants.Shutdown();
  if (!stats.ok()) return stats.status();
  return std::move(stats->metrics);
}

service::ServiceOptions ServiceOpts(int workers) {
  service::ServiceOptions options;
  options.workers = workers;
  return options;
}

TEST(ResilientServiceTest, DegradesToHeuristicOnPersistentFailure) {
  // A real solver failure, identical on every attempt: with no seed
  // incumbent and a one-node budget the search ends before any complete
  // schedule (kInternal).
  service::ScheduleService service(ServiceOpts(1));

  service::SolveRequest request;
  request.problem = MakeSpec(3);
  request.options.pruning.seed_incumbent = false;
  request.options.max_nodes = 1;
  request.allow_degraded = true;
  auto result = service.Solve(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->quality, sched::ScheduleQuality::kHeuristic);
  EXPECT_GT((*result)->schedule.Latency(), 0);

  auto stats = service.metrics().Snapshot();
  EXPECT_EQ(stats.Count("service_degraded"), 1u);
  EXPECT_EQ(stats.Count("service_solve_failures"), 0u);
  // Heuristic results are never cached: the optimum is still owed.
  EXPECT_EQ(service.cache().Lookup(
                service::ScheduleService::RequestKey(request)),
            nullptr);

  // The same request without degradation surfaces the failure, typed.
  request.allow_degraded = false;
  auto failed = service.Solve(request);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal)
      << failed.status().ToString();
  stats = service.metrics().Snapshot();
  EXPECT_EQ(stats.Count("service_solve_failures"), 1u);
  EXPECT_EQ(stats.Count("service_degraded"), 1u);
}

TEST(ResilientServiceTest, PastDeadlineServedHeuristicWhenDegradable) {
  service::ScheduleService service(ServiceOpts(1));

  service::SolveRequest request;
  request.problem = MakeSpec(4);
  request.allow_degraded = true;
  request.deadline = WallNow() - ticks::FromMillis(1);  // already expired
  auto submitted = service.SubmitAsync(request);
  ASSERT_TRUE(submitted.ok());
  auto result = submitted->get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->quality, sched::ScheduleQuality::kHeuristic);
  // The solve stopped before its first node, so it served its seed: the
  // list scheduler's best variant, pipelined.
  const graph::ProblemSpec& spec = *request.problem;
  auto iter = sched::ListScheduler(spec.comm, spec.machine)
                  .ScheduleBestVariant(spec.graph, spec.costs, kR0);
  ASSERT_TRUE(iter.ok()) << iter.status().ToString();
  const sched::PipelinedSchedule heuristic = sched::PipelineComposer::Compose(
      std::move(*iter), spec.machine.total_procs(), request.options.pipeline);
  const sched::PipelinedSchedule& served = (*result)->schedule;
  EXPECT_EQ((*result)->min_latency, heuristic.Latency());
  EXPECT_EQ(served.Latency(), heuristic.Latency());
  EXPECT_EQ(served.initiation_interval, heuristic.initiation_interval);
  EXPECT_EQ(served.rotation, heuristic.rotation);
  EXPECT_EQ(served.iteration.CanonicalKey(),
            heuristic.iteration.CanonicalKey());

  auto stats = service.metrics().Snapshot();
  EXPECT_EQ(stats.Count("service_degraded"), 1u);
  EXPECT_EQ(stats.Count("service_deadline_exceeded"), 0u);
  EXPECT_EQ(service.cache().Lookup(
                service::ScheduleService::RequestKey(request)),
            nullptr);
}

TEST(ResilientServiceTest, WatchdogCancelsStuckSolve) {
  // A fork-join with a wide middle layer makes the branch-and-bound search
  // long enough that the (immediately expired) time limit always stops it;
  // the request still gets an answer via graceful degradation.
  Rng rng(42);
  graph::SyntheticProblem dag = graph::MakeForkJoin(rng, 6);
  auto spec = std::make_shared<graph::ProblemSpec>();
  spec->graph = dag.graph;
  spec->costs = dag.costs;
  spec->machine = MachineConfig::SingleNode(4);
  spec->comm = graph::CommModel::Free();
  spec->regime_count = 1;

  service::ServiceOptions options = ServiceOpts(1);
  options.solver_watchdog = 0;  // stop every solve as soon as it starts
  service::ScheduleService service(options);

  service::SolveRequest request;
  request.problem = spec;
  request.allow_degraded = true;
  auto result = service.Solve(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->quality, sched::ScheduleQuality::kHeuristic);

  auto stats = StatsOverTheWire(&service);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->Count("service_watchdog_cancellations"), 1u);
  // Stopped by its time limit, not out of node budget.
  EXPECT_EQ(stats->Count("service_solver_budget_exhausted"), 0u);
  EXPECT_EQ(service.cache().Lookup(
                service::ScheduleService::RequestKey(request)),
            nullptr);
}

TEST(ResilientServiceTest, SnapshotSaveFailureIsTypedAndCounted) {
  service::ServiceOptions options = ServiceOpts(0);
  options.snapshot_path = "/nonexistent-dir-for-sscache/cache.sscache";
  service::ScheduleService service(options);
  service.Shutdown();
  auto stats = StatsOverTheWire(&service);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->Count("service_snapshot_io_errors"), 1u);
}

// ---- crash-safe snapshots ----------------------------------------------------

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

class SnapshotCrashSafetyTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs these tests as concurrent processes.
  SnapshotCrashSafetyTest()
      : path_(::testing::TempDir() + "fault_test_snapshot_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".sscache") {
    std::remove(path_.c_str());
    service::ServiceOptions options;
    options.workers = 1;
    options.snapshot_path = path_;
    service::ScheduleService service(options);
    service::SolveRequest request;
    request.problem = MakeSpec(9);
    auto solved = service.Solve(request);
    EXPECT_TRUE(solved.ok());
    service.Shutdown();  // writes the snapshot
  }

  ~SnapshotCrashSafetyTest() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(SnapshotCrashSafetyTest, WritesV3WithCrcFooterAndReloads) {
  const std::string content = ReadFileOrDie(path_);
  EXPECT_EQ(content.rfind("sscache 3", 0), 0u) << content.substr(0, 32);
  const std::size_t footer = content.rfind("crc ");
  ASSERT_NE(footer, std::string::npos);
  EXPECT_TRUE(footer == 0 || content[footer - 1] == '\n');

  service::ScheduleCache cache;
  ASSERT_TRUE(cache.Load(path_).ok());
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(SnapshotCrashSafetyTest, TornSnapshotRejectedWholesale) {
  const std::string content = ReadFileOrDie(path_);
  ASSERT_GT(content.size(), 16u);
  WriteFileOrDie(path_, content.substr(0, content.size() - 10));

  service::ScheduleCache cache;
  Status loaded = cache.Load(path_);
  EXPECT_EQ(loaded.code(), StatusCode::kCorruptArtifact)
      << loaded.ToString();
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(SnapshotCrashSafetyTest, TamperedSnapshotRejectedByChecksum) {
  std::string content = ReadFileOrDie(path_);
  ASSERT_GT(content.size(), 32u);
  std::size_t mid = content.size() / 2;
  content[mid] = content[mid] == '7' ? '8' : '7';
  WriteFileOrDie(path_, content);

  service::ScheduleCache cache;
  Status loaded = cache.Load(path_);
  EXPECT_EQ(loaded.code(), StatusCode::kCorruptArtifact)
      << loaded.ToString();
  EXPECT_EQ(cache.size(), 0u);
}

// ---- property sweep ----------------------------------------------------------

TEST(FaultPropertyTest, RandomSingleProcFailuresRecoverWithBoundedLoss) {
  // For random problems and random single-processor fail-stops: a degraded
  // schedule always exists, passes the verifier (Precompute verifies every
  // entry), and recovery loses a bounded number of frames.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919);
    graph::SyntheticOptions gen;
    gen.layers = 2;
    gen.max_width = 2;
    graph::SyntheticProblem dag = graph::MakeLayered(rng, gen);

    graph::ProblemSpec spec;
    spec.graph = dag.graph;
    spec.costs = dag.costs;
    spec.machine = MachineConfig::Cluster(2, 2);
    spec.comm = graph::CommModel::Free();
    spec.regime_count = 1;

    const regime::RegimeSpace space(0, 0);
    const fault::HealthSpace hs(spec.machine, /*max_proc_failures=*/1);
    regime::DegradedTableOptions table_options;
    table_options.solver.max_nodes = 200'000;
    auto table = regime::DegradedScheduleTable::Precompute(space, hs, spec,
                                                           table_options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();

    const Tick fail_at = static_cast<Tick>(
        rng.NextInRange(ticks::FromMillis(5), ticks::FromMillis(60)));
    const ProcId victim(static_cast<int>(rng.NextBelow(
        static_cast<std::uint64_t>(spec.machine.total_procs()))));
    auto plan = fault::FaultPlan::Create(
        {fault::FaultEvent::ProcFailStop(fail_at, victim)}, spec.machine);
    ASSERT_TRUE(plan.ok());

    regime::FaultRunOptions options;
    options.horizon = ticks::FromMillis(200);
    options.fault_detection_latency = ticks::FromMillis(2);
    const regime::StateTimeline timeline(0, {});
    regime::FaultTolerantManager manager(space, *table);
    auto run = manager.Replay(timeline, *plan, options);

    ASSERT_EQ(run.recoveries.size(), 1u);
    const regime::RecoveryRecord& rec = run.recoveries[0];
    EXPECT_EQ(rec.to_health, hs.FromHealth(plan->HealthAt(fail_at)));

    // Frames lost = frames in flight at injection plus frames released in
    // the detection blind window, both paced by the initiation interval.
    const regime::DegradedEntry& full =
        table->Get(RegimeId(0), fault::HealthSpace::FullHealth());
    const Tick ii = std::max<Tick>(1, full.schedule.initiation_interval);
    const std::size_t bound = static_cast<std::size_t>(
        (full.schedule.Latency() + options.fault_detection_latency) / ii + 3);
    EXPECT_LE(rec.frames_lost, bound)
        << "latency " << full.schedule.Latency() << " ii " << ii;
    EXPECT_GT(run.metrics.frames_completed, 0u);

    // The degraded mode's schedule is present and runnable.
    const regime::DegradedEntry& degraded =
        table->Get(RegimeId(0), rec.to_health);
    EXPECT_GT(degraded.schedule.Latency(), 0);
    EXPECT_LE(degraded.machine.total_procs(),
              plan->HealthAt(fail_at).surviving_procs());
  }
}

}  // namespace
}  // namespace ss

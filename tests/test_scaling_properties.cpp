// Scaling properties of the optimal scheduler across machine shapes, and
// conservation invariants of the online simulator across its parameter
// grid.
#include <gtest/gtest.h>

#include "graph/op_graph.hpp"
#include "regime/regime.hpp"
#include "sched/optimal.hpp"
#include "sim/online_sim.hpp"
#include "tracker/costs.hpp"
#include "tracker/graph_builder.hpp"

namespace ss {
namespace {

using graph::CommModel;
using graph::MachineConfig;
using graph::OpGraph;

struct Fixture {
  tracker::TrackerGraph tg;
  regime::RegimeSpace space{8, 8};
  graph::CostModel costs;

  Fixture() : tg(tracker::BuildTrackerGraph()) {
    tracker::PaperCostParams pcp;
    pcp.scale = 0.001;
    costs = tracker::PaperCostModel(tg, space, pcp);
  }
};

Fixture& GetSetup() {
  static Fixture s;
  return s;
}

constexpr RegimeId kR0 = RegimeId(0);

// ---- machine-shape monotonicity ------------------------------------------------

TEST(ScalingTest, MoreProcessorsNeverIncreaseLatency) {
  Fixture& s = GetSetup();
  Tick prev = kTickInfinity;
  for (int procs : {1, 2, 4, 8}) {
    sched::OptimalScheduler scheduler(s.tg.graph, s.costs, CommModel(),
                                      MachineConfig::SingleNode(procs));
    auto result = scheduler.Schedule(kR0);
    ASSERT_TRUE(result.ok()) << procs;
    EXPECT_LE(result->min_latency, prev) << procs << " procs";
    prev = result->min_latency;
  }
}

TEST(ScalingTest, MoreProcessorsNeverReduceThroughput) {
  Fixture& s = GetSetup();
  double prev = 0;
  for (int procs : {1, 2, 4, 8}) {
    sched::OptimalScheduler scheduler(s.tg.graph, s.costs, CommModel(),
                                      MachineConfig::SingleNode(procs));
    auto result = scheduler.Schedule(kR0);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->best.ThroughputPerSec(), prev - 1e-9)
        << procs << " procs";
    prev = result->best.ThroughputPerSec();
  }
}

TEST(ScalingTest, FreeCommSecondNodeMatchesDoubleProcessors) {
  // With free communication, 2 nodes x 2 procs equals 1 node x 4 procs.
  Fixture& s = GetSetup();
  sched::OptimalScheduler flat(s.tg.graph, s.costs, CommModel::Free(),
                               MachineConfig::SingleNode(4));
  sched::OptimalScheduler split(s.tg.graph, s.costs, CommModel::Free(),
                                MachineConfig::Cluster(2, 2));
  auto a = flat.Schedule(kR0);
  auto b = split.Schedule(kR0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->min_latency, b->min_latency);
}

TEST(ScalingTest, ExpensiveInterNodeNeverBeatsSingleNode) {
  // Adding a second node behind an expensive link cannot reduce the
  // minimal latency below the single-node optimum with the same per-node
  // processors (it can only match it by ignoring the second node).
  Fixture& s = GetSetup();
  CommModel comm;
  comm.inter_latency = ticks::FromSeconds(10);
  comm.inter_bytes_per_us = 1;
  sched::OptimalScheduler single(s.tg.graph, s.costs, comm,
                                 MachineConfig::SingleNode(4));
  sched::OptimalScheduler cluster(s.tg.graph, s.costs, comm,
                                  MachineConfig::Cluster(2, 4));
  auto a = single.Schedule(kR0);
  auto b = cluster.Schedule(kR0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->min_latency, b->min_latency);
  // But the cluster pipelines across nodes: throughput at least as good.
  EXPECT_GE(b->best.ThroughputPerSec(),
            a->best.ThroughputPerSec() - 1e-9);
}

TEST(ScalingTest, SingleProcessorLatencyIsTotalWork) {
  Fixture& s = GetSetup();
  sched::OptimalScheduler scheduler(s.tg.graph, s.costs, CommModel::Free(),
                                    MachineConfig::SingleNode(1));
  auto result = scheduler.Schedule(kR0);
  ASSERT_TRUE(result.ok());
  // On one processor the best choice is the serial variant everywhere and
  // latency equals total serialized work.
  OpGraph og = OpGraph::Expand(s.tg.graph, s.costs, kR0,
                               result->best.iteration.variants());
  EXPECT_EQ(result->min_latency, og.TotalWork());
}

// ---- online simulator invariants ------------------------------------------------

struct OnlineCase {
  int quantum_ms;
  int capacity;
  int period_ms;
};

class OnlineInvariants : public ::testing::TestWithParam<OnlineCase> {};

TEST_P(OnlineInvariants, ConservationAndBounds) {
  Fixture& s = GetSetup();
  const OnlineCase c = GetParam();
  std::vector<VariantId> serial(s.tg.graph.task_count(), VariantId(0));
  OpGraph og = OpGraph::Expand(s.tg.graph, s.costs, kR0, serial);

  sim::OnlineSimOptions opts;
  opts.quantum = ticks::FromMillis(c.quantum_ms);
  opts.queue_capacity = static_cast<std::size_t>(c.capacity);
  opts.digitizer_period = ticks::FromMillis(c.period_ms);
  opts.frames = 50;
  opts.record_trace = true;
  sim::OnlineSimulator sim(og, MachineConfig::SingleNode(4), opts);
  auto result = sim.Run();

  // Conservation: every frame is either completed, dropped, or in flight.
  EXPECT_LE(result.metrics.frames_completed + result.metrics.frames_dropped,
            opts.frames);
  EXPECT_GT(result.metrics.frames_completed, 0u);

  // Latency lower bound.
  if (result.metrics.frames_completed > 0) {
    EXPECT_GE(result.metrics.latency_seconds.min,
              ticks::ToSeconds(og.CriticalPath()) - 1e-9);
  }

  // Work conservation: busy time never exceeds procs x elapsed, and the
  // completed frames' work is fully accounted.
  Tick busy = 0;
  for (int p = 0; p < 4; ++p) busy += result.trace.BusyTime(ProcId(p));
  EXPECT_LE(busy, 4 * result.end_time);
  EXPECT_GE(busy, static_cast<Tick>(result.metrics.frames_completed) *
                      og.TotalWork());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OnlineInvariants,
    ::testing::Values(OnlineCase{1, 1, 50}, OnlineCase{1, 8, 50},
                      OnlineCase{10, 2, 200}, OnlineCase{10, 8, 2000},
                      OnlineCase{100, 2, 50}, OnlineCase{100, 8, 500},
                      OnlineCase{250, 4, 33}, OnlineCase{50, 1, 5000}),
    [](const auto& case_info) {
      std::string name = "q";
      name += std::to_string(case_info.param.quantum_ms);
      name += 'c';
      name += std::to_string(case_info.param.capacity);
      name += 'p';
      name += std::to_string(case_info.param.period_ms);
      return name;
    });

}  // namespace
}  // namespace ss

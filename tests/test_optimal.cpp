// Tests for the Fig. 6 optimal scheduler: known-optimal micro cases,
// dominance over the heuristic list scheduler, schedule validity, and
// tractability on the full tracker graph.
#include <gtest/gtest.h>

#include "graph/cost_model.hpp"
#include "graph/machine.hpp"
#include "graph/op_graph.hpp"
#include "graph/task_graph.hpp"
#include "regime/regime.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal.hpp"
#include "tracker/costs.hpp"
#include "tracker/graph_builder.hpp"

namespace ss {
namespace {

using graph::CommModel;
using graph::CostModel;
using graph::MachineConfig;
using graph::TaskCost;
using graph::TaskGraph;
using sched::OptimalOptions;
using sched::OptimalScheduler;

constexpr RegimeId kR0 = RegimeId(0);

/// Builds a linear chain source -> t1 -> ... with given costs.
struct ChainFixture {
  TaskGraph graph;
  CostModel costs;
  std::vector<TaskId> tasks;

  explicit ChainFixture(const std::vector<Tick>& task_costs) {
    for (std::size_t i = 0; i < task_costs.size(); ++i) {
      const std::string n = std::to_string(i);
      tasks.push_back(
          graph.AddTask(std::string("t").append(n), /*is_source=*/i == 0));
      costs.Set(kR0, tasks.back(), TaskCost::Serial(task_costs[i]));
      if (i > 0) {
        ChannelId ch = graph.AddChannel(std::string("c").append(n), 100);
        graph.SetProducer(tasks[i - 1], ch);
        graph.AddConsumer(tasks[i], ch);
      }
    }
  }
};

TEST(OptimalSchedulerTest, ChainLatencyIsSumOfCosts) {
  ChainFixture fx({100, 200, 300});
  OptimalScheduler sched(fx.graph, fx.costs, CommModel::Free(),
                         MachineConfig::SingleNode(2));
  auto result = sched.Schedule(kR0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->min_latency, 600);
}

TEST(OptimalSchedulerTest, ForkJoinUsesTaskParallelism) {
  // source(10) -> {a(100), b(100)} -> sink(10): with 2 procs the two middle
  // tasks overlap: latency = 10 + 100 + 10.
  TaskGraph g;
  CostModel costs;
  TaskId src = g.AddTask("src", true);
  TaskId a = g.AddTask("a");
  TaskId b = g.AddTask("b");
  TaskId sink = g.AddTask("sink");
  ChannelId c0 = g.AddChannel("c0", 0);
  ChannelId ca = g.AddChannel("ca", 0);
  ChannelId cb = g.AddChannel("cb", 0);
  g.SetProducer(src, c0);
  g.AddConsumer(a, c0);
  g.AddConsumer(b, c0);
  g.SetProducer(a, ca);
  g.SetProducer(b, cb);
  g.AddConsumer(sink, ca);
  g.AddConsumer(sink, cb);
  costs.Set(kR0, src, TaskCost::Serial(10));
  costs.Set(kR0, a, TaskCost::Serial(100));
  costs.Set(kR0, b, TaskCost::Serial(100));
  costs.Set(kR0, sink, TaskCost::Serial(10));

  OptimalScheduler sched(g, costs, CommModel::Free(),
                         MachineConfig::SingleNode(2));
  auto result = sched.Schedule(kR0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->min_latency, 120);

  // On one processor there is no overlap: latency = 220.
  OptimalScheduler uni(g, costs, CommModel::Free(),
                       MachineConfig::SingleNode(1));
  auto uni_result = uni.Schedule(kR0);
  ASSERT_TRUE(uni_result.ok());
  EXPECT_EQ(uni_result->min_latency, 220);
}

TEST(OptimalSchedulerTest, DataParallelVariantReducesLatency) {
  // One source, one heavy task with a 4-chunk variant. With 4 procs the
  // chunked variant wins: 10 + (5 + 100 + 5) vs 10 + 400.
  TaskGraph g;
  CostModel costs;
  TaskId src = g.AddTask("src", true);
  TaskId heavy = g.AddTask("heavy");
  ChannelId c0 = g.AddChannel("c0", 0);
  g.SetProducer(src, c0);
  g.AddConsumer(heavy, c0);
  costs.Set(kR0, src, TaskCost::Serial(10));
  TaskCost heavy_cost = TaskCost::Serial(400);
  heavy_cost.AddVariant(graph::DpVariant{"x4", 4, 100, 5, 5});
  costs.Set(kR0, heavy, std::move(heavy_cost));

  OptimalScheduler sched(g, costs, CommModel::Free(),
                         MachineConfig::SingleNode(4));
  auto result = sched.Schedule(kR0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->min_latency, 120);
  // The chosen variant for the heavy task is the chunked one.
  EXPECT_EQ(result->best.iteration.variants()[heavy.index()], VariantId(1));
}

TEST(OptimalSchedulerTest, ChunkedVariantNotWorthItOnFewProcs) {
  // Same graph but 1 processor: serialized chunks cost 400 + 10 overhead,
  // so the serial variant (400) wins.
  TaskGraph g;
  CostModel costs;
  TaskId src = g.AddTask("src", true);
  TaskId heavy = g.AddTask("heavy");
  ChannelId c0 = g.AddChannel("c0", 0);
  g.SetProducer(src, c0);
  g.AddConsumer(heavy, c0);
  costs.Set(kR0, src, TaskCost::Serial(10));
  TaskCost heavy_cost = TaskCost::Serial(400);
  heavy_cost.AddVariant(graph::DpVariant{"x4", 4, 100, 5, 5});
  costs.Set(kR0, heavy, std::move(heavy_cost));

  OptimalScheduler sched(g, costs, CommModel::Free(),
                         MachineConfig::SingleNode(1));
  auto result = sched.Schedule(kR0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->min_latency, 410);
  EXPECT_EQ(result->best.iteration.variants()[heavy.index()], VariantId(0));
}

TEST(OptimalSchedulerTest, CommunicationCostDiscouragesSpreading) {
  // fork-join with expensive inter-processor comm: staying on one proc
  // (220) beats paying 200 comm each way (120 + comm).
  TaskGraph g;
  CostModel costs;
  TaskId src = g.AddTask("src", true);
  TaskId a = g.AddTask("a");
  TaskId b = g.AddTask("b");
  TaskId sink = g.AddTask("sink");
  ChannelId c0 = g.AddChannel("c0", 1000);
  ChannelId ca = g.AddChannel("ca", 1000);
  ChannelId cb = g.AddChannel("cb", 1000);
  g.SetProducer(src, c0);
  g.AddConsumer(a, c0);
  g.AddConsumer(b, c0);
  g.SetProducer(a, ca);
  g.SetProducer(b, cb);
  g.AddConsumer(sink, ca);
  g.AddConsumer(sink, cb);
  costs.Set(kR0, src, TaskCost::Serial(10));
  costs.Set(kR0, a, TaskCost::Serial(100));
  costs.Set(kR0, b, TaskCost::Serial(100));
  costs.Set(kR0, sink, TaskCost::Serial(10));

  CommModel comm;
  comm.intra_latency = 500;  // same node but different proc is expensive
  comm.intra_bytes_per_us = 0;
  OptimalScheduler sched(g, costs, comm, MachineConfig::SingleNode(2));
  auto result = sched.Schedule(kR0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->min_latency, 220);
  EXPECT_EQ(result->best.iteration.ProcsUsed(), 1);
}

TEST(OptimalSchedulerTest, SchedulesValidate) {
  ChainFixture fx({50, 100, 150, 70});
  const MachineConfig machine = MachineConfig::SingleNode(3);
  const CommModel comm;
  OptimalScheduler sched(fx.graph, fx.costs, comm, machine);
  auto result = sched.Schedule(kR0);
  ASSERT_TRUE(result.ok());
  for (const auto& s : result->optimal) {
    graph::OpGraph og =
        graph::OpGraph::Expand(fx.graph, fx.costs, kR0, s.variants());
    EXPECT_TRUE(s.Validate(og, machine, comm).ok());
  }
}

TEST(OptimalSchedulerTest, NeverWorseThanListScheduler) {
  // Random-ish diamond graphs with mixed costs.
  for (int variant = 0; variant < 4; ++variant) {
    TaskGraph g;
    CostModel costs;
    TaskId src = g.AddTask("src", true);
    TaskId a = g.AddTask("a");
    TaskId b = g.AddTask("b");
    TaskId c = g.AddTask("c");
    TaskId sink = g.AddTask("sink");
    ChannelId c0 = g.AddChannel("c0", 10);
    ChannelId c1 = g.AddChannel("c1", 10);
    ChannelId c2 = g.AddChannel("c2", 10);
    ChannelId c3 = g.AddChannel("c3", 10);
    ChannelId c4 = g.AddChannel("c4", 10);
    g.SetProducer(src, c0);
    g.AddConsumer(a, c0);
    g.AddConsumer(b, c0);
    g.AddConsumer(c, c0);
    g.SetProducer(a, c1);
    g.SetProducer(b, c2);
    g.SetProducer(c, c3);
    g.AddConsumer(sink, c1);
    g.AddConsumer(sink, c2);
    g.AddConsumer(sink, c3);
    g.SetProducer(sink, c4);
    costs.Set(kR0, src, TaskCost::Serial(10 + variant));
    costs.Set(kR0, a, TaskCost::Serial(100 + 37 * variant));
    costs.Set(kR0, b, TaskCost::Serial(180 - 21 * variant));
    costs.Set(kR0, c, TaskCost::Serial(90 + 11 * variant));
    costs.Set(kR0, sink, TaskCost::Serial(25));

    const MachineConfig machine = MachineConfig::SingleNode(2);
    const CommModel comm;
    OptimalScheduler sched(g, costs, comm, machine);
    auto optimal = sched.Schedule(kR0);
    ASSERT_TRUE(optimal.ok());

    sched::ListScheduler list(comm, machine);
    auto heuristic = list.ScheduleBestVariant(g, costs, kR0);
    ASSERT_TRUE(heuristic.ok());
    EXPECT_LE(optimal->min_latency, heuristic->Latency())
        << "variant " << variant;
  }
}

TEST(OptimalSchedulerTest, CollectsMultipleOptimalSchedules) {
  // Two independent equal tasks after a source: many optimal placements.
  TaskGraph g;
  CostModel costs;
  TaskId src = g.AddTask("src", true);
  TaskId a = g.AddTask("a");
  TaskId b = g.AddTask("b");
  ChannelId c0 = g.AddChannel("c0", 0);
  g.SetProducer(src, c0);
  g.AddConsumer(a, c0);
  g.AddConsumer(b, c0);
  costs.Set(kR0, src, TaskCost::Serial(10));
  costs.Set(kR0, a, TaskCost::Serial(50));
  costs.Set(kR0, b, TaskCost::Serial(50));

  OptimalScheduler sched(g, costs, CommModel::Free(),
                         MachineConfig::SingleNode(2));
  auto result = sched.Schedule(kR0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->min_latency, 60);
  EXPECT_GE(result->optimal.size(), 1u);
  // All collected schedules achieve the same latency and are distinct.
  std::set<std::string> keys;
  for (const auto& s : result->optimal) {
    EXPECT_EQ(s.Latency(), result->min_latency);
    EXPECT_TRUE(keys.insert(s.CanonicalKey()).second);
  }
}

TEST(OptimalSchedulerTest, LatencyModeRejectsEmptyScheduleSetCap) {
  // Latency mode picks its answer from S, so a cap below 1 is a caller
  // error, not a search failure. Throughput mode only reports S and keeps
  // accepting it.
  ChainFixture fx({100, 200, 300});
  OptimalScheduler sched(fx.graph, fx.costs, CommModel::Free(),
                         MachineConfig::SingleNode(2));
  const std::vector<VariantId> serial(fx.tasks.size(), VariantId(0));
  for (int cap : {0, -1}) {
    OptimalOptions opts;
    opts.max_optimal_schedules = cap;
    auto result = sched.Schedule(kR0, opts);
    ASSERT_FALSE(result.ok()) << "cap " << cap;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status().ToString();
    auto pinned = sched.ScheduleWithVariants(kR0, serial, opts);
    ASSERT_FALSE(pinned.ok()) << "cap " << cap;
    EXPECT_EQ(pinned.status().code(), StatusCode::kInvalidArgument)
        << pinned.status().ToString();
    auto bounded = sched.ScheduleForThroughput(kR0, 600, opts);
    ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
    EXPECT_EQ(bounded->min_latency, 600);
  }
}

TEST(OptimalSchedulerTest, TrackerGraphAllRegimesTractable) {
  // The headline tractability claim: the full 5-task tracker graph with all
  // T4 variants, for every regime 1..8 models, on a 4-way SMP.
  tracker::TrackerGraph tg = tracker::BuildTrackerGraph();
  regime::RegimeSpace space(1, 8);
  tracker::PaperCostParams pcp;
  pcp.scale = 0.001;  // milliseconds instead of seconds; search is identical
  graph::CostModel costs = tracker::PaperCostModel(tg, space, pcp);

  OptimalScheduler sched(tg.graph, costs, CommModel(),
                         MachineConfig::SingleNode(4));
  Tick prev_latency = 0;
  for (RegimeId r : space.AllRegimes()) {
    auto result = sched.Schedule(r);
    ASSERT_TRUE(result.ok()) << "regime " << r.value();
    EXPECT_FALSE(result->budget_exhausted) << "regime " << r.value();
    EXPECT_GT(result->min_latency, 0);
    // More models never reduce the optimal latency.
    EXPECT_GE(result->min_latency, prev_latency) << "regime " << r.value();
    prev_latency = result->min_latency;
    // Throughput is defined and the pipelined form is at least as frequent
    // as one iteration per latency.
    EXPECT_LE(result->best.initiation_interval, result->min_latency);
  }
}

TEST(OptimalSchedulerTest, ScheduleWithVariantsPinsSelection) {
  tracker::TrackerGraph tg = tracker::BuildTrackerGraph();
  regime::RegimeSpace space(8, 8);
  tracker::PaperCostParams pcp;
  pcp.scale = 0.001;
  graph::CostModel costs = tracker::PaperCostModel(tg, space, pcp);

  std::vector<VariantId> serial_everywhere(tg.graph.task_count(),
                                           VariantId(0));
  OptimalScheduler sched(tg.graph, costs, CommModel(),
                         MachineConfig::SingleNode(4));
  auto pinned = sched.ScheduleWithVariants(kR0, serial_everywhere);
  ASSERT_TRUE(pinned.ok());
  auto free_choice = sched.Schedule(kR0);
  ASSERT_TRUE(free_choice.ok());
  // Forcing serial T4 cannot beat the free choice.
  EXPECT_GE(pinned->min_latency, free_choice->min_latency);
}

TEST(OptimalSchedulerTest, MissingCostEntryFails) {
  TaskGraph g;
  CostModel costs;
  TaskId src = g.AddTask("src", true);
  TaskId a = g.AddTask("a");
  ChannelId c0 = g.AddChannel("c0", 0);
  g.SetProducer(src, c0);
  g.AddConsumer(a, c0);
  costs.Set(kR0, src, TaskCost::Serial(10));  // no entry for `a`
  OptimalScheduler sched(g, costs, CommModel::Free(),
                         MachineConfig::SingleNode(2));
  auto result = sched.Schedule(kR0);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace ss

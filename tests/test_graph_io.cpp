// Tests for the .ssg problem-description format: tick parsing, whole-file
// parsing, error reporting with line numbers, and round-tripping.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph_io.hpp"
#include "graph/synthetic.hpp"
#include "sched/optimal.hpp"

namespace ss::graph {
namespace {

const char kValidProblem[] = R"(
# demo
machine nodes=2 procs_per_node=4
comm intra_latency=20us intra_bandwidth=4000 inter_latency=30ms inter_bandwidth=100

task src source
task heavy
task sink

channel a bytes=1000 producer=src consumers=heavy
channel b bytes=500 producer=heavy consumers=sink
channel out bytes=64 producer=sink

regimes 2
cost regime=0 task=src serial=1ms
cost regime=0 task=heavy serial=100ms
variant regime=0 task=heavy name=x4 chunks=4 chunk=26ms split=1ms join=1ms
cost regime=0 task=sink serial=5ms
cost regime=1 task=src serial=1ms
cost regime=1 task=heavy serial=400ms
cost regime=1 task=sink serial=5ms
)";

TEST(ParseTickTest, UnitsAndDefaults) {
  EXPECT_EQ(*ParseTickValue("250"), 250);
  EXPECT_EQ(*ParseTickValue("30us"), 30);
  EXPECT_EQ(*ParseTickValue("12.5ms"), 12'500);
  EXPECT_EQ(*ParseTickValue("3.2s"), 3'200'000);
  EXPECT_EQ(*ParseTickValue("0"), 0);
}

TEST(ParseTickTest, Errors) {
  EXPECT_FALSE(ParseTickValue("abc").ok());
  EXPECT_FALSE(ParseTickValue("-5ms").ok());
  EXPECT_FALSE(ParseTickValue("3x").ok());
  EXPECT_FALSE(ParseTickValue("").ok());
}

TEST(ParseProblemTest, ParsesValidFile) {
  auto spec = ParseProblem(kValidProblem);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->graph.task_count(), 3u);
  EXPECT_EQ(spec->graph.channel_count(), 3u);
  EXPECT_EQ(spec->machine.nodes, 2);
  EXPECT_EQ(spec->machine.procs_per_node, 4);
  EXPECT_EQ(spec->comm.inter_latency, 30'000);
  EXPECT_EQ(spec->regime_count, 2u);
  const TaskId heavy = spec->graph.FindTask("heavy");
  ASSERT_TRUE(heavy.valid());
  EXPECT_EQ(spec->costs.Get(RegimeId(0), heavy).variant_count(), 2u);
  EXPECT_EQ(spec->costs.Get(RegimeId(1), heavy).variant_count(), 1u);
  EXPECT_EQ(spec->costs.Get(RegimeId(1), heavy).serial_cost(), 400'000);
  EXPECT_TRUE(spec->graph.task(spec->graph.FindTask("src")).is_source);
}

TEST(ParseProblemTest, ParsedProblemSchedules) {
  auto spec = ParseProblem(kValidProblem);
  ASSERT_TRUE(spec.ok());
  sched::OptimalScheduler scheduler(spec->graph, spec->costs, spec->comm,
                                    spec->machine);
  auto result = scheduler.Schedule(RegimeId(0));
  ASSERT_TRUE(result.ok());
  // The 4-chunk variant should win on a 4-proc node: 1 + (1+26+1) + 5 ms,
  // plus a few tens of microseconds of intra-node communication.
  EXPECT_GE(result->min_latency, 1'000 + 28'000 + 5'000);
  EXPECT_LE(result->min_latency, 1'000 + 28'000 + 5'000 + 200);
}

struct BadInput {
  const char* name;
  const char* text;
  const char* expect_substring;
};

// gtest would otherwise print the three pointers' bytes, which move with
// every run, into the listed test names that ctest registers.
void PrintTo(const BadInput& input, std::ostream* os) {
  *os << input.expect_substring;
}

class ParseErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(ParseErrors, ReportsLineAndReason) {
  auto spec = ParseProblem(GetParam().text);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().ToString().find(GetParam().expect_substring),
            std::string::npos)
      << spec.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParseErrors,
    ::testing::Values(
        BadInput{"unknown_directive", "bogus x=1\n", "unknown directive"},
        BadInput{"unknown_task_in_channel",
                 "task a source\nchannel c bytes=1 producer=zzz\n",
                 "unknown producer task"},
        BadInput{"duplicate_task", "task a source\ntask a\n",
                 "duplicate task"},
        BadInput{"bad_number", "machine nodes=abc\n", "bad machine value"},
        BadInput{"variant_before_cost",
                 "task a source\nchannel c bytes=1 producer=a\n"
                 "variant regime=0 task=a chunks=2 chunk=1ms\n",
                 "variant before cost"},
        BadInput{"regime_out_of_range",
                 "task a source\nchannel c bytes=1 producer=a\n"
                 "cost regime=3 task=a serial=1ms\n",
                 "regime index out of range"},
        BadInput{"missing_costs",
                 "task a source\ntask b\nchannel c bytes=1 producer=a "
                 "consumers=b\ncost regime=0 task=a serial=1ms\n",
                 "missing task"},
        BadInput{"cycle",
                 "task a source\ntask b\n"
                 "channel c1 bytes=1 producer=a consumers=b\n"
                 "channel c2 bytes=1 producer=b consumers=a\n"
                 "cost regime=0 task=a serial=1ms\n"
                 "cost regime=0 task=b serial=1ms\n",
                 "cycle"}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

TEST(FormatProblemTest, RoundTrips) {
  auto spec = ParseProblem(kValidProblem);
  ASSERT_TRUE(spec.ok());
  std::string text = FormatProblem(*spec);
  auto reparsed = ParseProblem(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(reparsed->graph.task_count(), spec->graph.task_count());
  EXPECT_EQ(reparsed->graph.channel_count(), spec->graph.channel_count());
  EXPECT_EQ(reparsed->regime_count, spec->regime_count);
  // Costs survive.
  const TaskId heavy = reparsed->graph.FindTask("heavy");
  EXPECT_EQ(reparsed->costs.Get(RegimeId(0), heavy).serial_cost(), 100'000);
  EXPECT_EQ(reparsed->costs.Get(RegimeId(0), heavy).variant_count(), 2u);
  // And schedule to the same optimum.
  sched::OptimalScheduler a(spec->graph, spec->costs, spec->comm,
                            spec->machine);
  sched::OptimalScheduler b(reparsed->graph, reparsed->costs,
                            reparsed->comm, reparsed->machine);
  auto ra = a.Schedule(RegimeId(0));
  auto rb = b.Schedule(RegimeId(0));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->min_latency, rb->min_latency);
}

TEST(FormatProblemTest, RoundTripIsFingerprintIdentical) {
  // Write(Read(spec)) must describe the same canonical problem: the
  // fingerprint (which the schedule cache keys on) has to survive the trip
  // exactly, or on-disk snapshots would go stale after a reformat.
  auto check = [](const ProblemSpec& spec, const std::string& label) {
    const Fingerprint before(spec);
    auto reparsed = ParseProblem(FormatProblem(spec));
    ASSERT_TRUE(reparsed.ok())
        << label << ": " << reparsed.status().ToString();
    EXPECT_EQ(before, Fingerprint(*reparsed))
        << label << ": " << before.ToHex() << " vs "
        << Fingerprint(*reparsed).ToHex();
  };

  auto inline_spec = ParseProblem(kValidProblem);
  ASSERT_TRUE(inline_spec.ok());
  check(*inline_spec, "kValidProblem");

  // Every .ssg file the repository ships (ctest may run from the build
  // directory or its parent).
  bool found_example = false;
  for (const char* path :
       {"examples/data/video_pipeline.ssg",
        "../examples/data/video_pipeline.ssg",
        "../../examples/data/video_pipeline.ssg"}) {
    auto spec = LoadProblemFile(path);
    if (!spec.ok()) continue;
    found_example = true;
    check(*spec, path);
  }
  EXPECT_TRUE(found_example)
      << "examples/data/video_pipeline.ssg not reachable from test cwd";

  // Synthetic families: chains, fork-joins, layered DAGs across seeds.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 7919);
    for (SyntheticProblem p :
         {MakeChain(rng, 4), MakeForkJoin(rng, 3), MakeLayered(rng)}) {
      ProblemSpec spec;
      spec.graph = std::move(p.graph);
      spec.costs = std::move(p.costs);
      spec.machine = MachineConfig::SingleNode(4);
      spec.regime_count = 1;
      check(spec, p.family + " seed " + std::to_string(seed));
    }
  }
}

TEST(LoadProblemFileTest, MissingFileFails) {
  auto spec = LoadProblemFile("/nonexistent/path.ssg");
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

TEST(LoadProblemFileTest, LoadsExampleFile) {
  // The repository ships an example problem; resolve it relative to the
  // source tree (ctest runs from the build directory).
  for (const char* path :
       {"examples/data/video_pipeline.ssg",
        "../examples/data/video_pipeline.ssg",
        "../../examples/data/video_pipeline.ssg"}) {
    auto spec = LoadProblemFile(path);
    if (!spec.ok()) continue;
    EXPECT_EQ(spec->graph.task_count(), 4u);
    EXPECT_EQ(spec->regime_count, 2u);
    sched::OptimalScheduler scheduler(spec->graph, spec->costs, spec->comm,
                                      spec->machine);
    auto r0 = scheduler.Schedule(RegimeId(0));
    auto r1 = scheduler.Schedule(RegimeId(1));
    ASSERT_TRUE(r0.ok());
    ASSERT_TRUE(r1.ok());
    EXPECT_LT(r0->min_latency, r1->min_latency);
    return;
  }
  GTEST_SKIP() << "example file not found from test working directory";
}

}  // namespace
}  // namespace ss::graph

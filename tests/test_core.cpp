// Unit tests for the core utilities: time, ids, status/expected, rng,
// stats, and table formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <unordered_set>

#include "core/ascii_table.hpp"
#include "core/deadline.hpp"
#include "core/error.hpp"
#include "core/ids.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/steal_deque.hpp"
#include "core/sync.hpp"
#include "core/time.hpp"
#include "core/worker_pool.hpp"

namespace ss {
namespace {

// ---- time -------------------------------------------------------------------

TEST(TimeTest, TickConversions) {
  EXPECT_EQ(ticks::FromSeconds(1.5), 1'500'000);
  EXPECT_EQ(ticks::FromMillis(33), 33'000);
  EXPECT_EQ(ticks::FromMicros(7), 7);
  EXPECT_DOUBLE_EQ(ticks::ToSeconds(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(ticks::ToMillis(1'500), 1.5);
}

TEST(TimeTest, FormatTick) {
  EXPECT_EQ(FormatTick(kNoTick), "-");
  EXPECT_EQ(FormatTick(500), "500us");
  EXPECT_EQ(FormatTick(ticks::FromMillis(12.5)), "12.50ms");
  EXPECT_EQ(FormatTick(ticks::FromSeconds(3.214)), "3.214s");
}

TEST(TimeTest, FormatNegativeTick) {
  EXPECT_EQ(FormatTick(-500), "-500us");
}

TEST(TimeTest, StopwatchMonotone) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  EXPECT_GE(sw.Elapsed(), 0);
}

// ---- ids --------------------------------------------------------------------

TEST(IdsTest, DefaultIsInvalid) {
  TaskId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, TaskId::Invalid());
}

TEST(IdsTest, ValueAndIndex) {
  TaskId id(3);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 3);
  EXPECT_EQ(id.index(), 3u);
}

TEST(IdsTest, Ordering) {
  EXPECT_LT(ProcId(1), ProcId(2));
  EXPECT_EQ(ProcId(2), ProcId(2));
  EXPECT_NE(ProcId(1), ProcId(2));
}

TEST(IdsTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<TaskId, ChannelId>);
  static_assert(!std::is_same_v<ProcId, NodeId>);
}

TEST(IdsTest, Hashable) {
  std::unordered_set<TaskId> set;
  set.insert(TaskId(1));
  set.insert(TaskId(2));
  set.insert(TaskId(1));
  EXPECT_EQ(set.size(), 2u);
}

// ---- error ------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 42);
  EXPECT_TRUE(e.status().ok());
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> e(InvalidArgumentError("bad"));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExpectedTest, MoveOnlyValue) {
  Expected<std::unique_ptr<int>> e(std::make_unique<int>(7));
  ASSERT_TRUE(e.ok());
  std::unique_ptr<int> v = std::move(e).value();
  EXPECT_EQ(*v, 7);
}

// ---- rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, ExponentialMeanApproximate) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(RngTest, GaussianMomentsApproximate) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(21);
  Rng b = a.Split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

// ---- stats ------------------------------------------------------------------

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.Add(i);
    all.Add(i);
  }
  for (int i = 50; i < 120; ++i) {
    b.Add(i * 0.5);
    all.Add(i * 0.5);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, CovZeroMean) {
  RunningStats s;
  s.Add(-1);
  s.Add(1);
  EXPECT_EQ(s.cov(), 0.0);  // mean 0 guards division
}

TEST(PercentileTest, InterpolatesLinearly) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 25.0);
}

TEST(SummarizeTest, Basic) {
  Summary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_GT(s.cov, 0.0);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(SummarizeTest, EmptyInput) {
  Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

// ---- ascii table -------------------------------------------------------------

TEST(AsciiTableTest, RendersAlignedColumns) {
  AsciiTable t;
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", "1.5"});
  t.AddRow({"b", "12.25"});
  std::string out = t.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("12.25"), std::string::npos);
  // Header separator line of dashes present.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(AsciiTableTest, EmptyRendersEmpty) {
  AsciiTable t;
  EXPECT_EQ(t.Render(), "");
}

TEST(AsciiTableTest, RuleBetweenRows) {
  AsciiTable t;
  t.AddRow({"a"});
  t.AddRule();
  t.AddRow({"b"});
  std::string out = t.Render();
  auto a = out.find("a");
  auto dash = out.find('-', a);
  auto b = out.find("b", a);
  EXPECT_LT(a, dash);
  EXPECT_LT(dash, b);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.0, 3), "2.000");
}

// ---- metrics registry -------------------------------------------------------

TEST(MetricsRegistry, RowsComeBackInRegistrationOrderWithTheirValues) {
  MetricsRegistry registry;
  Counter& requests = registry.AddCounter("svc_requests", "requests");
  Counter& loop0 =
      registry.AddCounter("net_frames", "frames received", {{"loop", "0"}});
  Counter& loop1 =
      registry.AddCounter("net_frames", "frames received", {{"loop", "1"}});
  LatencyHistogram& latency =
      registry.AddHistogram("svc_latency_us", "latency", {{"tenant", "a"}});
  std::uint64_t external = 7;
  registry.AddCounterFn("svc_external", "read at snapshot time", {},
                        [&] { return external; });
  registry.AddGauge("svc_weight", "weight", {{"tenant", "a"}},
                    [] { return 2.5; });

  requests.Inc();
  loop0.Inc(3);
  loop1.Inc(4);
  for (int v : {10, 20, 30, 40}) latency.Add(v);
  external = 9;

  const MetricSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.rows.size(), 6u);
  EXPECT_EQ(snap.rows[0].name, "svc_requests");
  EXPECT_EQ(snap.rows[0].help, "requests");
  EXPECT_EQ(snap.rows[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snap.rows[1].labels, (MetricLabels{{"loop", "0"}}));
  EXPECT_EQ(snap.rows[3].kind, MetricKind::kHistogram);
  EXPECT_EQ(snap.rows[3].count, 4u);
  EXPECT_GT(snap.rows[3].p50, 0.0);
  EXPECT_GE(snap.rows[3].p999, snap.rows[3].p50);
  EXPECT_EQ(snap.rows[5].kind, MetricKind::kGauge);

  EXPECT_EQ(snap.Count("svc_requests"), 1u);
  EXPECT_EQ(snap.Count("net_frames"), 7u);  // summed over loops
  EXPECT_EQ(snap.Count("net_frames", {{"loop", "1"}}), 4u);
  EXPECT_EQ(snap.Count("net_frames", {{"loop", "2"}}), 0u);
  EXPECT_EQ(snap.Count("svc_external"), 9u);
  EXPECT_EQ(snap.Count("no_such_metric"), 0u);
  EXPECT_DOUBLE_EQ(snap.Gauge("svc_weight", {{"tenant", "a"}}), 2.5);
  EXPECT_EQ(snap.Find("svc_weight", {{"tenant", "b"}}), nullptr);
  ASSERT_NE(snap.Find("svc_latency_us"), nullptr);
  EXPECT_EQ(snap.Find("svc_latency_us")->count, 4u);
}

TEST(MetricsRegistry, HandlesStayValidAsTheRegistryGrows) {
  MetricsRegistry registry;
  Counter& first = registry.AddCounter("first", "the first row");
  LatencyHistogram& hist = registry.AddHistogram("hist", "a histogram");
  for (int i = 0; i < 1000; ++i) {
    registry.AddCounter("filler", "growth", {{"i", std::to_string(i)}});
  }
  first.Inc(5);
  hist.Add(3);
  const MetricSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.rows.size(), 1002u);
  EXPECT_EQ(snap.Count("first"), 5u);
  EXPECT_EQ(snap.Count("hist"), 1u);
}

TEST(MetricsRegistry, ConcurrentIncrementsRegistrationsAndSnapshots) {
  // Increments are exact under concurrency, and snapshots taken while
  // other threads register rows see a prefix of registration order.
  MetricsRegistry registry;
  Counter& hits = registry.AddCounter("hits", "hits");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  constexpr int kRegistrations = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) hits.Inc();
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kRegistrations; ++i) {
      registry.AddGauge("late", "registered under load",
                        {{"i", std::to_string(i)}}, [i] { return i; });
    }
  });
  std::size_t seen = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricSnapshot snap = registry.Snapshot();
    EXPECT_GE(snap.rows.size(), seen);
    seen = snap.rows.size();
    EXPECT_EQ(snap.rows.front().name, "hits");
  }
  for (std::thread& t : threads) t.join();
  const MetricSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Count("hits"),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(snap.rows.size(), 1u + kRegistrations);
  EXPECT_DOUBLE_EQ(snap.Gauge("late", {{"i", "199"}}), 199.0);
}

TEST(MetricsRegistry, RendersOneTableWithHelpLabelsAndSections) {
  MetricsRegistry registry;
  registry.AddCounter("service_solves", "solver invocations").Inc(12);
  registry.AddGauge("service_hit_rate", "hit rate", {}, [] { return 0.25; });
  registry.AddCounter("net_frames", "frames received", {{"loop", "1"}});
  registry.AddHistogram("tenant_latency_us", "latency", {{"tenant", "a"}})
      .Add(100);
  const std::string table = registry.Snapshot().ToTable();
  for (const char* cell : {"metric", "labels", "value", "help",
                           "service_solves", "solver invocations", "12",
                           "0.250", "loop=1", "tenant=a", "n=1 p50="}) {
    EXPECT_NE(table.find(cell), std::string::npos) << cell << "\n" << table;
  }
  // A rule under the header, and one before each new name prefix.
  std::size_t rules = 0;
  for (std::size_t at = table.find("\n-"); at != std::string::npos;
       at = table.find("\n-", at + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 3u);
}

// ---- worker pool -------------------------------------------------------------

TEST(WorkerPoolTest, SubmitWithoutWaitRunsEveryTask) {
  // Lost-wakeup regression: the schedule service submits tasks and blocks on
  // a future without ever calling Wait(), so a notify that slips into a
  // worker's predicate-check-to-block window must not strand a queued task.
  // Many short rounds against freshly idle workers maximize exposure of
  // that window; a stranded task shows up as a timeout here.
  constexpr int kRounds = 200;
  constexpr int kTasks = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ran{0};
    std::promise<void> all_done;
    auto done = all_done.get_future();
    WorkerPool pool(2);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&] {
        if (ran.fetch_add(1) + 1 == kTasks) all_done.set_value();
      });
    }
    ASSERT_EQ(done.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "round " << round << ": a submitted task never ran";
  }
}

// ---- deadline ----------------------------------------------------------------

TEST(DeadlineTest, InfiniteNeverExpires) {
  const Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), kTickInfinity);
  EXPECT_TRUE(Deadline::After(kTickInfinity).infinite());
  EXPECT_TRUE(Deadline::AtWall(kTickInfinity).infinite());
}

TEST(DeadlineTest, ExpiryAndClampedRemaining) {
  const Deadline past = Deadline::After(0);
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remaining(), 0);
  EXPECT_TRUE(Deadline::After(-ticks::FromSeconds(1)).expired());

  const Deadline soon = Deadline::After(ticks::FromSeconds(60));
  EXPECT_FALSE(soon.infinite());
  EXPECT_FALSE(soon.expired());
  EXPECT_GT(soon.remaining(), 0);
  EXPECT_LE(soon.remaining(), ticks::FromSeconds(60));
}

TEST(DeadlineTest, AtWallMatchesWallNow) {
  const Tick now = WallNow();
  EXPECT_TRUE(Deadline::AtWall(now - 1).expired());
  const Deadline later = Deadline::AtWall(now + ticks::FromSeconds(60));
  EXPECT_FALSE(later.expired());
  EXPECT_EQ(later.at(), now + ticks::FromSeconds(60));
}

TEST(DeadlineTest, WaitOnceTimesOutThenSeesPredicate) {
  Mutex mu;
  CondVar cv;
  bool flag = false;
  {
    // Expired deadline + false condition: reports the timeout immediately.
    const Deadline d = Deadline::After(ticks::FromMillis(2));
    MutexLock lock(mu);
    while (!flag) {
      if (!d.WaitOnce(cv, lock)) break;
    }
    EXPECT_FALSE(flag);
  }
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    MutexLock lock(mu);
    flag = true;
    cv.NotifyAll();
  });
  {
    const Deadline d = Deadline::After(ticks::FromSeconds(30));
    MutexLock lock(mu);
    while (!flag) {
      if (!d.WaitOnce(cv, lock)) break;
    }
    EXPECT_TRUE(flag);
  }
  setter.join();
}

// ---- steal deque ------------------------------------------------------------

TEST(StealDequeTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(StealDeque<int>(1).capacity(), 2u);
  EXPECT_EQ(StealDeque<int>(2).capacity(), 2u);
  EXPECT_EQ(StealDeque<int>(3).capacity(), 4u);
  EXPECT_EQ(StealDeque<int>(256).capacity(), 256u);
  EXPECT_EQ(StealDeque<int>(300).capacity(), 512u);
}

TEST(StealDequeTest, OwnerPopsLifoThievesStealFifo) {
  int items[4] = {10, 11, 12, 13};
  StealDeque<int> dq(8);
  for (int& item : items) ASSERT_TRUE(dq.Push(&item));
  EXPECT_EQ(dq.SizeApprox(), 4u);
  // A thief takes the oldest (shallowest) entry.
  EXPECT_EQ(dq.Steal(), &items[0]);
  // The owner takes the newest (deepest).
  EXPECT_EQ(dq.Pop(), &items[3]);
  EXPECT_EQ(dq.Steal(), &items[1]);
  EXPECT_EQ(dq.Pop(), &items[2]);
  EXPECT_EQ(dq.Pop(), nullptr);
  EXPECT_EQ(dq.Steal(), nullptr);
  EXPECT_EQ(dq.SizeApprox(), 0u);
}

TEST(StealDequeTest, PushReportsOverflowWhenFull) {
  int items[3] = {1, 2, 3};
  StealDeque<int> dq(2);
  ASSERT_TRUE(dq.Push(&items[0]));
  ASSERT_TRUE(dq.Push(&items[1]));
  EXPECT_FALSE(dq.Push(&items[2]));
  // Draining one entry makes room again.
  EXPECT_EQ(dq.Steal(), &items[0]);
  EXPECT_TRUE(dq.Push(&items[2]));
  EXPECT_EQ(dq.Pop(), &items[2]);
  EXPECT_EQ(dq.Pop(), &items[1]);
  EXPECT_EQ(dq.Pop(), nullptr);
}

TEST(StealDequeTest, ConcurrentOwnerAndThievesConsumeEachItemOnce) {
  // The owner pushes kItems entries while popping intermittently; three
  // thieves steal concurrently. Every item must be consumed exactly once
  // across all four threads — the classic Chase-Lev correctness property,
  // and the test TSan exercises for the fence orderings.
  constexpr int kItems = 20'000;
  constexpr int kThieves = 3;
  std::vector<int> items(kItems);
  for (int i = 0; i < kItems; ++i) items[static_cast<std::size_t>(i)] = i;

  StealDeque<int> dq(128);
  std::atomic<bool> done{false};
  std::vector<std::vector<int>> taken(kThieves + 1);

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&dq, &done, &taken, t] {
      auto& mine = taken[static_cast<std::size_t>(t) + 1];
      while (!done.load(std::memory_order_acquire)) {
        if (int* item = dq.Steal()) {
          mine.push_back(*item);
        } else {
          std::this_thread::yield();
        }
      }
      while (int* item = dq.Steal()) mine.push_back(*item);
    });
  }

  auto& owner_taken = taken[0];
  for (int i = 0; i < kItems; ++i) {
    while (!dq.Push(&items[static_cast<std::size_t>(i)])) {
      if (int* item = dq.Pop()) owner_taken.push_back(*item);
    }
    // Pop roughly half the time so both owner paths stay hot.
    if ((i & 1) != 0) {
      if (int* item = dq.Pop()) owner_taken.push_back(*item);
    }
  }
  while (int* item = dq.Pop()) owner_taken.push_back(*item);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();
  // Late entries could race the thieves' final drain; sweep what's left.
  while (int* item = dq.Pop()) owner_taken.push_back(*item);

  std::set<int> seen;
  std::size_t total = 0;
  for (const auto& bucket : taken) {
    total += bucket.size();
    for (int v : bucket) {
      EXPECT_TRUE(seen.insert(v).second) << "item " << v << " taken twice";
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kItems));
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kItems));
}

}  // namespace
}  // namespace ss

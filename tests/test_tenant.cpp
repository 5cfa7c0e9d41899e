// Tests for the multi-tenant front end: the streaming latency histogram,
// token-bucket admission, tenant config parsing, the weighted
// deficit-round-robin fair scheduler (including the weighted-share
// convergence property under saturating load), and the TenantScheduler's
// tenant table and typed error surface over a real ScheduleService.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/histogram.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "graph/graph_io.hpp"
#include "graph/synthetic.hpp"
#include "service/schedule_service.hpp"
#include "tenant/fair_queue.hpp"
#include "tenant/tenant.hpp"
#include "tenant/tenant_service.hpp"

namespace ss::tenant {
namespace {

// ---- LatencyHistogram ----------------------------------------------------

TEST(Histogram, SmallValuesLandInUnitBuckets) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.Add(7);
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 10u);
  // Values below kSub get exact unit buckets; percentiles report the
  // bucket midpoint.
  EXPECT_DOUBLE_EQ(snap.p50(), 7.5);
  EXPECT_DOUBLE_EQ(snap.p99(), 7.5);
}

TEST(Histogram, PercentilesWithinRelativeErrorBound) {
  LatencyHistogram h;
  // 1..100000 uniformly: true p50 = 50000, p99 = 99000.
  for (std::int64_t v = 1; v <= 100000; ++v) h.Add(v);
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 100000u);
  EXPECT_NEAR(snap.p50(), 50000.0, 50000.0 / LatencyHistogram::kSub);
  EXPECT_NEAR(snap.p99(), 99000.0, 99000.0 / LatencyHistogram::kSub);
}

TEST(Histogram, NegativeClampsAndEmptyIsZero) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.TakeSnapshot().p50(), 0.0);
  h.Add(-5);
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 1u);
  EXPECT_DOUBLE_EQ(snap.p50(), 0.5);  // midpoint of the [0,1) bucket
}

TEST(Histogram, BucketBoundsCoverInt64) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{15}, std::int64_t{16},
                         std::int64_t{1000}, std::int64_t{1} << 40,
                         std::int64_t{1} << 62}) {
    const int b = LatencyHistogram::BucketFor(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    EXPECT_GE(v, LatencyHistogram::BucketLow(b));
    EXPECT_LT(v, LatencyHistogram::BucketLow(b) +
                     LatencyHistogram::BucketWidth(b));
  }
}

// ---- TokenBucket ---------------------------------------------------------

TEST(TokenBucket, BurstThenRefill) {
  TokenBucket bucket(/*rate_per_sec=*/1000.0, /*burst=*/2.0, /*now=*/0);
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));
  // 1 ms at 1000/s refills exactly one token.
  EXPECT_TRUE(bucket.TryAcquire(ticks::FromMillis(1)));
  EXPECT_FALSE(bucket.TryAcquire(ticks::FromMillis(1)));
}

TEST(TokenBucket, ZeroRateIsUnlimited) {
  TokenBucket bucket(/*rate_per_sec=*/0.0, /*burst=*/1.0, /*now=*/0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
}

/// Against a bucket that keeps its credit in whole microseconds: with an
/// interval that is a whole number of microseconds, a request arriving
/// exactly when a token falls due must get it.
TEST(TokenBucket, MatchesTheExactBucketAtRefillBoundaries) {
  const std::vector<std::int64_t> rates = {
      1, 2, 4, 5, 8, 10, 20, 25, 40, 50, 100, 125, 200, 250, 400, 500,
      1000, 2000, 4000, 5000, 10000, 1000000};
  for (int trace = 0; trace < 2000; ++trace) {
    Rng rng(static_cast<std::uint64_t>(trace));
    const std::int64_t rate = rates[rng.NextBelow(rates.size())];
    const std::int64_t burst = rng.NextInRange(1, 20);
    const std::int64_t interval = 1000000 / rate;
    TokenBucket bucket(static_cast<double>(rate), static_cast<double>(burst),
                       /*now=*/0);
    std::int64_t credit = burst * interval;
    Tick now = 0;
    for (int i = 0; i < 400; ++i) {
      Tick gap = 0;
      switch (rng.NextBelow(4)) {
        case 0:
          break;
        case 1:
          gap = rng.NextInRange(1, 99);
          break;
        case 2:
          gap = rng.NextInRange(1, 99999);
          break;
        default:
          gap = interval * rng.NextInRange(1, 3);
          break;
      }
      now += gap;
      credit = std::min(burst * interval, credit + gap);
      const bool exact = credit >= interval;
      if (exact) credit -= interval;
      ASSERT_EQ(bucket.TryAcquire(now), exact)
          << "trace " << trace << " request " << i << ": rate " << rate
          << "/s, burst " << burst << ", t=" << now << " us";
    }
  }
}

TEST(TokenBucket, ConcurrentAcquiresTakeEachTokenOnce) {
  TokenBucket bucket(/*rate_per_sec=*/1.0, /*burst=*/1000.0, /*now=*/0);
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        if (bucket.TryAcquire(0)) admitted.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(admitted.load(), 1000);
}

// ---- Tenant config parsing ----------------------------------------------

TEST(TenantConfig, ParsesWeightsRatesAndQueues) {
  auto configs = ParseTenantConfig(
      "# fleet tenants\n"
      "tenant video weight=4 rate=100 burst=8 queue=32\n"
      "\n"
      "tenant batch weight=0.5\n"
      "tenant best-effort\n");
  ASSERT_TRUE(configs.ok()) << configs.status().ToString();
  ASSERT_EQ(configs->size(), 3u);
  EXPECT_EQ((*configs)[0].name, "video");
  EXPECT_DOUBLE_EQ((*configs)[0].weight, 4.0);
  EXPECT_DOUBLE_EQ((*configs)[0].rate_per_sec, 100.0);
  EXPECT_DOUBLE_EQ((*configs)[0].burst, 8.0);
  EXPECT_EQ((*configs)[0].queue_capacity, 32u);
  EXPECT_DOUBLE_EQ((*configs)[1].weight, 0.5);
  EXPECT_DOUBLE_EQ((*configs)[2].weight, 1.0);
}

TEST(TenantConfig, RejectsUnknownKeysWithLineNumber) {
  auto configs = ParseTenantConfig("tenant a\ntenant b speed=9\n");
  ASSERT_FALSE(configs.ok());
  EXPECT_EQ(configs.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(configs.status().message().find("line 2"), std::string::npos)
      << configs.status().ToString();
}

TEST(TenantConfig, RejectsDuplicateAndMalformed) {
  EXPECT_FALSE(ParseTenantConfig("tenant a\ntenant a\n").ok());
  EXPECT_FALSE(ParseTenantConfig("tenant a weight=heavy\n").ok());
  EXPECT_FALSE(ParseTenantConfig("tenant a weight=0\n").ok());
  EXPECT_FALSE(ParseTenantConfig("widget a\n").ok());
  // Non-finite numbers would switch a limit off or make one lane win every
  // DRR round; a fractional or out-of-range queue would not convert to a
  // size_t as written.
  for (const char* text :
       {"tenant a queue=1e30\n", "tenant a queue=inf\n",
        "tenant a queue=2.5\n", "tenant a queue=1048577\n",
        "tenant a weight=inf\n", "tenant a rate=nan\n",
        "tenant a rate=-inf\n", "tenant a burst=inf\n"}) {
    const auto parsed = ParseTenantConfig(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
  const auto largest = ParseTenantConfig("tenant a queue=1048576\n");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ((*largest)[0].queue_capacity, 1048576u);
}

// ---- FairScheduler -------------------------------------------------------

FairQueueOptions Paused() {
  FairQueueOptions options;
  options.dispatch_threads = 0;  // drain only via DispatchOne()
  return options;
}

TEST(FairScheduler, QueueFullIsTyped) {
  FairScheduler fair(Paused());
  const int lane = fair.AddTenant(1.0, /*queue_capacity=*/2);
  EXPECT_TRUE(fair.Submit(lane, [](FairOutcome) {}).ok());
  EXPECT_TRUE(fair.Submit(lane, [](FairOutcome) {}).ok());
  EXPECT_EQ(fair.Submit(lane, [](FairOutcome) {}).code(),
            StatusCode::kWouldBlock);
  EXPECT_EQ(fair.QueuedFor(lane), 2u);
}

TEST(FairScheduler, ShutdownCancelsQueuedJobs) {
  FairScheduler fair(Paused());
  const int lane = fair.AddTenant(1.0, 8);
  int cancelled = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fair.Submit(lane, [&](FairOutcome o) {
                       cancelled += o == FairOutcome::kCancelled;
                     }).ok());
  }
  fair.Shutdown();
  EXPECT_EQ(cancelled, 3);
  EXPECT_EQ(fair.Submit(lane, [](FairOutcome) {}).code(),
            StatusCode::kCancelled);
}

TEST(FairScheduler, ExpiredFrontDrainsWithoutChargingDeficit) {
  FairScheduler fair(Paused());
  const int lane = fair.AddTenant(1.0, 8);
  int expired = 0;
  int dispatched = 0;
  const Tick past = WallNow() - ticks::FromMillis(5);
  ASSERT_TRUE(fair.Submit(lane,
                          [&](FairOutcome o) {
                            expired += o == FairOutcome::kExpired;
                          },
                          past)
                  .ok());
  ASSERT_TRUE(fair.Submit(lane, [&](FairOutcome o) {
                     dispatched += o == FairOutcome::kDispatched;
                   }).ok());
  // One pass pops the expired front (completing it with kExpired) and then
  // dispatches the live job behind it.
  EXPECT_TRUE(fair.DispatchOne());
  EXPECT_EQ(expired, 1);
  EXPECT_EQ(dispatched, 1);
  EXPECT_EQ(fair.QueuedFor(lane), 0u);
  fair.Shutdown();
}

TEST(FairScheduler, FullyExpiredLaneDrainsWithoutDispatch) {
  FairScheduler fair(Paused());
  const int lane = fair.AddTenant(1.0, 8);
  int expired = 0;
  const Tick past = WallNow() - ticks::FromMillis(5);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fair.Submit(lane,
                            [&](FairOutcome o) {
                              expired += o == FairOutcome::kExpired;
                            },
                            past)
                    .ok());
  }
  // Nothing dispatchable remains, but the scan still completes the
  // expired jobs (exactly once each).
  EXPECT_FALSE(fair.DispatchOne());
  EXPECT_EQ(expired, 3);
  EXPECT_EQ(fair.QueuedFor(lane), 0u);
  fair.Shutdown();
}

TEST(FairScheduler, FutureDeadlineIsDispatchedNormally) {
  FairScheduler fair(Paused());
  const int lane = fair.AddTenant(1.0, 8);
  int dispatched = 0;
  ASSERT_TRUE(fair.Submit(lane,
                          [&](FairOutcome o) {
                            dispatched += o == FairOutcome::kDispatched;
                          },
                          WallNow() + ticks::FromSeconds(60))
                  .ok());
  EXPECT_TRUE(fair.DispatchOne());
  EXPECT_EQ(dispatched, 1);
  fair.Shutdown();
}

/// Weighted-share convergence property: under saturating load (every lane
/// topped up after each dispatch), tenant i's share of dispatches converges
/// to weight_i / sum(weights) well within 20%, and nobody starves.
TEST(FairScheduler, WeightedSharesConvergeUnderSaturation) {
  const std::vector<double> weights = {4.0, 2.0, 1.0, 1.0, 0.5};
  const double weight_sum = 8.5;
  FairScheduler fair(Paused());
  std::vector<int> lanes;
  std::vector<int> dispatched(weights.size(), 0);
  for (double w : weights) lanes.push_back(fair.AddTenant(w, 4));

  auto top_up = [&] {
    for (std::size_t t = 0; t < lanes.size(); ++t) {
      while (fair.QueuedFor(lanes[t]) < 4) {
        ASSERT_TRUE(
            fair.Submit(lanes[t], [&dispatched, t](FairOutcome o) {
              if (o == FairOutcome::kDispatched) ++dispatched[t];
            }).ok());
      }
    }
  };

  const int kRounds = 1700;
  for (int i = 0; i < kRounds; ++i) {
    top_up();
    ASSERT_TRUE(fair.DispatchOne());
  }

  int total = 0;
  for (int d : dispatched) total += d;
  ASSERT_EQ(total, kRounds);
  for (std::size_t t = 0; t < weights.size(); ++t) {
    const double expected = weights[t] / weight_sum;
    const double achieved = static_cast<double>(dispatched[t]) / total;
    EXPECT_GT(dispatched[t], 0) << "tenant " << t << " starved";
    EXPECT_LT(std::abs(achieved - expected) / expected, 0.20)
        << "tenant " << t << ": achieved " << achieved << ", expected "
        << expected;
  }
  fair.Shutdown();
}

/// An idle lane forfeits credit: a tenant that was idle for many rounds
/// does not burst past its steady-state share when it comes back.
TEST(FairScheduler, IdleLaneForfeitsDeficit) {
  FairScheduler fair(Paused());
  const int busy = fair.AddTenant(1.0, 64);
  const int idle = fair.AddTenant(1.0, 64);
  int busy_count = 0;
  int idle_count = 0;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fair.Submit(busy, [&](FairOutcome) { ++busy_count; }).ok());
  }
  // idle's lane stays empty for 20 dispatches -> no credit accrues.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(fair.DispatchOne());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fair.Submit(idle, [&](FairOutcome) { ++idle_count; }).ok());
  }
  // Next two dispatches: one each (round-robin), not an idle burst.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(fair.DispatchOne());
  EXPECT_EQ(idle_count, 5);
  EXPECT_EQ(busy_count, 25);
  fair.Shutdown();
}

/// A lane needs about 1 / weight passes of credit to afford one job; the
/// passes in which no lane can afford one are credited at once, so a tiny
/// weight costs no more than weight 1.
TEST(FairScheduler, TinyWeightLaneDispatchesPromptly) {
  for (const double weight : {1e-9, 1e-300}) {
    FairScheduler fair(Paused());
    const int lane = fair.AddTenant(weight, 1);
    int dispatched = 0;
    ASSERT_TRUE(fair.Submit(lane, [&](FairOutcome o) {
                       dispatched += o == FairOutcome::kDispatched;
                     }).ok());
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(fair.DispatchOne());
    ASSERT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1))
        << "weight " << weight;
    EXPECT_EQ(dispatched, 1);
    fair.Shutdown();
  }
  // A subnormal weight, whose 1 / weight overflows, is credited one job,
  // not an unbounded deficit that lets it jump a weight-1 lane's queue.
  FairScheduler fair(Paused());
  const int tiny =
      fair.AddTenant(std::numeric_limits<double>::denorm_min(), 2);
  const int one = fair.AddTenant(1.0, 1);
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        fair.Submit(tiny, [&](FairOutcome) { order.push_back(tiny); }).ok());
  }
  ASSERT_TRUE(fair.DispatchOne());
  ASSERT_TRUE(
      fair.Submit(one, [&](FairOutcome) { order.push_back(one); }).ok());
  ASSERT_TRUE(fair.DispatchOne());
  EXPECT_EQ(order, (std::vector<int>{tiny, one}));
  fair.Shutdown();
}

// ---- TenantScheduler over a real service ---------------------------------

std::shared_ptr<graph::ProblemSpec> SmallProblem(int salt) {
  auto spec = std::make_shared<graph::ProblemSpec>();
  const TaskId src = spec->graph.AddTask("src", /*is_source=*/true);
  const TaskId sink = spec->graph.AddTask("sink");
  const ChannelId a = spec->graph.AddChannel("a", 64);
  spec->graph.SetProducer(src, a);
  spec->graph.AddConsumer(sink, a);
  spec->costs.Set(RegimeId(0), src, graph::TaskCost::Serial(100 + salt));
  spec->costs.Set(RegimeId(0), sink, graph::TaskCost::Serial(60));
  spec->machine = graph::MachineConfig::SingleNode(2);
  spec->comm = graph::CommModel::Free();
  spec->regime_count = 1;
  return spec;
}

service::SolveRequest RequestFor(std::shared_ptr<graph::ProblemSpec> spec) {
  service::SolveRequest request;
  request.problem = std::move(spec);
  request.regime = RegimeId(0);
  return request;
}

TEST(TenantRegistry, RegisterResolveAndTypedFailures) {
  service::ScheduleService service{service::ServiceOptions{}};
  TenantSchedulerOptions options;
  options.registry.max_tenants = 2;
  options.dispatch_threads = 0;
  TenantScheduler tenants(&service, options);

  TenantConfig a;
  a.name = "a";
  ASSERT_TRUE(tenants.RegisterTenant(a).ok());
  EXPECT_EQ(tenants.RegisterTenant(a).code(), StatusCode::kAlreadyExists);

  // A request naming "b" registers it, once; a lookup miss is still a miss.
  const service::SolveRequest request = RequestFor(SmallProblem(10));
  for (int i = 0; i < 2; ++i) {
    bool miss = false;
    EXPECT_EQ(tenants.Lookup("b", request, &miss).status().code(),
              StatusCode::kNotFound);
    EXPECT_TRUE(miss);
    EXPECT_EQ(tenants.tenant_count(), 2u);
  }
  TenantConfig b;
  b.name = "b";
  EXPECT_EQ(tenants.RegisterTenant(b).code(), StatusCode::kAlreadyExists);

  // A name over the length bound is refused, whether registered or
  // resolved, before the capacity check.
  TenantConfig long_name;
  long_name.name = std::string(kMaxTenantNameBytes + 1, 'x');
  EXPECT_EQ(tenants.RegisterTenant(long_name).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tenants.Lookup(long_name.name, request).status().code(),
            StatusCode::kInvalidArgument);

  // So is a weight that is not a finite positive number, and a zero queue.
  TenantConfig unbounded;
  unbounded.name = "u";
  for (const double weight : {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    unbounded.weight = weight;
    EXPECT_EQ(tenants.RegisterTenant(unbounded).code(),
              StatusCode::kInvalidArgument);
  }
  TenantConfig no_queue;
  no_queue.name = "q";
  no_queue.queue_capacity = 0;
  EXPECT_EQ(tenants.RegisterTenant(no_queue).code(),
            StatusCode::kInvalidArgument);

  TenantConfig c;
  c.name = "c";
  EXPECT_EQ(tenants.RegisterTenant(c).code(),
            StatusCode::kFailedPrecondition);  // table full
  EXPECT_EQ(tenants.Lookup("c", request).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(tenants.tenant_count(), 2u);

  // Rows exist for registered tenants only: a refused one leaves none.
  ASSERT_TRUE(tenants
                  .SubmitSolve("b", request,
                               [](Expected<service::SolveResult>, bool) {})
                  .ok());
  const MetricSnapshot snap = tenants.metrics().Snapshot();
  EXPECT_EQ(snap.Count("tenant_admitted"), 1u);
  EXPECT_EQ(snap.Count("tenant_admitted", {{"tenant", "b"}}), 1u);
  EXPECT_DOUBLE_EQ(snap.Gauge("tenant_queued", {{"tenant", "b"}}), 1.0);
  EXPECT_NE(snap.Find("tenant_weight", {{"tenant", "a"}}), nullptr);
  EXPECT_EQ(snap.Find("tenant_weight", {{"tenant", "c"}}), nullptr);
  EXPECT_EQ(snap.Find("tenant_queued", {{"tenant", "c"}}), nullptr);
  tenants.Shutdown();
}

/// Many threads naming the same new tenants at once: each name is
/// registered once, with one lane and one set of rows, while a reader
/// snapshots the rows being added.
TEST(TenantScheduler, ConcurrentResolvesPublishEachNameOnce) {
  service::ScheduleService service{service::ServiceOptions{}};
  TenantSchedulerOptions options;
  options.dispatch_threads = 0;
  TenantScheduler tenants(&service, options);
  constexpr int kNames = 40;
  std::vector<std::string> names;
  for (int i = 0; i < kNames; ++i) {
    std::string name = "tenant-";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  const service::SolveRequest request = RequestFor(SmallProblem(11));

  std::atomic<bool> resolving{true};
  std::atomic<int> misses{0};
  std::thread reader([&] {
    while (resolving.load()) {
      // A tenant's rows are registered before its tenant_queued gauge.
      const MetricSnapshot snap = tenants.metrics().Snapshot();
      std::size_t weights = 0;
      std::size_t queued = 0;
      for (const MetricRow& row : snap.rows) {
        weights += row.name == "tenant_weight";
        queued += row.name == "tenant_queued";
      }
      EXPECT_LE(queued, weights);
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        bool miss = false;
        const auto probe = tenants.Lookup(
            names[static_cast<std::size_t>((i + 5 * t) % kNames)], request,
            &miss);
        if (!probe.ok() && miss) misses.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  resolving.store(false);
  reader.join();

  EXPECT_EQ(misses.load(), 8 * 400);
  EXPECT_EQ(tenants.tenant_count(), static_cast<std::size_t>(kNames));
  const MetricSnapshot snap = tenants.metrics().Snapshot();
  for (const std::string& name : names) {
    int weight_rows = 0;
    int queued_rows = 0;
    for (const MetricRow& row : snap.rows) {
      if (row.labels != MetricLabels{{"tenant", name}}) continue;
      weight_rows += row.name == "tenant_weight";
      queued_rows += row.name == "tenant_queued";
    }
    EXPECT_EQ(weight_rows, 1) << name;
    EXPECT_EQ(queued_rows, 1) << name;
  }
  tenants.Shutdown();
}

TEST(TenantScheduler, SolvesAndServesCacheHitsInline) {
  service::ScheduleService service{service::ServiceOptions{}};
  TenantSchedulerOptions options;
  options.dispatch_threads = 1;
  TenantScheduler tenants(&service, options);

  std::promise<bool> first_hit;
  ASSERT_TRUE(tenants
                  .SubmitSolve("alice", RequestFor(SmallProblem(1)),
                               [&](Expected<service::SolveResult> result,
                                   bool cache_hit) {
                                 ASSERT_TRUE(result.ok());
                                 first_hit.set_value(cache_hit);
                               })
                  .ok());
  EXPECT_FALSE(first_hit.get_future().get());  // cold: went via the solver

  // Same problem again: admission-time cache probe answers inline.
  bool second_hit = false;
  bool invoked = false;
  ASSERT_TRUE(tenants
                  .SubmitSolve("alice", RequestFor(SmallProblem(1)),
                               [&](Expected<service::SolveResult> result,
                                   bool cache_hit) {
                                 EXPECT_TRUE(result.ok());
                                 second_hit = cache_hit;
                                 invoked = true;
                               })
                  .ok());
  EXPECT_TRUE(invoked);  // inline, no dispatch round-trip
  EXPECT_TRUE(second_hit);

  const MetricSnapshot stats = tenants.metrics().Snapshot();
  const MetricLabels alice = {{"tenant", "alice"}};
  EXPECT_EQ(stats.Count("tenant_admitted", alice), 2u);
  EXPECT_EQ(stats.Count("tenant_dispatched", alice), 1u);
  EXPECT_EQ(stats.Count("tenant_cache_hits", alice), 1u);
  EXPECT_EQ(stats.Count("tenant_completed", alice), 2u);
  EXPECT_EQ(stats.Count("tenant_latency_us", alice), 2u);
  EXPECT_EQ(stats.Count("tenant_admitted"), 2u);  // alice is the only one
  tenants.Shutdown();
}

TEST(TenantScheduler, AdmissionRejectionIsTypedAndSkipsCallback) {
  service::ScheduleService service{service::ServiceOptions{}};
  TenantSchedulerOptions options;
  options.dispatch_threads = 0;
  options.registry.default_config.rate_per_sec = 0.0001;  // ~1 per 3 hours
  options.registry.default_config.burst = 1.0;
  TenantScheduler tenants(&service, options);

  ASSERT_TRUE(tenants
                  .SubmitSolve("bob", RequestFor(SmallProblem(2)),
                               [](Expected<service::SolveResult>, bool) {})
                  .ok());
  bool invoked = false;
  Status second = tenants.SubmitSolve(
      "bob", RequestFor(SmallProblem(3)),
      [&](Expected<service::SolveResult>, bool) { invoked = true; });
  EXPECT_EQ(second.code(), StatusCode::kAdmissionRejected);
  EXPECT_FALSE(invoked);
  EXPECT_EQ(tenants.metrics().Snapshot().Count(
                "tenant_rejected_rate_limited", {{"tenant", "bob"}}),
            1u);
  tenants.Shutdown();
}

TEST(TenantScheduler, PerTenantQueueFullIsTyped) {
  service::ScheduleService service{service::ServiceOptions{}};
  TenantSchedulerOptions options;
  options.dispatch_threads = 0;  // nothing drains the lanes
  options.registry.default_config.queue_capacity = 1;
  TenantScheduler tenants(&service, options);

  ASSERT_TRUE(tenants
                  .SubmitSolve("carol", RequestFor(SmallProblem(4)),
                               [](Expected<service::SolveResult>, bool) {})
                  .ok());
  Status second = tenants.SubmitSolve(
      "carol", RequestFor(SmallProblem(5)),
      [](Expected<service::SolveResult>, bool) {});
  EXPECT_EQ(second.code(), StatusCode::kWouldBlock);
  EXPECT_EQ(tenants.metrics().Snapshot().Count(
                "tenant_rejected_queue_full", {{"tenant", "carol"}}),
            1u);

  // Another tenant's lane is unaffected (per-tenant backpressure).
  EXPECT_TRUE(tenants
                  .SubmitSolve("dave", RequestFor(SmallProblem(6)),
                               [](Expected<service::SolveResult>, bool) {})
                  .ok());
  tenants.Shutdown();
}

TEST(TenantScheduler, QueuedPastDeadlineExpiresTyped) {
  service::ScheduleService service{service::ServiceOptions{}};
  TenantSchedulerOptions options;
  options.dispatch_threads = 1;
  TenantScheduler tenants(&service, options);

  // A deadline already in the past cannot be dispatched: the lane scan
  // completes it with kDeadlineExceeded before it ever reaches the solver.
  auto request = RequestFor(SmallProblem(40));
  request.deadline = WallNow() - ticks::FromMillis(1);
  std::promise<Status> done;
  ASSERT_TRUE(tenants
                  .SubmitSolve("erin", request,
                               [&](Expected<service::SolveResult> result,
                                   bool) {
                                 done.set_value(result.status());
                               })
                  .ok());
  EXPECT_EQ(done.get_future().get().code(), StatusCode::kDeadlineExceeded);
  tenants.Shutdown();
  const MetricSnapshot stats = tenants.metrics().Snapshot();
  EXPECT_EQ(stats.Count("tenant_expired_in_queue", {{"tenant", "erin"}}),
            1u);
  EXPECT_EQ(stats.Count("tenant_failed", {{"tenant", "erin"}}), 1u);
  EXPECT_EQ(stats.Count("tenant_dispatched"), 0u);
}

TEST(TenantScheduler, UnknownTenantWhenRegistryClosed) {
  service::ScheduleService service{service::ServiceOptions{}};
  TenantSchedulerOptions options;
  options.registry.auto_register = false;
  TenantScheduler tenants(&service, options);
  Status submit = tenants.SubmitSolve(
      "ghost", RequestFor(SmallProblem(7)),
      [](Expected<service::SolveResult>, bool) {});
  EXPECT_EQ(submit.code(), StatusCode::kNotFound);
  // A lookup's kNotFound for an unknown tenant is not a cache miss.
  bool miss = true;
  EXPECT_EQ(tenants.Lookup("ghost", RequestFor(SmallProblem(7)), &miss)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(miss);
  tenants.Shutdown();
}

TEST(TenantScheduler, ShutdownCancelsQueuedWork) {
  service::ScheduleService service{service::ServiceOptions{}};
  TenantSchedulerOptions options;
  options.dispatch_threads = 0;
  TenantScheduler tenants(&service, options);
  Status cancelled_status = OkStatus();
  ASSERT_TRUE(tenants
                  .SubmitSolve("erin", RequestFor(SmallProblem(8)),
                               [&](Expected<service::SolveResult> result,
                                   bool) {
                                 cancelled_status = result.status();
                               })
                  .ok());
  tenants.Shutdown();
  EXPECT_EQ(cancelled_status.code(), StatusCode::kCancelled);
  EXPECT_EQ(tenants.metrics().Snapshot().Count("tenant_cancelled",
                                                {{"tenant", "erin"}}),
            1u);
}

TEST(TenantScheduler, CompletionAfterTheFrontEndIsGoneIsSafe) {
  // A tenant request that joins a solve running on the service's own pool
  // is completed by that pool thread, here after the front end that
  // admitted it was destroyed: the tenant's counters must still be alive.
  service::ServiceOptions service_options;
  service_options.workers = 1;
  service_options.solver_watchdog = ticks::FromMillis(300);
  service::ScheduleService service(service_options);
  Rng rng(7);
  graph::SyntheticProblem dag = graph::MakeForkJoin(rng, 5);
  auto spec = std::make_shared<graph::ProblemSpec>();
  spec->graph = dag.graph;
  spec->costs = dag.costs;
  spec->machine = graph::MachineConfig::SingleNode(2);
  spec->comm = graph::CommModel::Free();
  spec->regime_count = 1;
  auto pooled = service.SubmitAsync(RequestFor(spec));  // ends at 300 ms
  ASSERT_TRUE(pooled.ok());

  std::promise<bool> done;
  {
    TenantSchedulerOptions options;
    options.dispatch_threads = 1;
    TenantScheduler tenants(&service, options);
    ASSERT_TRUE(tenants
                    .SubmitSolve("late", RequestFor(spec),
                                 [&](Expected<service::SolveResult> result,
                                     bool) { done.set_value(result.ok()); })
                    .ok());
    for (int i = 0; i < 200 && service.metrics().Snapshot().Count(
                                    "service_coalesced") == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(service.metrics().Snapshot().Count("service_coalesced"), 1u);
    tenants.Shutdown();
  }
  EXPECT_TRUE(done.get_future().get());
  EXPECT_TRUE(pooled->get().ok());
}

TEST(TenantScheduler, LookupNeverConsumesTokens) {
  service::ScheduleService service{service::ServiceOptions{}};
  TenantSchedulerOptions options;
  options.dispatch_threads = 1;
  options.registry.default_config.rate_per_sec = 0.0001;
  options.registry.default_config.burst = 1.0;
  TenantScheduler tenants(&service, options);

  // Lookups miss (kNotFound) but never trip the rate limit.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tenants.Lookup("frank", RequestFor(SmallProblem(9)))
                  .status()
                  .code(),
              StatusCode::kNotFound);
  }
  // The single burst token is still available for a real solve.
  std::promise<void> done;
  ASSERT_TRUE(tenants
                  .SubmitSolve("frank", RequestFor(SmallProblem(9)),
                               [&](Expected<service::SolveResult> result,
                                   bool) {
                                 EXPECT_TRUE(result.ok());
                                 done.set_value();
                               })
                  .ok());
  done.get_future().wait();
  auto hit = tenants.Lookup("frank", RequestFor(SmallProblem(9)));
  EXPECT_TRUE(hit.ok());
  tenants.Shutdown();
}

}  // namespace
}  // namespace ss::tenant

// Tests for the scheduler-as-a-service subsystem: canonical fingerprinting,
// the sharded schedule cache, single-flight request coalescing, typed
// backpressure (queue-full, deadline-exceeded, shutdown), snapshot
// persistence, and service-backed parallel regime-table construction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/crc32.hpp"
#include "core/rng.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph_io.hpp"
#include "graph/synthetic.hpp"
#include "regime/regime.hpp"
#include "regime/schedule_table.hpp"
#include "sched/optimal.hpp"
#include "service/schedule_cache.hpp"
#include "service/schedule_service.hpp"
#include "service/table_builder.hpp"

namespace ss::service {
namespace {

/// One counter of the service's registry, by row name.
std::uint64_t Counted(const ScheduleService& service, std::string_view name) {
  return service.metrics().Snapshot().Count(name);
}

ServiceOptions Opts(int workers, std::size_t queue_capacity = 64,
                    std::string snapshot_path = {}) {
  ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = queue_capacity;
  options.snapshot_path = std::move(snapshot_path);
  return options;
}

/// A small three-task pipeline; `salt` perturbs the costs so distinct salts
/// give distinct problems (and fingerprints).
std::shared_ptr<graph::ProblemSpec> MakeProblem(int salt,
                                                std::size_t regimes = 1) {
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
  spec->machine = graph::MachineConfig::SingleNode(2);
  spec->comm = graph::CommModel::Free();
  spec->regime_count = regimes;
  return spec;
}

/// The same problem as MakeProblem, declared in a different order (tasks,
/// channels, and data-parallel variants permuted).
std::shared_ptr<graph::ProblemSpec> MakeProblemReordered(int salt) {
  auto spec = std::make_shared<graph::ProblemSpec>();
  const TaskId sink = spec->graph.AddTask("sink");
  const TaskId src = spec->graph.AddTask("src", /*is_source=*/true);
  const TaskId mid = spec->graph.AddTask("mid");
  const ChannelId b = spec->graph.AddChannel("b", 100);
  spec->graph.SetProducer(mid, b);
  spec->graph.AddConsumer(sink, b);
  const ChannelId a = spec->graph.AddChannel("a", 100);
  spec->graph.SetProducer(src, a);
  spec->graph.AddConsumer(mid, a);
  spec->costs.Set(RegimeId(0), sink, graph::TaskCost::Serial(50));
  graph::TaskCost mid_cost = graph::TaskCost::Serial(400);
  mid_cost.AddVariant(graph::DpVariant{"two-way", 2, 180, 20, 20});
  spec->costs.Set(RegimeId(0), mid, mid_cost);
  spec->costs.Set(RegimeId(0), src, graph::TaskCost::Serial(100 + salt));
  spec->machine = graph::MachineConfig::SingleNode(2);
  spec->comm = graph::CommModel::Free();
  spec->regime_count = 1;
  return spec;
}

TEST(FingerprintTest, InvariantUnderDeclarationReordering) {
  const graph::Fingerprint fp_a(*MakeProblem(7));
  const graph::Fingerprint fp_b(*MakeProblemReordered(7));
  EXPECT_EQ(fp_a, fp_b) << fp_a.ToHex() << " vs " << fp_b.ToHex();
}

TEST(FingerprintTest, SensitiveToEveryInput) {
  const graph::Fingerprint base(*MakeProblem(7));
  EXPECT_NE(base, graph::Fingerprint(*MakeProblem(8)));

  auto machine = MakeProblem(7);
  machine->machine.procs_per_node = 4;
  EXPECT_NE(base, graph::Fingerprint(*machine));

  auto comm = MakeProblem(7);
  comm->comm.inter_latency = 99;
  EXPECT_NE(base, graph::Fingerprint(*comm));

  auto renamed = MakeProblem(7);
  renamed->graph.AddTask("extra", true);
  renamed->costs.Set(RegimeId(0), renamed->graph.FindTask("extra"),
                     graph::TaskCost::Serial(1));
  EXPECT_NE(base, graph::Fingerprint(*renamed));
}

TEST(FingerprintTest, HexRoundTripAndExtension) {
  const graph::Fingerprint fp(*MakeProblem(3));
  auto parsed = graph::Fingerprint::FromHex(fp.ToHex());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(fp, *parsed);
  EXPECT_FALSE(graph::Fingerprint::FromHex("short").ok());
  EXPECT_NE(fp, fp.Extended({1}));
  EXPECT_EQ(fp.Extended({1, 2}), fp.Extended({1, 2}));
  EXPECT_NE(fp.Extended({1, 2}), fp.Extended({2, 1}));
}

TEST(FingerprintTest, StableAcrossProcessRuns) {
  // Golden value: pins the canonical hash so an accidental algorithm change
  // (or platform dependence) fails loudly. Recompute deliberately if the
  // fingerprint definition changes, and note it in docs/service.md.
  const graph::Fingerprint fp(*MakeProblem(7));
  EXPECT_EQ(fp.ToHex(), "3ba9540622e6f9d6945d8d0a7a320670");
}

TEST(RequestKeyTest, DistinguishesRegimeAndOptions) {
  auto problem = MakeProblem(1, /*regimes=*/2);
  SolveRequest base;
  base.problem = problem;

  SolveRequest other_regime = base;
  other_regime.regime = RegimeId(1);
  EXPECT_NE(ScheduleService::RequestKey(base),
            ScheduleService::RequestKey(other_regime));

  SolveRequest no_rotation = base;
  no_rotation.options.pipeline.allow_rotation = false;
  EXPECT_NE(ScheduleService::RequestKey(base),
            ScheduleService::RequestKey(no_rotation));
}

TEST(ScheduleCacheTest, LruEvictionAndCounters) {
  ScheduleCache cache(/*capacity=*/2, /*shards=*/1);
  auto entry = [](std::uint64_t n) {
    auto e = std::make_shared<CachedSolve>();
    e->key = graph::Fingerprint(n, n);
    e->min_latency = static_cast<Tick>(n);
    return e;
  };
  cache.Insert(entry(1));
  cache.Insert(entry(2));
  ASSERT_NE(cache.Lookup(graph::Fingerprint(1, 1)), nullptr);  // 1 is MRU
  cache.Insert(entry(3));                                      // evicts 2
  EXPECT_EQ(cache.Lookup(graph::Fingerprint(2, 2)), nullptr);
  EXPECT_NE(cache.Lookup(graph::Fingerprint(1, 1)), nullptr);
  EXPECT_NE(cache.Lookup(graph::Fingerprint(3, 3)), nullptr);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ScheduleServiceTest, CacheHitReturnsScheduleIdenticalToFreshSolve) {
  auto problem = MakeProblem(0);
  ScheduleService service(Opts(2));

  SolveRequest request;
  request.problem = problem;
  auto first = service.Solve(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = service.Solve(request);
  ASSERT_TRUE(second.ok());
  // The hit hands back the very same published entry.
  EXPECT_EQ(first->get(), second->get());

  sched::OptimalScheduler fresh(problem->graph, problem->costs,
                                problem->comm, problem->machine);
  auto direct = fresh.Schedule(RegimeId(0));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*first)->min_latency, direct->min_latency);
  EXPECT_EQ((*first)->schedule.initiation_interval,
            direct->best.initiation_interval);
  EXPECT_EQ((*first)->schedule.iteration.CanonicalKey(),
            direct->best.iteration.CanonicalKey());
  EXPECT_GT((*first)->stats.nodes_explored, 0u);

  const MetricSnapshot stats = service.metrics().Snapshot();
  EXPECT_EQ(stats.Count("service_requests"), 2u);
  EXPECT_EQ(stats.Count("service_solves"), 1u);
  EXPECT_EQ(stats.Count("service_cache_hits"), 1u);
}

TEST(ScheduleServiceTest, BudgetExhaustedSolveIsHeuristicAndCached) {
  ScheduleService service(Opts(1));
  SolveRequest request;
  request.problem = MakeProblem(0);
  request.options.max_nodes = 1;  // guarantees budget exhaustion

  auto first = service.Solve(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE((*first)->stats.budget_exhausted);
  // The search stopped early, so its answer is not proven optimal.
  EXPECT_EQ((*first)->quality, sched::ScheduleQuality::kHeuristic);

  // The node budget is part of the request key: a repeat could not do
  // better, so it is served from the cache instead of searching again.
  auto second = service.Solve(request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->get(), second->get());
  const MetricSnapshot stats = service.metrics().Snapshot();
  EXPECT_EQ(stats.Count("service_solves"), 1u);
  EXPECT_EQ(stats.Count("service_cache_hits"), 1u);
  EXPECT_EQ(stats.Count("service_degraded"), 0u);
  EXPECT_EQ(stats.Count("service_solver_budget_exhausted"), 1u);
}

/// SolveOnCaller, waited for: the callback runs on this thread, or on the
/// thread running a solve this request joined.
Expected<SolveResult> SolveHere(ScheduleService& service,
                                SolveRequest request) {
  auto done = std::make_shared<std::promise<Expected<SolveResult>>>();
  std::future<Expected<SolveResult>> result = done->get_future();
  service.SolveOnCaller(std::move(request),
                        [done](Expected<SolveResult> solved) {
                          done->set_value(std::move(solved));
                        });
  return result.get();
}

TEST(ScheduleServiceTest, SingleFlightUnderConcurrentMixedLoad) {
  // 8 threads x 100 mixed requests over 5 distinct problems must cost
  // exactly 5 solver invocations: every other request is a cache hit or
  // coalesces onto an in-flight solve. Even threads go through the pool,
  // odd ones solve on their own thread: both share one single-flight map.
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 100;
  constexpr int kProblems = 5;

  std::vector<std::shared_ptr<const graph::ProblemSpec>> problems;
  for (int p = 0; p < kProblems; ++p) problems.push_back(MakeProblem(p));

  ScheduleService service(
      Opts(4, 32));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        SolveRequest request;
        request.problem =
            problems[static_cast<std::size_t>((t + i) % kProblems)];
        auto result = t % 2 == 0 ? service.Solve(request)
                                 : SolveHere(service, request);
        if (!result.ok() ||
            (*result)->schedule.initiation_interval <= 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  const MetricSnapshot stats = service.metrics().Snapshot();
  EXPECT_EQ(stats.Count("service_requests"),
            static_cast<std::uint64_t>(kThreads * kRequestsPerThread));
  EXPECT_EQ(stats.Count("service_solves"),
            static_cast<std::uint64_t>(kProblems));
  EXPECT_EQ(
      stats.Count("service_cache_hits") + stats.Count("service_coalesced"),
      static_cast<std::uint64_t>(kThreads * kRequestsPerThread - kProblems));
  EXPECT_EQ(stats.Count("service_solve_failures"), 0u);
  EXPECT_DOUBLE_EQ(stats.Gauge("cache_entries"),
                   static_cast<double>(kProblems));
}

TEST(ScheduleServiceTest, SolveOnCallerNeedsNoPoolAndCompletesOnce) {
  // workers = 0: the pool could never run a job, so the solve can only
  // happen on the calling thread.
  ScheduleService service(Opts(0));
  SolveRequest request;
  request.problem = MakeProblem(7);
  int calls = 0;
  std::thread::id ran_on;
  service.SolveOnCaller(request, [&](Expected<SolveResult> result) {
    ++calls;
    ran_on = std::this_thread::get_id();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(Counted(service, "service_solves"), 1u);
  EXPECT_NE(service.cache().Lookup(ScheduleService::RequestKey(request)),
            nullptr);

  // After Shutdown the callback still runs, once, with kCancelled.
  service.Shutdown();
  request.problem = MakeProblem(8);
  StatusCode code = StatusCode::kOk;
  service.SolveOnCaller(request, [&](Expected<SolveResult> result) {
    ++calls;
    code = result.ok() ? StatusCode::kOk : result.status().code();
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(code, StatusCode::kCancelled);
  EXPECT_EQ(Counted(service, "service_solves"), 1u);
}

TEST(ScheduleServiceTest, ShutdownWaitsForSolvesOnCallerThreads) {
  // Shutdown() while another thread's SolveOnCaller solve runs returns
  // only after that solve has answered, and its result is in the snapshot.
  const std::string path = "test_service_shutdown_wait.sscache";
  std::remove(path.c_str());
  Rng rng(8);
  const graph::SyntheticProblem dag = graph::MakeForkJoin(rng, 6);
  auto problem = std::make_shared<graph::ProblemSpec>();
  problem->graph = dag.graph;  // ~340k search nodes: tens of milliseconds
  problem->costs = dag.costs;
  problem->machine = graph::MachineConfig::SingleNode(2);
  problem->comm = graph::CommModel::Free();
  problem->regime_count = 1;
  SolveRequest request;
  request.problem = problem;
  {
    ScheduleService service(Opts(0, 64, path));
    std::atomic<bool> answered{false};
    std::thread caller([&] {
      service.SolveOnCaller(request, [&](Expected<SolveResult> result) {
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        answered = true;
      });
    });
    while (Counted(service, "service_solves") == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service.Shutdown();
    EXPECT_TRUE(answered) << "Shutdown returned while the solve still ran";
    caller.join();
  }
  ScheduleService restarted(Opts(0, 64, path));
  EXPECT_EQ(restarted.cache().size(), 1u);
  std::remove(path.c_str());
}

TEST(ScheduleServiceTest, ExpiredDeadlineIsATypedError) {
  ScheduleService service(Opts(1));
  SolveRequest request;
  request.problem = MakeProblem(0);
  request.deadline = WallNow() - 1000;  // already expired when queued
  auto submitted = service.SubmitAsync(request);
  ASSERT_TRUE(submitted.ok());
  auto result = submitted->get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Counted(service, "service_deadline_exceeded"), 1u);
  EXPECT_EQ(Counted(service, "service_solves"), 0u);
}

TEST(ScheduleServiceTest, SyncSolveHonorsDeadlineWhilePaused) {
  // workers = 0: a valid paused service — nothing dequeues, so a sync Solve
  // with a finite deadline must come back as kDeadlineExceeded instead of
  // hanging.
  ScheduleService service(Opts(0));
  SolveRequest request;
  request.problem = MakeProblem(0);
  request.deadline = WallNow() + 20'000;  // 20ms
  auto result = service.Solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ScheduleServiceTest, QueueFullIsATypedErrorAndShutdownCancels) {
  ScheduleService service(
      Opts(0, 2));
  SolveRequest r0, r1, r2;
  r0.problem = MakeProblem(0);
  r1.problem = MakeProblem(1);
  r2.problem = MakeProblem(2);
  auto f0 = service.SubmitAsync(r0);
  auto f1 = service.SubmitAsync(r1);
  ASSERT_TRUE(f0.ok());
  ASSERT_TRUE(f1.ok());
  auto rejected = service.SubmitAsync(r2);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kWouldBlock);

  // Duplicate of a queued request coalesces instead of consuming the queue.
  auto dup = service.SubmitAsync(r0);
  ASSERT_TRUE(dup.ok());

  service.Shutdown();
  EXPECT_EQ(f0->get().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(f1->get().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(dup->get().status().code(), StatusCode::kCancelled);

  const MetricSnapshot stats = service.metrics().Snapshot();
  EXPECT_EQ(stats.Count("service_queue_rejected"), 1u);
  EXPECT_EQ(stats.Count("service_coalesced"), 1u);
  EXPECT_EQ(stats.Count("service_cancelled"), 2u);

  auto after = service.SubmitAsync(r0);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kCancelled);
}

TEST(ScheduleServiceTest, InvalidRegimeFailsTyped) {
  ScheduleService service(Opts(1));
  SolveRequest request;
  request.problem = MakeProblem(0);
  request.regime = RegimeId(5);
  auto result = service.Solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Counted(service, "service_solve_failures"), 1u);
}

TEST(ScheduleServiceTest, SnapshotPersistenceWarmsARestart) {
  const std::string path = "test_service_snapshot.sscache";
  std::remove(path.c_str());
  auto problem = MakeProblem(4);
  std::string canonical_key;
  {
    ScheduleService service(
        Opts(2, 64, path));
    SolveRequest request;
    request.problem = problem;
    auto result = service.Solve(request);
    ASSERT_TRUE(result.ok());
    canonical_key = (*result)->schedule.iteration.CanonicalKey();
    service.Shutdown();  // saves the snapshot
  }
  {
    ScheduleService service(
        Opts(2, 64, path));
    EXPECT_EQ(service.cache().size(), 1u);
    SolveRequest request;
    request.problem = problem;
    auto result = service.Solve(request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)->schedule.iteration.CanonicalKey(), canonical_key);
    const MetricSnapshot stats = service.metrics().Snapshot();
    EXPECT_EQ(stats.Count("service_solves"), 0u)
        << "warm restart must not re-solve";
    EXPECT_EQ(stats.Count("service_cache_hits"), 1u);
  }
  std::remove(path.c_str());
}

TEST(ScheduleCacheTest, SnapshotRoundTripPreservesEntries) {
  const std::string path = "test_cache_snapshot.sscache";
  std::remove(path.c_str());
  ScheduleCache cache(8, 2);
  {
    ScheduleService service(Opts(1));
    SolveRequest request;
    request.problem = MakeProblem(1);
    auto result = service.Solve(request);
    ASSERT_TRUE(result.ok());
    cache.Insert(*result);
  }
  ASSERT_TRUE(cache.Save(path).ok());

  ScheduleCache reloaded(8, 2);
  ASSERT_TRUE(reloaded.Load(path).ok());
  EXPECT_EQ(reloaded.size(), cache.size());
  ScheduleCache bad(8, 2);
  EXPECT_EQ(bad.Load("/nonexistent/snapshot").code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

/// Rewrites every snapshot line through `edit`; lines `edit` leaves alone
/// pass through untouched. Re-seals the CRC footer afterwards so the
/// tampering survives the load-time checksum — these tests target the
/// *parsing* and *verification* layers behind it (the checksum itself is
/// covered by SnapshotCrashSafetyTest in test_fault).
template <typename Edit>
void TamperSnapshot(const std::string& path, Edit edit) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("crc ", 0) == 0) continue;  // re-sealed below
    edit(&line);
    out << line << "\n";
  }
  in.close();
  std::string body = out.str();
  char footer[24];
  std::snprintf(footer, sizeof(footer), "crc %08x\n", Crc32(body));
  body += footer;
  std::ofstream rewrite(path, std::ios::trunc);
  rewrite << body;
}

TEST(ScheduleCacheTest, LoadRejectsStructurallyCorruptSnapshot) {
  const std::string path = "test_cache_corrupt.sscache";
  std::remove(path.c_str());
  {
    ScheduleService service(Opts(1, 64, path));
    SolveRequest request;
    request.problem = MakeProblem(3);
    ASSERT_TRUE(service.Solve(request).ok());
    service.Shutdown();
  }
  // Pile every op onto processor 0 at t=0: an unmistakable overlap that the
  // spec-free structural pass must catch at load time.
  TamperSnapshot(path, [](std::string* line) {
    if (line->rfind("op ", 0) != 0) return;
    long long op = 0, proc = 0, start = 0, duration = 0;
    std::istringstream ls(line->substr(3));
    ls >> op >> proc >> start >> duration;
    std::ostringstream rewritten;
    rewritten << "op " << op << " 0 0 " << duration;
    *line = rewritten.str();
  });

  ScheduleCache cache(8, 2);
  const Status status = cache.Load(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruptArtifact);
  EXPECT_EQ(cache.size(), 0u) << "a corrupt snapshot must not half-load";

  // The service survives the same snapshot: it warns, cold-starts, and
  // re-solves rather than serving (or crashing on) the corrupt artifact.
  ScheduleService service(Opts(1, 64, path));
  EXPECT_EQ(service.cache().size(), 0u);
  SolveRequest request;
  request.problem = MakeProblem(3);
  auto result = service.Solve(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Counted(service, "service_solves"), 1u);
  service.Shutdown();
  std::remove(path.c_str());
}

TEST(ScheduleServiceTest, ServeTimeVerificationRejectsSubtleCorruption) {
  const std::string path = "test_service_subtle.sscache";
  std::remove(path.c_str());
  auto problem = MakeProblem(5);
  Tick honest_latency = 0;
  {
    ScheduleService service(Opts(1, 64, path));
    SolveRequest request;
    request.problem = problem;
    auto result = service.Solve(request);
    ASSERT_TRUE(result.ok());
    honest_latency = (*result)->min_latency;
    service.Shutdown();
  }
  // Inflate the recorded minimal latency by one tick. The snapshot stays
  // structurally legal (entries untouched) so load accepts it; only the
  // spec-aware serve-time cross-check can see the metadata no longer
  // matches the schedule it describes.
  TamperSnapshot(path, [honest_latency](std::string* line) {
    if (line->rfind("entry ", 0) != 0) return;
    const std::string needle =
        " min_latency=" + std::to_string(honest_latency);
    const auto pos = line->find(needle);
    ASSERT_NE(pos, std::string::npos) << *line;
    line->replace(pos, needle.size(),
                  " min_latency=" + std::to_string(honest_latency + 1));
  });

  ScheduleService service(Opts(1, 64, path));
  ASSERT_EQ(service.cache().size(), 1u);
  SolveRequest request;
  request.problem = problem;

  auto rejected = service.Solve(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruptArtifact);
  MetricSnapshot stats = service.metrics().Snapshot();
  EXPECT_EQ(stats.Count("service_corrupt_rejected"), 1u);
  EXPECT_EQ(service.cache().Stats().invalidations, 1u);
  EXPECT_EQ(service.cache().size(), 0u) << "corrupt entry must be evicted";

  // With the corrupt entry gone the next request re-solves honestly.
  auto resolved = service.Solve(request);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ((*resolved)->min_latency, honest_latency);
  EXPECT_EQ(Counted(service, "service_solves"), 1u);
  service.Shutdown();
  std::remove(path.c_str());
}

TEST(TableBuilderTest, ParallelTableMatchesSerialPrecompute) {
  auto problem = MakeProblem(2, /*regimes=*/3);
  const regime::RegimeSpace space(1, 3);

  auto serial = regime::ScheduleTable::Precompute(
      space, problem->graph, problem->costs, problem->comm,
      problem->machine);
  ASSERT_TRUE(serial.ok());

  ScheduleService service(Opts(3));
  auto parallel = PrecomputeTableParallel(service, space, problem);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(parallel->size(), serial->size());
  for (RegimeId r : space.AllRegimes()) {
    EXPECT_EQ(parallel->Get(r).min_latency, serial->Get(r).min_latency);
    EXPECT_EQ(parallel->Get(r).schedule.initiation_interval,
              serial->Get(r).schedule.initiation_interval);
    EXPECT_EQ(parallel->Get(r).op_graph->op_count(),
              serial->Get(r).op_graph->op_count());
  }
  EXPECT_EQ(Counted(service, "service_solves"), space.size());
}

TEST(ScheduleServiceTest, CacheRowsReportTheCacheCounters) {
  ServiceOptions options = Opts(1);
  options.cache_capacity = 1;
  options.cache_shards = 1;
  ScheduleService service(options);
  for (int salt = 0; salt < 2; ++salt) {
    SolveRequest request;
    request.problem = MakeProblem(salt);
    ASSERT_TRUE(service.Solve(request).ok());
  }
  const MetricSnapshot stats = service.metrics().Snapshot();
  const CacheStats cache = service.cache().Stats();
  EXPECT_EQ(stats.Count("cache_insertions"), 2u);
  EXPECT_EQ(stats.Count("cache_evictions"), 1u);
  EXPECT_DOUBLE_EQ(stats.Gauge("cache_entries"), 1.0);
  EXPECT_EQ(stats.Count("cache_evictions"), cache.evictions);
  EXPECT_EQ(stats.Count("cache_misses"), cache.misses);
}

TEST(ScheduleServiceTest, MetricsRenderAsATable) {
  ScheduleService service(Opts(1));
  SolveRequest request;
  request.problem = MakeProblem(0);
  ASSERT_TRUE(service.Solve(request).ok());
  ASSERT_TRUE(service.Solve(request).ok());
  const MetricSnapshot stats = service.metrics().Snapshot();
  EXPECT_GT(stats.Count("service_solver_nodes"), 0u);
  EXPECT_EQ(stats.Count("service_solver_budget_exhausted"), 0u);
  EXPECT_EQ(stats.Count("cache_insertions"), 1u);
  EXPECT_EQ(stats.Count("cache_hits"), 1u);
  EXPECT_EQ(stats.Count("cache_misses"), 2u);  // the submit and the job's
  const std::string table = stats.ToTable();
  EXPECT_NE(table.find("requests"), std::string::npos);
  EXPECT_NE(table.find("solver invocations"), std::string::npos);
  EXPECT_NE(table.find("cache hits"), std::string::npos);
}

}  // namespace
}  // namespace ss::service

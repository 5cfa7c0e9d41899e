// Seeded inputs for every workload. The same (workload, seed) always gives
// the same problems, tenants and request order; the server sees only the
// generated problem texts.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "core/rng.hpp"
#include "graph/synthetic.hpp"
#include "regime/regime.hpp"
#include "sched/optimal.hpp"
#include "service/schedule_service.hpp"
#include "tracker/costs.hpp"
#include "tracker/graph_builder.hpp"

namespace ss::perfbench {

namespace {

constexpr std::size_t kTenants = 4;
/// hit: small enough that no 32-entry shard of the 256-entry schedule
/// cache evicts.
constexpr std::size_t kHitWorkingSet = 64;
/// churn: three times the schedule cache, within the 1024-text parse memo.
constexpr std::size_t kChurnUniverse = 768;
constexpr std::size_t kChurnWarm = 256;
constexpr double kChurnZipf = 1.0;
constexpr double kChurnLookupShare = 0.2;
/// cold: set-up warms the solve path with this many problems.
constexpr std::size_t kColdWarm = 512;
/// cold: each tenant's queue holds what falls due in a stall of the host
/// (at the reference rate, 16 s over four tenants, longer than the client's
/// 10 s timeout), so a stall is queued, not refused; the default 64 would
/// refuse one of ~250 ms.
constexpr std::size_t kColdTenantQueue = 4096;
/// hit, churn and cold's warm-up draw only problems whose serial search
/// stays under this many nodes, in equal bands (MakeWarmUniverse), so that
/// seeding and churn's misses cost about the same on every seed.
constexpr std::uint64_t kMaxWarmNodes = 5000;
/// cold keeps its tail (searches of up to ~25 ms) but drops the rare
/// draws above this many nodes, so that no one search decides a run.
constexpr std::uint64_t kMaxColdNodes = 20000;
/// hit and churn repeat one seeded cycle of this many requests.
constexpr std::size_t kCycle = 1 << 16;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

graph::ProblemSpec FromSynthetic(graph::SyntheticProblem made, int procs) {
  graph::ProblemSpec spec;
  spec.graph = std::move(made.graph);
  spec.costs = std::move(made.costs);
  spec.machine = graph::MachineConfig::SingleNode(procs);
  spec.regime_count = 1;
  return spec;
}

Expected<Problem> MakeProblem(const graph::ProblemSpec& spec) {
  Problem p;
  p.text = graph::FormatProblem(spec);
  p.key_hex = RequestKeyHex(spec, 0);
  SS_RETURN_IF_ERROR(SolveReference(spec, &p));
  return p;
}

/// Draws problems of the cold mix, stratified by the nodes their serial
/// search explores: an equal share of `count` in each of four bands up to
/// kMaxWarmNodes (further draws in a full band are skipped). The node
/// counts spread over two orders of magnitude, and without the bands the
/// typical search of a 768-problem universe moved by ±10% from seed to
/// seed.
Expected<std::vector<Problem>> MakeWarmUniverse(std::uint64_t seed,
                                                std::size_t count) {
  static constexpr std::uint64_t kBandTop[] = {40, 130, 400, kMaxWarmNodes};
  constexpr std::size_t kBands = std::size(kBandTop);
  std::size_t room[kBands];
  for (std::size_t b = 0; b < kBands; ++b) {
    room[b] = count / kBands + (b < count % kBands ? 1 : 0);
  }
  std::vector<Problem> out;
  for (std::uint64_t i = 0; out.size() < count; ++i) {
    auto p = MakeProblem(MakeColdSpec(seed, i));
    if (!p.ok()) return p.status();
    std::size_t b = 0;
    while (b < kBands && p->reference_nodes > kBandTop[b]) ++b;
    if (b == kBands || room[b] == 0) continue;
    --room[b];
    out.push_back(std::move(*p));
  }
  return out;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kHit: return "hit";
    case Workload::kCold: return "cold";
    case Workload::kChurn: return "churn";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kHit, Workload::kCold, Workload::kChurn}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const WorkloadSpec& SpecFor(Workload w) {
  static const WorkloadSpec kHit{.limit_ms = 50,
                                 .reference_rate = 60000,
                                 .start_rate = 100000,
                                 .max_rate = 2000000,
                                 .step_s = 0.5};
  static const WorkloadSpec kCold{.limit_ms = 50,
                                  .reference_rate = 1000,
                                  .start_rate = 1500,
                                  .max_rate = 8000,
                                  .step_s = 1.0};
  static const WorkloadSpec kChurn{.limit_ms = 20,
                                   .reference_rate = 4000,
                                   .start_rate = 8000,
                                   .max_rate = 200000,
                                   .step_s = 0.5};
  switch (w) {
    case Workload::kHit: return kHit;
    case Workload::kCold: return kCold;
    case Workload::kChurn: return kChurn;
  }
  return kHit;
}

std::string RequestKeyHex(const graph::ProblemSpec& spec, int regime) {
  service::SolveRequest request;
  request.problem = std::shared_ptr<const graph::ProblemSpec>(
      &spec, [](const graph::ProblemSpec*) {});
  request.regime = RegimeId(regime);
  return service::ScheduleService::RequestKey(request).ToHex();
}

Status SolveReference(const graph::ProblemSpec& spec, Problem* problem) {
  sched::OptimalScheduler scheduler(spec.graph, spec.costs, spec.comm,
                                    spec.machine);
  sched::OptimalOptions options;
  options.solver_threads = 1;
  auto result = scheduler.Schedule(RegimeId(0), options);
  if (!result.ok()) return result.status();
  problem->reference.fingerprint_hex = problem->key_hex;
  problem->reference.latency = result->best.Latency();
  problem->reference.initiation_interval = result->best.initiation_interval;
  problem->reference.rotation = result->best.rotation;
  problem->reference.quality = result->cancelled ? 1 : 0;
  problem->reference_nodes = result->nodes_explored;
  return OkStatus();
}

graph::ProblemSpec MakeColdSpec(std::uint64_t seed, std::uint64_t index) {
  Rng rng(Mix(seed, index));
  graph::SyntheticOptions opts;
  opts.max_width = 2;
  opts.layers = 2;
  // Half chains of 4-6 tasks, a quarter 2-way fork-joins, a quarter 2-layer
  // DAGs: serial solves of ~0.2 ms median with a tail to ~25 ms and no
  // budget-exhausting draw (wider fork-joins and 3-wide layers have one).
  const std::uint64_t family = rng.NextBelow(4);
  graph::SyntheticProblem made;
  if (family < 2) {
    made = graph::MakeChain(rng, 4 + static_cast<int>(rng.NextBelow(3)), opts);
  } else if (family == 2) {
    made = graph::MakeForkJoin(rng, 2, opts);
  } else {
    made = graph::MakeLayered(rng, opts);
  }
  return FromSynthetic(std::move(made), 2);
}

graph::ProblemSpec MakeKioskSpec() {
  const tracker::TrackerGraph tg = tracker::BuildTrackerGraph();
  const regime::RegimeSpace space{1, 8};
  graph::ProblemSpec spec;
  spec.graph = tg.graph;
  spec.costs = tracker::PaperCostModel(tg, space);
  spec.machine = graph::MachineConfig::SingleNode(4);
  spec.regime_count = space.size();
  return spec;
}

graph::ProblemSpec MakeExhaustingSpec(std::uint64_t seed) {
  // A 6-way fork-join whose every task has a data-parallel variant: the
  // serial search runs into the 20M-node budget on every seed (~3 s).
  Rng rng(Mix(seed, 0xE4A5));
  graph::SyntheticOptions opts;
  opts.variant_percent = 100;
  opts.max_chunks = 3;
  return FromSynthetic(graph::MakeForkJoin(rng, 6, opts), 2);
}

std::vector<std::uint8_t> EncodeRequestBody(const Inputs& in,
                                            const Request& r) {
  const Problem& p = in.problems[r.problem];
  if (r.verb == Verb::kLookup) {
    net::LookupRequestMsg msg;
    msg.tenant = in.tenants[r.tenant];
    msg.problem_text = p.text;
    return net::EncodeBody(msg);
  }
  net::SolveRequestMsg msg;
  msg.tenant = in.tenants[r.tenant];
  msg.problem_text = p.text;
  return net::EncodeBody(msg);
}

Status ExtendColdStream(Inputs* in, std::uint64_t seed, std::size_t count) {
  // Every cold problem is solved in-process before it is sent (in
  // parallel, while the server idles): each answer is checked against it,
  // and draws over kMaxColdNodes are skipped.
  const std::size_t draws = count + count / 8 + 64;
  std::vector<Problem> drawn(draws);
  std::vector<Status> failed(draws);
  std::atomic<std::size_t> next{0};
  const long cpus = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN) - 1);
  std::vector<std::thread> workers;
  for (long t = 0; t < cpus; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < draws; i = next++) {
        auto p = MakeProblem(MakeColdSpec(Mix(seed, 2), in->cold_draws + i));
        if (p.ok()) {
          drawn[i] = std::move(*p);
        } else {
          failed[i] = p.status();
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  std::size_t added = 0;
  std::size_t used = 0;
  for (; used < draws && added < count; ++used) {
    if (!failed[used].ok()) return failed[used];
    if (drawn[used].reference_nodes > kMaxColdNodes) continue;
    in->stream.push_back(Request{
        Verb::kSolve, static_cast<std::uint32_t>(in->problems.size()),
        static_cast<std::uint8_t>(in->stream.size() % kTenants)});
    in->problems.push_back(std::move(drawn[used]));
    ++added;
  }
  in->cold_draws += used;
  if (added < count) return InternalError("too few cold draws under the cap");
  return OkStatus();
}

Expected<Inputs> MakeInputs(Workload w, std::uint64_t seed,
                            std::size_t stream_len) {
  Inputs in;
  in.workload = w;
  for (std::size_t t = 0; t < kTenants; ++t) {
    in.tenants.push_back(std::string(WorkloadName(w)) + "-t" +
                         std::to_string(t));
  }
  Rng rng(Mix(seed, 0x5747 + static_cast<std::uint64_t>(w)));
  switch (w) {
    case Workload::kHit: {
      auto universe = MakeWarmUniverse(Mix(seed, 1), kHitWorkingSet);
      if (!universe.ok()) return universe.status();
      in.problems = std::move(*universe);
      in.seed_set.resize(in.problems.size());
      std::iota(in.seed_set.begin(), in.seed_set.end(), 0u);
      in.stream.resize(kCycle);
      for (Request& r : in.stream) {
        r.verb = rng.NextBelow(2) == 0 ? Verb::kSolve : Verb::kLookup;
        r.problem = static_cast<std::uint32_t>(rng.NextBelow(kHitWorkingSet));
        r.tenant = static_cast<std::uint8_t>(rng.NextBelow(kTenants));
      }
      break;
    }
    case Workload::kCold: {
      for (const std::string& tenant : in.tenants) {
        in.tenant_config += "tenant " + tenant + " queue=" +
                            std::to_string(kColdTenantQueue) + "\n";
      }
      auto warm = MakeWarmUniverse(Mix(seed, 4), kColdWarm);
      if (!warm.ok()) return warm.status();
      in.problems = std::move(*warm);
      in.seed_set.resize(in.problems.size());
      std::iota(in.seed_set.begin(), in.seed_set.end(), 0u);
      SS_RETURN_IF_ERROR(ExtendColdStream(&in, seed, stream_len));
      break;
    }
    case Workload::kChurn: {
      // Weighted tenants: the fair queue shares solver time 4:2:1:1 when
      // misses back up.
      static const char* const kWeights[kTenants] = {"4", "2", "1", "1"};
      for (std::size_t t = 0; t < kTenants; ++t) {
        in.tenant_config += "tenant " + in.tenants[t] + " weight=" +
                            kWeights[t] + " queue=256\n";
      }
      auto universe = MakeWarmUniverse(Mix(seed, 3), kChurnUniverse);
      if (!universe.ok()) return universe.status();
      in.problems = std::move(*universe);
      // Zipf popularity over a seeded ranking of the universe; set-up fills
      // the cache with the most popular problems.
      std::vector<std::uint32_t> rank(kChurnUniverse);
      std::iota(rank.begin(), rank.end(), 0u);
      for (std::size_t i = rank.size(); i > 1; --i) {
        std::swap(rank[i - 1], rank[rng.NextBelow(i)]);
      }
      std::vector<double> cdf(kChurnUniverse);
      double total = 0;
      for (std::size_t k = 0; k < kChurnUniverse; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), kChurnZipf);
        cdf[k] = total;
      }
      in.seed_set.assign(rank.begin(), rank.begin() + kChurnWarm);
      in.stream.resize(kCycle);
      for (Request& r : in.stream) {
        const double u = rng.NextDouble() * total;
        const std::size_t k = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        r.problem = rank[std::min(k, kChurnUniverse - 1)];
        r.verb = rng.NextDouble() < kChurnLookupShare ? Verb::kLookup
                                                      : Verb::kSolve;
        r.tenant = static_cast<std::uint8_t>(rng.NextBelow(kTenants));
      }
      break;
    }
  }
  return in;
}

}  // namespace ss::perfbench

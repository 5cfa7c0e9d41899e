#include "graph/synthetic.hpp"

#include <algorithm>

namespace ss::graph {

namespace {

constexpr RegimeId kR0 = RegimeId(0);

Tick RandomCost(Rng& rng, const SyntheticOptions& options) {
  return static_cast<Tick>(
      rng.NextInRange(options.min_cost, options.max_cost));
}

std::size_t RandomBytes(Rng& rng, const SyntheticOptions& options) {
  return static_cast<std::size_t>(
      rng.NextInRange(static_cast<std::int64_t>(options.min_bytes),
                      static_cast<std::int64_t>(options.max_bytes)));
}

TaskCost RandomTaskCost(Rng& rng, const SyntheticOptions& options) {
  const Tick cost = RandomCost(rng, options);
  TaskCost tc = TaskCost::Serial(cost);
  if (rng.NextBelow(100) < static_cast<std::uint64_t>(
                               options.variant_percent)) {
    const int chunks =
        static_cast<int>(rng.NextInRange(2, options.max_chunks));
    tc.AddVariant(DpVariant{
        "dp" + std::to_string(chunks), chunks,
        cost / chunks + static_cast<Tick>(rng.NextInRange(1, 10)),
        static_cast<Tick>(rng.NextInRange(0, 10)),
        static_cast<Tick>(rng.NextInRange(0, 10))});
  }
  return tc;
}

/// `prefix` followed by `n`. Built by appending: GCC 12 at -O3 reports a
/// false -Wrestrict on `"t" + std::to_string(n)`.
std::string Numbered(const char* prefix, int n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

}  // namespace

SyntheticProblem MakeChain(Rng& rng, int length,
                           const SyntheticOptions& options) {
  SS_CHECK(length >= 1);
  SyntheticProblem p;
  p.family = "chain";
  TaskId prev;
  for (int i = 0; i < length; ++i) {
    TaskId t = p.graph.AddTask(Numbered("t", i), i == 0);
    p.costs.Set(kR0, t, RandomTaskCost(rng, options));
    if (i > 0) {
      ChannelId c =
          p.graph.AddChannel(Numbered("c", i), RandomBytes(rng, options));
      p.graph.SetProducer(prev, c);
      p.graph.AddConsumer(t, c);
    }
    prev = t;
  }
  return p;
}

SyntheticProblem MakeForkJoin(Rng& rng, int width,
                              const SyntheticOptions& options) {
  SS_CHECK(width >= 1);
  SyntheticProblem p;
  p.family = "fork-join";
  TaskId src = p.graph.AddTask("src", true);
  p.costs.Set(kR0, src, RandomTaskCost(rng, options));
  ChannelId c0 = p.graph.AddChannel("fanout", RandomBytes(rng, options));
  p.graph.SetProducer(src, c0);
  TaskId sink = p.graph.AddTask("sink");
  p.costs.Set(kR0, sink, RandomTaskCost(rng, options));
  for (int w = 0; w < width; ++w) {
    TaskId t = p.graph.AddTask("branch" + std::to_string(w));
    p.costs.Set(kR0, t, RandomTaskCost(rng, options));
    p.graph.AddConsumer(t, c0);
    ChannelId c = p.graph.AddChannel("join" + std::to_string(w),
                                     RandomBytes(rng, options));
    p.graph.SetProducer(t, c);
    p.graph.AddConsumer(sink, c);
  }
  return p;
}

SyntheticProblem MakeLayered(Rng& rng, const SyntheticOptions& options) {
  SyntheticProblem p;
  p.family = "layered";
  TaskId src = p.graph.AddTask("src", true);
  p.costs.Set(kR0, src, RandomTaskCost(rng, options));
  ChannelId c0 = p.graph.AddChannel("c_src", RandomBytes(rng, options));
  p.graph.SetProducer(src, c0);

  std::vector<ChannelId> prev_out = {c0};
  int id = 0;
  for (int l = 0; l < options.layers; ++l) {
    const int width = static_cast<int>(
        rng.NextInRange(1, std::max(1, options.max_width)));
    std::vector<TaskId> layer;
    std::vector<ChannelId> layer_out;
    for (int w = 0; w < width; ++w) {
      TaskId t = p.graph.AddTask(Numbered("t", id++));
      p.costs.Set(kR0, t, RandomTaskCost(rng, options));
      const std::size_t fan_in =
          1 + rng.NextBelow(std::min<std::uint64_t>(2, prev_out.size()));
      std::vector<bool> used(prev_out.size(), false);
      for (std::size_t f = 0; f < fan_in; ++f) {
        const std::size_t pick = rng.NextBelow(prev_out.size());
        if (used[pick]) continue;
        used[pick] = true;
        p.graph.AddConsumer(t, prev_out[pick]);
      }
      ChannelId out =
          p.graph.AddChannel(Numbered("c", id), RandomBytes(rng, options));
      p.graph.SetProducer(t, out);
      layer.push_back(t);
      layer_out.push_back(out);
    }
    // Attach dangling channels of the previous layer so nothing is orphaned.
    for (ChannelId c : prev_out) {
      if (p.graph.consumers(c).empty()) {
        p.graph.AddConsumer(layer.front(), c);
      }
    }
    prev_out = layer_out;
  }
  return p;
}

}  // namespace ss::graph

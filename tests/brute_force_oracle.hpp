// Brute-force optimality oracle for the Fig. 6 search.
//
// Shares no code with src/sched: it reads the problem through the graph
// types only and does its own variant expansion, comm charging and
// placement. For every variant combination it enumerates every topological
// sequence of (op, processor) decisions, placing each op at its earliest
// start on the chosen processor after everything already placed there,
// with comm charged on every edge that crosses processors. The only cut is
// a partial makespan already above the best complete one, which can neither
// improve on it nor tie it. The answer is either exact (the minimal latency
// and every distinct schedule reaching it) or an explicit timeout.
//
// Meant for graphs of at most 6 ops on at most 3 processors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "core/time.hpp"
#include "graph/cost_model.hpp"
#include "graph/machine.hpp"
#include "graph/task_graph.hpp"

namespace ss::oracle {

enum class Part { kWhole, kSplit, kChunk, kJoin };

/// One placed op, named by its task and its part of that task.
struct Placement {
  int task = 0;
  Part part = Part::kWhole;
  int chunk = 0;
  int proc = 0;
  Tick start = 0;

  auto Tuple() const { return std::tie(task, part, chunk, proc, start); }
  bool operator<(const Placement& o) const { return Tuple() < o.Tuple(); }
  bool operator==(const Placement& o) const { return Tuple() == o.Tuple(); }
};

/// A complete single-iteration schedule: the variant of every task and
/// every placement, sorted.
struct Schedule {
  std::vector<int> variants;
  std::vector<Placement> placements;

  bool operator<(const Schedule& o) const {
    return std::tie(variants, placements) <
           std::tie(o.variants, o.placements);
  }
};

struct Result {
  /// The node budget ran out: nothing below is exact.
  bool timed_out = false;
  Tick min_latency = kTickInfinity;
  /// Every distinct schedule whose latency is min_latency.
  std::set<Schedule> ties;
  std::uint64_t nodes = 0;
};

class BruteForce {
 public:
  BruteForce(const graph::TaskGraph& graph, const graph::CostModel& costs,
             RegimeId regime, const graph::CommModel& comm,
             const graph::MachineConfig& machine)
      : graph_(graph), costs_(costs), regime_(regime), comm_(comm),
        procs_(machine.total_procs()),
        procs_per_node_(machine.procs_per_node) {}

  Result Solve(std::uint64_t max_nodes) {
    result_ = Result{};
    max_nodes_ = max_nodes;
    const int tasks = static_cast<int>(graph_.task_count());
    std::vector<int> combo(static_cast<std::size_t>(tasks), 0);
    for (;;) {
      Expand(combo);
      Search();
      int pos = 0;
      while (pos < tasks && ++combo[static_cast<std::size_t>(pos)] ==
                                VariantCount(pos)) {
        combo[static_cast<std::size_t>(pos++)] = 0;
      }
      if (pos == tasks || result_.timed_out) break;
    }
    return std::move(result_);
  }

 private:
  struct Op {
    Placement name;
    Tick cost = 0;
    /// (predecessor op, bytes on the edge).
    std::vector<std::pair<int, std::size_t>> preds;
  };

  int VariantCount(int task) const {
    return static_cast<int>(
        costs_.Get(regime_, TaskId(static_cast<TaskId::underlying_type>(task)))
            .variant_count());
  }

  /// A task runs whole, or as split -> chunks -> join with its input bytes
  /// spread evenly over the chunks. Each producer's exit feeds each
  /// consumer's entry with the bytes of every channel between them.
  void Expand(const std::vector<int>& combo) {
    variants_ = combo;
    ops_.clear();
    const int tasks = static_cast<int>(graph_.task_count());
    std::vector<int> entry(static_cast<std::size_t>(tasks));
    std::vector<int> exit(static_cast<std::size_t>(tasks));
    auto add = [this](int task, Part part, int chunk, Tick cost) {
      ops_.push_back(Op{Placement{task, part, chunk, 0, 0}, cost, {}});
      return static_cast<int>(ops_.size()) - 1;
    };
    for (int t = 0; t < tasks; ++t) {
      const TaskId id(static_cast<TaskId::underlying_type>(t));
      const graph::DpVariant& v = costs_.Get(regime_, id).variants.at(
          static_cast<std::size_t>(combo[static_cast<std::size_t>(t)]));
      const auto ti = static_cast<std::size_t>(t);
      if (v.chunks <= 1 && v.split_cost == 0 && v.join_cost == 0) {
        entry[ti] = exit[ti] = add(t, Part::kWhole, 0, v.chunk_cost);
        continue;
      }
      std::size_t in_bytes = 0;
      for (ChannelId ch : graph_.inputs(id)) {
        in_bytes += graph_.channel(ch).item_bytes;
      }
      const std::size_t share =
          v.chunks > 0 ? in_bytes / static_cast<std::size_t>(v.chunks) : 0;
      entry[ti] = add(t, Part::kSplit, 0, v.split_cost);
      std::vector<int> chunks;
      for (int c = 0; c < v.chunks; ++c) {
        chunks.push_back(add(t, Part::kChunk, c, v.chunk_cost));
      }
      exit[ti] = add(t, Part::kJoin, 0, v.join_cost);
      for (int c : chunks) {
        ops_[static_cast<std::size_t>(c)].preds.emplace_back(entry[ti], share);
        ops_[static_cast<std::size_t>(exit[ti])].preds.emplace_back(c, share);
      }
    }
    std::map<std::pair<int, int>, std::size_t> cross;
    for (std::size_t ch = 0; ch < graph_.channel_count(); ++ch) {
      const ChannelId cid(static_cast<ChannelId::underlying_type>(ch));
      const int from = static_cast<int>(graph_.producer(cid).index());
      for (TaskId to : graph_.consumers(cid)) {
        cross[{from, static_cast<int>(to.index())}] +=
            graph_.channel(cid).item_bytes;
      }
    }
    for (const auto& [edge, bytes] : cross) {
      ops_[static_cast<std::size_t>(entry[static_cast<std::size_t>(
               edge.second)])]
          .preds.emplace_back(exit[static_cast<std::size_t>(edge.first)],
                              bytes);
    }
  }

  Tick Comm(std::size_t bytes, int from, int to) const {
    if (from == to) return 0;
    const bool same_node = from / procs_per_node_ == to / procs_per_node_;
    const Tick latency = same_node ? comm_.intra_latency : comm_.inter_latency;
    const double bandwidth =
        same_node ? comm_.intra_bytes_per_us : comm_.inter_bytes_per_us;
    if (bytes == 0 || bandwidth <= 0) return latency;
    return latency + static_cast<Tick>(static_cast<double>(bytes) / bandwidth);
  }

  void Search() {
    const std::size_t n = ops_.size();
    placed_.assign(n, false);
    proc_of_.assign(n, -1);
    start_.assign(n, 0);
    finish_.assign(n, 0);
    proc_free_.assign(static_cast<std::size_t>(procs_), 0);
    Dfs(0, 0);
  }

  void Dfs(std::size_t depth, Tick makespan) {
    if (result_.timed_out) return;
    if (++result_.nodes > max_nodes_) {
      result_.timed_out = true;
      return;
    }
    if (makespan > result_.min_latency) return;
    if (depth == ops_.size()) {
      if (makespan < result_.min_latency) {
        result_.min_latency = makespan;
        result_.ties.clear();
      }
      Schedule s{variants_, {}};
      for (std::size_t i = 0; i < ops_.size(); ++i) {
        Placement p = ops_[i].name;
        p.proc = proc_of_[i];
        p.start = start_[i];
        s.placements.push_back(p);
      }
      std::sort(s.placements.begin(), s.placements.end());
      result_.ties.insert(std::move(s));
      return;
    }
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (placed_[i] || !Ready(i)) continue;
      for (int p = 0; p < procs_; ++p) {
        Tick start = proc_free_[static_cast<std::size_t>(p)];
        for (const auto& [pred, bytes] : ops_[i].preds) {
          const auto pi = static_cast<std::size_t>(pred);
          start = std::max(start, finish_[pi] + Comm(bytes, proc_of_[pi], p));
        }
        const Tick finish = start + ops_[i].cost;
        const Tick saved = proc_free_[static_cast<std::size_t>(p)];
        placed_[i] = true;
        proc_of_[i] = p;
        start_[i] = start;
        finish_[i] = finish;
        proc_free_[static_cast<std::size_t>(p)] = finish;
        Dfs(depth + 1, std::max(makespan, finish));
        proc_free_[static_cast<std::size_t>(p)] = saved;
        placed_[i] = false;
      }
    }
  }

  bool Ready(std::size_t op) const {
    for (const auto& [pred, bytes] : ops_[op].preds) {
      if (!placed_[static_cast<std::size_t>(pred)]) return false;
    }
    return true;
  }

  const graph::TaskGraph& graph_;
  const graph::CostModel& costs_;
  const RegimeId regime_;
  const graph::CommModel comm_;
  const int procs_;
  const int procs_per_node_;

  std::uint64_t max_nodes_ = 0;
  Result result_;
  std::vector<int> variants_;
  std::vector<Op> ops_;
  std::vector<bool> placed_;
  std::vector<int> proc_of_;
  std::vector<Tick> start_;
  std::vector<Tick> finish_;
  std::vector<Tick> proc_free_;
};

}  // namespace ss::oracle

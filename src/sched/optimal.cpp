#include "sched/optimal.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/steal_deque.hpp"
#include "core/sync.hpp"
#include "core/worker_pool.hpp"
#include "sched/list_scheduler.hpp"

namespace ss::sched {

namespace {

using graph::CommModel;
using graph::ExpandPlan;
using graph::MachineConfig;
using graph::OpGraph;

/// A worker donates sibling branches to its own deque only while the deque
/// holds fewer than this many tasks. Small enough to keep task-creation
/// overhead negligible, large enough that thieves always find work while
/// any worker still owns an unexplored subtree of meaningful size.
constexpr std::size_t kDonateWatermark = 8;
/// Per-worker deque capacity. The watermark keeps occupancy far below this,
/// so Push can never fail under the donation discipline.
constexpr std::size_t kDequeCapacity = 256;
/// Process-wide pool backing every solve's runner tasks, sized to the
/// hardware. Shared so concurrent solves (e.g. on schedule-service workers)
/// reuse one bounded set of threads instead of each spawning and joining a
/// fresh `solver_threads - 1`-thread pool per request; per-solve parallelism
/// is still capped by the number of workers a solve enlists.
WorkerPool& SolverPool() {
  // At least one worker even on a single-core host, so `solver_threads > 1`
  // always exercises the cross-thread path (the determinism tests rely on
  // that, and the old per-solve pool behaved the same way there).
  static WorkerPool pool(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return pool;
}

/// State shared by every worker of one solver invocation: the global
/// incumbent and the global node budget.
struct SearchShared {
  /// Best complete makespan found anywhere so far; only ever decreases.
  /// Fixed at the latency bound in throughput mode.
  std::atomic<Tick> best{kTickInfinity};
  /// Nodes still available for reservation (see NodeBudget).
  std::atomic<std::int64_t> budget_remaining{0};
  /// Nodes actually visited, across all threads. Never exceeds max_nodes.
  std::atomic<std::uint64_t> nodes_consumed{0};
  std::atomic<bool> budget_exhausted{false};
  std::atomic<std::uint64_t> complete_schedules{0};
  std::atomic<bool> cancelled{false};
  /// OptimalOptions::stop_at.
  Tick stop_at = kTickInfinity;
  bool bound_mode = false;

  void OfferBest(Tick makespan) {
    Tick cur = best.load(std::memory_order_relaxed);
    while (makespan < cur &&
           !best.compare_exchange_weak(cur, makespan,
                                       std::memory_order_relaxed)) {
    }
  }
};

/// Per-searcher view of the shared node budget. Reserves chunks from the
/// shared pool so the hot path pays one local decrement per node; unused
/// reservation is returned on destruction, so `nodes_consumed` counts only
/// nodes actually visited and the global cap is exact.
class NodeBudget {
 public:
  explicit NodeBudget(SearchShared* shared) : shared_(shared) {}
  ~NodeBudget() { Flush(); }

  NodeBudget(const NodeBudget&) = delete;
  NodeBudget& operator=(const NodeBudget&) = delete;

  /// Accounts for visiting one node. False when the budget is exhausted.
  bool Consume() {
    if (local_ == 0 && !Refill()) return false;
    --local_;
    ++used_;
    return true;
  }

  void Flush() {
    if (local_ > 0) {
      shared_->budget_remaining.fetch_add(local_, std::memory_order_relaxed);
      local_ = 0;
    }
    if (used_ > 0) {
      shared_->nodes_consumed.fetch_add(
          static_cast<std::uint64_t>(used_), std::memory_order_relaxed);
      used_ = 0;
    }
  }

 private:
  static constexpr std::int64_t kChunk = 1024;

  bool Refill() {
    // The time limit is checked here so the hot path stays a local
    // decrement; a stopped search ends within one chunk per worker. A
    // stopped result is incomplete, so it is flagged budget_exhausted too.
    if (shared_->stop_at != kTickInfinity && WallNow() >= shared_->stop_at) {
      shared_->cancelled.store(true, std::memory_order_relaxed);
      shared_->budget_exhausted.store(true, std::memory_order_relaxed);
      return false;
    }
    std::int64_t avail =
        shared_->budget_remaining.load(std::memory_order_relaxed);
    while (avail > 0) {
      const std::int64_t take = std::min(avail, kChunk);
      if (shared_->budget_remaining.compare_exchange_weak(
              avail, avail - take, std::memory_order_relaxed)) {
        local_ = take;
        return true;
      }
    }
    shared_->budget_exhausted.store(true, std::memory_order_relaxed);
    return false;
  }

  SearchShared* shared_;
  std::int64_t local_ = 0;
  std::int64_t used_ = 0;
};

/// Immutable per-variant-combination context: the expanded op graph plus
/// everything derivable from it alone. Built once per combination and
/// shared read-only by all workers.
struct ComboContext {
  OpGraph og;
  /// Comm-free tail lengths, for the path lower bound.
  std::vector<Tick> tail;
  /// Op interchangeability classes: eq_class[i] is the smallest op with
  /// the same cost, predecessors, successors and edge payloads as i (e.g.
  /// chunks of one task). Swapping two class members anywhere in a
  /// schedule is a makespan-preserving bijection. Used twice: ready-op
  /// symmetry branches one representative per class, and the processor
  /// merge rule matches live producers across processors by class.
  std::vector<int> eq_class;
  Tick total_work = 0;

  explicit ComboContext(OpGraph g)
      : og(std::move(g)), tail(og.TailLengths()) {
    const int n = static_cast<int>(og.op_count());
    const auto same_succ_bytes = [this](int i, int j) {
      for (int s : og.succs(i)) {
        if (og.EdgeBytes(i, s) != og.EdgeBytes(j, s)) return false;
      }
      return true;
    };
    eq_class.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      total_work += og.op(i).cost;
      eq_class[static_cast<std::size_t>(i)] = i;
      for (int j = 0; j < i; ++j) {
        if (og.op(i).cost == og.op(j).cost && og.preds(i) == og.preds(j) &&
            og.succs(i) == og.succs(j) &&
            og.pred_bytes(i) == og.pred_bytes(j) && same_succ_bytes(i, j)) {
          eq_class[static_cast<std::size_t>(i)] = j;
          break;
        }
      }
    }
  }
};

/// One stealable unit of search: a fixed placement prefix within one
/// variant combination. Roots (empty prefix, one per live combination) are
/// claimed from a shared index; everything else is donated mid-DFS.
struct SearchTask {
  std::size_t combo = 0;
  std::vector<std::pair<int, ProcId>> prefix;
};

/// Latency mode's retained ties: at most `cap` placement
/// records in one flat buffer of fixed-size slots, so recording a tie
/// allocates nothing once its slot exists, and an IterationSchedule is
/// built only for the ties that survive the final merge. A record's key is
/// its serial position: the combo index, then the (op, proc) decision at
/// every depth, zero-padded to the widest combination. Keys compare on
/// their first diverging decision, which is exactly the order a 1-thread
/// DFS reaches completions in (children are generated op-ascending, then
/// proc-ascending), independent of how the subtrees were split into tasks.
/// Beside its key, a slot holds the start time of every placement.
class TieBuffer {
 public:
  /// `max_ops`: the largest op count of any combination.
  TieBuffer(int cap, std::size_t max_ops)
      : cap_(static_cast<std::size_t>(std::max(cap, 0))),
        max_ops_(max_ops),
        key_words_(1 + 2 * max_ops) {}

  /// Records the completion `path` of combination `combo`. It is kept if
  /// fewer than `cap` ties are held or its key sorts before the largest
  /// held one, which it then evicts.
  void Offer(std::size_t combo, const std::vector<std::pair<int, ProcId>>& path,
             const std::vector<Tick>& start_of) {
    if (keys_.size() < (spare_ + 1) * key_words_) {
      keys_.resize((spare_ + 1) * key_words_);
      starts_.resize((spare_ + 1) * max_ops_);
    }
    std::uint32_t* key = keys_.data() + spare_ * key_words_;
    std::uint32_t* const key_end = key + key_words_;
    Tick* starts = starts_.data() + spare_ * max_ops_;
    *key++ = static_cast<std::uint32_t>(combo);
    for (const auto& [op, proc] : path) {
      *key++ = static_cast<std::uint32_t>(op);
      *key++ = static_cast<std::uint32_t>(proc.index());
      *starts++ = start_of[static_cast<std::size_t>(op)];
    }
    std::fill(key, key_end, 0U);
    const auto less = [this](std::size_t a, std::size_t b) {
      return KeyLess(*this, a, *this, b);
    };
    if (order_.size() == cap_ && !less(spare_, order_.back())) return;
    order_.insert(std::upper_bound(order_.begin(), order_.end(), spare_, less),
                  spare_);
    // Held slots plus the spare always cover 0..order_.size().
    if (order_.size() > cap_) {
      spare_ = order_.back();
      order_.pop_back();
    } else {
      spare_ = order_.size();
    }
  }

  void Clear() {
    order_.clear();
    spare_ = 0;
  }

  /// Held slots, by ascending key.
  const std::vector<std::size_t>& order() const { return order_; }

  std::size_t Combo(std::size_t slot) const {
    return keys_[slot * key_words_];
  }

  static bool KeyLess(const TieBuffer& a, std::size_t sa, const TieBuffer& b,
                      std::size_t sb) {
    const std::uint32_t* ka = a.keys_.data() + sa * a.key_words_;
    const std::uint32_t* kb = b.keys_.data() + sb * b.key_words_;
    return std::lexicographical_compare(ka, ka + a.key_words_, kb,
                                        kb + b.key_words_);
  }

  /// Rebuilds the schedule held in `slot`, a completion of `og`.
  IterationSchedule Schedule(std::size_t slot, const OpGraph& og) const {
    const std::uint32_t* key = keys_.data() + slot * key_words_ + 1;
    const Tick* starts = starts_.data() + slot * max_ops_;
    std::vector<ScheduleEntry> entries;
    entries.reserve(og.op_count());
    for (std::size_t k = 0; k < og.op_count(); ++k) {
      const int op = static_cast<int>(key[2 * k]);
      entries.push_back(ScheduleEntry{
          op, ProcId(static_cast<ProcId::underlying_type>(key[2 * k + 1])),
          starts[k], og.op(op).cost});
    }
    return IterationSchedule(og.variants(), std::move(entries));
  }

 private:
  const std::size_t cap_;
  const std::size_t max_ops_;
  const std::size_t key_words_;
  std::vector<std::uint32_t> keys_;
  std::vector<Tick> starts_;
  std::vector<std::size_t> order_;
  /// The slot the next offered tie is written into.
  std::size_t spare_ = 0;
};

/// Everything one worker accumulates. Each worker writes only its own
/// state; the merge after the join walks the states in canonical order.
struct WorkerState {
  WorkerState(int cap, std::size_t max_ops) : ties(cap, max_ops) {}

  StealDeque<SearchTask> deque{kDequeCapacity};

  /// Latency mode: the makespan of this worker's retained ties.
  /// Throughput mode: the minimal latency among in-bound completions.
  Tick best_makespan = kTickInfinity;
  /// Latency mode: this worker's ties at `best_makespan`, capped by serial
  /// key.
  TieBuffer ties;
  /// Throughput mode: in-bound complete schedules, keyed (and therefore
  /// capped) by canonical key. Both keys are data-only total orders, so
  /// each per-worker cap keeps a superset of the globally reported set no
  /// matter how the tree was partitioned across workers.
  std::map<std::string, IterationSchedule> candidates;
  /// Throughput mode: this worker's best pipelined schedule.
  bool has_pipelined = false;
  PipelinedSchedule pipelined;

  std::uint64_t steals = 0;
  std::uint64_t pruned_symmetry = 0;
};

class BnbSearcher;

/// The work-stealing engine for one search. Worker 0 is the calling
/// thread; workers 1..N-1 run as tasks on the shared SolverPool. Each
/// worker loops: pop its own deque (LIFO, DFS order), else claim an
/// unclaimed root combination, else steal the shallowest task from a
/// sibling; it exits when the global in-flight count hits zero.
/// Termination is safe because `inflight_` is incremented before a task
/// becomes visible and decremented only after it fully ran.
class SearchEngine {
 public:
  SearchEngine(const std::vector<std::unique_ptr<ComboContext>>& contexts,
               const CommModel& comm, const MachineConfig& machine,
               const OptimalOptions& options, const PruningOptions& prune,
               SearchShared* shared, int worker_count)
      : contexts_(contexts),
        comm_(comm),
        machine_(machine),
        options_(options),
        prune_(prune),
        shared_(shared) {
    std::int64_t live = 0;
    std::size_t max_ops = 0;
    for (const auto& ctx : contexts_) {
      if (!ctx) continue;
      ++live;
      max_ops = std::max(max_ops, ctx->og.op_count());
    }
    inflight_.store(live, std::memory_order_relaxed);
    workers_.reserve(static_cast<std::size_t>(worker_count));
    for (int w = 0; w < worker_count; ++w) {
      workers_.push_back(std::make_unique<WorkerState>(
          options.max_optimal_schedules, max_ops));
    }
  }

  /// Runs the search to completion; the calling thread participates.
  void Run() {
    const int runners = static_cast<int>(workers_.size()) - 1;
    if (runners <= 0) {
      WorkerLoop(0);
      return;
    }
    WorkerPool& pool = SolverPool();
    Mutex done_mu;
    CondVar done_cv;
    int live_runners = runners;
    for (int r = 1; r <= runners; ++r) {
      pool.Submit([this, r, &done_mu, &done_cv, &live_runners] {
        WorkerLoop(static_cast<std::size_t>(r));
        MutexLock lock(done_mu);
        if (--live_runners == 0) done_cv.NotifyAll();
      });
    }
    WorkerLoop(0);
    MutexLock lock(done_mu);
    while (live_runners != 0) done_cv.Wait(lock);
  }

  /// Called by a searcher mid-DFS to donate one sibling branch
  /// (prefix + one extra placement) to its own deque for thieves to take.
  /// False when the worker's deque is already fed (watermark) — the caller
  /// then recurses into the branch inline, exactly as a serial DFS would.
  bool Donate(std::size_t wid, std::size_t combo,
              const std::vector<std::pair<int, ProcId>>& prefix, int op,
              ProcId proc) {
    WorkerState& ws = *workers_[wid];
    if (ws.deque.SizeApprox() >= kDonateWatermark) return false;
    auto task = std::make_unique<SearchTask>();
    task->combo = combo;
    task->prefix = prefix;
    task->prefix.emplace_back(op, proc);
    // Count the task in-flight before it becomes stealable.
    inflight_.fetch_add(1, std::memory_order_release);
    if (!ws.deque.Push(task.get())) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      return false;  // unreachable under the watermark discipline
    }
    task.release();
    return true;
  }

  bool donation_enabled() const { return workers_.size() > 1; }
  const PruningOptions& prune() const { return prune_; }

  std::vector<std::unique_ptr<WorkerState>>& workers() { return workers_; }

 private:
  void WorkerLoop(std::size_t wid);  // defined after BnbSearcher

  SearchTask* ClaimRoot() {
    if (next_root_.load(std::memory_order_relaxed) >= contexts_.size()) {
      return nullptr;
    }
    for (;;) {
      const std::size_t idx =
          next_root_.fetch_add(1, std::memory_order_relaxed);
      if (idx >= contexts_.size()) return nullptr;
      if (!contexts_[idx]) continue;
      auto* task = new SearchTask;
      task->combo = idx;
      return task;
    }
  }

  SearchTask* StealFrom(std::size_t wid) {
    const std::size_t count = workers_.size();
    for (std::size_t d = 1; d < count; ++d) {
      if (SearchTask* task = workers_[(wid + d) % count]->deque.Steal()) {
        return task;
      }
    }
    return nullptr;
  }

  const std::vector<std::unique_ptr<ComboContext>>& contexts_;
  const CommModel& comm_;
  const MachineConfig& machine_;
  const OptimalOptions& options_;
  const PruningOptions& prune_;
  SearchShared* shared_;

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::atomic<std::size_t> next_root_{0};
  std::atomic<std::int64_t> inflight_{0};
};

/// Branch-and-bound searcher over op orders x processor assignments for one
/// expanded op graph. One instance per (worker, combination) — workers keep
/// the last one cached, so switching tasks within a combination costs only
/// the prefix replay. Immutable inputs come from the shared ComboContext;
/// all mutable search state is private to the instance, so workers run
/// without locks and the only cross-thread traffic is the incumbent, the
/// budget and the deques.
class BnbSearcher {
 public:
  BnbSearcher(const ComboContext& ctx, const CommModel& comm,
              const MachineConfig& machine, const OptimalOptions& options,
              SearchShared* shared, SearchEngine* engine, std::size_t wid,
              std::size_t combo)
      : ctx_(ctx),
        og_(ctx.og),
        comm_(comm),
        machine_(machine),
        options_(options),
        prune_(engine->prune()),
        shared_(shared),
        engine_(engine),
        worker_(engine->workers()[wid].get()),
        wid_(wid),
        combo_(combo),
        donate_(engine->donation_enabled()),
        budget_(shared),
        n_(static_cast<int>(ctx.og.op_count())),
        procs_(machine.total_procs()) {
    pred_remaining_.resize(static_cast<std::size_t>(n_));
    scheduled_.assign(static_cast<std::size_t>(n_), false);
    proc_of_.assign(static_cast<std::size_t>(n_), ProcId::Invalid());
    start_of_.assign(static_cast<std::size_t>(n_), 0);
    finish_of_.assign(static_cast<std::size_t>(n_), 0);
    msf_.assign(static_cast<std::size_t>(n_), 0);
    unsched_succs_.assign(static_cast<std::size_t>(n_), 0);
    proc_free_.assign(static_cast<std::size_t>(procs_), 0);
    live_on_proc_.assign(static_cast<std::size_t>(procs_), 0);
    node_ops_.assign(static_cast<std::size_t>(machine.nodes), 0);
    for (int i = 0; i < n_; ++i) {
      pred_remaining_[static_cast<std::size_t>(i)] =
          static_cast<int>(og_.preds(i).size());
    }
    remaining_work_ = ctx.total_work;
    frames_.resize(static_cast<std::size_t>(n_) + 1);
    class_seen_.assign(static_cast<std::size_t>(n_), 0);
    msf_undo_.reserve(og_.edges().size());
    path_.reserve(static_cast<std::size_t>(n_));
    std::size_t max_bytes = 0;
    for (const auto& edge : og_.edges()) {
      max_bytes = std::max(max_bytes, edge.bytes);
    }
    intra_comm_free_ = comm_.Cost(max_bytes, /*same_node=*/true) == 0;
    live_prof_.resize(static_cast<std::size_t>(procs_));
  }

  /// Runs one task: replays its prefix, searches the subtree below it,
  /// undoes the replay. Replay is exact state reconstruction (every prefix
  /// placement was legal when donated), so it re-derives the same
  /// last-start/last-op canonical-order context.
  void RunTask(const SearchTask& task) {
    stopped_ = false;
    path_.clear();
    replay_saved_.clear();
    Tick cur_makespan = 0;
    Tick last_start = 0;
    int last_op = -1;
    for (const auto& [op, proc] : task.prefix) {
      const Tick est = EarliestStart(op, proc);
      const Tick finish = est + og_.op(op).cost;
      replay_saved_.push_back(proc_free_[proc.index()]);
      Place(op, proc, est, finish);
      cur_makespan = std::max(cur_makespan, finish);
      last_start = est;
      last_op = op;
      path_.emplace_back(op, proc);
    }
    Dfs(static_cast<int>(task.prefix.size()), cur_makespan, last_start,
        last_op);
    for (std::size_t k = task.prefix.size(); k-- > 0;) {
      Unplace(task.prefix[k].first, task.prefix[k].second, replay_saved_[k]);
    }
    path_.clear();
  }

 private:
  struct Candidate {
    int op;
    ProcId proc;
    Tick est;
  };
  /// Per-depth candidate buffer: recursion only touches deeper frames, so
  /// a frame stays valid across its whole sibling loop — this is what
  /// removes the per-node branch_ops/procs vector copies.
  struct Frame {
    std::vector<Candidate> cands;
    std::vector<ProcId> procs;
  };

  Tick EarliestStart(int op, ProcId proc) const {
    Tick est = proc_free_[proc.index()];
    const auto& preds = og_.preds(op);
    const auto& bytes = og_.pred_bytes(op);
    for (std::size_t k = 0; k < preds.size(); ++k) {
      const int p = preds[k];
      Tick ready = finish_of_[static_cast<std::size_t>(p)];
      if (proc_of_[static_cast<std::size_t>(p)] != proc) {
        ready += comm_.Cost(
            bytes[k], machine_.SameNode(proc_of_[static_cast<std::size_t>(p)],
                                        proc));
      }
      est = std::max(est, ready);
    }
    return est;
  }

  void Place(int op, ProcId proc, Tick est, Tick finish) {
    const auto o = static_cast<std::size_t>(op);
    scheduled_[o] = true;
    proc_of_[o] = proc;
    start_of_[o] = est;
    finish_of_[o] = finish;
    proc_free_[proc.index()] = finish;
    remaining_work_ -= og_.op(op).cost;
    ++node_ops_[static_cast<std::size_t>(machine_.NodeOfProc(proc).value())];
    for (int s : og_.succs(op)) {
      const auto si = static_cast<std::size_t>(s);
      --pred_remaining_[si];
      msf_undo_.push_back(msf_[si]);
      msf_[si] = std::max(msf_[si], finish);
    }
    // Live-producer tracking for the processor-symmetry guard: an op is
    // "live" while it is scheduled but some successor is not, because its
    // hosting processor then matters for future comm costs.
    for (int p : og_.preds(op)) {
      const auto pi = static_cast<std::size_t>(p);
      if (--unsched_succs_[pi] == 0) {
        --live_on_proc_[proc_of_[pi].index()];
      }
    }
    unsched_succs_[o] = static_cast<int>(og_.succs(op).size());
    if (unsched_succs_[o] > 0) ++live_on_proc_[proc.index()];
  }

  void Unplace(int op, ProcId proc, Tick saved_free) {
    const auto o = static_cast<std::size_t>(op);
    if (unsched_succs_[o] > 0) --live_on_proc_[proc.index()];
    unsched_succs_[o] = 0;
    for (int p : og_.preds(op)) {
      const auto pi = static_cast<std::size_t>(p);
      if (unsched_succs_[pi]++ == 0) {
        ++live_on_proc_[proc_of_[pi].index()];
      }
    }
    --node_ops_[static_cast<std::size_t>(machine_.NodeOfProc(proc).value())];
    const auto& succs = og_.succs(op);
    for (std::size_t k = succs.size(); k-- > 0;) {
      const auto si = static_cast<std::size_t>(succs[k]);
      msf_[si] = msf_undo_.back();
      msf_undo_.pop_back();
      ++pred_remaining_[si];
    }
    remaining_work_ += og_.op(op).cost;
    proc_free_[proc.index()] = saved_free;
    scheduled_[o] = false;
    proc_of_[o] = ProcId::Invalid();
  }

  /// Lower bound on the makespan of any completion of the current partial
  /// schedule: current makespan, remaining-work bound, and the path bound
  /// msf[i] + tail[i] over unscheduled ops, where msf[i] is the max finish
  /// time of i's *scheduled* predecessors. All ingredients are maintained
  /// incrementally by Place()/Unplace(), so one O(n) scan replaces the old
  /// O(V+E) per-node propagation. The msf-based path bound equals the
  /// propagated one: follow the argmax predecessor chain of the maximizing
  /// op; each unscheduled hop only grows est+tail, so the maximum is
  /// attained at an op whose binding predecessor is scheduled (or absent).
  /// `floor_start` exploits the canonical enumeration order: every future
  /// placement starts at or after the last placement's start, so capacity
  /// earlier than that is unusable in THIS branch (the schedules that
  /// backfill it live in other branches) and every unscheduled op's start
  /// is floored by it. Both refinements stay valid lower bounds on the
  /// completions of this prefix, which is all the pruning compares.
  Tick LowerBound(Tick cur_makespan, Tick floor_start) const {
    Tick capacity = 0;
    for (int p = 0; p < procs_; ++p) {
      capacity += std::max(proc_free_[static_cast<std::size_t>(p)],
                           floor_start);
    }
    Tick lb = std::max(
        cur_makespan,
        (capacity + remaining_work_ + static_cast<Tick>(procs_) - 1) /
            static_cast<Tick>(procs_));
    for (int i = 0; i < n_; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      if (!scheduled_[ii]) {
        lb = std::max(lb, std::max(msf_[ii], floor_start) + ctx_.tail[ii]);
      }
    }
    return lb;
  }

  /// Candidate processors for this node, deduplicated by symmetry.
  ///
  /// Same-node rule: two processors on one node with equal free time are
  /// interchangeable *provided* neither hosts a live producer (an op whose
  /// output some unscheduled successor still needs) — if one does, placing
  /// a consumer there avoids comm that the other processor would pay, so
  /// they are distinguishable. When intra-node communication is free the
  /// guard is unnecessary and equal free time suffices (this was the PR 2
  /// rule; the live-producer guard fixes its unsoundness under nonzero
  /// intra-node comm costs).
  ///
  /// Empty-node rule: nodes with no scheduled op at all are fully
  /// interchangeable (the machine is uniform), so candidates are generated
  /// on the first empty node only. Tracking uses per-node op counts, not
  /// free times, because zero-cost split/join ops occupy a processor
  /// without advancing its free time.
  /// Two same-node processors with equal free times are interchangeable
  /// when relabeling them is a makespan-preserving bijection of the
  /// completions. That holds when intra-node communication is free (a live
  /// producer's slot within the node is then immaterial), and in general
  /// when the processors' *live profiles* match: their scheduled-ops-with-
  /// unscheduled-successors pair up as interchangeable ops (same
  /// eq_class — cost, predecessors, successors, payloads) finishing at the
  /// same time, so the swap carries each producer to an indistinguishable
  /// twin. Sibling chunks of one data-parallel task spread across a node
  /// are the common case. Dead ops never matter: nothing downstream can
  /// observe where they ran.
  bool ProcsInterchangeable(ProcId p, ProcId q) const {
    if (proc_free_[p.index()] != proc_free_[q.index()]) return false;
    if (!machine_.SameNode(p, q)) return false;
    if (intra_comm_free_) return true;
    if (live_on_proc_[p.index()] != live_on_proc_[q.index()]) return false;
    if (live_on_proc_[p.index()] == 0) return true;
    return live_prof_[p.index()] == live_prof_[q.index()];
  }

  void CollectProcs(std::vector<ProcId>* out) {
    out->clear();
    if (prune_.proc_symmetry && !intra_comm_free_) {
      for (auto& prof : live_prof_) prof.clear();
      for (int i = 0; i < n_; ++i) {
        const auto ii = static_cast<std::size_t>(i);
        if (!scheduled_[ii] || unsched_succs_[ii] == 0) continue;
        live_prof_[proc_of_[ii].index()].emplace_back(ctx_.eq_class[ii],
                                                      finish_of_[ii]);
      }
      for (auto& prof : live_prof_) {
        std::sort(prof.begin(), prof.end());
      }
    }
    for (int p = 0; p < procs_; ++p) {
      ProcId pid(p);
      bool duplicate = false;
      for (ProcId q : *out) {
        if (prune_.proc_symmetry && ProcsInterchangeable(q, pid)) {
          duplicate = true;
          break;
        }
        if (prune_.empty_node_symmetry && !machine_.SameNode(q, pid) &&
            NodeEmpty(pid) && NodeEmpty(q)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) {
        ++worker_->pruned_symmetry;
        continue;
      }
      out->push_back(pid);
    }
  }

  bool NodeEmpty(ProcId p) const {
    return node_ops_[static_cast<std::size_t>(
               machine_.NodeOfProc(p).value())] == 0;
  }

  void CollectCandidates(Frame* frame, Tick last_start, int last_op) {
    frame->cands.clear();
    CollectProcs(&frame->procs);
    ++class_stamp_;
    for (int i = 0; i < n_; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      if (scheduled_[ii] || pred_remaining_[ii] != 0) continue;
      // Ready-op symmetry: branch one representative per precomputed class.
      // The stamp marks classes already seen at this node; class members
      // share predecessors, so they are always ready together and the
      // smallest-id member is the representative that branches.
      if (prune_.ready_symmetry) {
        const auto cls = static_cast<std::size_t>(ctx_.eq_class[ii]);
        if (class_seen_[cls] == class_stamp_) {
          ++worker_->pruned_symmetry;
          continue;
        }
        class_seen_[cls] = class_stamp_;
      }
      for (ProcId p : frame->procs) {
        const Tick est = EarliestStart(i, p);
        // Canonical generation order: every greedy schedule is generated
        // exactly once, in non-decreasing (start, op id) order. Op ids are
        // topological, so a predecessor always sorts before its successors
        // even at equal start times. Placements that would start before the
        // previous placement belong to (and are explored in) a different
        // branch ordering.
        if (est < last_start || (est == last_start && i < last_op)) continue;
        frame->cands.push_back(Candidate{i, p, est});
      }
    }
  }

  IterationSchedule CurrentSchedule() const {
    std::vector<ScheduleEntry> entries;
    entries.reserve(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      entries.push_back(
          ScheduleEntry{i, proc_of_[ii], start_of_[ii], og_.op(i).cost});
    }
    return IterationSchedule(og_.variants(), std::move(entries));
  }

  /// Bound mode retains the `cap` smallest canonical keys over a full
  /// enumeration (latency mode retains the first `cap` ties in serial order
  /// instead, in TieBuffer). Either way the per-worker retained set
  /// provably contains the global smallest/first `cap`, so the merged
  /// result is independent of the thread count.
  void InsertCandidate(IterationSchedule sched) {
    const int cap = options_.max_optimal_schedules;
    if (cap <= 0) return;
    std::string key = sched.CanonicalKey();
    auto& cands = worker_->candidates;
    if (static_cast<int>(cands.size()) >= cap) {
      auto last = std::prev(cands.end());
      if (key >= last->first) return;
    }
    cands.emplace(std::move(key), std::move(sched));
    if (static_cast<int>(cands.size()) > cap) {
      cands.erase(std::prev(cands.end()));
    }
  }

  void RecordComplete(Tick makespan) {
    shared_->complete_schedules.fetch_add(1, std::memory_order_relaxed);
    if (shared_->bound_mode) {
      // Throughput mode: the bound is fixed; compose every feasible
      // schedule and keep the argmin by the canonical throughput order.
      // The collection cap only limits what is *reported*, not considered.
      if (makespan > shared_->best.load(std::memory_order_relaxed)) return;
      worker_->best_makespan = std::min(worker_->best_makespan, makespan);
      IterationSchedule sched = CurrentSchedule();
      PipelinedSchedule composed = PipelineComposer::Compose(
          sched, machine_.total_procs(), options_.pipeline);
      if (!worker_->has_pipelined ||
          PipelineComposer::BetterThroughput(composed, worker_->pipelined)) {
        worker_->pipelined = std::move(composed);
        worker_->has_pipelined = true;
      }
      InsertCandidate(std::move(sched));
      return;
    }
    shared_->OfferBest(makespan);
    // The incumbent filter is a timing-dependent shortcut, but a harmless
    // one: every completion at the global minimum always passes it (the
    // incumbent can never drop below the minimum), and the merge discards
    // everything else. The retained set holds only completions at this
    // worker's current best, so globally-minimal ones can never be crowded
    // out of the cap by stale entries — any strictly better completion
    // clears it first.
    if (makespan > shared_->best.load(std::memory_order_relaxed)) return;
    if (makespan > worker_->best_makespan) return;
    if (makespan < worker_->best_makespan) {
      worker_->best_makespan = makespan;
      worker_->ties.Clear();
    }
    worker_->ties.Offer(combo_, path_, start_of_);
  }

  void Dfs(int depth, Tick cur_makespan, Tick last_start, int last_op) {
    if (!budget_.Consume()) {
      stopped_ = true;
      return;
    }
    if (depth == n_) {
      RecordComplete(cur_makespan);
      return;
    }
    // Keep every subtree that can still *tie* the incumbent: ties are
    // exactly what the reported set contains, and a subtree holding a tie
    // at the minimum L has lb <= L <= incumbent, so this never cuts one.
    if (LowerBound(cur_makespan, last_start) >
        shared_->best.load(std::memory_order_relaxed)) {
      return;
    }
    Frame& frame = frames_[static_cast<std::size_t>(depth)];
    CollectCandidates(&frame, last_start, last_op);
    // Donate later siblings (from the back, so the owner's LIFO pops keep
    // serial DFS order) while this worker's deque is below the watermark.
    // Only internal branches are donated — leaves are cheaper run inline
    // than shipped.
    std::size_t donate_from = frame.cands.size();
    if (donate_ && frame.cands.size() > 1 && depth + 1 < n_) {
      while (donate_from > 1) {
        const Candidate& c = frame.cands[donate_from - 1];
        if (!engine_->Donate(wid_, combo_, path_, c.op, c.proc)) break;
        --donate_from;
      }
    }
    for (std::size_t k = 0; k < donate_from; ++k) {
      const Candidate c = frame.cands[k];
      const Tick finish = c.est + og_.op(c.op).cost;
      const Tick saved_free = proc_free_[c.proc.index()];
      Place(c.op, c.proc, c.est, finish);
      path_.emplace_back(c.op, c.proc);
      Dfs(depth + 1, std::max(cur_makespan, finish), c.est, c.op);
      path_.pop_back();
      Unplace(c.op, c.proc, saved_free);
      if (stopped_) return;
    }
  }

  const ComboContext& ctx_;
  const OpGraph& og_;
  const CommModel& comm_;
  const MachineConfig& machine_;
  const OptimalOptions& options_;
  const PruningOptions& prune_;
  SearchShared* shared_;
  SearchEngine* engine_;
  WorkerState* worker_;
  const std::size_t wid_;
  const std::size_t combo_;
  const bool donate_;
  NodeBudget budget_;

  const int n_;
  const int procs_;

  std::vector<int> pred_remaining_;
  std::vector<bool> scheduled_;
  std::vector<ProcId> proc_of_;
  std::vector<Tick> start_of_;
  std::vector<Tick> finish_of_;
  std::vector<Tick> proc_free_;
  /// Max finish time over *scheduled* predecessors, per op.
  std::vector<Tick> msf_;
  /// Saved msf_ values of successors, restored in reverse by Unplace().
  std::vector<Tick> msf_undo_;
  /// Unscheduled-successor counts for scheduled ops (live-producer guard).
  std::vector<int> unsched_succs_;
  /// Scheduled ops hosting at least one live producer, per processor.
  std::vector<int> live_on_proc_;
  /// Scheduled op count per machine node (empty-node symmetry).
  std::vector<int> node_ops_;
  Tick remaining_work_ = 0;
  bool intra_comm_free_ = false;
  /// Per-processor live profiles — sorted (eq_class, finish) of scheduled
  /// ops that still feed unscheduled successors — rebuilt per expansion
  /// for the processor-interchangeability test.
  std::vector<std::vector<std::pair<int, Tick>>> live_prof_;

  std::vector<Frame> frames_;
  std::vector<std::uint64_t> class_seen_;
  std::uint64_t class_stamp_ = 0;
  /// Current placement path from the task root, for donation prefixes.
  std::vector<std::pair<int, ProcId>> path_;
  std::vector<Tick> replay_saved_;

  bool stopped_ = false;
};

void SearchEngine::WorkerLoop(std::size_t wid) {
  WorkerState& ws = *workers_[wid];
  // Capacity-one searcher cache: tasks for the same combination (the
  // overwhelmingly common case, since donations stay within a combination
  // and steals favor the nearest victim) reuse the searcher and pay only
  // the prefix replay.
  std::unique_ptr<BnbSearcher> searcher;
  std::size_t searcher_combo = std::numeric_limits<std::size_t>::max();
  auto run = [&](SearchTask* task) {
    std::unique_ptr<SearchTask> owned(task);
    if (searcher_combo != task->combo) {
      searcher = std::make_unique<BnbSearcher>(*contexts_[task->combo],
                                               comm_, machine_, options_,
                                               shared_, this, wid,
                                               task->combo);
      searcher_combo = task->combo;
    }
    searcher->RunTask(*task);
    inflight_.fetch_sub(1, std::memory_order_release);
  };
  for (;;) {
    if (SearchTask* task = ws.deque.Pop()) {
      run(task);
      continue;
    }
    if (SearchTask* task = ClaimRoot()) {
      run(task);
      continue;
    }
    if (workers_.size() > 1) {
      if (SearchTask* task = StealFrom(wid)) {
        ++ws.steals;
        run(task);
        continue;
      }
    }
    if (inflight_.load(std::memory_order_acquire) == 0) return;
    std::this_thread::yield();
  }
}

/// Odometer over the cartesian product of per-task variants, first task
/// varying fastest (the order the serial solver used).
std::vector<std::vector<VariantId>> EnumerateCombos(
    const graph::TaskGraph& graph, const graph::CostModel& costs,
    RegimeId regime) {
  const std::size_t ntasks = graph.task_count();
  std::vector<std::size_t> variant_counts(ntasks);
  for (std::size_t t = 0; t < ntasks; ++t) {
    variant_counts[t] =
        costs.Get(regime, TaskId(static_cast<TaskId::underlying_type>(t)))
            .variant_count();
  }
  std::vector<std::vector<VariantId>> combos;
  std::vector<VariantId> combo(ntasks, VariantId(0));
  for (;;) {
    combos.push_back(combo);
    std::size_t pos = 0;
    while (pos < ntasks) {
      auto next = combo[pos].value() + 1;
      if (static_cast<std::size_t>(next) < variant_counts[pos]) {
        combo[pos] = VariantId(next);
        break;
      }
      combo[pos] = VariantId(0);
      ++pos;
    }
    if (pos == ntasks) break;
  }
  return combos;
}

/// The whole Fig. 6 search, one pass in either mode. Latency mode seeds
/// the incumbent, prunes only subtrees that cannot tie it, and keeps each
/// worker's serially-first ties at that worker's best makespan; the merge
/// takes the serially-first cap at the global minimum. Bound mode
/// (throughput) fixes the incumbent at the latency bound and keeps the
/// best pipelined schedule.
Expected<OptimalResult> RunSearch(
    const graph::TaskGraph& graph, const graph::CostModel& costs,
    const CommModel& comm, const MachineConfig& machine,
    const OptimalOptions& options, RegimeId regime,
    const std::vector<std::vector<VariantId>>& combos, bool bound_mode,
    Tick latency_bound) {
  // Latency mode picks `best` from S, so S must keep at least one member;
  // in bound mode the cap only limits what is reported.
  if (!bound_mode && options.max_optimal_schedules < 1) {
    return Status(InvalidArgumentError(
        "max_optimal_schedules must be at least 1, got " +
        std::to_string(options.max_optimal_schedules)));
  }
  const Stopwatch solve_timer;
  OptimalResult result;
  result.variant_combinations = combos.size();

  // Effective reductions for this mode. Bound mode fixes the incumbent at
  // the latency bound, so a seed has nothing to tighten there, and it keeps
  // its own collection path with empty-node symmetry off.
  PruningOptions prune = options.pruning;
  if (bound_mode) {
    prune.empty_node_symmetry = false;
    prune.seed_incumbent = false;
  }

  SearchShared shared;
  shared.stop_at = options.stop_at;
  shared.bound_mode = bound_mode;
  shared.best.store(bound_mode ? latency_bound : kTickInfinity,
                    std::memory_order_relaxed);
  shared.budget_remaining.store(
      static_cast<std::int64_t>(std::min<std::uint64_t>(
          options.max_nodes,
          static_cast<std::uint64_t>(
              std::numeric_limits<std::int64_t>::max()))),
      std::memory_order_relaxed);

  // Expand every combination once. The invariant part of the expansion
  // (topo order, input bytes, cross-task edges) is hoisted into the plan;
  // each combination only recomputes the variant-dependent ops and costs.
  const ExpandPlan plan(graph);
  std::vector<std::unique_ptr<ComboContext>> contexts;
  contexts.reserve(combos.size());
  std::size_t live = 0;
  for (const auto& combo : combos) {
    OpGraph og = OpGraph::Expand(plan, costs, regime, combo);
    // Throughput-mode feasibility screen: no schedule of this combination
    // can meet the bound if even the comm-free critical path exceeds it.
    if (bound_mode && og.CriticalPath() > latency_bound) {
      contexts.push_back(nullptr);
      continue;
    }
    contexts.push_back(std::make_unique<ComboContext>(std::move(og)));
    ++live;
  }

  // Heuristic seeding: the list scheduler's best makespan becomes the
  // initial incumbent. Its schedule lies inside the search space (greedy
  // earliest-start placements in start order), so the seed can never
  // undercut the true minimum — it only lets pruning bite from node one.
  Tick seed = kTickInfinity;
  IterationSchedule seed_schedule;
  bool has_seed_schedule = false;
  if (!bound_mode && prune.seed_incumbent && live > 0) {
    const ListScheduler heuristic(comm, machine);
    for (const auto& ctx : contexts) {
      if (!ctx) continue;
      IterationSchedule s = heuristic.Schedule(ctx->og);
      const Tick l = s.Latency();
      if (l < seed) {
        seed = l;
        seed_schedule = std::move(s);
        has_seed_schedule = true;
      }
    }
    if (seed < kTickInfinity) {
      shared.OfferBest(seed);
      result.seed_makespan = seed;
    }
  }

  int threads = options.solver_threads;
  if (threads == 0) {
    threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  int worker_count = 1;
  if (threads > 1) {
    // Runners beyond the pool's workers could never execute concurrently
    // (nobody calls Wait() on the shared pool), so cap by its size.
    worker_count = std::min(threads, SolverPool().thread_count() + 1);
  }

  SearchEngine engine(contexts, comm, machine, options, prune, &shared,
                      worker_count);
  engine.Run();
  auto& workers = engine.workers();
  for (const auto& ws : workers) {
    result.steals += ws->steals;
    result.nodes_pruned_symmetry += ws->pruned_symmetry;
  }

  result.nodes_explored =
      shared.nodes_consumed.load(std::memory_order_relaxed);
  result.complete_schedules =
      shared.complete_schedules.load(std::memory_order_relaxed);
  result.budget_exhausted =
      shared.budget_exhausted.load(std::memory_order_relaxed);
  result.cancelled = shared.cancelled.load(std::memory_order_relaxed);

  Tick min_latency = kTickInfinity;
  for (const auto& ws : workers) {
    min_latency = std::min(min_latency, ws->best_makespan);
  }

  if (bound_mode) {
    bool have_best = false;
    for (const auto& ws : workers) {
      if (!ws->has_pipelined) continue;
      if (!have_best ||
          PipelineComposer::BetterThroughput(ws->pipelined, result.best)) {
        result.best = ws->pipelined;
      }
      have_best = true;
    }
    if (!have_best) {
      return Status(NotFoundError("no schedule meets the latency bound " +
                                  FormatTick(latency_bound)));
    }
    result.min_latency = min_latency == kTickInfinity ? 0 : min_latency;
    std::map<std::string, IterationSchedule> merged;
    for (auto& ws : workers) merged.merge(ws->candidates);
    for (auto& entry : merged) {
      if (static_cast<int>(result.optimal.size()) >=
          options.max_optimal_schedules) {
        break;
      }
      result.optimal.push_back(std::move(entry.second));
    }
    result.solve_wall_ticks = solve_timer.Elapsed();
    return result;
  }

  // Latency mode. The merged set is the first `cap` ties in serial order
  // among completions at the global minimum — independent of how the
  // subtrees were spread across workers (see docs/solver.md).
  if (min_latency == kTickInfinity) {
    // The search recorded no completion: the budget or the time limit cut
    // it short before it reached one at or under the seed. The seed schedule
    // is then the best witness there is.
    if (has_seed_schedule) {
      result.min_latency = seed;
      result.optimal.push_back(std::move(seed_schedule));
    } else if (result.cancelled) {
      return Status(
          CancelledError("solve stopped at its time limit before any "
                         "complete schedule"));
    } else {
      return Status(InternalError(
          "no schedule found (budget exhausted before any completion)"));
    }
  } else {
    result.min_latency = min_latency;
    const auto cap = static_cast<std::size_t>(options.max_optimal_schedules);
    std::vector<std::pair<const WorkerState*, std::size_t>> held;
    for (const auto& ws : workers) {
      if (ws->best_makespan != min_latency) continue;
      for (std::size_t slot : ws->ties.order()) held.emplace_back(ws.get(), slot);
    }
    const auto cut = held.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(cap, held.size()));
    std::partial_sort(held.begin(), cut, held.end(),
                      [](const auto& a, const auto& b) {
                        return TieBuffer::KeyLess(a.first->ties, a.second,
                                                  b.first->ties, b.second);
                      });
    held.erase(cut, held.end());
    // Only the survivors become IterationSchedules, each keyed once and
    // sorted into canonical-key order.
    std::vector<std::pair<std::string, IterationSchedule>> keyed;
    keyed.reserve(held.size());
    for (const auto& [ws, slot] : held) {
      IterationSchedule sched =
          ws->ties.Schedule(slot, contexts[ws->ties.Combo(slot)]->og);
      std::string key = sched.CanonicalKey();
      keyed.emplace_back(std::move(key), std::move(sched));
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    result.optimal.reserve(keyed.size());
    for (auto& entry : keyed) result.optimal.push_back(std::move(entry.second));
  }
  if (result.optimal.empty()) {
    return Status(InternalError("search produced no schedule"));
  }

  // Step 3: the member of S whose pipelined form has the best throughput.
  // S is in ascending canonical-key order, so keeping the first of equal
  // (II, latency) is exactly BetterThroughput's key tie-break: a later
  // member's key is never smaller.
  bool have_best = false;
  for (const auto& sched : result.optimal) {
    PipelinedSchedule cand = PipelineComposer::Compose(
        sched, machine.total_procs(), options.pipeline);
    if (!have_best ||
        cand.initiation_interval < result.best.initiation_interval ||
        (cand.initiation_interval == result.best.initiation_interval &&
         cand.Latency() < result.best.Latency())) {
      result.best = std::move(cand);
    }
    have_best = true;
  }
  result.solve_wall_ticks = solve_timer.Elapsed();
  return result;
}

}  // namespace

OptimalScheduler::OptimalScheduler(const graph::TaskGraph& graph,
                                   const graph::CostModel& costs,
                                   graph::CommModel comm,
                                   graph::MachineConfig machine)
    : graph_(graph), costs_(costs), comm_(comm), machine_(machine) {}

Expected<OptimalResult> OptimalScheduler::ScheduleWithVariants(
    RegimeId regime, const std::vector<VariantId>& variants,
    const OptimalOptions& options) const {
  SS_RETURN_IF_ERROR(graph_.Validate());
  SS_RETURN_IF_ERROR(costs_.Validate(graph_.task_count()));
  return RunSearch(graph_, costs_, comm_, machine_, options, regime,
                   {variants}, /*bound_mode=*/false, /*latency_bound=*/0);
}

Expected<OptimalResult> OptimalScheduler::Schedule(
    RegimeId regime, const OptimalOptions& options) const {
  SS_RETURN_IF_ERROR(graph_.Validate());
  SS_RETURN_IF_ERROR(costs_.Validate(graph_.task_count()));
  return RunSearch(graph_, costs_, comm_, machine_, options, regime,
                   EnumerateCombos(graph_, costs_, regime),
                   /*bound_mode=*/false, /*latency_bound=*/0);
}

Expected<OptimalResult> OptimalScheduler::ScheduleForThroughput(
    RegimeId regime, Tick latency_bound,
    const OptimalOptions& options) const {
  SS_RETURN_IF_ERROR(graph_.Validate());
  SS_RETURN_IF_ERROR(costs_.Validate(graph_.task_count()));
  if (latency_bound <= 0) {
    return Status(InvalidArgumentError("latency bound must be positive"));
  }
  return RunSearch(graph_, costs_, comm_, machine_, options, regime,
                   EnumerateCombos(graph_, costs_, regime),
                   /*bound_mode=*/true, latency_bound);
}

}  // namespace ss::sched

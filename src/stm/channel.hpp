// Space-Time Memory channel: a location-transparent, time-indexed collection
// of items shared among producer and consumer threads (paper Figs. 7 and 8).
//
// Semantics reproduced from the Stampede STM described in the paper:
//   * A channel holds at most one item per timestamp; items may be put in
//     any order.
//   * Threads access a channel through attached connections, each declared
//     input (consumer) or output (producer).
//   * Gets may name an exact timestamp or use wildcards (newest, oldest,
//     newest-not-previously-gotten-over-this-connection).
//   * A failed exact get reports the timestamps of neighbouring available
//     items (the `ts_range` out-parameter of spd_channel_get_item).
//   * Each input connection advances a consume frontier; items no input
//     connection can still request are garbage collected. A fixed schedule
//     therefore bounds channel occupancy (paper §3.3).
//   * Optionally bounded capacity provides flow control: puts block, fail,
//     or drop the oldest item.
//
// Data plane (docs/stm.md has the full design note):
//   * Bounded channels default to ring storage — a preallocated sorted
//     circular window with O(1) in-order puts and allocation-free GC.
//   * The minimum input frontier is cached, so Consume does not rescan
//     connections; wakeups are suppressed when nobody waits.
//   * PutBatch/GetBatch move several items per lock acquisition.
//
// Thread safety: all public methods are safe to call concurrently.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/ids.hpp"
#include "core/sync.hpp"
#include "core/time.hpp"
#include "stm/item.hpp"
#include "stm/item_store.hpp"
#include "stm/ts_query.hpp"

namespace ss::stm {

enum class ConnDir { kInput, kOutput };

enum class PutMode {
  kNonBlocking,  // full channel -> kWouldBlock
  kBlocking,     // full channel -> wait for space (or shutdown)
  kDropOldest,   // full channel -> reclaim the oldest item, then insert
};

enum class GetMode {
  kNonBlocking,  // no matching item -> kNotFound / kWouldBlock
  kBlocking,     // no matching item -> wait for one (or shutdown)
};

/// Item storage backing a channel (see stm/item_store.hpp).
enum class StorageMode {
  kAuto,  // ring when bounded with capacity <= kRingAutoMaxCapacity
  kMap,   // ordered map (required for unbounded channels)
  kRing,  // sorted circular window (requires a capacity)
};

/// Largest capacity at which kAuto picks ring storage. Beyond this the O(n)
/// worst case of an out-of-order insert outweighs the tree it replaces.
inline constexpr std::size_t kRingAutoMaxCapacity = 4096;

/// Counters exposed for tests and benches. Snapshots returned by Stats()
/// are taken under one lock acquisition, so cross-counter invariants hold
/// on every snapshot: puts == reclaimed + dropped + occupancy.
struct ChannelStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t failed_gets = 0;
  std::uint64_t reclaimed = 0;      // items garbage-collected
  std::uint64_t dropped = 0;        // items dropped by kDropOldest puts
  std::uint64_t blocked_puts = 0;   // puts that had to wait
  std::uint64_t blocked_gets = 0;   // gets that had to wait
  std::uint64_t batch_puts = 0;     // PutBatch calls
  std::uint64_t batch_gets = 0;     // GetBatch calls
  /// Lock acquisitions on the put/get/consume paths that found the lock
  /// held and had to wait. The observability hook for contention
  /// regressions: near zero on a well-scheduled pipeline.
  std::uint64_t contended_lock_waits = 0;
  std::uint64_t notifies_sent = 0;        // state changes that woke waiters
  std::uint64_t notifies_suppressed = 0;  // state changes with no waiters
  std::size_t occupancy = 0;        // items currently held
  std::size_t max_occupancy = 0;    // high-water mark
};

/// Channel construction options.
struct ChannelOptions {
  /// Maximum number of live items; 0 means unbounded.
  std::size_t capacity = 0;
  /// Storage selection; kAuto resolves from capacity. kRing requires a
  /// non-zero capacity.
  StorageMode storage = StorageMode::kAuto;
};

/// One entry of a GetBatch request.
struct BatchGet {
  TsQuery query;
  /// Optional entries yield an empty Item on a miss instead of failing the
  /// batch (used for best-effort history reads).
  bool required = true;
};

class Channel {
 public:
  Channel(ChannelId id, std::string name, ChannelOptions options = {});
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  ChannelId id() const { return id_; }
  const std::string& name() const { return name_; }
  std::size_t capacity() const { return options_.capacity; }
  /// The resolved storage mode (kMap or kRing, never kAuto).
  StorageMode storage_mode() const {
    return ring_storage_ ? StorageMode::kRing : StorageMode::kMap;
  }

  /// Attaches a new connection. Input connections participate in garbage
  /// collection; until an input connection consumes, its frontier holds all
  /// items live.
  ConnId Attach(ConnDir dir) SS_EXCLUDES(mu_);

  /// Detaches a connection; its consume frontier no longer pins items.
  void Detach(ConnId conn) SS_EXCLUDES(mu_);

  /// Inserts an item with the given timestamp. Duplicate timestamps are
  /// rejected with kAlreadyExists. A timestamp at or below the GC frontier
  /// is rejected with kOutOfRange (it could never be gotten).
  Status Put(ConnId conn, Timestamp ts, Payload payload,
             PutMode mode = PutMode::kBlocking) SS_EXCLUDES(mu_);

  /// Inserts several items under one lock acquisition, in order, with the
  /// same per-item semantics as Put. Stops at the first failure (earlier
  /// items stay inserted, as with sequential Puts); waiters are woken once.
  Status PutBatch(ConnId conn, std::vector<Item> items,
                  PutMode mode = PutMode::kBlocking) SS_EXCLUDES(mu_);

  /// Typed convenience wrapper around Put.
  template <typename T>
  Status PutValue(ConnId conn, Timestamp ts, T value,
                  PutMode mode = PutMode::kBlocking) {
    return Put(conn, ts, Payload::Make<T>(std::move(value)), mode);
  }

  /// Retrieves an item per the query. On a failed exact get, *neighbors (if
  /// non-null) receives the adjacent available timestamps.
  Expected<Item> Get(ConnId conn, TsQuery query,
                     GetMode mode = GetMode::kBlocking,
                     TsNeighbors* neighbors = nullptr) SS_EXCLUDES(mu_);

  /// Resolves several queries under one lock acquisition, in order, with
  /// the same per-query semantics as sequential Gets (kBlocking waits for
  /// each required query in turn, releasing the lock while waiting). A miss
  /// on an entry with required == false yields an empty Item (ts ==
  /// kNoTimestamp) instead of failing the batch. On failure the batch
  /// returns the offending query's status; earlier side effects (last-got
  /// advancement) stand, exactly as with sequential Gets.
  Expected<std::vector<Item>> GetBatch(
      ConnId conn, const std::vector<BatchGet>& queries,
      GetMode mode = GetMode::kBlocking) SS_EXCLUDES(mu_);

  /// Blocking get with a deadline: waits up to `timeout` for a matching
  /// item, then fails with kWouldBlock. Latency-critical consumers use this
  /// to skip a late frame rather than stall the pipeline.
  Expected<Item> GetFor(ConnId conn, TsQuery query, Tick timeout,
                        TsNeighbors* neighbors = nullptr) SS_EXCLUDES(mu_);

  /// Typed convenience wrapper around Get.
  template <typename T>
  Expected<std::pair<Timestamp, std::shared_ptr<const T>>> GetValue(
      ConnId conn, TsQuery query, GetMode mode = GetMode::kBlocking) {
    auto item = Get(conn, query, mode);
    if (!item.ok()) return item.status();
    return std::pair<Timestamp, std::shared_ptr<const T>>(
        item->ts, item->payload.As<T>());
  }

  /// Declares that this input connection will never again request items with
  /// timestamp <= ts. Advances the connection's frontier monotonically; items
  /// below the minimum frontier over attached input connections are
  /// reclaimed and blocked producers are woken.
  Status Consume(ConnId conn, Timestamp ts) SS_EXCLUDES(mu_);

  /// Wakes all blocked callers with kCancelled and rejects future puts and
  /// blocking waits. Items already in the channel remain readable
  /// (drain-after-shutdown), so results can be collected after a run.
  void Shutdown() SS_EXCLUDES(mu_);
  bool shut_down() const SS_EXCLUDES(mu_);

  // ---- Introspection ------------------------------------------------------
  std::size_t Occupancy() const SS_EXCLUDES(mu_);
  std::optional<Timestamp> OldestTs() const SS_EXCLUDES(mu_);
  std::optional<Timestamp> NewestTs() const SS_EXCLUDES(mu_);
  /// The highest timestamp reclaimed so far (GC frontier), if any.
  std::optional<Timestamp> GcFrontier() const SS_EXCLUDES(mu_);
  ChannelStats Stats() const SS_EXCLUDES(mu_);

 private:
  struct ConnState {
    ConnDir dir = ConnDir::kInput;
    bool attached = false;
    /// Newest timestamp returned to this connection by any get.
    Timestamp last_got = kNoTimestamp;
    /// This connection has consumed everything at or below this timestamp.
    Timestamp frontier = kNoTimestamp;
  };

  // All private helpers require mu_ held (enforced by SS_REQUIRES).
  bool FullLocked() const SS_REQUIRES(mu_);
  /// Reclaims items below the cached minimum input frontier; returns the
  /// number removed (callers wake blocked producers when non-zero).
  std::size_t ReclaimLocked() SS_REQUIRES(mu_);
  Timestamp MinInputFrontierLocked() const SS_REQUIRES(mu_);
  void RecomputeMinFrontierLocked() SS_REQUIRES(mu_);
  Status ValidatePutLocked(const ConnId& conn) const SS_REQUIRES(mu_);
  /// Takes the scoped lock by reference because the blocking mode releases
  /// mu_ inside a condition wait; the capability is held on entry and exit.
  Status PutOneLocked(MutexLock& lock, Timestamp ts, Payload payload,
                      PutMode mode) SS_REQUIRES(mu_);
  Expected<Item> FindLocked(ConnState& cs, const TsQuery& query,
                            TsNeighbors* neighbors) SS_REQUIRES(mu_);
  void WakeGettersLocked() SS_REQUIRES(mu_);
  void WakeSpaceLocked() SS_REQUIRES(mu_);

  const ChannelId id_;
  const std::string name_;
  const ChannelOptions options_;
  const bool ring_storage_;

  mutable Mutex mu_;
  CondVar cv_items_;  // signalled on put / shutdown
  CondVar cv_space_;  // signalled on reclaim / shutdown
  detail::ItemStore store_ SS_GUARDED_BY(mu_);
  std::vector<ConnState> conns_ SS_GUARDED_BY(mu_);
  /// Cached count of attached input connections and the minimum of their
  /// frontiers, so Consume/Put need no scan over conns_.
  std::size_t attached_inputs_ SS_GUARDED_BY(mu_) = 0;
  Timestamp min_input_frontier_ SS_GUARDED_BY(mu_) = kNoTimestamp;
  /// Waiter counts let producers/consumers skip the notify syscall when
  /// nobody is blocked (the steady-state case under a feasible schedule).
  int waiting_getters_ SS_GUARDED_BY(mu_) = 0;
  int waiting_putters_ SS_GUARDED_BY(mu_) = 0;
  bool shutdown_ SS_GUARDED_BY(mu_) = false;
  std::optional<Timestamp> gc_frontier_ SS_GUARDED_BY(mu_);
  mutable ChannelStats stats_ SS_GUARDED_BY(mu_);
};

}  // namespace ss::stm

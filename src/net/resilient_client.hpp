// Retrying wrapper around net::AsyncClient's blocking verbs.
//
// Each connection is a pipelined stream; ResilientClient
// issues one request at a time on it (the retry budget is per call), but
// sharing the AsyncClient keeps the transport identical to the pipelined
// hot path, and response correlation by request_id means an abandoned
// request's late response is dropped by id instead of desynchronizing
// the stream.
//
// Every verb runs under a per-call total deadline budget: attempts share
// the budget, each attempt's socket timeout is clamped to what is left,
// and for solves the remaining budget is propagated to the server in
// deadline_micros so queued work expires instead of being computed for a
// caller that has given up.
//
// Retries are keyed on the *typed* failure, not on string matching:
// transport failures (kCancelled: peer closed / reset / SHUTTING_DOWN,
// kDeadlineExceeded: timed out, kInternal: errno-level socket errors) and
// pushback (kOverloaded, kWouldBlock, kAdmissionRejected) are retried
// with bounded exponential backoff plus seeded jitter; semantic failures
// (kInvalidArgument, kCorruptArtifact, kNotFound, kFailedPrecondition)
// are terminal and returned immediately. Retrying after an ambiguous
// transport failure is safe because solve and lookup are idempotent by
// problem fingerprint — a duplicate solve hits the artifact cache.
//
// After a transport failure the connection is dropped and re-established:
// once the stream has failed every request on it is done for, and a fresh
// connection is the only way forward. Typed error frames keep the
// connection (the stream is provably still framed correctly).
//
// Not thread-safe: one ResilientClient per thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "net/async_client.hpp"
#include "net/protocol.hpp"

namespace ss::net {

struct ResilientClientOptions {
  /// Total budget per call (connect + all attempts + all backoff sleeps).
  Tick total_deadline = ticks::FromSeconds(30);
  /// Attempt cap per call; 0 means bounded only by the deadline budget.
  int max_attempts = 8;
  /// Exponential backoff: attempt k sleeps ~base * 2^(k-1), jittered to
  /// uniform [half, full] and capped at backoff_max and the remaining
  /// budget.
  Tick backoff_base = ticks::FromMillis(2);
  Tick backoff_max = ticks::FromMillis(250);
  /// Per-syscall bound for each attempt (clamped to the remaining
  /// budget when reconnecting).
  Tick io_timeout = ticks::FromSeconds(30);
  /// Jitter stream seed, so chaos runs are reproducible end to end.
  std::uint64_t seed = 1;
};

struct ResilientClientStats {
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
};

class ResilientClient {
 public:
  ResilientClient() : ResilientClient(ResilientClientOptions{}) {}
  explicit ResilientClient(ResilientClientOptions options);

  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  /// Records the endpoint and establishes the first connection (with
  /// retries under the deadline budget). Later calls reconnect on demand.
  Status Connect(const std::string& host, int port);
  void Close();

  /// Solve with retries. `request.deadline_micros` is overwritten with
  /// the remaining budget on every attempt (callers that set a tighter
  /// deadline keep it — the clamp only ever shrinks it).
  Expected<SolveResponseMsg> Solve(SolveRequestMsg request);
  Expected<LookupResponseMsg> Lookup(const LookupRequestMsg& request);
  Expected<StatsResponseMsg> Stats();
  Expected<HealthResponseMsg> Health();

  ResilientClientStats stats() const { return stats_; }

  /// The retry policy, exposed so tests and the soak harness can assert
  /// an observed outcome was classified the way the client would.
  static bool IsRetryable(const Status& status);
  /// Transport failures invalidate the connection; typed error frames
  /// (overload, admission) do not.
  static bool NeedsReconnect(const Status& status);

 private:
  /// Runs `attempt` under the retry loop. The callback gets a connected
  /// client and the remaining budget; its Status drives the policy.
  template <typename Fn>
  Status Run(Fn&& attempt);

  Status EnsureConnected(Tick remaining);
  /// Sleeps for the backoff of attempt `attempt` (1-based), bounded by
  /// the budget remaining until `give_up`.
  void Backoff(int attempt, Tick give_up);

  ResilientClientOptions options_;
  std::string host_;
  int port_ = 0;
  bool endpoint_set_ = false;
  std::unique_ptr<AsyncClient> client_;
  Rng rng_;
  ResilientClientStats stats_;
};

}  // namespace ss::net

// Deterministic in-process fault-injecting TCP proxy for chaos tests.
//
// A ChaosProxy sits between a client and the schedule server on loopback
// and misbehaves on purpose, per a declarative ChaosPlan: it tears frames
// at arbitrary byte boundaries (dribbled forwarding), delays delivery,
// flips bytes (which must surface as typed decode failures on either
// side, never crashes), resets connections at chosen protocol phases
// (on accept, mid-request-frame, exactly between frames, mid-response),
// and stalls like a slowloris — stopping forwarding mid-frame while
// keeping the socket open, so the server's read-progress idle reaping is
// what ends the connection.
//
// Every decision is drawn from a seeded core/rng stream: connection-level
// choices (reset? which phase? which byte offsets get flipped? stall
// where?) come from an Rng derived from plan.seed and the connection
// index, in a fixed draw order, so a seed reproduces the same fault
// schedule regardless of TCP chunking; only sub-chunk timing (delay
// amounts per forwarded chunk) uses a separate per-connection stream.
//
// Single proxy thread, poll()-based, owns all sockets; Stats() counters
// are relaxed atomics readable from any thread.
//
// Test support, not product code: the library that builds it (ss_chaos) is
// linked by the chaos tests and bench/loadgen's soak only.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "core/error.hpp"
#include "core/time.hpp"

namespace ss::net {

/// Where a scheduled connection reset lands in the protocol exchange.
enum class ChaosResetPhase : std::uint8_t {
  /// Immediately after accepting the client, before forwarding anything.
  kOnAccept = 0,
  /// Part-way through a client->server request frame.
  kMidRequest = 1,
  /// Exactly at a frame boundary of the client->server stream.
  kBetweenFrames = 2,
  /// Part-way through a server->client response frame.
  kMidResponse = 3,
};

/// Declarative fault schedule. Probabilities are per connection (reset,
/// stall, flips, dribble) or per forwarded chunk (delay). All defaults
/// are zero: a default plan is a transparent proxy.
struct ChaosPlan {
  std::uint64_t seed = 1;

  /// Torn frames: forward in chunks of at most dribble_max_bytes.
  double dribble_prob = 0.0;
  std::size_t dribble_max_bytes = 7;

  /// Delayed delivery: each forwarded chunk waits uniform [0, max_delay].
  double delay_prob = 0.0;
  Tick max_delay = 0;

  /// Flipped bytes: a flipped connection corrupts up to max_flips bytes
  /// at offsets drawn within the first flip_window bytes of one
  /// direction (direction chosen per connection).
  double flip_prob = 0.0;
  int max_flips = 3;
  std::size_t flip_window = 256;

  /// Connection resets at a protocol phase drawn per connection.
  double reset_prob = 0.0;
  /// Half the resets close with SO_LINGER 0 (RST: peer sees ECONNRESET);
  /// the rest close cleanly (peer sees EOF). Both must be retryable.
  bool reset_with_rst = true;

  /// Slowloris: stop forwarding the request direction after
  /// stall_after_bytes observed bytes — mid-frame for any real request —
  /// for stall_duration (kTickInfinity = forever; the server's idle
  /// machinery has to reap the connection).
  double stall_prob = 0.0;
  std::size_t stall_after_bytes = 10;
  Tick stall_duration = kTickInfinity;
};

struct ChaosProxyStats {
  std::uint64_t connections = 0;
  std::uint64_t resets = 0;
  std::uint64_t flipped_bytes = 0;
  std::uint64_t stalls = 0;
  std::uint64_t delayed_chunks = 0;
  std::uint64_t upstream_connect_failures = 0;
  std::uint64_t bytes_to_server = 0;
  std::uint64_t bytes_to_client = 0;
};

class ChaosProxy {
 public:
  /// Proxies 127.0.0.1:<port()> -> upstream_host:upstream_port.
  ChaosProxy(ChaosPlan plan, std::string upstream_host, int upstream_port);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds an ephemeral loopback port and starts the proxy thread.
  Status Start();
  /// Listening port; 0 before Start().
  int port() const { return port_; }

  /// Closes the listener and every proxied connection; joins the thread.
  /// Idempotent.
  void Stop();

  ChaosProxyStats Stats() const;

 private:
  class Impl;

  ChaosPlan plan_;
  std::string upstream_host_;
  int upstream_port_;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
};

}  // namespace ss::net

// Non-blocking epoll front end for the multi-tenant schedule service.
//
// The serving path is sharded: `loop_threads` epoll loops each own a
// disjoint set of connections (round-robin handoff from the accepting
// loop), and each loop handles its shard end to end — buffered reads
// through the incremental FrameDecoder, request dispatch, coalesced
// partial writes (one sendmsg/writev over the queued response frames,
// EPOLLOUT only while a write is pending), idle timeouts, and graceful
// drain. A connection never migrates between loops, so all per-connection
// state stays single-threaded. Solver work never runs on a loop — a cold
// solve waits in its tenant's TenantScheduler lane (admission, fair
// queueing), is solved on the dispatcher thread that takes it, and that
// thread hands the encoded response back to the owning loop via its
// completion queue + eventfd wakeup: one queue and one thread hop. Cache
// hits, lookup, stats, and health are answered inline (cache probes and
// counter snapshots, no solver).
//
// Every response echoes its request's request_id and leaves as soon as it
// is ready, which is what makes pipelining pay. A frame with a version
// byte other than 2 is answered with one UNSUPPORTED error frame, then the
// connection closes.
//
// Shutdown is a drain: Stop() closes the listener, keeps answering health
// with "draining", refuses new solves with SHUTTING_DOWN, lets in-flight
// solves finish and their responses flush, then force-closes whatever is
// left after `drain_timeout`. Completion callbacks outlive the server
// safely: they hold the completion sink (shared_ptr), which drops posts
// once the loop is gone.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/time.hpp"
#include "net/protocol.hpp"
#include "service/schedule_service.hpp"
#include "tenant/tenant_service.hpp"

namespace ss::net {

struct ServerOptions {
  /// IPv4 listen address. The tests and loadgen bind 127.0.0.1.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after Start().
  int port = 0;
  int backlog = 128;
  /// Connections idle (no frames, nothing in flight) longer than this are
  /// closed. kTickInfinity disables.
  Tick idle_timeout = ticks::FromSeconds(60);
  /// Grace period for Stop(): in-flight solves may finish and flush for
  /// this long before remaining connections are force-closed.
  Tick drain_timeout = ticks::FromSeconds(5);
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 1024;
  /// Parsed-problem memo capacity (distinct problem texts); parsing is
  /// memoized so a hot fingerprint costs one parse, not one per request.
  std::size_t problem_cache_capacity = 1024;
  /// Load shedding: solves in flight (submitted, completion not yet
  /// processed) across all connections beyond this are refused with a
  /// typed kOverloaded instead of queueing unboundedly. 0 disables.
  std::size_t max_pending_solves = 256;
  /// Per-connection cap on in-flight solves; one pipelining client cannot
  /// occupy the whole solve budget. 0 disables.
  int max_inflight_per_conn = 64;
  /// Event-loop shards. Loop 0 accepts and hands connections out
  /// round-robin; values < 1 are treated as 1.
  int loop_threads = 1;
};

class Server {
 public:
  /// `service` and `tenants` must outlive Stop()/destruction; not owned.
  Server(ServerOptions options, service::ScheduleService* service,
         tenant::TenantScheduler* tenants);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop. kInternal on socket
  /// errors (address in use, bad host).
  Status Start();

  /// Actual listening port (after an ephemeral bind). 0 before Start().
  int port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Graceful drain; joins the loop thread. Idempotent.
  void Stop();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// What STATS answers: the service's and the tenant front end's rows,
  /// then the server's own `net_*` rows (per loop, registered by a
  /// successful Start()). Readable after Stop().
  MetricSnapshot StatsSnapshot() const;

 private:
  struct Conn;
  struct CompletionSink;
  class Impl;

  ServerOptions options_;
  service::ScheduleService* service_;
  tenant::TenantScheduler* tenants_;
  int port_ = 0;
  std::atomic<bool> draining_{false};
  MetricsRegistry metrics_;
  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> loops_;
};

}  // namespace ss::net

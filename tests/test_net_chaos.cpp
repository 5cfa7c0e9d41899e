// Chaos tests for the network path: a deterministic fault-injecting proxy
// (ChaosProxy) sits between client and server and tears frames, delays and
// dribbles bytes, flips bits, resets connections at chosen protocol phases,
// and stalls like a slowloris. The invariants under all of it: every issued
// request resolves to exactly one *typed* outcome (success or a typed
// Status — never a crash, never a hang), the server survives and sheds or
// reaps abusive peers, and the ResilientClient turns retryable transport
// failures into eventual success because solve/lookup are idempotent by
// problem fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_io.hpp"
#include "chaos.hpp"
#include "net/async_client.hpp"
#include "net/protocol.hpp"
#include "net/resilient_client.hpp"
#include "net/server.hpp"
#include "raw_conn.hpp"
#include "service/schedule_service.hpp"
#include "tenant/tenant_service.hpp"

namespace ss::net {
namespace {

std::string ProblemText(int salt) {
  graph::ProblemSpec spec;
  const TaskId src = spec.graph.AddTask("src", /*is_source=*/true);
  const TaskId sink = spec.graph.AddTask("sink");
  const ChannelId a = spec.graph.AddChannel("a", 100);
  spec.graph.SetProducer(src, a);
  spec.graph.AddConsumer(sink, a);
  spec.costs.Set(RegimeId(0), src, graph::TaskCost::Serial(100 + salt));
  spec.costs.Set(RegimeId(0), sink, graph::TaskCost::Serial(50));
  spec.machine = graph::MachineConfig::SingleNode(2);
  spec.comm = graph::CommModel::Free();
  spec.regime_count = 1;
  return graph::FormatProblem(spec);
}

SolveRequestMsg SolveMsg(const std::string& tenant, int salt) {
  SolveRequestMsg msg;
  msg.tenant = tenant;
  msg.problem_text = ProblemText(salt);
  msg.regime = 0;
  return msg;
}

std::vector<std::uint8_t> SolveFrame(const SolveRequestMsg& msg,
                                     std::uint64_t request_id) {
  return EncodeFrame(MsgType::kSolve, EncodeBody(msg), kProtocolVersion2,
                     request_id);
}

AsyncClientOptions Timeout(Tick io_timeout) {
  AsyncClientOptions options;
  options.io_timeout = io_timeout;
  return options;
}

struct TestServer {
  service::ScheduleService service;
  tenant::TenantScheduler tenants;
  Server server;

  static ServerOptions FastDrain() {
    ServerOptions options;
    options.drain_timeout = ticks::FromMillis(300);
    return options;
  }

  TestServer(service::ServiceOptions service_options,
             tenant::TenantSchedulerOptions tenant_options,
             ServerOptions server_options = FastDrain())
      : service(std::move(service_options)),
        tenants(&service, std::move(tenant_options)),
        server(std::move(server_options), &service, &tenants) {}

  ~TestServer() {
    server.Stop();
    tenants.Shutdown();
    service.Shutdown();
  }
};

service::ServiceOptions Workers(int n) {
  service::ServiceOptions options;
  options.workers = n;
  return options;
}

tenant::TenantSchedulerOptions Dispatchers(int n) {
  tenant::TenantSchedulerOptions options;
  options.dispatch_threads = n;
  return options;
}

/// Polls until the server reports no active connections (fds all reaped).
bool DrainsToZeroConnections(const Server& server) {
  for (int i = 0; i < 400; ++i) {
    if (server.StatsSnapshot().Gauge("net_conns_active") == 0.0) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// ---- Transparent proxy ---------------------------------------------------

TEST(ChaosProxy, DefaultPlanIsTransparent) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosProxy proxy(ChaosPlan{}, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  AsyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, "ok");

  auto cold = client.Solve(SolveMsg("alice", 1));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = client.Solve(SolveMsg("alice", 1));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);

  const auto stats = proxy.Stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_GT(stats.bytes_to_server, 0u);
  EXPECT_GT(stats.bytes_to_client, 0u);
  EXPECT_EQ(stats.resets, 0u);
  EXPECT_EQ(stats.flipped_bytes, 0u);
  client.Close();
  proxy.Stop();
  EXPECT_TRUE(DrainsToZeroConnections(ts.server));
}

TEST(ChaosProxy, DribbledBytesReassembleIntoWholeFrames) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosPlan plan;
  plan.seed = 7;
  plan.dribble_prob = 1.0;
  plan.dribble_max_bytes = 5;
  ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  AsyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
  auto solve = client.Solve(SolveMsg("alice", 2));
  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  auto stats_resp = client.Stats();
  ASSERT_TRUE(stats_resp.ok()) << stats_resp.status().ToString();
  EXPECT_EQ(stats_resp->protocol_errors, 0u);
  proxy.Stop();
}

TEST(ChaosProxy, DelayedDeliveryStillCompletes) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosPlan plan;
  plan.seed = 11;
  plan.delay_prob = 1.0;
  plan.max_delay = ticks::FromMillis(10);
  ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  AsyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_GT(proxy.Stats().delayed_chunks, 0u);
  proxy.Stop();
}

// ---- Flipped bytes -------------------------------------------------------

TEST(ChaosProxy, FlippedBytesSurfaceAsTypedOutcomesNeverCrashes) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosPlan plan;
  plan.seed = 13;
  plan.flip_prob = 1.0;
  plan.max_flips = 3;
  plan.flip_window = 64;  // inside the request/response frames
  ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  // Every connection gets corrupted bytes in one direction; each request
  // must still resolve to exactly one typed outcome. A flip can land in a
  // string payload (request still decodes, solve proceeds) or in framing
  // (typed decode error / typed close) — both are legal; crashing or
  // hanging is not.
  int outcomes = 0;
  for (int i = 0; i < 8; ++i) {
    AsyncClient client(Timeout(ticks::FromSeconds(5)));
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
    auto solve = client.Solve(SolveMsg("alice", 3));
    ++outcomes;  // ok or a typed Status; Solve returned exactly once
    if (!solve.ok()) {
      EXPECT_NE(solve.status().code(), StatusCode::kOk);
    }
  }
  EXPECT_EQ(outcomes, 8);
  EXPECT_GT(proxy.Stats().flipped_bytes, 0u);
  proxy.Stop();

  // The server survived all of it: a clean direct connection works.
  AsyncClient direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", ts.server.port()).ok());
  auto health = direct.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, "ok");
}

// ---- Phase resets and the resilient client -------------------------------

TEST(ChaosProxy, PhaseResetsAreTypedOnThePlainClient) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosPlan plan;
  plan.seed = 17;
  plan.reset_prob = 1.0;  // every connection resets at some phase
  ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  // Cut points are drawn over the first few frames of a connection, so
  // run several requests per connection to reach them. Every failure must
  // be a typed, retryable transport error.
  int failures = 0;
  for (int i = 0; i < 8; ++i) {
    AsyncClient client(Timeout(ticks::FromMillis(500)));
    Status st = client.Connect("127.0.0.1", proxy.port());
    if (!st.ok()) continue;  // RST raced the connect; typed already
    for (int r = 0; r < 4; ++r) {
      auto solve = client.Solve(SolveMsg("alice", 4));
      if (solve.ok()) continue;
      ++failures;
      const StatusCode code = solve.status().code();
      EXPECT_TRUE(code == StatusCode::kCancelled ||
                  code == StatusCode::kInternal ||
                  code == StatusCode::kDeadlineExceeded)
          << solve.status().ToString();
      EXPECT_TRUE(ResilientClient::IsRetryable(solve.status()))
          << solve.status().ToString();
      break;  // the stream is dead; next connection
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_GT(proxy.Stats().resets, 0u);
  proxy.Stop();
}

TEST(ResilientClient, RecoversAcrossInjectedResets) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosPlan plan;
  plan.seed = 19;
  plan.reset_prob = 0.45;  // roughly half the connections die mid-exchange
  ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  ResilientClientOptions options;
  options.total_deadline = ticks::FromSeconds(20);
  options.io_timeout = ticks::FromMillis(500);
  options.max_attempts = 0;  // budget-bounded
  options.seed = 19;
  ResilientClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());

  for (int i = 0; i < 10; ++i) {
    auto solve = client.Solve(SolveMsg("alice", 5 + (i % 2)));
    ASSERT_TRUE(solve.ok()) << "request " << i << ": "
                            << solve.status().ToString();
  }
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_GE(client.stats().attempts, 11u);
  proxy.Stop();
}

TEST(ResilientClient, RetryPolicyIsKeyedOnTypedErrors) {
  EXPECT_TRUE(ResilientClient::IsRetryable(CancelledError("x")));
  EXPECT_TRUE(ResilientClient::IsRetryable(DeadlineExceededError("x")));
  EXPECT_TRUE(ResilientClient::IsRetryable(InternalError("x")));
  EXPECT_TRUE(ResilientClient::IsRetryable(OverloadedError("x")));
  EXPECT_TRUE(ResilientClient::IsRetryable(WouldBlockError("x")));
  EXPECT_TRUE(ResilientClient::IsRetryable(AdmissionRejectedError("x")));
  EXPECT_FALSE(ResilientClient::IsRetryable(InvalidArgumentError("x")));
  EXPECT_FALSE(ResilientClient::IsRetryable(CorruptArtifactError("x")));
  EXPECT_FALSE(ResilientClient::IsRetryable(NotFoundError("x")));
  EXPECT_FALSE(ResilientClient::IsRetryable(FailedPreconditionError("x")));

  // Transport failures invalidate the stream; typed pushback keeps it.
  EXPECT_TRUE(ResilientClient::NeedsReconnect(CancelledError("x")));
  EXPECT_TRUE(ResilientClient::NeedsReconnect(DeadlineExceededError("x")));
  EXPECT_TRUE(ResilientClient::NeedsReconnect(InternalError("x")));
  EXPECT_FALSE(ResilientClient::NeedsReconnect(OverloadedError("x")));
  EXPECT_FALSE(ResilientClient::NeedsReconnect(AdmissionRejectedError("x")));
}

TEST(ResilientClient, TerminalErrorsAreNotRetried) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ResilientClientOptions options;
  options.total_deadline = ticks::FromSeconds(5);
  ResilientClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok());

  SolveRequestMsg bad;
  bad.tenant = "alice";
  bad.problem_text = "this is not a problem\n";
  auto result = client.Solve(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.stats().retries, 0u);  // terminal: exactly one attempt
}

// ---- Slowloris and overload ----------------------------------------------

TEST(ChaosProxy, SlowlorisStallIsReapedByReadProgressIdleEnforcement) {
  ServerOptions server_options = TestServer::FastDrain();
  server_options.idle_timeout = ticks::FromMillis(150);
  TestServer ts(Workers(2), Dispatchers(2), std::move(server_options));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosPlan plan;
  plan.seed = 23;
  plan.stall_prob = 1.0;
  plan.stall_after_bytes = 10;  // mid-frame for any real request
  plan.stall_duration = kTickInfinity;
  ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  AsyncClient client(Timeout(ticks::FromSeconds(5)));
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
  // The request dies mid-frame inside the proxy; the server must not wait
  // forever on a half-received frame — no complete frame ever arrives, so
  // read progress never advances and the idle reaper closes the socket.
  auto solve = client.Solve(SolveMsg("alice", 7));
  ASSERT_FALSE(solve.ok());
  EXPECT_TRUE(solve.status().code() == StatusCode::kCancelled ||
              solve.status().code() == StatusCode::kDeadlineExceeded)
      << solve.status().ToString();
  auto idle_closed = [&] {
    return ts.server.StatsSnapshot().Count("net_conns_idle_closed");
  };
  for (int i = 0; i < 200 && idle_closed() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(idle_closed(), 1u);
  EXPECT_EQ(proxy.Stats().stalls, 1u);
  proxy.Stop();
  EXPECT_TRUE(DrainsToZeroConnections(ts.server));
}

TEST(NetChaos, OverloadShedsWithTypedErrorAndCounter) {
  // Paused pipeline: admitted solves park forever, so the pending-solve
  // gauge climbs and the shed threshold triggers deterministically.
  ServerOptions server_options = TestServer::FastDrain();
  server_options.max_pending_solves = 2;
  TestServer ts(Workers(0), Dispatchers(0), std::move(server_options));
  ASSERT_TRUE(ts.server.Start().ok());

  RawConn parked;
  ASSERT_TRUE(parked.Connect("127.0.0.1", ts.server.port()).ok());
  for (int salt = 0; salt < 2; ++salt) {
    const auto frame = SolveFrame(SolveMsg("alice", 20 + salt), 1 + salt);
    ASSERT_TRUE(parked.SendBytes(frame.data(), frame.size()).ok());
  }
  // Wait until both solves are admitted (visible as queued work).
  AsyncClient stats_client;
  ASSERT_TRUE(stats_client.Connect("127.0.0.1", ts.server.port()).ok());
  bool both_parked = false;
  for (int i = 0; i < 200 && !both_parked; ++i) {
    auto stats = stats_client.Stats();
    ASSERT_TRUE(stats.ok());
    both_parked =
        stats->metrics.Gauge("tenant_queued", {{"tenant", "alice"}}) == 2.0;
    if (!both_parked) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_TRUE(both_parked);

  AsyncClient third;
  ASSERT_TRUE(third.Connect("127.0.0.1", ts.server.port()).ok());
  auto shed = third.Solve(SolveMsg("alice", 30));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded)
      << shed.status().ToString();
  EXPECT_TRUE(ResilientClient::IsRetryable(shed.status()));

  // Health and stats are never shed (cheap, answered inline), and the new
  // counter round-trips the wire.
  auto health = third.Health();
  ASSERT_TRUE(health.ok());
  auto stats = stats_client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->metrics.Count("net_shed_overload"), 1u);
  EXPECT_DOUBLE_EQ(stats->metrics.Gauge("net_solves_in_flight"), 2.0);
  EXPECT_EQ(ts.server.StatsSnapshot().Count("net_shed_overload"), 1u);
}

TEST(NetChaos, PerConnectionInflightCapSheds) {
  ServerOptions server_options = TestServer::FastDrain();
  server_options.max_inflight_per_conn = 1;
  TestServer ts(Workers(0), Dispatchers(0), std::move(server_options));
  ASSERT_TRUE(ts.server.Start().ok());

  RawConn client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok());
  // Pipeline two solves back-to-back: the first parks (paused pipeline),
  // the second exceeds the per-connection cap and bounces typed. The
  // error frame is the only response that can arrive.
  for (int salt = 0; salt < 2; ++salt) {
    const auto frame = SolveFrame(SolveMsg("bob", 40 + salt), 1 + salt);
    ASSERT_TRUE(client.SendBytes(frame.data(), frame.size()).ok());
  }
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, MsgType::kError);
  EXPECT_EQ(frame->request_id, 2u);
  ErrorResponseMsg err;
  ASSERT_TRUE(Decode(frame->body.data(), frame->body.size(), &err).ok());
  EXPECT_EQ(err.code, WireError::kOverloaded);
  EXPECT_EQ(ts.server.StatsSnapshot().Count("net_shed_overload"), 1u);
}

// ---- Decoder fuzz through the chaos transport ----------------------------

TEST(NetChaos, TruncationAndCorruptionSweepThroughProxy) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosPlan plan;  // transparent: the sweep itself is the corruption
  ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  const auto frame = SolveFrame(SolveMsg("alice", 8), 1);
  // Truncations: every prefix boundary (stride to keep runtime sane),
  // connection closed mid-frame. The server must survive each one.
  for (std::size_t cut = 1; cut < frame.size(); cut += 7) {
    RawConn client;
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
    ASSERT_TRUE(client.SendBytes(frame.data(), cut).ok());
    client.Close();
  }
  // Corruptions: single flipped byte at each position (stride); the
  // server answers a typed error frame, a valid response (flip landed in
  // a payload byte), or closes — never crashes.
  for (std::size_t pos = 0; pos < frame.size(); pos += 5) {
    std::vector<std::uint8_t> corrupt = frame;
    corrupt[pos] ^= 0x40;
    RawConn client(ticks::FromSeconds(2));
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
    ASSERT_TRUE(client.SendBytes(corrupt.data(), corrupt.size()).ok());
    auto reply = client.ReadFrame();  // typed success, error, or close
    if (reply.ok()) {
      EXPECT_TRUE(reply->type == MsgType::kSolveOk ||
                  reply->type == MsgType::kError);
    }
  }
  proxy.Stop();

  // Post-sweep: the server is healthy and leaked no connections.
  AsyncClient direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", ts.server.port()).ok());
  auto health = direct.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  auto stats = direct.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  direct.Close();
  EXPECT_TRUE(DrainsToZeroConnections(ts.server));
}

// ---- Randomized chaos soak ----------------------------------------------

// 64 seeds of mixed faults against one server. Invariants: every request
// returns exactly one typed outcome, the server never crashes or leaks
// connections, and a clean post-chaos health/stats round-trip succeeds.
TEST(NetChaos, SixtyFourSeedSoak) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());

  std::uint64_t issued = 0;
  std::uint64_t resolved = 0;
  std::uint64_t failed = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    ChaosPlan plan;
    plan.seed = seed;
    plan.reset_prob = 0.3;
    plan.flip_prob = 0.15;
    plan.flip_window = 96;
    plan.dribble_prob = 0.5;
    plan.dribble_max_bytes = 9;
    plan.delay_prob = 0.3;
    plan.max_delay = ticks::FromMillis(2);
    plan.stall_prob = 0.1;
    plan.stall_after_bytes = 10;
    plan.stall_duration = ticks::FromMillis(30);
    ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
    ASSERT_TRUE(proxy.Start().ok()) << "seed " << seed;

    ResilientClientOptions options;
    options.total_deadline = ticks::FromSeconds(10);
    options.io_timeout = ticks::FromMillis(400);
    options.backoff_base = ticks::FromMillis(1);
    options.backoff_max = ticks::FromMillis(20);
    options.max_attempts = 6;
    options.seed = seed;
    ResilientClient client(options);
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok())
        << "seed " << seed;

    for (int i = 0; i < 4; ++i) {
      ++issued;
      // Small salt set: most solves are cache hits, so the soak exercises
      // the transport, not the solver.
      auto solve = client.Solve(SolveMsg("soak", 50 + (i % 3)));
      ++resolved;  // returned exactly once, ok or typed
      if (!solve.ok()) {
        ++failed;
        EXPECT_NE(solve.status().code(), StatusCode::kOk);
      }
    }
    ++issued;
    auto health = client.Health();
    ++resolved;
    failed += !health.ok();
    proxy.Stop();
  }
  EXPECT_EQ(issued, resolved);
  // With retries and generous budgets the vast majority must get through;
  // flips can poison a stream terminally, so a small residue may fail.
  EXPECT_LT(failed, issued / 4) << failed << " of " << issued << " failed";

  // Post-chaos: clean direct round-trip and zero leaked connections.
  EXPECT_TRUE(DrainsToZeroConnections(ts.server));
  AsyncClient direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", ts.server.port()).ok());
  auto health = direct.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, "ok");
  auto stats = direct.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->metrics.Count("service_requests"), 1u);
}

// ---- Pipelined v2 through the chaos transport ----------------------------

TEST(NetChaosV2, PipelinedSolvesSurviveDribbledBytes) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosPlan plan;
  plan.seed = 23;
  plan.dribble_prob = 1.0;
  plan.dribble_max_bytes = 5;
  ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  AsyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
  // Seed the cache, then pipeline hits: 16 in-flight requests whose v2
  // responses all come back dribbled a few bytes at a time.
  auto cold = client.Solve(SolveMsg("alice", 60));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  std::atomic<int> ok_count{0};
  std::atomic<int> done_count{0};
  for (int i = 0; i < 16; ++i) {
    client.SolveAsync(SolveMsg("alice", 60),
                      [&](Expected<SolveResponseMsg> result) {
                        if (result.ok() && result->cache_hit) {
                          ok_count.fetch_add(1);
                        }
                        done_count.fetch_add(1);
                      });
  }
  for (int i = 0; i < 1000 && done_count.load() < 16; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(done_count.load(), 16);
  EXPECT_EQ(ok_count.load(), 16);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->protocol_errors, 0u);
  proxy.Stop();
}

TEST(NetChaosV2, MidStreamResetsFailEveryInFlightRequestTyped) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosPlan plan;
  plan.seed = 29;
  plan.reset_prob = 1.0;  // every proxied connection dies at some phase
  ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  // Pipeline a burst per connection; when the reset lands, every request
  // still in flight must complete exactly once with a typed, retryable
  // transport error — no hangs, no lost callbacks.
  int failures = 0;
  for (int round = 0; round < 4; ++round) {
    AsyncClientOptions options;
    options.io_timeout = ticks::FromMillis(500);
    AsyncClient client(options);
    if (!client.Connect("127.0.0.1", proxy.port()).ok()) continue;

    constexpr int kBurst = 8;
    std::atomic<int> done_count{0};
    std::vector<Status> outcomes(kBurst);
    std::mutex outcomes_mu;
    for (int i = 0; i < kBurst; ++i) {
      client.SolveAsync(SolveMsg("alice", 61),
                        [&, i](Expected<SolveResponseMsg> result) {
                          std::lock_guard<std::mutex> lock(outcomes_mu);
                          outcomes[static_cast<std::size_t>(i)] =
                              result.ok() ? OkStatus() : result.status();
                          done_count.fetch_add(1);
                        });
    }
    for (int i = 0; i < 1000 && done_count.load() < kBurst; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(done_count.load(), kBurst) << "round " << round;
    std::lock_guard<std::mutex> lock(outcomes_mu);
    for (const Status& st : outcomes) {
      if (st.ok()) continue;
      ++failures;
      EXPECT_TRUE(ResilientClient::IsRetryable(st)) << st.ToString();
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_GT(proxy.Stats().resets, 0u);
  proxy.Stop();

  // The server survived: clean direct v2 round-trip.
  AsyncClient direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", ts.server.port()).ok());
  auto health = direct.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
}

TEST(NetChaosV2, FlippedBytesAreTypedOutcomesOnThePipelinedClient) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  ChaosPlan plan;
  plan.seed = 31;
  plan.flip_prob = 1.0;
  plan.max_flips = 3;
  plan.flip_window = 64;
  ChaosProxy proxy(plan, "127.0.0.1", ts.server.port());
  ASSERT_TRUE(proxy.Start().ok());

  // A flip in a response header desynchronizes the whole pipelined
  // stream: the decoder fails typed and every in-flight request completes
  // with that failure (kInvalidArgument), not a hang. A flip in a payload
  // byte may still decode — both are legal, crashes are not.
  int outcomes = 0;
  for (int i = 0; i < 8; ++i) {
    AsyncClientOptions options;
    options.io_timeout = ticks::FromSeconds(5);
    AsyncClient client(options);
    if (!client.Connect("127.0.0.1", proxy.port()).ok()) continue;
    auto solve = client.Solve(SolveMsg("alice", 62));
    ++outcomes;  // returned exactly once, ok or typed
    if (!solve.ok()) {
      EXPECT_NE(solve.status().code(), StatusCode::kOk);
    }
  }
  EXPECT_GT(outcomes, 0);
  EXPECT_GT(proxy.Stats().flipped_bytes, 0u);
  proxy.Stop();

  AsyncClient direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", ts.server.port()).ok());
  auto health = direct.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
}

}  // namespace
}  // namespace ss::net

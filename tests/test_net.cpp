// Tests for the wire protocol and the epoll server: codec round-trips, the
// incremental frame decoder against malformed/partial input (satellite:
// fuzz-ish decoder coverage), end-to-end solve/lookup/stats/health over a
// real socket, and the typed error surface — deadline-exceeded, per-tenant
// queue-full, admission rejection, corrupt-artifact, unknown-tenant — each
// round-tripping to a distinct protocol error code.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/crc32.hpp"
#include "core/rng.hpp"
#include "graph/graph_io.hpp"
#include "graph/synthetic.hpp"
#include "net/async_client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "raw_conn.hpp"
#include "service/schedule_service.hpp"
#include "tenant/tenant_service.hpp"

namespace ss::net {
namespace {

std::string ProblemText(int salt) {
  graph::ProblemSpec spec;
  const TaskId src = spec.graph.AddTask("src", /*is_source=*/true);
  const TaskId mid = spec.graph.AddTask("mid");
  const TaskId sink = spec.graph.AddTask("sink");
  const ChannelId a = spec.graph.AddChannel("a", 100);
  spec.graph.SetProducer(src, a);
  spec.graph.AddConsumer(mid, a);
  const ChannelId b = spec.graph.AddChannel("b", 100);
  spec.graph.SetProducer(mid, b);
  spec.graph.AddConsumer(sink, b);
  spec.costs.Set(RegimeId(0), src, graph::TaskCost::Serial(100 + salt));
  spec.costs.Set(RegimeId(0), mid, graph::TaskCost::Serial(200));
  spec.costs.Set(RegimeId(0), sink, graph::TaskCost::Serial(50));
  spec.machine = graph::MachineConfig::SingleNode(2);
  spec.comm = graph::CommModel::Free();
  spec.regime_count = 1;
  return graph::FormatProblem(spec);
}

/// Problem text of graph::MakeForkJoin(Rng(seed), width) on `procs`
/// processors with free communication.
std::string ForkJoinText(std::uint64_t seed, int width, int procs) {
  Rng rng(seed);
  graph::SyntheticProblem dag = graph::MakeForkJoin(rng, width);
  graph::ProblemSpec spec;
  spec.graph = dag.graph;
  spec.costs = dag.costs;
  spec.machine = graph::MachineConfig::SingleNode(procs);
  spec.comm = graph::CommModel::Free();
  spec.regime_count = 1;
  return graph::FormatProblem(spec);
}

/// A solve that runs for seconds: the exact search exhausts the default
/// 20M-node budget (~2.5 s on a 4-vCPU x86 host, RelWithDebInfo). Tests
/// end it with ServiceOptions::solver_watchdog. Widths 5 and 6 are two
/// distinct problems.
std::string SlowProblemText(int width = 5) {
  return ForkJoinText(7, width, 2);
}

/// A solve that completes optimally, in ~1M nodes (~140 ms on the same
/// host): long enough for a short deadline to pass, or for a duplicate to
/// arrive while it runs.
std::string MediumProblemText() { return ForkJoinText(44, 6, 2); }

/// A solve that completes optimally in ~2.3M nodes (~330 ms on the same
/// host, ~7 s under TSan, ~17 s in an ASan+UBSan Debug build): several
/// times longer than an 80 ms deadline on any host.
std::string LongProblemText() { return ForkJoinText(38, 6, 2); }

SolveRequestMsg SolveMsg(const std::string& tenant, int salt) {
  SolveRequestMsg msg;
  msg.tenant = tenant;
  msg.problem_text = ProblemText(salt);
  msg.regime = 0;
  return msg;
}

std::vector<std::uint8_t> SolveFrame(const SolveRequestMsg& msg,
                                     std::uint64_t request_id = 1) {
  return EncodeFrame(MsgType::kSolve, EncodeBody(msg), kProtocolVersion2,
                     request_id);
}

/// Decodes an error frame's wire code (kOk if it is not an error frame).
WireError ErrorCode(const Frame& frame) {
  ErrorResponseMsg err;
  if (frame.type != MsgType::kError ||
      !Decode(frame.body.data(), frame.body.size(), &err).ok()) {
    return WireError::kOk;
  }
  return err.code;
}

// ---- Codec round-trips (no socket) ---------------------------------------

TEST(Protocol, SolveRequestRoundTrip) {
  SolveRequestMsg msg;
  msg.tenant = "team-a";
  msg.problem_text = "task src serial=10\n";
  msg.regime = 3;
  msg.deadline_micros = 250000;
  msg.allow_degraded = true;
  const auto frame = SolveFrame(msg);

  FrameDecoder decoder;
  decoder.Append(frame.data(), frame.size());
  Frame out;
  auto ready = decoder.Next(&out);
  ASSERT_TRUE(ready.ok()) << ready.status().ToString();
  ASSERT_TRUE(*ready);
  EXPECT_EQ(out.type, MsgType::kSolve);

  SolveRequestMsg decoded;
  ASSERT_TRUE(Decode(out.body.data(), out.body.size(), &decoded).ok());
  EXPECT_EQ(decoded.tenant, msg.tenant);
  EXPECT_EQ(decoded.problem_text, msg.problem_text);
  EXPECT_EQ(decoded.regime, msg.regime);
  EXPECT_EQ(decoded.deadline_micros, msg.deadline_micros);
  EXPECT_EQ(decoded.allow_degraded, msg.allow_degraded);
}

/// A STATS body as a server with one tenant and one loop would send it:
/// a service row, a tenant-labelled counter and histogram, a loop-labelled
/// counter and a gauge.
StatsResponseMsg SampleStats() {
  MetricsRegistry registry;
  registry.AddCounter("service_solves", "solver invocations").Inc(42);
  registry.AddCounter("tenant_admitted", "admitted", {{"tenant", "video"}})
      .Inc(9);
  LatencyHistogram& latency = registry.AddHistogram(
      "tenant_latency_us", "latency", {{"tenant", "video"}});
  latency.Add(1200);
  latency.Add(5600);
  registry.AddCounter("net_protocol_errors", "protocol errors",
                      {{"loop", "1"}})
      .Inc(3);
  registry.AddGauge("tenant_weight", "weight", {{"tenant", "video"}},
                    [] { return 4.0; });
  StatsResponseMsg msg;
  msg.metrics = registry.Snapshot();
  return msg;
}

TEST(Protocol, StatsResponseRoundTrip) {
  const StatsResponseMsg msg = SampleStats();
  const auto frame = EncodeFrame(MsgType::kStatsOk, EncodeBody(msg));

  FrameDecoder decoder;
  decoder.Append(frame.data(), frame.size());
  Frame out;
  auto ready = decoder.Next(&out);
  ASSERT_TRUE(ready.ok());
  ASSERT_TRUE(*ready);
  EXPECT_EQ(out.type, MsgType::kStatsOk);

  StatsResponseMsg decoded;
  ASSERT_TRUE(Decode(out.body.data(), out.body.size(), &decoded).ok());
  ASSERT_EQ(decoded.metrics.rows.size(), msg.metrics.rows.size());
  for (std::size_t i = 0; i < msg.metrics.rows.size(); ++i) {
    const MetricRow& want = msg.metrics.rows[i];
    const MetricRow& got = decoded.metrics.rows[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.help, want.help);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.count, want.count);
    EXPECT_DOUBLE_EQ(got.value, want.value);
    EXPECT_DOUBLE_EQ(got.p50, want.p50);
    EXPECT_DOUBLE_EQ(got.p99, want.p99);
    EXPECT_DOUBLE_EQ(got.p999, want.p999);
  }
  // The typed copies perfbench reads come from the rows.
  EXPECT_EQ(decoded.solves, 42u);
  EXPECT_EQ(decoded.coalesced, 0u);
  EXPECT_EQ(decoded.retries, 0u);
  EXPECT_EQ(decoded.protocol_errors, 3u);
  EXPECT_EQ(decoded.metrics.Count("tenant_admitted", {{"tenant", "video"}}),
            9u);
  EXPECT_DOUBLE_EQ(decoded.metrics.Gauge("tenant_weight"), 4.0);
  const MetricRow* latency = decoded.metrics.Find("tenant_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 2u);
  EXPECT_GE(latency->p999, latency->p50);
}

TEST(Protocol, StatsResponseFor1024TenantsFitsAFrame) {
  // 16x the default tenant cap, each with every per-tenant row a server
  // registers; rows repeat their names and labels. Once with short names,
  // once with every name at the registry's length bound.
  for (std::size_t name_bytes : {std::size_t{11}, tenant::kMaxTenantNameBytes}) {
    SCOPED_TRACE(std::to_string(name_bytes) + "-byte names");
    service::ScheduleService service{service::ServiceOptions{}};
    tenant::TenantSchedulerOptions options;
    options.registry.max_tenants = 1024;
    options.dispatch_threads = 0;
    tenant::TenantScheduler tenants(&service, options);
    for (int i = 0; i < 1024; ++i) {
      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "tenant-%04d", i);
      std::string name = prefix;
      name.resize(name_bytes, 'x');
      ASSERT_TRUE(tenants.RegisterTenant({.name = name}).ok());
    }
    StatsResponseMsg msg;
    msg.metrics = service.metrics().Snapshot();
    msg.metrics.Append(tenants.metrics().Snapshot());
    const std::vector<std::uint8_t> body = EncodeBody(msg);
    EXPECT_LE(kFrameHeaderBytes + body.size(), kMaxFrameBytes)
        << body.size() << " body bytes";
    StatsResponseMsg decoded;
    ASSERT_TRUE(Decode(body.data(), body.size(), &decoded).ok());
    EXPECT_EQ(decoded.metrics.rows.size(), msg.metrics.rows.size());
    tenants.Shutdown();
  }
}

TEST(Protocol, StatsDecodeRefusesCountsTheBodyCannotHold) {
  // A row count no body of this size could hold is refused before any
  // reserve; so is a label count.
  std::vector<std::uint8_t> rows;
  WireWriter w(&rows);
  w.U32(0xFFFFFFFFu);
  w.U64(0);
  StatsResponseMsg out;
  EXPECT_FALSE(Decode(rows.data(), rows.size(), &out).ok());

  std::vector<std::uint8_t> labels;
  WireWriter l(&labels);
  l.U32(1);  // one row
  l.Str("service_solves");
  l.U8(static_cast<std::uint8_t>(MetricKind::kCounter));
  l.U32(0x10000000u);  // labels
  l.U64(7);
  l.U32(0);  // no help entries
  EXPECT_FALSE(Decode(labels.data(), labels.size(), &out).ok());

  std::vector<std::uint8_t> kind;
  WireWriter k(&kind);
  k.U32(1);
  k.Str("x");
  k.U8(9);  // no such kind
  k.U32(0);
  k.U64(7);
  k.U32(0);
  EXPECT_FALSE(Decode(kind.data(), kind.size(), &out).ok());
}

TEST(Protocol, ErrorCodesSurviveTheWire) {
  for (WireError code :
       {WireError::kMalformed, WireError::kDeadlineExceeded,
        WireError::kQueueFull, WireError::kAdmissionRejected,
        WireError::kUnknownTenant, WireError::kCorruptArtifact,
        WireError::kShuttingDown}) {
    ErrorResponseMsg msg;
    msg.code = code;
    msg.message = WireErrorName(code);
    const auto frame = EncodeFrame(MsgType::kError, EncodeBody(msg));
    FrameDecoder decoder;
    decoder.Append(frame.data(), frame.size());
    Frame out;
    auto ready = decoder.Next(&out);
    ASSERT_TRUE(ready.ok());
    ASSERT_TRUE(*ready);
    ASSERT_EQ(out.type, MsgType::kError);
    ErrorResponseMsg decoded;
    ASSERT_TRUE(Decode(out.body.data(), out.body.size(), &decoded).ok());
    EXPECT_EQ(decoded.code, code);
    EXPECT_EQ(decoded.message, msg.message);
  }
}

TEST(Protocol, StatusRoundTripIsTyped) {
  EXPECT_EQ(WireErrorFromStatus(DeadlineExceededError("d")),
            WireError::kDeadlineExceeded);
  EXPECT_EQ(WireErrorFromStatus(WouldBlockError("q")), WireError::kQueueFull);
  EXPECT_EQ(WireErrorFromStatus(AdmissionRejectedError("a")),
            WireError::kAdmissionRejected);
  EXPECT_EQ(WireErrorFromStatus(CorruptArtifactError("c")),
            WireError::kCorruptArtifact);
  EXPECT_EQ(StatusFromWireError(WireError::kDeadlineExceeded, "d").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(StatusFromWireError(WireError::kQueueFull, "q").code(),
            StatusCode::kWouldBlock);
  EXPECT_EQ(StatusFromWireError(WireError::kAdmissionRejected, "a").code(),
            StatusCode::kAdmissionRejected);
  EXPECT_EQ(StatusFromWireError(WireError::kCorruptArtifact, "c").code(),
            StatusCode::kCorruptArtifact);
}

// ---- FrameDecoder: correlation ids and hostile input ---------------------

TEST(FrameDecoder, FrameRoundTripsRequestId) {
  SolveRequestMsg msg = SolveMsg("t", 1);
  const auto frame = SolveFrame(msg, 0x0123456789abcdefULL);
  FrameDecoder decoder;
  decoder.Append(frame.data(), frame.size());
  Frame out;
  auto ready = decoder.Next(&out);
  ASSERT_TRUE(ready.ok()) << ready.status().ToString();
  ASSERT_TRUE(*ready);
  EXPECT_EQ(out.request_id, 0x0123456789abcdefULL);
  EXPECT_EQ(out.type, MsgType::kSolve);
  SolveRequestMsg decoded;
  ASSERT_TRUE(Decode(out.body.data(), out.body.size(), &decoded).ok());
  EXPECT_EQ(decoded.tenant, msg.tenant);
  EXPECT_EQ(decoder.error_code(), WireError::kOk);
}

TEST(FrameDecoder, ReassemblesByteAtATime) {
  SolveRequestMsg msg;
  msg.tenant = "t";
  msg.problem_text = "x";
  const auto frame = SolveFrame(msg, 42);

  FrameDecoder decoder;
  Frame out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Append(&frame[i], 1);
    auto ready = decoder.Next(&out);
    ASSERT_TRUE(ready.ok());
    EXPECT_FALSE(*ready) << "frame complete after " << (i + 1) << " bytes";
  }
  decoder.Append(&frame[frame.size() - 1], 1);
  auto ready = decoder.Next(&out);
  ASSERT_TRUE(ready.ok());
  ASSERT_TRUE(*ready);
  EXPECT_EQ(out.type, MsgType::kSolve);
  EXPECT_EQ(out.request_id, 42u);
}

TEST(FrameDecoder, TwoFramesInOneChunk) {
  const auto a = EncodeFrame(MsgType::kHealth, {}, kProtocolVersion2, 1);
  const auto b = EncodeFrame(MsgType::kStats, {}, kProtocolVersion2, 2);
  std::vector<std::uint8_t> both = a;
  both.insert(both.end(), b.begin(), b.end());

  FrameDecoder decoder;
  decoder.Append(both.data(), both.size());
  Frame out;
  auto first = decoder.Next(&out);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(*first);
  EXPECT_EQ(out.type, MsgType::kHealth);
  EXPECT_EQ(out.request_id, 1u);
  auto second = decoder.Next(&out);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(*second);
  EXPECT_EQ(out.type, MsgType::kStats);
  EXPECT_EQ(out.request_id, 2u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, OversizedLengthIsPermanentError) {
  // length = 2 MiB > kMaxFrameBytes.
  const std::uint8_t prefix[] = {0x00, 0x00, 0x20, 0x00};
  FrameDecoder decoder;
  decoder.Append(prefix, sizeof(prefix));
  Frame out;
  auto ready = decoder.Next(&out);
  ASSERT_FALSE(ready.ok());
  EXPECT_EQ(ready.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoder.error_code(), WireError::kMalformed);
  // Sticky: feeding more bytes does not revive the stream.
  const std::uint8_t more[] = {0x01};
  decoder.Append(more, sizeof(more));
  EXPECT_FALSE(decoder.Next(&out).ok());
}

TEST(FrameDecoder, RuntLengthAndBadVersionAreErrors) {
  {
    // length = 0: no room even for the version byte.
    const std::uint8_t frame[] = {0x00, 0x00, 0x00, 0x00};
    FrameDecoder decoder;
    decoder.Append(frame, sizeof(frame));
    Frame out;
    EXPECT_FALSE(decoder.Next(&out).ok());
    EXPECT_EQ(decoder.error_code(), WireError::kMalformed);
  }
  // Every version byte but 2 is unsupported — judged as soon as the byte
  // arrives, whatever the length says: a v1 peer's 2-byte-header health
  // request, a header-only prefix, and a whole v2-shaped frame alike.
  for (int version = 0; version < 256; ++version) {
    if (version == kProtocolVersion2) continue;
    const auto v = static_cast<std::uint8_t>(version);
    const std::vector<std::vector<std::uint8_t>> forged = {
        {0x02, 0x00, 0x00, 0x00, v, 0x04},
        {0x40, 0x00, 0x00, 0x00, v},
        EncodeFrame(MsgType::kHealth, {}, v, 7)};
    for (const auto& frame : forged) {
      FrameDecoder decoder;
      decoder.Append(frame.data(), frame.size());
      Frame out;
      auto ready = decoder.Next(&out);
      ASSERT_FALSE(ready.ok()) << "version " << version;
      EXPECT_EQ(ready.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(decoder.error_code(), WireError::kUnsupported)
          << "version " << version;
    }
  }
}

TEST(FrameDecoder, TruncatedRequestIdIsTypedError) {
  // A frame whose length leaves no room for the 8-byte request_id: every
  // length in [1, 9] is a runt. The decoder must fail typed, not read past
  // the header.
  for (std::uint32_t len = 1; len < kFrameHeaderBytes; ++len) {
    std::vector<std::uint8_t> frame;
    frame.push_back(static_cast<std::uint8_t>(len & 0xFF));
    frame.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFF));
    frame.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFF));
    frame.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFF));
    frame.push_back(kProtocolVersion2);
    frame.push_back(static_cast<std::uint8_t>(MsgType::kHealth));
    for (std::uint32_t i = 2; i < len; ++i) frame.push_back(0x00);
    FrameDecoder decoder;
    decoder.Append(frame.data(), frame.size());
    Frame out;
    auto ready = decoder.Next(&out);
    ASSERT_FALSE(ready.ok()) << "len=" << len;
    EXPECT_EQ(ready.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(decoder.error_code(), WireError::kMalformed);
  }
}

TEST(FrameDecoder, TruncationSweepNeverCrashesDecoder) {
  // Fuzz-ish: every strict prefix of a frame is either "need more bytes"
  // or a typed error — never a crash, never a phantom frame.
  const auto frame = SolveFrame(SolveMsg("t", 3), 7);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Append(frame.data(), cut);
    Frame out;
    auto ready = decoder.Next(&out);
    if (ready.ok()) {
      EXPECT_FALSE(*ready) << "cut=" << cut;
    }
  }
}

/// Every strict prefix of `encoded` fails to decode as Msg with a typed
/// error, never a crash (fuzz-ish sweep over all truncation points), and so
/// does the body with one trailing byte (trailing bytes hide version skew).
template <typename Msg>
void SweepTruncations(const std::vector<std::uint8_t>& encoded) {
  Msg out;
  ASSERT_TRUE(Decode(encoded.data(), encoded.size(), &out).ok());
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    Msg partial;
    const Status decoded = Decode(encoded.data(), cut, &partial);
    EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument) << "cut=" << cut;
  }
  std::vector<std::uint8_t> padded = encoded;
  padded.push_back(0xFF);
  EXPECT_EQ(Decode(padded.data(), padded.size(), &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireReaderTest, TruncatedAndTrailingBodiesFailDecode) {
  SweepTruncations<SolveRequestMsg>(EncodeBody(SolveMsg("t", 1)));
  SweepTruncations<StatsResponseMsg>(EncodeBody(SampleStats()));
}

// ---- End-to-end over a real socket ---------------------------------------

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

  template <typename ClientT>
  Status StartAndConnect(ClientT* client) {
    SS_RETURN_IF_ERROR(server.Start());
    return client->Connect("127.0.0.1", server.port());
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

/// A service whose solves the watchdog ends after `budget`.
service::ServiceOptions Watchdog(Tick budget) {
  service::ServiceOptions options;
  options.solver_watchdog = budget;
  return options;
}

SolveRequestMsg SlowSolveMsg(const std::string& tenant, int width = 5) {
  SolveRequestMsg msg;
  msg.tenant = tenant;
  msg.problem_text = SlowProblemText(width);
  return msg;
}

/// Threads in this process right now.
int ProcessThreads() {
  int n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(NetServer, SolveLookupStatsHealthHappyPath) {
  TestServer ts(Workers(2), Dispatchers(2));
  AsyncClient client;
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, "ok");
  EXPECT_GE(health->uptime_micros, 0);

  // Lookup before any solve: clean miss, not an error.
  LookupRequestMsg lookup;
  lookup.tenant = "alice";
  lookup.problem_text = ProblemText(1);
  auto miss = client.Lookup(lookup);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss->found);

  auto cold = client.Solve(SolveMsg("alice", 1));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cache_hit);
  EXPECT_GT(cold->summary.latency, 0);
  EXPECT_GT(cold->summary.initiation_interval, 0);
  EXPECT_EQ(cold->summary.quality, 0) << "expected a proven-optimal result";
  EXPECT_FALSE(cold->summary.fingerprint_hex.empty());

  auto warm = client.Solve(SolveMsg("alice", 1));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->summary.fingerprint_hex, cold->summary.fingerprint_hex);
  EXPECT_EQ(warm->summary.latency, cold->summary.latency);

  auto hit = client.Lookup(lookup);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->found);
  EXPECT_EQ(hit->summary.fingerprint_hex, cold->summary.fingerprint_hex);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const MetricSnapshot& rows = stats->metrics;
  EXPECT_GE(rows.Count("service_requests"), 1u);  // the dispatched solve
  EXPECT_GE(rows.Count("net_frames_received"), 5u);
  EXPECT_EQ(stats->protocol_errors, 0u);
  EXPECT_DOUBLE_EQ(rows.Gauge("net_conns_active"), 1.0);
  const MetricLabels alice = {{"tenant", "alice"}};
  EXPECT_NE(rows.Find("tenant_weight", alice), nullptr);
  EXPECT_EQ(rows.Count("tenant_admitted", alice), 2u);
  EXPECT_EQ(rows.Count("tenant_cache_hits", alice), 2u);  // solve + lookup
  EXPECT_EQ(rows.Count("tenant_dispatched", alice), 1u);
  EXPECT_EQ(rows.Count("tenant_admitted"), 2u);  // alice is the only one
  EXPECT_DOUBLE_EQ(rows.Gauge("tenant_weight", alice), 1.0);
  // Cache probes: the miss lookup, both solves' admission probes and the
  // hit lookup; the warm solve and the second lookup hit.
  EXPECT_EQ(rows.Count("service_lookups"), 4u);
  EXPECT_EQ(rows.Count("service_lookup_hits"), 2u);
  EXPECT_EQ(rows.Count("service_solves"), 1u);
  EXPECT_GT(rows.Count("service_solver_nodes"), 0u);
  EXPECT_GT(rows.Count("service_solve_wall_us"), 0u);

  const MetricSnapshot server_rows = ts.server.StatsSnapshot();
  EXPECT_EQ(server_rows.Count("net_protocol_errors"), 0u);
  EXPECT_GE(server_rows.Count("net_responses_sent"), 6u);
}

TEST(NetServer, DeadlineExceededRoundTripsTyped) {
  // The dispatched solve outlasts its deadline: the watchdog ends it at
  // 200 ms, well past the 50 ms deadline.
  TestServer ts(Watchdog(ticks::FromMillis(200)), Dispatchers(1));
  AsyncClient client;
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());

  SolveRequestMsg msg = SlowSolveMsg("alice");
  msg.deadline_micros = 50000;  // 50 ms
  auto result = client.Solve(msg);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
}

TEST(NetServer, LateSolveIsCachedBeforeItsDeadlineErrorLeaves) {
  // A solve that starts before its deadline runs to completion; the
  // request gets DEADLINE_EXCEEDED when it ends, by which time the result
  // is cached, so a LOOKUP right after finds it. The idle dispatcher has
  // the whole 80 ms deadline to pick the request up, and the solve
  // outlasts it several times over.
  TestServer ts(Workers(2), Dispatchers(1));
  AsyncClientOptions slow_solves;
  slow_solves.io_timeout = ticks::FromSeconds(120);  // sanitizer builds
  AsyncClient client(slow_solves);
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());

  SolveRequestMsg msg;
  msg.tenant = "alice";
  msg.problem_text = LongProblemText();
  msg.deadline_micros = 80000;  // 80 ms
  auto late = client.Solve(msg);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded)
      << late.status().ToString();

  LookupRequestMsg lookup;
  lookup.tenant = "alice";
  lookup.problem_text = msg.problem_text;
  auto found = client.Lookup(lookup);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_TRUE(found->found);
  EXPECT_EQ(found->summary.quality, 0) << "expected a proven-optimal result";

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->solves, 1u);
  EXPECT_EQ(stats->metrics.Count("service_deadline_exceeded"), 1u);
}

TEST(NetServer, CoalescedSolveDoesNotHoldADispatcher) {
  // Two dispatchers. S runs on one of them until the watchdog ends it; its
  // duplicate S' joins S's solve and frees the other dispatcher, which
  // then solves the quick Q while S still runs.
  service::ServiceOptions service_options = Workers(2);
  service_options.solver_watchdog = ticks::FromMillis(500);
  TestServer ts(std::move(service_options), Dispatchers(2));
  AsyncClient client;
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> order;
  auto record = [&](std::string name) {
    return [&, name](Expected<SolveResponseMsg> result) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(result.ok() ? name : name + " failed");
      cv.notify_all();
    };
  };
  client.SolveAsync(SlowSolveMsg("alice"), record("S"));
  client.SolveAsync(SlowSolveMsg("alice"), record("S'"));
  client.SolveAsync(SolveMsg("alice", 40), record("Q"));

  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return order.size() == 3; }));
  }
  EXPECT_EQ(order[0], "Q");
  EXPECT_NE(std::find(order.begin(), order.end(), "S"), order.end());
  EXPECT_NE(std::find(order.begin(), order.end(), "S'"), order.end());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->solves, 2u);
  EXPECT_EQ(stats->coalesced, 1u);
}

TEST(NetServer, ServedSolvesRunOnDispatcherThreads) {
  // One loop and two dispatchers are the whole served path: the
  // dispatchers run the solves, so the service's worker pool never
  // starts, not for a cold solve and not for a coalesced pair; and a
  // degradable deadline only gives its solve a stop time, no thread.
  RawConn conn;  // no thread of its own
  // A sanitizer runtime may start a helper thread of its own on the
  // process's first thread creation: get that out of the way first.
  std::thread([] {}).join();
  const int before = ProcessThreads();
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.StartAndConnect(&conn).ok());
  EXPECT_EQ(ProcessThreads() - before, 3);

  const auto cold = SolveFrame(SolveMsg("alice", 42), 1);
  ASSERT_TRUE(conn.SendBytes(cold.data(), cold.size()).ok());
  auto solved = conn.ReadFrame();
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_EQ(solved->type, MsgType::kSolveOk);

  SolveRequestMsg medium;
  medium.tenant = "alice";
  medium.problem_text = MediumProblemText();
  std::vector<std::uint8_t> pair = SolveFrame(medium, 2);
  const std::vector<std::uint8_t> twin = SolveFrame(medium, 3);
  pair.insert(pair.end(), twin.begin(), twin.end());
  ASSERT_TRUE(conn.SendBytes(pair.data(), pair.size()).ok());
  for (int i = 0; i < 2; ++i) {
    auto answer = conn.ReadFrame();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->type, MsgType::kSolveOk);
  }

  SolveRequestMsg degradable = SolveMsg("alice", 43);
  degradable.deadline_micros = 60'000'000;  // 60 s
  degradable.allow_degraded = true;
  const auto timed = SolveFrame(degradable, 4);
  ASSERT_TRUE(conn.SendBytes(timed.data(), timed.size()).ok());
  auto timed_answer = conn.ReadFrame();
  ASSERT_TRUE(timed_answer.ok()) << timed_answer.status().ToString();
  EXPECT_EQ(timed_answer->type, MsgType::kSolveOk);

  const MetricSnapshot stats = ts.service.metrics().Snapshot();
  EXPECT_EQ(stats.Count("service_solves"), 3u);
  EXPECT_EQ(stats.Count("service_coalesced"), 1u);
  EXPECT_EQ(ProcessThreads() - before, 3);
}

TEST(NetServer, PerTenantQueueFullRoundTripsTyped) {
  // No dispatchers and a one-deep lane: the first solve parks in the
  // tenant's queue, the second bounces with QUEUE_FULL.
  tenant::TenantSchedulerOptions tenant_options = Dispatchers(0);
  tenant_options.registry.default_config.queue_capacity = 1;
  TestServer ts(Workers(0), std::move(tenant_options));
  RawConn parked;
  ASSERT_TRUE(ts.StartAndConnect(&parked).ok());

  const auto first = SolveFrame(SolveMsg("bob", 3));
  ASSERT_TRUE(parked.SendBytes(first.data(), first.size()).ok());

  // Wait until the server has admitted the first solve into bob's lane.
  AsyncClient stats_client;
  ASSERT_TRUE(stats_client.Connect("127.0.0.1", ts.server.port()).ok());
  bool parked_visible = false;
  for (int i = 0; i < 200 && !parked_visible; ++i) {
    auto stats = stats_client.Stats();
    ASSERT_TRUE(stats.ok());
    parked_visible =
        stats->metrics.Gauge("tenant_queued", {{"tenant", "bob"}}) == 1.0;
    if (!parked_visible) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_TRUE(parked_visible);

  AsyncClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", ts.server.port()).ok());
  auto full = second.Solve(SolveMsg("bob", 4));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kWouldBlock)
      << full.status().ToString();

  // Backpressure is per-tenant: carol's solve parks in her own lane
  // instead of bouncing (submitted without waiting — with no dispatchers
  // it never answers).
  ASSERT_TRUE(second
                  .Submit(MsgType::kSolve, EncodeBody(SolveMsg("carol", 5)),
                          [](Expected<Frame>) {})
                  .ok());
  bool carol_parked = false;
  for (int i = 0; i < 200 && !carol_parked; ++i) {
    auto stats = stats_client.Stats();
    ASSERT_TRUE(stats.ok());
    carol_parked =
        stats->metrics.Gauge("tenant_queued", {{"tenant", "carol"}}) == 1.0;
    if (!carol_parked) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(carol_parked);
  auto stats = stats_client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->protocol_errors, 0u);
  EXPECT_EQ(stats->metrics.Count("tenant_rejected_queue_full",
                                 {{"tenant", "bob"}}),
            1u);
}

TEST(NetServer, AdmissionRejectionRoundTripsTyped) {
  tenant::TenantSchedulerOptions tenant_options = Dispatchers(2);
  tenant_options.registry.default_config.rate_per_sec = 0.0001;
  tenant_options.registry.default_config.burst = 1.0;
  TestServer ts(Workers(2), std::move(tenant_options));
  AsyncClient client;
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());

  auto first = client.Solve(SolveMsg("dave", 6));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  auto second = client.Solve(SolveMsg("dave", 7));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAdmissionRejected)
      << second.status().ToString();

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->metrics.Count("tenant_rejected_rate_limited",
                                 {{"tenant", "dave"}}),
            1u);
}

/// Inflates the recorded minimal latency of every entry in a saved
/// snapshot by one tick and re-seals its CRC. The snapshot stays
/// structurally legal, so it loads; only the serve-time check against the
/// problem can see that the metadata no longer matches the schedule.
void InflateSnapshotLatency(const std::string& path, Tick honest_latency) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream out;
  std::string line;
  const std::string needle = " min_latency=" + std::to_string(honest_latency);
  while (std::getline(in, line)) {
    if (line.rfind("crc ", 0) == 0) continue;  // re-sealed below
    if (line.rfind("entry ", 0) == 0) {
      const auto pos = line.find(needle);
      ASSERT_NE(pos, std::string::npos) << line;
      line.replace(pos, needle.size(),
                   " min_latency=" + std::to_string(honest_latency + 1));
    }
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

TEST(NetServer, CorruptArtifactRoundTripsTyped) {
  const std::string path = "test_net_corrupt.sscache";
  std::remove(path.c_str());
  service::ServiceOptions service_options = Workers(2);
  service_options.snapshot_path = path;
  {
    // Solve the problem once and save it to the snapshot.
    auto spec = graph::ParseProblem(ProblemText(8));
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    service::ScheduleService seed(service_options);
    service::SolveRequest request;
    request.problem =
        std::make_shared<const graph::ProblemSpec>(std::move(*spec));
    auto solved = seed.Solve(request);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    seed.Shutdown();
    InflateSnapshotLatency(path, (*solved)->min_latency);
  }
  {
    TestServer ts(service_options, Dispatchers(1));
    ASSERT_EQ(ts.service.cache().size(), 1u);
    AsyncClient client;
    ASSERT_TRUE(ts.StartAndConnect(&client).ok());

    auto result = client.Solve(SolveMsg("erin", 8));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruptArtifact)
        << result.status().ToString();
    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->metrics.Count("service_corrupt_rejected"), 1u);
    EXPECT_EQ(stats->metrics.Count("cache_invalidations"), 1u);
  }
  std::remove(path.c_str());
}

TEST(NetServer, UnknownTenantRoundTripsTyped) {
  tenant::TenantSchedulerOptions tenant_options = Dispatchers(1);
  tenant_options.registry.auto_register = false;
  TestServer ts(Workers(2), std::move(tenant_options));
  ASSERT_TRUE(ts.tenants.RegisterTenant({.name = "known"}).ok());
  AsyncClient client;
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());

  auto solve = client.Solve(SolveMsg("ghost", 9));
  ASSERT_FALSE(solve.ok());
  EXPECT_EQ(solve.status().code(), StatusCode::kNotFound);

  LookupRequestMsg lookup;
  lookup.tenant = "ghost";
  lookup.problem_text = ProblemText(9);
  auto probe = client.Lookup(lookup);
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kNotFound);

  // A registered tenant's lookup miss is found=false, NOT an error: the
  // two kNotFound sources stay distinguishable on the wire.
  lookup.tenant = "known";
  auto miss = client.Lookup(lookup);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss->found);

  // Bad text is checked before the tenant, for LOOKUP as for SOLVE: an
  // unknown tenant with bad text is MALFORMED.
  lookup.tenant = "ghost";
  lookup.problem_text = "this is not a problem\n";
  auto malformed = client.Lookup(lookup);
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);
  auto malformed_solve = client.Solve(
      {.tenant = "ghost", .problem_text = "this is not a problem\n"});
  ASSERT_FALSE(malformed_solve.ok());
  EXPECT_EQ(malformed_solve.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetServer, OverlongTenantNameIsMalformedAndStatsStillDecode) {
  // Auto-registration would otherwise let one client put a 60,000-byte
  // name into every tenant row of every STATS response.
  TestServer ts(Workers(2), Dispatchers(1));
  AsyncClient client;
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());

  LookupRequestMsg lookup;
  lookup.tenant = std::string(60'000, 'n');
  lookup.problem_text = ProblemText(9);
  auto probe = client.Lookup(lookup);
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kInvalidArgument);
  auto solve = client.Solve({.tenant = lookup.tenant,
                             .problem_text = ProblemText(9)});
  ASSERT_FALSE(solve.ok());
  EXPECT_EQ(solve.status().code(), StatusCode::kInvalidArgument);

  // Nothing was registered, and STATS still fits its frame and decodes.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->metrics.Find("tenant_weight"), nullptr);
}

TEST(NetServer, BadProblemTextIsMalformedButConnectionSurvives) {
  TestServer ts(Workers(2), Dispatchers(1));
  AsyncClient client;
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());

  SolveRequestMsg bad;
  bad.tenant = "alice";
  bad.problem_text = "this is not a problem\n";
  auto result = client.Solve(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // Content errors are per-request, not per-connection.
  auto good = client.Solve(SolveMsg("alice", 10));
  ASSERT_TRUE(good.ok()) << good.status().ToString();

  SolveRequestMsg bad_regime = SolveMsg("alice", 10);
  bad_regime.regime = 99;
  auto out_of_range = client.Solve(bad_regime);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetServer, GarbageBytesGetErrorFrameThenClose) {
  TestServer ts(Workers(0), Dispatchers(0));
  ASSERT_TRUE(ts.server.Start().ok());

  // A valid length prefix with any version byte but 2 — 1 is the retired
  // v1 layout — gets exactly one UNSUPPORTED frame (request_id 0: the
  // bytes never became a request), then the server closes the stream.
  for (const int version : {0, 1, 3, 9, 0x80, 0xFF}) {
    RawConn client;
    ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok());
    const std::uint8_t bad_version[] = {
        0x02, 0x00, 0x00, 0x00, static_cast<std::uint8_t>(version), 0x04};
    ASSERT_TRUE(client.SendBytes(bad_version, sizeof(bad_version)).ok());
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(ErrorCode(*frame), WireError::kUnsupported)
        << "version " << version;
    EXPECT_EQ(frame->request_id, 0u);
    auto closed = client.ReadFrame();
    ASSERT_FALSE(closed.ok());
    EXPECT_EQ(closed.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(ts.server.StatsSnapshot().Count("net_protocol_errors"), 6u);
}

TEST(NetServer, V1ClientIsRefusedAndV2ClientIsServed) {
  ServerOptions server_options = TestServer::FastDrain();
  server_options.loop_threads = 2;
  TestServer ts(Workers(2), Dispatchers(2), std::move(server_options));
  ASSERT_TRUE(ts.server.Start().ok());

  // A v1 client's first frame: [u32 length][u8 version=1][u8 type][body],
  // no request_id.
  const std::vector<std::uint8_t> body = EncodeBody(SolveMsg("alice", 36));
  std::vector<std::uint8_t> v1_frame;
  WireWriter w(&v1_frame);
  w.U32(static_cast<std::uint32_t>(2 + body.size()));
  w.U8(1);
  w.U8(static_cast<std::uint8_t>(MsgType::kSolve));
  v1_frame.insert(v1_frame.end(), body.begin(), body.end());

  RawConn v1;
  ASSERT_TRUE(v1.Connect("127.0.0.1", ts.server.port()).ok());
  ASSERT_TRUE(v1.SendBytes(v1_frame.data(), v1_frame.size()).ok());
  auto refused = v1.ReadFrame();
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(ErrorCode(*refused), WireError::kUnsupported);
  EXPECT_FALSE(v1.ReadFrame().ok());  // closed after the one error frame

  AsyncClient v2;
  ASSERT_TRUE(v2.Connect("127.0.0.1", ts.server.port()).ok());
  auto cold = v2.Solve(SolveMsg("alice", 36));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cache_hit);  // the refused v1 solve never ran
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(v2.Health().ok());
  auto stats = v2.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->protocol_errors, 1u);
  EXPECT_EQ(stats->metrics.Count("service_requests"), 1u);
}

TEST(NetServer, UnknownTypeAndNonEmptyHealthBodyAreRejected) {
  TestServer ts(Workers(0), Dispatchers(0));
  {
    RawConn client;
    ASSERT_TRUE(ts.StartAndConnect(&client).ok());
    // Unknown message type 42.
    const auto frame = EncodeFrame(static_cast<MsgType>(42), {});
    ASSERT_TRUE(client.SendBytes(frame.data(), frame.size()).ok());
    auto reply = client.ReadFrame();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(ErrorCode(*reply), WireError::kUnsupported);
  }
  {
    RawConn client;
    ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok());
    // Health request must have an empty body; trailing bytes are malformed.
    const auto frame = EncodeFrame(MsgType::kHealth, {0x01, 0x02});
    ASSERT_TRUE(client.SendBytes(frame.data(), frame.size()).ok());
    auto reply = client.ReadFrame();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(ErrorCode(*reply), WireError::kMalformed);
  }
}

TEST(NetServer, PartialWritesReassembleIntoOneRequest) {
  TestServer ts(Workers(2), Dispatchers(1));
  RawConn client;
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());

  // Dribble a valid solve frame a few bytes at a time across many TCP
  // segments; the incremental decoder must see exactly one request.
  const auto frame = SolveFrame(SolveMsg("alice", 11));
  for (std::size_t off = 0; off < frame.size(); off += 7) {
    const std::size_t n = std::min<std::size_t>(7, frame.size() - off);
    ASSERT_TRUE(client.SendBytes(frame.data() + off, n).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MsgType::kSolveOk);
  const MetricSnapshot server_rows = ts.server.StatsSnapshot();
  EXPECT_EQ(server_rows.Count("net_frames_received"), 1u);
  EXPECT_EQ(server_rows.Count("net_protocol_errors"), 0u);
}

TEST(NetServer, IdleConnectionsAreReaped) {
  ServerOptions options = TestServer::FastDrain();
  options.idle_timeout = ticks::FromMillis(100);
  TestServer ts(Workers(0), Dispatchers(0), std::move(options));
  RawConn idle(ticks::FromSeconds(5));
  ASSERT_TRUE(ts.server.Start().ok());
  ASSERT_TRUE(idle.Connect("127.0.0.1", ts.server.port()).ok());

  // The loop wakes at least every 250 ms; the idle close lands well
  // within the read timeout.
  auto frame = idle.ReadFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCancelled);
  AsyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->metrics.Count("net_conns_idle_closed"), 1u);
}

TEST(NetServer, ConnectionsBeyondTheCapAreClosedAndCounted) {
  ServerOptions options = TestServer::FastDrain();
  options.max_connections = 1;
  TestServer ts(Workers(0), Dispatchers(0), std::move(options));
  AsyncClient first;
  ASSERT_TRUE(ts.StartAndConnect(&first).ok());
  ASSERT_TRUE(first.Health().ok());  // adopted: one connection is open

  RawConn refused;
  ASSERT_TRUE(refused.Connect("127.0.0.1", ts.server.port()).ok());
  auto frame = refused.ReadFrame();
  ASSERT_FALSE(frame.ok());  // closed without a frame
  EXPECT_EQ(frame.status().code(), StatusCode::kCancelled);

  auto stats = first.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->metrics.Count("net_conns_overload_closed"), 1u);
  EXPECT_EQ(stats->metrics.Count("net_conns_accepted"), 1u);
}

// Regression: signals without SA_RESTART landing mid-syscall must not
// surface as spurious I/O errors. Covers connect() (EINTR leaves the
// handshake in flight; the client must wait it out via poll + SO_ERROR),
// send() restarts and the blocking verbs' wait for the reader thread.
void IgnoreSignal(int) {}

TEST(NetClient, SurvivesSignalStormDuringRoundTrips) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());

  struct sigaction action {};
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction previous {};
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  std::atomic<bool> storming{true};
  const pthread_t victim = pthread_self();
  std::thread storm([&] {
    while (storming.load(std::memory_order_acquire)) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  for (int i = 0; i < 25; ++i) {
    AsyncClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok())
        << "iteration " << i;
    auto health = client.Health();
    EXPECT_TRUE(health.ok()) << health.status().ToString();
  }
  AsyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok());
  auto solve = client.Solve(SolveMsg("alice", 13));
  EXPECT_TRUE(solve.ok()) << solve.status().ToString();

  storming.store(false, std::memory_order_release);
  storm.join();
  sigaction(SIGUSR1, &previous, nullptr);
}

// Satellite regression: a graceful drain must flush (not drop) responses
// buffered behind a slow reader before reaping the connection.
TEST(NetServer, DrainFlushesResponsesBufferedBehindSlowReader) {
  ServerOptions server_options;
  server_options.drain_timeout = ticks::FromSeconds(5);
  TestServer ts(Workers(0), Dispatchers(0), std::move(server_options));
  ASSERT_TRUE(ts.server.Start().ok());

  // Raw socket with a tiny receive buffer, set before connect so the TCP
  // window is negotiated small: pipelined responses pile up in the
  // server's out-queue instead of the kernel's.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 1024;
  ASSERT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(ts.server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  constexpr std::uint64_t kRequests = 4000;
  const auto health = EncodeFrame(MsgType::kHealth, {}, kProtocolVersion2, 1);
  std::vector<std::uint8_t> burst;
  burst.reserve(health.size() * kRequests);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    burst.insert(burst.end(), health.begin(), health.end());
  }
  std::size_t sent = 0;
  while (sent < burst.size()) {
    const ssize_t w =
        ::send(fd, burst.data() + sent, burst.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << "send failed at offset " << sent;
    sent += static_cast<std::size_t>(w);
  }
  // Every request processed and its response queued (most still buffered
  // server-side: nobody is reading yet).
  auto count = [&](std::string_view name) {
    return ts.server.StatsSnapshot().Count(name);
  };
  for (int i = 0; i < 1000 && count("net_responses_sent") < kRequests; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(count("net_frames_received"), kRequests);
  ASSERT_EQ(count("net_responses_sent"), kRequests);

  // Drain begins with a full out-queue; only then start reading, slowly.
  std::thread stopper([&] { ts.server.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  FrameDecoder decoder;
  std::uint64_t received = 0;
  std::vector<char> buf(8192);
  while (true) {
    const ssize_t r = ::recv(fd, buf.data(), buf.size(), 0);
    if (r == 0) break;  // clean EOF after the flush
    ASSERT_FALSE(r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << "drain stalled after " << received << " responses";
    if (r < 0) {
      ASSERT_EQ(errno, EINTR) << "recv: " << std::strerror(errno);
      continue;
    }
    decoder.Append(buf.data(), static_cast<std::size_t>(r));
    Frame frame;
    while (true) {
      auto ready = decoder.Next(&frame);
      ASSERT_TRUE(ready.ok()) << ready.status().ToString();
      if (!*ready) break;
      EXPECT_EQ(frame.type, MsgType::kHealthOk);
      ++received;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stopper.join();
  ::close(fd);
  EXPECT_EQ(received, kRequests);
}

// ---- AsyncClient: pipelined requests --------------------------------------

TEST(AsyncClientTest, BlockingVerbsRoundTripOverV2) {
  TestServer ts(Workers(2), Dispatchers(2));
  ASSERT_TRUE(ts.server.Start().ok());
  AsyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok());

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, "ok");

  auto cold = client.Solve(SolveMsg("alice", 31));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cache_hit);
  auto warm = client.Solve(SolveMsg("alice", 31));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->summary.fingerprint_hex, cold->summary.fingerprint_hex);

  LookupRequestMsg lookup;
  lookup.tenant = "alice";
  lookup.problem_text = ProblemText(31);
  auto hit = client.Lookup(lookup);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->found);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->protocol_errors, 0u);
  // per-loop roll-up present
  ASSERT_NE(stats->metrics.Find("net_frames_received", {{"loop", "0"}}),
            nullptr);
  const MetricRow* latency =
      stats->metrics.Find("tenant_latency_us", {{"tenant", "alice"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 2u);  // the cold and the warm solve
  EXPECT_GE(latency->p999, latency->p99);
  EXPECT_EQ(client.InFlight(), 0u);
}

TEST(AsyncClientTest, ResponsesCompleteOutOfOrder) {
  // The solve outlasts its 400 ms deadline and is answered when the
  // watchdog ends it at 450 ms, while health is answered inline;
  // request_id correlation is what lets the client pair the two responses
  // out of order.
  TestServer ts(Watchdog(ticks::FromMillis(450)), Dispatchers(1));
  ASSERT_TRUE(ts.server.Start().ok());
  AsyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok());

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> order;
  Status solve_status = OkStatus();

  SolveRequestMsg solve = SlowSolveMsg("alice");
  solve.deadline_micros = 400000;
  client.SolveAsync(solve, [&](Expected<SolveResponseMsg> result) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back("solve");
    solve_status = result.ok() ? OkStatus() : result.status();
    cv.notify_all();
  });
  client.HealthAsync([&](Expected<HealthResponseMsg> result) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(result.ok() ? "health" : "health-error");
    cv.notify_all();
  });

  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return order.size() == 2; }));
  // The health response submitted *after* the solve arrives *before* it:
  // the parked solve did not head-of-line block the connection.
  ASSERT_EQ(order[0], "health");
  ASSERT_EQ(order[1], "solve");
  EXPECT_EQ(solve_status.code(), StatusCode::kDeadlineExceeded)
      << solve_status.ToString();
}

TEST(AsyncClientTest, WindowBoundsInFlight) {
  // One dispatcher: the first solve runs until the watchdog ends it at
  // 450 ms, and the second waits in the lane behind it.
  TestServer ts(Watchdog(ticks::FromMillis(450)), Dispatchers(1));
  ASSERT_TRUE(ts.server.Start().ok());
  AsyncClientOptions options;
  options.window = 2;
  AsyncClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok());

  // Two parked solves fill the window.
  std::atomic<int> solves_done{0};
  for (int width = 5; width <= 6; ++width) {
    SolveRequestMsg solve = SlowSolveMsg("alice", width);
    solve.deadline_micros = 300000;
    client.SolveAsync(solve, [&](Expected<SolveResponseMsg>) {
      solves_done.fetch_add(1);
    });
  }
  EXPECT_EQ(client.InFlight(), 2u);

  // A third request blocks in Submit until a window slot frees (when the
  // first solve ends past its deadline), then completes normally.
  std::atomic<bool> health_done{false};
  std::thread blocked([&] {
    auto health = client.Health();
    EXPECT_TRUE(health.ok()) << health.status().ToString();
    health_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(health_done.load());
  EXPECT_EQ(client.InFlight(), 2u);
  blocked.join();
  EXPECT_TRUE(health_done.load());
  // The second solve's answer can trail the health response: its
  // dispatcher, just off a long solve, may lose the CPU for a while to the
  // loop it woke with the first answer.
  for (int i = 0; i < 3000 && solves_done.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(solves_done.load(), 2);
}

TEST(AsyncClientTest, ExpiredRequestsDropTheirLateResponses) {
  // Client-side deadline (100 ms) fires long before the server's (400 ms,
  // answered when the watchdog ends the solve at 450 ms): the request
  // completes kDeadlineExceeded locally, and the late server response is
  // dropped by request_id instead of poisoning the stream.
  TestServer ts(Watchdog(ticks::FromMillis(450)), Dispatchers(1));
  ASSERT_TRUE(ts.server.Start().ok());
  AsyncClientOptions options;
  options.io_timeout = ticks::FromMillis(100);
  AsyncClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port()).ok());

  SolveRequestMsg solve = SlowSolveMsg("alice");
  solve.deadline_micros = 400000;
  auto result = client.Solve(solve);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();

  // Wait past the server's answer so the late response actually arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_TRUE(client.connected());
  auto health = client.Health();
  EXPECT_TRUE(health.ok()) << health.status().ToString();
}

// ---- Sharded event loops -------------------------------------------------

TEST(NetMultiLoop, RoundRobinSpreadsConnectionsAndStatsRollUp) {
  ServerOptions server_options = TestServer::FastDrain();
  server_options.loop_threads = 4;
  TestServer ts(Workers(2), Dispatchers(2), std::move(server_options));
  ASSERT_TRUE(ts.server.Start().ok());

  // 8 connections over 4 loops: round-robin handoff puts exactly 2 on
  // each. A completed health round-trip proves each connection was
  // adopted by its loop (the response had to come from somewhere).
  std::vector<std::unique_ptr<AsyncClient>> clients;
  for (int i = 0; i < 8; ++i) {
    auto client = std::make_unique<AsyncClient>();
    ASSERT_TRUE(client->Connect("127.0.0.1", ts.server.port()).ok());
    auto health = client->Health();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    clients.push_back(std::move(client));
  }

  const MetricSnapshot rows = ts.server.StatsSnapshot();
  for (int i = 0; i < 4; ++i) {
    const MetricLabels loop = {{"loop", std::to_string(i)}};
    EXPECT_EQ(rows.Count("net_conns_accepted", loop), 2u) << "loop " << i;
    EXPECT_DOUBLE_EQ(rows.Gauge("net_conns_active", loop), 2.0)
        << "loop " << i;
    EXPECT_GE(rows.Count("net_frames_received", loop), 2u) << "loop " << i;
  }
  EXPECT_EQ(rows.Find("net_conns_accepted", {{"loop", "4"}}), nullptr);
  EXPECT_EQ(rows.Count("net_conns_accepted"), 8u);
  EXPECT_DOUBLE_EQ(rows.Gauge("net_conns_active"), 8.0);

  // The same roll-up is visible over the wire.
  auto stats = clients[0]->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_DOUBLE_EQ(stats->metrics.Gauge("net_conns_active"), 8.0);
  EXPECT_DOUBLE_EQ(
      stats->metrics.Gauge("net_conns_active", {{"loop", "3"}}), 2.0);
}

TEST(NetServer, FreshServerRowsMatchTheCatalogue) {
  // Every row a fresh server reports with one tenant and two loops, with
  // its labels, in order. A metric added, renamed or dropped fails here
  // until this list and the catalogue in docs/net.md follow.
  ServerOptions server_options = TestServer::FastDrain();
  server_options.loop_threads = 2;
  TestServer ts(Workers(0), Dispatchers(0), std::move(server_options));
  ASSERT_TRUE(ts.tenants.RegisterTenant({.name = "solo"}).ok());
  AsyncClient client;
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  std::vector<std::string> got;
  for (const MetricRow& row : stats->metrics.rows) {
    std::string entry = row.name;
    for (const auto& [key, value] : row.labels) {
      entry += " " + key + "=" + value;
    }
    got.push_back(entry);
    EXPECT_FALSE(row.help.empty()) << row.name;
  }
  std::vector<std::string> want = {
      "service_requests", "service_cache_hits", "service_lookups",
      "service_lookup_hits", "service_coalesced", "service_solves",
      "service_solve_failures", "service_deadline_exceeded",
      "service_queue_rejected", "service_cancelled",
      "service_corrupt_rejected", "service_degraded",
      "service_watchdog_cancellations", "service_snapshot_io_errors",
      "service_solve_wall_us", "service_solver_nodes",
      "service_solver_budget_exhausted", "cache_entries", "cache_hits",
      "cache_misses", "cache_insertions", "cache_evictions",
      "cache_invalidations", "tenant_admitted tenant=solo",
      "tenant_rejected_rate_limited tenant=solo",
      "tenant_rejected_queue_full tenant=solo", "tenant_cache_hits tenant=solo",
      "tenant_dispatched tenant=solo", "tenant_completed tenant=solo",
      "tenant_failed tenant=solo", "tenant_cancelled tenant=solo",
      "tenant_expired_in_queue tenant=solo", "tenant_latency_us tenant=solo",
      "tenant_weight tenant=solo", "tenant_queued tenant=solo"};
  for (const char* loop : {"loop=0", "loop=1"}) {
    for (const char* name :
         {"net_conns_accepted", "net_conns_active", "net_conns_idle_closed",
          "net_conns_overload_closed", "net_frames_received",
          "net_responses_sent", "net_protocol_errors", "net_shed_overload"}) {
      want.push_back(std::string(name) + " " + loop);
    }
  }
  want.push_back("net_solves_in_flight");
  want.push_back("net_uptime_s");
  EXPECT_EQ(got, want);
  EXPECT_GT(stats->metrics.Gauge("net_uptime_s"), 0.0);
}

TEST(NetMultiLoop, StopDrainsEveryLoop) {
  ServerOptions server_options = TestServer::FastDrain();
  server_options.loop_threads = 3;
  TestServer ts(Workers(2), Dispatchers(2), std::move(server_options));
  ASSERT_TRUE(ts.server.Start().ok());

  std::vector<std::unique_ptr<AsyncClient>> clients;
  for (int i = 0; i < 6; ++i) {
    auto client = std::make_unique<AsyncClient>();
    ASSERT_TRUE(client->Connect("127.0.0.1", ts.server.port()).ok());
    ASSERT_TRUE(client->Health().ok());
    clients.push_back(std::move(client));
  }
  EXPECT_DOUBLE_EQ(ts.server.StatsSnapshot().Gauge("net_conns_active"),
                   6.0);
  ts.server.Stop();
  EXPECT_TRUE(ts.server.draining());
  EXPECT_DOUBLE_EQ(ts.server.StatsSnapshot().Gauge("net_conns_active"),
                   0.0);
}

TEST(NetServer, DrainRefusesNewSolvesAndReportsDraining) {
  TestServer ts(Workers(2), Dispatchers(1));
  RawConn client;
  ASSERT_TRUE(ts.StartAndConnect(&client).ok());
  const auto solve = SolveFrame(SolveMsg("alice", 12));
  ASSERT_TRUE(client.SendBytes(solve.data(), solve.size()).ok());
  auto solved = client.ReadFrame();
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_EQ(solved->type, MsgType::kSolveOk);

  // Stop() from another thread while the connection stays open: the
  // server must finish the drain without hanging, and the client sees
  // the connection close.
  std::thread stopper([&] { ts.server.Stop(); });
  auto last = client.ReadFrame();
  EXPECT_FALSE(last.ok());  // closed (possibly after a drain window)
  stopper.join();
  EXPECT_TRUE(ts.server.draining());
}

}  // namespace
}  // namespace ss::net

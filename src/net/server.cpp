#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sync.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph_io.hpp"
#include "sched/schedule.hpp"

namespace ss::net {

namespace {

// epoll user-data ids for the two non-connection fds; connections count up
// from kFirstConnId so an id is never reused even after its fd is. Ids are
// scoped to one loop shard (each shard has its own epoll instance).
constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = 1;
constexpr std::uint64_t kFirstConnId = 2;

/// Response frames gathered into one sendmsg() per flush round. Well under
/// IOV_MAX; big enough that a pipelining window of small responses leaves
/// in one syscall.
constexpr std::size_t kWritevBatch = 64;

Status ErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

MetricSnapshot CollectMetrics(const service::ScheduleService& service,
                              const tenant::TenantScheduler& tenants,
                              const MetricsRegistry& server) {
  MetricSnapshot snap = service.metrics().Snapshot();
  snap.Append(tenants.metrics().Snapshot());
  snap.Append(server.Snapshot());
  return snap;
}

ScheduleSummary Summarize(const service::CachedSolve& solve) {
  ScheduleSummary summary;
  summary.fingerprint_hex = solve.key.ToHex();
  summary.latency = solve.schedule.Latency();
  summary.initiation_interval = solve.schedule.initiation_interval;
  summary.rotation = solve.schedule.rotation;
  summary.quality =
      solve.quality == sched::ScheduleQuality::kOptimal ? 0 : 1;
  return summary;
}

}  // namespace

// One client connection. Owned by exactly one loop thread; completion
// callbacks never touch a Conn — they post encoded frames by id into the
// owning loop's sink.
struct Server::Conn {
  Conn(std::uint64_t id_in, int fd_in, std::size_t max_frame)
      : id(id_in), fd(fd_in), decoder(max_frame) {}

  const std::uint64_t id;
  const int fd;
  FrameDecoder decoder;
  /// Pending response bytes; front frame partially written up to out_off.
  std::deque<std::vector<std::uint8_t>> outq;
  std::size_t out_off = 0;
  /// Last tick the peer made protocol progress: a complete frame decoded
  /// or response bytes accepted by its socket. Raw bytes received do NOT
  /// count — a slowloris dribbling one byte per idle window would
  /// otherwise keep a half-frame connection alive forever.
  Tick last_active = 0;
  /// Solves submitted to the tenant front end whose completions have not
  /// come back through the sink yet. A conn with pending work is never
  /// idle-closed and survives a graceful drain until its responses flush.
  int pending = 0;
  /// Close once the write queue and pending work drain (set after a
  /// protocol error so the error frame still gets out).
  bool closing = false;
  /// Hard failure (write error); close immediately.
  bool broken = false;
  bool want_write = false;
};

// Hand-off point between other threads and one loop shard. Completion
// callbacks hold it by shared_ptr, so a solve finishing after Stop() posts
// into a closed sink (dropped) instead of touching a dead Server. The
// accepting loop also routes new connections here (adopt).
struct Server::CompletionSink {
  struct Completion {
    std::uint64_t conn_id = 0;
    std::vector<std::uint8_t> frame;
  };

  Mutex mu;
  std::vector<Completion> queue SS_GUARDED_BY(mu);
  /// Accepted fds handed off by the accepting loop, waiting for this
  /// shard's loop to adopt them.
  std::vector<int> adopt SS_GUARDED_BY(mu);
  bool open SS_GUARDED_BY(mu) = true;
  /// Set once during Bind() before any other thread exists, then
  /// read-only: needs no lock.
  int event_fd = -1;

  void Post(std::uint64_t conn_id, std::vector<std::uint8_t> frame)
      SS_EXCLUDES(mu) {
    MutexLock lock(mu);
    if (!open) return;
    // One eventfd write per wakeup, not per entry: a non-empty queue means
    // a kick is already pending (or the loop is mid-iteration and will
    // swap this entry out before it sleeps again).
    if (queue.empty() && adopt.empty()) Kick();
    queue.push_back(Completion{conn_id, std::move(frame)});
  }

  /// Hands an accepted fd to this shard. False once the sink closed — the
  /// caller still owns (and must close) the fd.
  bool PostAdopt(int fd) SS_EXCLUDES(mu) {
    MutexLock lock(mu);
    if (!open) return false;
    if (queue.empty() && adopt.empty()) Kick();
    adopt.push_back(fd);
    return true;
  }

  /// Wakes the loop without enqueueing (drain signal). Touches only the
  /// immutable event_fd, so it is callable with or without mu held.
  void Kick() {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
  }

  ~CompletionSink() {
    if (event_fd >= 0) ::close(event_fd);
  }
};

class Server::Impl {
 public:
  Impl(const ServerOptions& options, service::ScheduleService* service,
       tenant::TenantScheduler* tenants, MetricsRegistry* metrics,
       std::atomic<bool>* draining)
      : options_(options),
        service_(service),
        tenants_(tenants),
        metrics_(metrics),
        draining_(draining) {
    const int loops = options_.loop_threads < 1 ? 1 : options_.loop_threads;
    shards_.reserve(static_cast<std::size_t>(loops));
    for (int i = 0; i < loops; ++i) {
      shards_.push_back(std::make_unique<Shard>());
      shards_.back()->sink = std::make_shared<CompletionSink>();
    }
  }

  ~Impl() {
    for (auto& shard : shards_) {
      CloseAll(*shard);
      if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  Expected<int> Bind() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) return ErrnoError("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return InvalidArgumentError("unparseable IPv4 listen address '" +
                                  options_.host + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return ErrnoError("bind " + options_.host + ":" +
                        std::to_string(options_.port));
    }
    if (::listen(listen_fd_, options_.backlog) != 0) {
      return ErrnoError("listen");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return ErrnoError("getsockname");
    }

    for (auto& shard : shards_) {
      shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (shard->epoll_fd < 0) return ErrnoError("epoll_create1");
      shard->sink->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (shard->sink->event_fd < 0) return ErrnoError("eventfd");
      SS_RETURN_IF_ERROR(AddFd(*shard, shard->sink->event_fd, kWakeId));
    }
    SS_RETURN_IF_ERROR(AddFd(*shards_.front(), listen_fd_, kListenId));
    start_tick_ = WallNow();
    return static_cast<int>(ntohs(bound.sin_port));
  }

  void Loop(std::size_t index) {
    Shard& s = *shards_[index];
    s.loop_thread = std::this_thread::get_id();
    std::vector<epoll_event> events(64);
    bool drain_seen = false;
    Tick drain_deadline = kTickInfinity;
    while (true) {
      const int n = ::epoll_wait(s.epoll_fd, events.data(),
                                 static_cast<int>(events.size()),
                                 /*timeout_ms=*/250);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const epoll_event& ev = events[i];
        if (ev.data.u64 == kListenId) {
          AcceptAll(s);
        } else if (ev.data.u64 == kWakeId) {
          DrainEventFd(s);
        } else {
          HandleConnEvent(s, ev.data.u64, ev.events);
        }
      }
      ProcessSinkWork(s);
      const Tick now = WallNow();
      CloseIdle(s, now);
      if (draining_->load(std::memory_order_acquire)) {
        if (!drain_seen) {
          drain_seen = true;
          drain_deadline = now + options_.drain_timeout;
          // The listener lives on shard 0; closing it is what stops new
          // connections for every shard.
          if (index == 0 && listen_fd_ >= 0) {
            ::epoll_ctl(s.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
            ::close(listen_fd_);
            listen_fd_ = -1;
          }
        }
        CloseFinished(s);
        if (s.conns.empty() || now >= drain_deadline) break;
      }
    }
    CloseAll(s);
  }

  void Kick() {
    for (auto& shard : shards_) shard->sink->Kick();
  }

  void CloseSinks() {
    for (auto& shard : shards_) {
      MutexLock lock(shard->sink->mu);
      shard->sink->open = false;
      shard->sink->queue.clear();
      // Handed-off fds the loop never adopted (it exited first).
      for (int fd : shard->sink->adopt) ::close(fd);
      shard->sink->adopt.clear();
    }
  }

  /// Registers each shard's rows and the server-wide gauges. Runs once,
  /// after a successful Bind() and before any loop starts.
  void RegisterMetrics() {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = *shards_[i];
      const MetricLabels loop = {{"loop", std::to_string(i)}};
      auto counter = [&](const char* name, const char* help) {
        return &metrics_->AddCounter(name, help, loop);
      };
      s.accepted = counter("net_conns_accepted", "connections accepted");
      metrics_->AddGauge("net_conns_active", "connections active", loop, [&s] {
        return static_cast<double>(s.active.load(std::memory_order_relaxed));
      });
      s.idle_closed =
          counter("net_conns_idle_closed", "idle connections closed");
      s.overload_closed = counter("net_conns_overload_closed",
                                  "connections refused over max_connections");
      s.frames_received = counter("net_frames_received", "frames received");
      s.responses_sent = counter("net_responses_sent", "responses sent");
      s.protocol_errors = counter("net_protocol_errors", "protocol errors");
      s.shed_overload = counter("net_shed_overload", "shed (overloaded)");
    }
    metrics_->AddGauge("net_solves_in_flight", "solves in flight", {},
                       [this] {
                         return static_cast<double>(pending_solves_.load(
                             std::memory_order_relaxed));
                       });
    metrics_->AddGauge("net_uptime_s", "uptime", {}, [this] {
      return ticks::ToSeconds(WallNow() - start_tick_);
    });
  }

 private:
  // One epoll loop and the connections it owns. Everything except `sink`
  // and the stats atomics is touched only by the owning loop thread.
  struct Shard {
    std::shared_ptr<CompletionSink> sink;
    int epoll_fd = -1;
    std::uint64_t next_conn_id = kFirstConnId;
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;

    /// The loop thread's id, set when the loop starts: solve completions
    /// that run synchronously (cache hits) are detected by comparing
    /// against it and bypass the completion sink.
    std::thread::id loop_thread;

    /// Text -> parsed problem + its fingerprint (loop-thread only, FIFO
    /// eviction): a hot problem costs one parse AND one fingerprint hash
    /// per shard, not one per request.
    struct ParsedProblem {
      std::shared_ptr<const graph::ProblemSpec> spec;
      graph::Fingerprint fingerprint;
    };
    std::unordered_map<std::string, ParsedProblem> problem_memo;
    std::deque<std::string> memo_order;

    /// Open connections: written by the owning loop, read by the accept
    /// cap and the net_conns_active row.
    std::atomic<std::uint64_t> active{0};
    /// This loop's rows in the server's registry (RegisterMetrics), bumped
    /// by the owning loop only.
    Counter* accepted = nullptr;
    Counter* frames_received = nullptr;
    Counter* responses_sent = nullptr;
    Counter* protocol_errors = nullptr;
    Counter* idle_closed = nullptr;
    Counter* overload_closed = nullptr;
    Counter* shed_overload = nullptr;
  };

  std::size_t TotalActive() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->active.load(std::memory_order_relaxed);
    }
    return total;
  }

  Status AddFd(Shard& s, int fd, std::uint64_t id) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(s.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return ErrnoError("epoll_ctl(ADD)");
    }
    return OkStatus();
  }

  void WantWrite(Shard& s, Conn& c, bool want) {
    if (c.want_write == want) return;
    c.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = c.id;
    ::epoll_ctl(s.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  }

  /// Runs on shard 0 only (it owns the listener). New connections go
  /// round-robin across shards; remote shards adopt theirs on the next
  /// eventfd wakeup.
  void AcceptAll(Shard& s) {
    while (listen_fd_ >= 0) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or transient accept failure; epoll re-notifies
      }
      // The cap is summed over shards; fds in the hand-off window are not
      // counted yet, so the bound is approximate under an accept burst.
      if (TotalActive() >= options_.max_connections) {
        s.overload_closed->Inc();
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const std::size_t target = next_accept_shard_ % shards_.size();
      ++next_accept_shard_;
      if (target == 0) {
        AdoptConn(s, fd);
      } else if (!shards_[target]->sink->PostAdopt(fd)) {
        ::close(fd);
      }
    }
  }

  /// Registers an accepted fd with this shard's epoll loop.
  void AdoptConn(Shard& s, int fd) {
    auto conn = std::make_unique<Conn>(s.next_conn_id++, fd,
                                       options_.max_frame_bytes);
    conn->last_active = WallNow();
    if (!AddFd(s, fd, conn->id).ok()) {
      ::close(fd);
      return;
    }
    s.accepted->Inc();
    s.conns.emplace(conn->id, std::move(conn));
    s.active.store(s.conns.size(), std::memory_order_relaxed);
  }

  void DrainEventFd(Shard& s) {
    std::uint64_t v = 0;
    while (::read(s.sink->event_fd, &v, sizeof(v)) ==
           static_cast<ssize_t>(sizeof(v))) {
    }
  }

  void HandleConnEvent(Shard& s, std::uint64_t id, std::uint32_t events) {
    auto it = s.conns.find(id);
    if (it == s.conns.end()) return;
    Conn& c = *it->second;
    bool alive = (events & (EPOLLHUP | EPOLLERR)) == 0;
    if (alive && (events & EPOLLIN) != 0) alive = ReadConn(s, c);
    if (alive && (events & EPOLLOUT) != 0) {
      alive = FlushConn(s, c) && !ShouldClose(c);
    }
    if (!alive) CloseConn(s, id);
  }

  /// Reads until EAGAIN, extracts and handles complete frames. Returns
  /// false when the connection must be closed now.
  bool ReadConn(Shard& s, Conn& c) {
    char buf[65536];
    while (true) {
      const ssize_t r = ::read(c.fd, buf, sizeof(buf));
      if (r > 0) {
        c.decoder.Append(buf, static_cast<std::size_t>(r));
        continue;
      }
      if (r == 0) return false;  // peer closed
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    while (!c.closing) {
      Frame frame;
      auto got = c.decoder.Next(&frame);
      if (!got.ok()) {
        // Undecodable stream (UNSUPPORTED for a foreign version byte,
        // MALFORMED otherwise): best-effort error frame (request_id 0 —
        // the bytes never became a request to correlate with), then close
        // once it and any pending responses flush.
        s.protocol_errors->Inc();
        SendError(s, c, /*request_id=*/0, c.decoder.error_code(),
                  got.status().message());
        c.closing = true;
        break;
      }
      if (!*got) break;
      // Progress = whole frames, not bytes: only a completed frame resets
      // the idle clock, so a peer dribbling a frame slower than the idle
      // window is reaped mid-frame by CloseIdle.
      c.last_active = WallNow();
      s.frames_received->Inc();
      HandleFrame(s, c, frame);
    }
    if (!FlushConn(s, c)) return false;
    return !ShouldClose(c);
  }

  void HandleFrame(Shard& s, Conn& c, const Frame& frame) {
    switch (frame.type) {
      case MsgType::kSolve:
        HandleSolve(s, c, frame);
        return;
      case MsgType::kLookup:
        HandleLookup(s, c, frame);
        return;
      case MsgType::kStats:
      case MsgType::kHealth:
        if (!frame.body.empty()) {
          s.protocol_errors->Inc();
          SendError(s, c, frame.request_id, WireError::kMalformed,
                    "stats/health requests carry no body");
          c.closing = true;
          return;
        }
        if (frame.type == MsgType::kStats) {
          HandleStats(s, c, frame.request_id);
        } else {
          HandleHealth(s, c, frame.request_id);
        }
        return;
      default:
        s.protocol_errors->Inc();
        SendError(s, c, frame.request_id, WireError::kUnsupported,
                  "unsupported message type " +
                      std::to_string(static_cast<int>(frame.type)));
        c.closing = true;
        return;
    }
  }

  /// Parses problem text / regime shared by solve and lookup. Sends the
  /// malformed-content error itself (connection stays open — the framing
  /// was fine, the payload was the client's mistake).
  bool ParseRequestProblem(Shard& s, Conn& c, std::uint64_t request_id,
                           const std::string& text, std::int32_t regime,
                           service::SolveRequest* request) {
    auto problem = ParseProblemCached(s, text);
    if (!problem.ok()) {
      SendError(s, c, request_id, WireError::kMalformed,
                "bad problem text: " + problem.status().message());
      return false;
    }
    if (regime < 0 ||
        static_cast<std::size_t>(regime) >= problem->spec->regime_count) {
      SendError(s, c, request_id, WireError::kMalformed,
                "regime " + std::to_string(regime) + " out of range (" +
                    std::to_string(problem->spec->regime_count) +
                    " regimes)");
      return false;
    }
    request->problem = problem->spec;
    request->problem_fingerprint = problem->fingerprint;
    request->has_problem_fingerprint = true;
    request->regime = RegimeId{regime};
    return true;
  }

  void HandleSolve(Shard& s, Conn& c, const Frame& frame) {
    SolveRequestMsg msg;
    Status decoded = Decode(frame.body.data(), frame.body.size(), &msg);
    if (!decoded.ok()) {
      s.protocol_errors->Inc();
      SendError(s, c, frame.request_id, WireError::kMalformed,
                decoded.message());
      c.closing = true;
      return;
    }
    if (draining_->load(std::memory_order_acquire)) {
      SendError(s, c, frame.request_id, WireError::kShuttingDown,
                "server is draining; resubmit to another replica");
      return;
    }
    // Load shedding ahead of parsing: a fast typed refusal beats unbounded
    // queueing, and the client's retry policy treats kOverloaded as
    // backoff-and-retry. Both thresholds are checked here so one
    // pipelining connection cannot occupy the whole solve budget. The
    // global gauge is shared across shards (relaxed atomic).
    const std::size_t pending_now =
        pending_solves_.load(std::memory_order_relaxed);
    if ((options_.max_inflight_per_conn > 0 &&
         c.pending >= options_.max_inflight_per_conn) ||
        (options_.max_pending_solves > 0 &&
         pending_now >= options_.max_pending_solves)) {
      s.shed_overload->Inc();
      SendError(s, c, frame.request_id, WireError::kOverloaded,
                "server overloaded (" + std::to_string(pending_now) +
                    " solves in flight); back off and retry");
      return;
    }
    service::SolveRequest request;
    if (!ParseRequestProblem(s, c, frame.request_id, msg.problem_text,
                             msg.regime, &request)) {
      return;
    }
    if (msg.deadline_micros > 0) {
      request.deadline = WallNow() + msg.deadline_micros;
    }
    request.allow_degraded = msg.allow_degraded;

    const std::uint64_t conn_id = c.id;
    const std::uint64_t request_id = frame.request_id;
    auto sink = s.sink;
    Shard* shard = &s;
    Conn* conn = &c;
    ++c.pending;
    pending_solves_.fetch_add(1, std::memory_order_relaxed);
    Status queued = tenants_->SubmitSolve(
        msg.tenant, std::move(request),
        [this, shard, conn, sink, conn_id, request_id](
            Expected<service::SolveResult> result, bool cache_hit) {
          std::vector<std::uint8_t> encoded;
          if (result.ok()) {
            SolveResponseMsg resp;
            resp.summary = Summarize(**result);
            resp.cache_hit = cache_hit;
            encoded = EncodeFrame(MsgType::kSolveOk, EncodeBody(resp),
                                  kProtocolVersion2, request_id);
          } else {
            ErrorResponseMsg err;
            err.code = WireErrorFromStatus(result.status());
            err.message = result.status().message();
            encoded = EncodeFrame(MsgType::kError, EncodeBody(err),
                                  kProtocolVersion2, request_id);
          }
          // Cache hits complete synchronously on this very loop thread,
          // still inside HandleSolve: the response goes straight onto the
          // connection's output queue, skipping the sink's mutex + eventfd
          // wakeup. `conn` is dereferenced only on that synchronous path,
          // where HandleSolve's caller keeps it alive; the enclosing read
          // pass flushes it with the rest of the batch. Dispatcher-thread
          // completions take the sink.
          if (std::this_thread::get_id() == shard->loop_thread) {
            pending_solves_.fetch_sub(1, std::memory_order_relaxed);
            if (conn->pending > 0) --conn->pending;
            conn->last_active = WallNow();
            Queue(*shard, *conn, std::move(encoded));
            return;
          }
          sink->Post(conn_id, std::move(encoded));
        });
    if (!queued.ok()) {
      // Typed refusal before the callback was captured anywhere: rate
      // limit, lane full, unknown tenant, shutdown.
      --c.pending;
      pending_solves_.fetch_sub(1, std::memory_order_relaxed);
      SendError(s, c, frame.request_id, WireErrorFromStatus(queued),
                queued.message());
    }
  }

  void HandleLookup(Shard& s, Conn& c, const Frame& frame) {
    LookupRequestMsg msg;
    Status decoded = Decode(frame.body.data(), frame.body.size(), &msg);
    if (!decoded.ok()) {
      s.protocol_errors->Inc();
      SendError(s, c, frame.request_id, WireError::kMalformed,
                decoded.message());
      c.closing = true;
      return;
    }
    // The text is checked before the tenant is resolved, as for SOLVE: an
    // unknown tenant with bad text is MALFORMED.
    service::SolveRequest request;
    if (!ParseRequestProblem(s, c, frame.request_id, msg.problem_text,
                             msg.regime, &request)) {
      return;
    }
    bool miss = false;
    auto probe = tenants_->Lookup(msg.tenant, request, &miss);
    LookupResponseMsg resp;
    if (probe.ok()) {
      resp.found = true;
      resp.summary = Summarize(**probe);
    } else if (!miss) {
      // An unknown tenant, or e.g. kCorruptArtifact on a poisoned restored
      // entry.
      SendError(s, c, frame.request_id, WireErrorFromStatus(probe.status()),
                probe.status().message());
      return;
    }
    Respond(s, c, frame.request_id, MsgType::kLookupOk, EncodeBody(resp));
  }

  void HandleStats(Shard& s, Conn& c, std::uint64_t request_id) {
    StatsResponseMsg resp;
    resp.metrics = CollectMetrics(*service_, *tenants_, *metrics_);
    Respond(s, c, request_id, MsgType::kStatsOk, EncodeBody(resp));
  }

  void HandleHealth(Shard& s, Conn& c, std::uint64_t request_id) {
    HealthResponseMsg resp;
    resp.state =
        draining_->load(std::memory_order_acquire) ? "draining" : "ok";
    resp.uptime_micros = WallNow() - start_tick_;
    Respond(s, c, request_id, MsgType::kHealthOk, EncodeBody(resp));
  }

  void SendError(Shard& s, Conn& c, std::uint64_t request_id, WireError code,
                 const std::string& message) {
    ErrorResponseMsg err;
    err.code = code;
    err.message = message;
    Respond(s, c, request_id, MsgType::kError, EncodeBody(err));
  }

  /// Queues one encoded response. Responses leave in completion order —
  /// the echoed request_id correlates them — so a parked solve never
  /// holds up an answer produced after it.
  void Queue(Shard& s, Conn& c, std::vector<std::uint8_t> frame) {
    s.responses_sent->Inc();
    c.outq.push_back(std::move(frame));
  }

  void Respond(Shard& s, Conn& c, std::uint64_t request_id, MsgType type,
               const std::vector<std::uint8_t>& body) {
    Queue(s, c, EncodeFrame(type, body, kProtocolVersion2, request_id));
  }

  /// Writes as much of the out-queue as the socket accepts, coalescing up
  /// to kWritevBatch queued frames into one sendmsg (gathered writev with
  /// MSG_NOSIGNAL); arms EPOLLOUT on a short write. Returns false on a
  /// hard write error.
  bool FlushConn(Shard& s, Conn& c) {
    if (c.broken) return false;
    while (!c.outq.empty()) {
      std::array<iovec, kWritevBatch> iov;
      std::size_t n = 0;
      std::size_t off = c.out_off;
      for (const auto& frame : c.outq) {
        if (n == kWritevBatch) break;
        iov[n].iov_base =
            const_cast<std::uint8_t*>(frame.data() + off);
        iov[n].iov_len = frame.size() - off;
        off = 0;  // only the front frame is partially written
        ++n;
      }
      msghdr mh{};
      mh.msg_iov = iov.data();
      mh.msg_iovlen = n;
      const ssize_t w = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL);
      if (w > 0) {
        // Write progress resets the idle clock: a reader draining a big
        // response slowly is alive; one that stopped reading entirely is
        // a slowloris on the response path and will be reaped.
        c.last_active = WallNow();
        std::size_t advanced = static_cast<std::size_t>(w);
        while (advanced > 0) {
          const std::size_t left = c.outq.front().size() - c.out_off;
          if (advanced < left) {
            c.out_off += advanced;
            break;
          }
          advanced -= left;
          c.out_off = 0;
          c.outq.pop_front();
        }
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        WantWrite(s, c, true);
        return true;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w == 0) continue;  // signal at the syscall boundary; no progress
      c.broken = true;
      return false;
    }
    WantWrite(s, c, false);
    return true;
  }

  bool ShouldClose(const Conn& c) const {
    return c.broken || (c.closing && c.outq.empty() && c.pending == 0);
  }

  /// Adopts handed-off connections and applies solve completions posted
  /// to this shard's sink.
  void ProcessSinkWork(Shard& s) {
    std::vector<CompletionSink::Completion> batch;
    std::vector<int> adopt;
    {
      MutexLock lock(s.sink->mu);
      batch.swap(s.sink->queue);
      adopt.swap(s.sink->adopt);
    }
    for (int fd : adopt) AdoptConn(s, fd);
    for (auto& done : batch) {
      // The solve finished whether or not its connection survived; the
      // global in-flight gauge must not leak when the client went away.
      pending_solves_.fetch_sub(1, std::memory_order_relaxed);
      auto it = s.conns.find(done.conn_id);
      if (it == s.conns.end()) continue;  // client went away; drop
      Conn& c = *it->second;
      if (c.pending > 0) --c.pending;
      c.last_active = WallNow();
      Queue(s, c, std::move(done.frame));
      if (!FlushConn(s, c) || ShouldClose(c)) CloseConn(s, done.conn_id);
    }
  }

  void CloseConn(Shard& s, std::uint64_t id) {
    auto it = s.conns.find(id);
    if (it == s.conns.end()) return;
    ::epoll_ctl(s.epoll_fd, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    s.conns.erase(it);
    s.active.store(s.conns.size(), std::memory_order_relaxed);
  }

  void CloseIdle(Shard& s, Tick now) {
    if (options_.idle_timeout >= kTickInfinity) return;
    std::vector<std::uint64_t> expired;
    for (const auto& [id, conn] : s.conns) {
      // No frame completed, no response byte accepted, nothing in flight
      // for a whole idle window: covers the classic idle peer, the
      // mid-frame slowloris (bytes trickling, frames never finishing), and
      // the reader that stopped draining its responses.
      if (conn->pending == 0 &&
          now - conn->last_active > options_.idle_timeout) {
        expired.push_back(id);
      }
    }
    for (std::uint64_t id : expired) {
      s.idle_closed->Inc();
      CloseConn(s, id);
    }
  }

  /// During drain: close every connection with nothing in flight and
  /// nothing left to flush.
  void CloseFinished(Shard& s) {
    std::vector<std::uint64_t> finished;
    for (const auto& [id, conn] : s.conns) {
      if (conn->pending == 0 && conn->outq.empty()) {
        finished.push_back(id);
      }
    }
    for (std::uint64_t id : finished) CloseConn(s, id);
  }

  void CloseAll(Shard& s) {
    for (auto& [id, conn] : s.conns) {
      if (s.epoll_fd >= 0) {
        ::epoll_ctl(s.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
      }
      ::close(conn->fd);
    }
    s.conns.clear();
    s.active.store(0, std::memory_order_relaxed);
  }

  Expected<Shard::ParsedProblem> ParseProblemCached(Shard& s,
                                                    const std::string& text) {
    auto it = s.problem_memo.find(text);
    if (it != s.problem_memo.end()) return it->second;
    auto parsed = graph::ParseProblem(text);
    if (!parsed.ok()) return parsed.status();
    Shard::ParsedProblem entry;
    entry.spec =
        std::make_shared<const graph::ProblemSpec>(std::move(*parsed));
    entry.fingerprint = graph::Fingerprint(*entry.spec);
    if (s.problem_memo.size() >= options_.problem_cache_capacity &&
        !s.memo_order.empty()) {
      s.problem_memo.erase(s.memo_order.front());
      s.memo_order.pop_front();
    }
    s.memo_order.push_back(text);
    s.problem_memo.emplace(text, entry);
    return entry;
  }

  const ServerOptions options_;
  service::ScheduleService* service_;
  tenant::TenantScheduler* tenants_;
  MetricsRegistry* metrics_;
  std::atomic<bool>* draining_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Owned by shard 0's loop after Start (accept + drain close).
  int listen_fd_ = -1;
  Tick start_tick_ = 0;
  /// Round-robin accept cursor; touched only by shard 0's loop.
  std::size_t next_accept_shard_ = 0;
  /// Solves submitted whose completions have not been processed yet,
  /// summed over all connections and shards. Relaxed atomic: shed
  /// decisions tolerate a stale read, the gauge never leaks because every
  /// increment pairs with exactly one decrement.
  std::atomic<std::size_t> pending_solves_{0};
};

Server::Server(ServerOptions options, service::ScheduleService* service,
               tenant::TenantScheduler* tenants)
    : options_(std::move(options)), service_(service), tenants_(tenants) {
  SS_CHECK(service_ != nullptr);
  SS_CHECK(tenants_ != nullptr);
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (impl_ != nullptr) {
    return FailedPreconditionError("server already started");
  }
  impl_ = std::make_unique<Impl>(options_, service_, tenants_, &metrics_,
                                 &draining_);
  auto port = impl_->Bind();
  if (!port.ok()) {
    impl_.reset();
    return port.status();
  }
  port_ = *port;
  impl_->RegisterMetrics();
  const int loops = options_.loop_threads < 1 ? 1 : options_.loop_threads;
  loops_.reserve(static_cast<std::size_t>(loops));
  for (int i = 0; i < loops; ++i) {
    loops_.emplace_back(
        [this, i] { impl_->Loop(static_cast<std::size_t>(i)); });
  }
  return OkStatus();
}

void Server::Stop() {
  if (impl_ == nullptr) return;
  draining_.store(true, std::memory_order_release);
  impl_->Kick();
  for (std::thread& t : loops_) {
    if (t.joinable()) t.join();
  }
  loops_.clear();
  impl_->CloseSinks();
}

MetricSnapshot Server::StatsSnapshot() const {
  return CollectMetrics(*service_, *tenants_, metrics_);
}

}  // namespace ss::net

#include "chaos.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace ss::net {

namespace {

constexpr std::uint64_t kNoTrigger = ~0ULL;
/// Backpressure bound on buffered-but-unforwarded bytes per direction.
constexpr std::size_t kMaxPipeBuffer = 2u << 20;

Status ErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

int SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags < 0 ? flags : ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Per-connection fault stream: plan.seed and the connection index fully
/// determine every decision (the draws happen in one fixed order).
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t index,
                      std::uint64_t salt) {
  return seed ^ ((index + 1) * 0x9E3779B97F4A7C15ULL) ^ salt;
}

}  // namespace

class ChaosProxy::Impl {
 public:
  Impl(const ChaosPlan& plan, std::string upstream_host, int upstream_port,
       std::atomic<bool>* stop)
      : plan_(plan),
        upstream_host_(std::move(upstream_host)),
        upstream_port_(upstream_port),
        stop_(stop) {}

  ~Impl() {
    CloseAllConns();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  Expected<int> Bind() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) return ErrnoError("chaos socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;  // ephemeral
    if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1) {
      return InternalError("inet_pton(127.0.0.1)");
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return ErrnoError("chaos bind");
    }
    if (::listen(listen_fd_, 64) != 0) return ErrnoError("chaos listen");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return ErrnoError("chaos getsockname");
    }
    return static_cast<int>(ntohs(bound.sin_port));
  }

  void Loop() {
    while (!stop_->load(std::memory_order_acquire)) {
      PollOnce();
      const Tick now = WallNow();
      for (auto& conn : conns_) Service(*conn, now);
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const std::unique_ptr<PConn>& c) {
                                    return c->dead;
                                  }),
                   conns_.end());
    }
    CloseAllConns();
  }

  ChaosProxyStats Stats() const {
    ChaosProxyStats stats;
    stats.connections = connections_.load(std::memory_order_relaxed);
    stats.resets = resets_.load(std::memory_order_relaxed);
    stats.flipped_bytes = flipped_bytes_.load(std::memory_order_relaxed);
    stats.stalls = stalls_.load(std::memory_order_relaxed);
    stats.delayed_chunks = delayed_chunks_.load(std::memory_order_relaxed);
    stats.upstream_connect_failures =
        connect_failures_.load(std::memory_order_relaxed);
    stats.bytes_to_server = bytes_to_server_.load(std::memory_order_relaxed);
    stats.bytes_to_client = bytes_to_client_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  struct Chunk {
    std::vector<std::uint8_t> bytes;
    Tick release = 0;
  };

  /// Passive length-prefix scanner over the raw (pre-flip) byte stream, so
  /// reset phases are aligned to real protocol frames. `frame_index` is
  /// the frame currently in progress (== frames completed so far) and
  /// `offset_in_frame` counts from 0 at its length prefix; offset 0 is
  /// exactly the boundary after the previous frame. It walks
  /// `[u32 length]`-delimited frames and never looks past the prefix.
  struct FrameTracker {
    std::uint64_t frame_index = 0;
    std::uint64_t offset_in_frame = 0;
    std::uint32_t length = 0;
    bool poisoned = false;  // insane prefix (client garbage); stop tracking

    void Observe(std::uint8_t byte) {
      if (poisoned) return;
      if (offset_in_frame < 4) {
        length |= static_cast<std::uint32_t>(byte)
                  << (8 * offset_in_frame);
      }
      ++offset_in_frame;
      if (offset_in_frame == 4 && (length < 2 || length > (1u << 21))) {
        poisoned = true;
        return;
      }
      if (offset_in_frame >= 4 &&
          offset_in_frame == 4ULL + length) {
        ++frame_index;
        offset_in_frame = 0;
        length = 0;
      }
    }
  };

  /// One forwarding direction of a proxied connection.
  struct Pipe {
    int src = -1;
    int dst = -1;
    std::deque<Chunk> pending;
    std::size_t pending_bytes = 0;
    std::size_t front_off = 0;
    std::uint64_t observed = 0;   // raw bytes read from src
    std::uint64_t forwarded = 0;  // bytes written to dst
    bool src_eof = false;
    bool eof_sent = false;
    FrameTracker tracker;
    // Scheduled faults (kNoTrigger = none for this direction).
    std::uint64_t cut_frame = kNoTrigger;  // reset in/at this frame...
    std::uint64_t cut_depth = 0;           // ...this many bytes into it
    bool cut_hit = false;
    std::uint64_t stall_at = kNoTrigger;   // pause forwarding at offset...
    Tick stall_until = -1;                 // ...until this tick (-1: unset)
    std::vector<std::uint64_t> flips;      // sorted observed offsets
    std::size_t next_flip = 0;
    std::atomic<std::uint64_t>* bytes_counter = nullptr;
  };

  struct PConn {
    int client = -1;
    int upstream = -1;
    bool upstream_connecting = false;
    Pipe c2s;
    Pipe s2c;
    bool want_reset = false;  // cut reached; reset once the prefix flushed
    bool rst = false;         // reset with SO_LINGER 0 (RST) vs clean close
    bool dead = false;
    bool dribble = false;
    std::size_t dribble_max = 7;
    bool delay = false;
    Rng timing_rng{0};  // per-chunk delay draws only
  };

  void PollOnce() {
    pfds_.clear();
    pfds_.push_back({listen_fd_, POLLIN, 0});
    for (auto& conn : conns_) {
      short client_ev = 0;
      short upstream_ev = 0;
      if (!conn->c2s.src_eof && !conn->c2s.cut_hit &&
          conn->c2s.pending_bytes < kMaxPipeBuffer &&
          !conn->upstream_connecting) {
        client_ev |= POLLIN;
      }
      if (!conn->s2c.pending.empty()) client_ev |= POLLOUT;
      if (conn->upstream >= 0) {
        if (conn->upstream_connecting) {
          upstream_ev |= POLLOUT;
        } else {
          if (!conn->s2c.src_eof && !conn->s2c.cut_hit &&
              conn->s2c.pending_bytes < kMaxPipeBuffer) {
            upstream_ev |= POLLIN;
          }
          if (!conn->c2s.pending.empty()) upstream_ev |= POLLOUT;
        }
      }
      pfds_.push_back({conn->client, client_ev, 0});
      pfds_.push_back({conn->upstream, upstream_ev, 0});
    }
    // Short, fixed timeout: delayed chunks and stall expiries are checked
    // every iteration, so the granularity of injected delays is ~this.
    const int n = ::poll(pfds_.data(), pfds_.size(), /*timeout_ms=*/5);
    if (n < 0) return;  // EINTR etc.; the loop re-polls
    if ((pfds_[0].revents & POLLIN) != 0) AcceptAll();
  }

  void AcceptAll() {
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const std::uint64_t index =
          connections_.fetch_add(1, std::memory_order_relaxed);
      auto conn = std::make_unique<PConn>();
      conn->client = fd;
      const bool accepted = InitFaults(*conn, index);
      if (!accepted) {
        // Scheduled kOnAccept reset: refuse before forwarding anything.
        ResetConn(*conn);
        continue;
      }
      if (!ConnectUpstream(*conn)) {
        connect_failures_.fetch_add(1, std::memory_order_relaxed);
        ::close(conn->client);
        continue;
      }
      conns_.push_back(std::move(conn));
    }
  }

  /// Draws every per-connection decision in a fixed order (independent of
  /// probabilities, so one plan field never shifts another's stream).
  /// Returns false when the connection is scheduled to reset on accept.
  bool InitFaults(PConn& conn, std::uint64_t index) {
    Rng rng(MixSeed(plan_.seed, index, /*salt=*/0x5eed5eedULL));
    const double reset_roll = rng.NextDouble();
    const auto phase = static_cast<ChaosResetPhase>(rng.NextBelow(4));
    const std::uint64_t cut_frame = rng.NextBelow(3);
    const std::uint64_t cut_depth = 1 + rng.NextBelow(16);
    const bool rst = rng.NextBelow(2) == 0;
    const double flip_roll = rng.NextDouble();
    const bool flip_c2s = rng.NextBelow(2) == 0;
    const int flip_budget = std::max(1, plan_.max_flips);
    const auto flip_count =
        1 + static_cast<int>(rng.NextBelow(
                static_cast<std::uint64_t>(flip_budget)));
    std::vector<std::uint64_t> flip_offsets;
    for (int i = 0; i < flip_budget; ++i) {
      flip_offsets.push_back(
          rng.NextBelow(std::max<std::uint64_t>(1, plan_.flip_window)));
    }
    const double stall_roll = rng.NextDouble();
    const double dribble_roll = rng.NextDouble();
    const std::size_t dribble_max =
        1 + rng.NextBelow(std::max<std::uint64_t>(1,
                                                  plan_.dribble_max_bytes));
    const double delay_roll = rng.NextDouble();
    conn.timing_rng = Rng(MixSeed(plan_.seed, index, /*salt=*/0x71e0ULL));

    conn.rst = plan_.reset_with_rst && rst;
    if (reset_roll < plan_.reset_prob) {
      switch (phase) {
        case ChaosResetPhase::kOnAccept:
          return false;
        case ChaosResetPhase::kMidRequest:
          conn.c2s.cut_frame = cut_frame;
          conn.c2s.cut_depth = cut_depth;
          break;
        case ChaosResetPhase::kBetweenFrames:
          // Depth 0 = the exact boundary where frame `cut_frame` begins.
          conn.c2s.cut_frame = cut_frame + 1;
          conn.c2s.cut_depth = 0;
          break;
        case ChaosResetPhase::kMidResponse:
          conn.s2c.cut_frame = cut_frame;
          conn.s2c.cut_depth = cut_depth;
          break;
      }
    }
    if (flip_roll < plan_.flip_prob) {
      Pipe& victim = flip_c2s ? conn.c2s : conn.s2c;
      flip_offsets.resize(static_cast<std::size_t>(flip_count));
      std::sort(flip_offsets.begin(), flip_offsets.end());
      flip_offsets.erase(
          std::unique(flip_offsets.begin(), flip_offsets.end()),
          flip_offsets.end());
      victim.flips = std::move(flip_offsets);
    }
    if (stall_roll < plan_.stall_prob) {
      conn.c2s.stall_at = plan_.stall_after_bytes;
      stalls_.fetch_add(1, std::memory_order_relaxed);
    }
    conn.dribble = dribble_roll < plan_.dribble_prob;
    conn.dribble_max = dribble_max;
    conn.delay = delay_roll < plan_.delay_prob;
    return true;
  }

  bool ConnectUpstream(PConn& conn) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    if (SetNonBlocking(fd) < 0) {
      ::close(fd);
      return false;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(upstream_port_));
    const std::string numeric =
        upstream_host_ == "localhost" ? "127.0.0.1" : upstream_host_;
    if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return false;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        errno != EINPROGRESS && errno != EINTR) {
      ::close(fd);
      return false;
    }
    conn.upstream = fd;
    conn.upstream_connecting = true;
    conn.c2s.src = conn.client;
    conn.c2s.dst = fd;
    conn.c2s.bytes_counter = &bytes_to_server_;
    conn.s2c.src = fd;
    conn.s2c.dst = conn.client;
    conn.s2c.bytes_counter = &bytes_to_client_;
    return true;
  }

  /// Per-iteration work for one connection: finish the upstream connect,
  /// pump both directions, then apply reset/EOF transitions.
  void Service(PConn& conn, Tick now) {
    if (conn.dead) return;
    if (conn.upstream_connecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      pollfd probe{conn.upstream, POLLOUT, 0};
      if (::poll(&probe, 1, 0) > 0 && (probe.revents & POLLOUT) != 0) {
        if (::getsockopt(conn.upstream, SOL_SOCKET, SO_ERROR, &err, &len) !=
                0 ||
            err != 0) {
          connect_failures_.fetch_add(1, std::memory_order_relaxed);
          CloseConn(conn);
          return;
        }
        conn.upstream_connecting = false;
      } else if ((probe.revents & (POLLERR | POLLHUP)) != 0) {
        connect_failures_.fetch_add(1, std::memory_order_relaxed);
        CloseConn(conn);
        return;
      }
    }
    if (!conn.upstream_connecting) {
      if (!PumpRead(conn, conn.c2s, now) || !PumpRead(conn, conn.s2c, now) ||
          !FlushPipe(conn, conn.c2s, now) ||
          !FlushPipe(conn, conn.s2c, now)) {
        CloseConn(conn);
        return;
      }
    }
    if (conn.want_reset) {
      const Pipe& cut =
          conn.c2s.cut_hit ? conn.c2s : conn.s2c;
      if (cut.pending.empty()) {
        ResetConn(conn);
        conn.dead = true;
        return;
      }
    }
    for (Pipe* pipe : {&conn.c2s, &conn.s2c}) {
      if (pipe->src_eof && pipe->pending.empty() && !pipe->eof_sent &&
          !conn.want_reset) {
        ::shutdown(pipe->dst, SHUT_WR);
        pipe->eof_sent = true;
      }
    }
    if (conn.c2s.eof_sent && conn.s2c.eof_sent) {
      CloseConn(conn);
    }
  }

  /// Reads available bytes, runs the frame tracker over the raw stream,
  /// applies flips/cuts, and appends the survivors to the pending queue.
  /// Returns false on a hard error.
  bool PumpRead(PConn& conn, Pipe& pipe, Tick now) {
    if (pipe.src_eof || pipe.cut_hit ||
        pipe.pending_bytes >= kMaxPipeBuffer) {
      return true;
    }
    std::uint8_t buf[16384];
    while (pipe.pending_bytes < kMaxPipeBuffer) {
      const ssize_t r = ::recv(pipe.src, buf, sizeof(buf), 0);
      if (r == 0) {
        pipe.src_eof = true;
        return true;
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;
      }
      Chunk chunk;
      chunk.release = now;
      if (conn.delay && plan_.max_delay > 0) {
        const Tick wait = static_cast<Tick>(conn.timing_rng.NextBelow(
            static_cast<std::uint64_t>(plan_.max_delay) + 1));
        if (wait > 0) {
          chunk.release = now + wait;
          delayed_chunks_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      chunk.bytes.reserve(static_cast<std::size_t>(r));
      for (ssize_t i = 0; i < r; ++i) {
        // The cut trigger fires on the raw stream *before* the byte is
        // forwarded, so "depth d into frame f" means exactly d bytes of
        // frame f get through.
        if (pipe.cut_frame != kNoTrigger && !pipe.tracker.poisoned &&
            pipe.tracker.frame_index == pipe.cut_frame &&
            pipe.tracker.offset_in_frame == pipe.cut_depth) {
          pipe.cut_hit = true;
          conn.want_reset = true;
          break;
        }
        std::uint8_t byte = buf[i];
        pipe.tracker.Observe(byte);
        if (pipe.next_flip < pipe.flips.size() &&
            pipe.observed == pipe.flips[pipe.next_flip]) {
          byte ^= static_cast<std::uint8_t>(0x20u << (pipe.next_flip % 3));
          ++pipe.next_flip;
          flipped_bytes_.fetch_add(1, std::memory_order_relaxed);
        }
        ++pipe.observed;
        chunk.bytes.push_back(byte);
      }
      if (!chunk.bytes.empty()) {
        pipe.pending_bytes += chunk.bytes.size();
        pipe.pending.push_back(std::move(chunk));
      }
      if (pipe.cut_hit) return true;
    }
    return true;
  }

  /// Writes released pending bytes to dst, honoring stalls and dribbling.
  /// Returns false on a hard error.
  bool FlushPipe(PConn& conn, Pipe& pipe, Tick now) {
    while (!pipe.pending.empty()) {
      // Slowloris stall: freeze forwarding at the scheduled offset —
      // mid-frame for any real request — until the stall expires (possibly
      // never; the upstream's idle reaping has to end the connection).
      if (pipe.stall_at != kNoTrigger && pipe.forwarded >= pipe.stall_at) {
        if (pipe.stall_until < 0) {
          pipe.stall_until = plan_.stall_duration >= kTickInfinity
                                 ? kTickInfinity
                                 : now + plan_.stall_duration;
        }
        if (now < pipe.stall_until) return true;
        pipe.stall_at = kNoTrigger;  // stall served; resume
      }
      Chunk& front = pipe.pending.front();
      if (front.release > now) return true;
      std::size_t limit = front.bytes.size() - pipe.front_off;
      if (conn.dribble) limit = std::min(limit, conn.dribble_max);
      if (pipe.stall_at != kNoTrigger && pipe.forwarded < pipe.stall_at) {
        limit = std::min<std::uint64_t>(limit, pipe.stall_at - pipe.forwarded);
      }
      const ssize_t w = ::send(pipe.dst, front.bytes.data() + pipe.front_off,
                               limit, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;
      }
      pipe.front_off += static_cast<std::size_t>(w);
      pipe.forwarded += static_cast<std::uint64_t>(w);
      pipe.pending_bytes -= static_cast<std::size_t>(w);
      if (pipe.bytes_counter != nullptr) {
        pipe.bytes_counter->fetch_add(static_cast<std::uint64_t>(w),
                                      std::memory_order_relaxed);
      }
      if (pipe.front_off == front.bytes.size()) {
        pipe.pending.pop_front();
        pipe.front_off = 0;
      }
      // One dribble-sized write per iteration keeps torn boundaries torn
      // (back-to-back sends would coalesce in the socket buffer).
      if (conn.dribble) return true;
    }
    return true;
  }

  void ResetConn(PConn& conn) {
    resets_.fetch_add(1, std::memory_order_relaxed);
    if (conn.rst && conn.client >= 0) {
      linger lin{1, 0};
      ::setsockopt(conn.client, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
    }
    if (conn.rst && conn.upstream >= 0) {
      linger lin{1, 0};
      ::setsockopt(conn.upstream, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
    }
    CloseConn(conn);
  }

  void CloseConn(PConn& conn) {
    if (conn.client >= 0) ::close(conn.client);
    if (conn.upstream >= 0) ::close(conn.upstream);
    conn.client = -1;
    conn.upstream = -1;
    conn.dead = true;
  }

  void CloseAllConns() {
    for (auto& conn : conns_) {
      if (!conn->dead) CloseConn(*conn);
    }
    conns_.clear();
  }

  const ChaosPlan plan_;
  const std::string upstream_host_;
  const int upstream_port_;
  std::atomic<bool>* stop_;

  int listen_fd_ = -1;
  std::vector<std::unique_ptr<PConn>> conns_;
  std::vector<pollfd> pfds_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> flipped_bytes_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> delayed_chunks_{0};
  std::atomic<std::uint64_t> connect_failures_{0};
  std::atomic<std::uint64_t> bytes_to_server_{0};
  std::atomic<std::uint64_t> bytes_to_client_{0};
};

ChaosProxy::ChaosProxy(ChaosPlan plan, std::string upstream_host,
                       int upstream_port)
    : plan_(plan),
      upstream_host_(std::move(upstream_host)),
      upstream_port_(upstream_port) {}

ChaosProxy::~ChaosProxy() { Stop(); }

Status ChaosProxy::Start() {
  if (impl_ != nullptr) {
    return FailedPreconditionError("chaos proxy already started");
  }
  impl_ = std::make_unique<Impl>(plan_, upstream_host_, upstream_port_,
                                 &stop_);
  auto port = impl_->Bind();
  if (!port.ok()) {
    impl_.reset();
    return port.status();
  }
  port_ = *port;
  thread_ = std::thread([this] { impl_->Loop(); });
  return OkStatus();
}

void ChaosProxy::Stop() {
  if (impl_ == nullptr) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

ChaosProxyStats ChaosProxy::Stats() const {
  return impl_ != nullptr ? impl_->Stats() : ChaosProxyStats{};
}

}  // namespace ss::net

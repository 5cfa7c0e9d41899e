#include "net/async_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

namespace ss::net {

namespace {

Status ErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

/// Finishes a connect() interrupted by a signal. POSIX keeps the three-way
/// handshake running after EINTR, so the only correct continuation is to
/// wait for writability and read the final result from SO_ERROR —
/// reissuing connect() would race the in-flight attempt and failing
/// outright turns every signal into a spurious I/O error.
Status AwaitConnect(int fd, Tick timeout) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLOUT;
  const Tick give_up = WallNow() + timeout;
  while (true) {
    const Tick remaining = give_up - WallNow();
    if (remaining <= 0) return DeadlineExceededError("connect timed out");
    const int n = ::poll(&pfd, 1, static_cast<int>(remaining / 1000 + 1));
    if (n > 0) break;
    if (n == 0) return DeadlineExceededError("connect timed out");
    if (errno == EINTR) continue;  // restart the wait, same deadline
    return ErrnoError("poll(connect)");
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return ErrnoError("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    return InternalError(std::string("connect: ") + std::strerror(err));
  }
  return OkStatus();
}

/// Decodes a completed response frame into the expected message type; a
/// kError frame becomes its typed Status.
template <typename Msg>
Expected<Msg> DecodeTyped(const Frame& frame, MsgType want) {
  if (frame.type == MsgType::kError) {
    ErrorResponseMsg err;
    Status decoded = Decode(frame.body.data(), frame.body.size(), &err);
    if (!decoded.ok()) return decoded;
    return StatusFromWireError(err.code, err.message);
  }
  if (frame.type != want) {
    return Status(InternalError(
        "unexpected response type " +
        std::to_string(static_cast<int>(frame.type)) + " (wanted " +
        std::to_string(static_cast<int>(want)) + ")"));
  }
  Msg msg;
  SS_RETURN_IF_ERROR(Decode(frame.body.data(), frame.body.size(), &msg));
  return msg;
}

}  // namespace

Expected<int> ConnectTcp(const std::string& host, int port, Tick io_timeout) {
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("unparseable IPv4 address '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoError("socket");
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(io_timeout / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(io_timeout % 1'000'000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    // EINTR leaves the handshake running in the background; wait it out
    // instead of surfacing a spurious error (see AwaitConnect).
    const Status failed =
        errno == EINTR
            ? AwaitConnect(fd, io_timeout)
            : ErrnoError("connect " + host + ":" + std::to_string(port));
    if (!failed.ok()) {
      ::close(fd);
      return failed;
    }
  }
  return fd;
}

Status SendAll(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t w = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    // send() returning 0 without an errno means no progress (seen when a
    // signal lands at the exact syscall boundary); retrying is the only
    // move that neither drops bytes nor invents a stale-errno error.
    if (w == 0 || errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return DeadlineExceededError("send timed out");
    }
    return ErrnoError("send");
  }
  return OkStatus();
}

AsyncClient::~AsyncClient() { Close(); }

Status AsyncClient::Connect(const std::string& host, int port) {
  Close();
  auto fd = ConnectTcp(host, port, options_.io_timeout);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  {
    MutexLock lock(mu_);
    closing_ = false;
    broken_ = false;
    broken_status_ = OkStatus();
  }
  {
    MutexLock lock(send_mu_);
    corked_ = false;
    cork_buf_.clear();
  }
  cork_dirty_.store(false, std::memory_order_release);
  broken_flag_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  reader_ = std::thread([this] { ReaderLoop(); });
  return OkStatus();
}

void AsyncClient::Close() {
  {
    MutexLock lock(mu_);
    closing_ = true;
    slots_cv_.NotifyAll();
  }
  // Wake the reader out of poll/recv; it fails the remaining requests
  // with "server closed" or we sweep them below.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  {
    // Never-flushed corked frames die with the connection; their pending
    // entries are failed just below.
    MutexLock lock(send_mu_);
    corked_ = false;
    cork_buf_.clear();
  }
  cork_dirty_.store(false, std::memory_order_release);
  FailAll(CancelledError("client closed"));
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

Status AsyncClient::Submit(MsgType type, const std::vector<std::uint8_t>& body,
                           Completion done) {
  std::uint64_t id = 0;
  const std::size_t window =
      static_cast<std::size_t>(options_.window < 1 ? 1 : options_.window);
  for (;;) {
    bool need_flush = false;
    {
      MutexLock lock(mu_);
      if (!running_.load(std::memory_order_acquire)) {
        return FailedPreconditionError("async client is not connected");
      }
      // The window-wait also breaks when corked frames are buffered: the
      // requests this window is waiting on may still be sitting in the
      // cork buffer, so they must hit the wire before sleeping.
      while (!broken_ && !closing_ && pending_.size() >= window &&
             !cork_dirty_.load(std::memory_order_acquire)) {
        slots_cv_.Wait(lock);
      }
      if (broken_) return broken_status_;
      if (closing_) return CancelledError("async client is closing");
      if (pending_.size() >= window) {
        need_flush = true;
      } else {
        id = next_id_++;
        Pending p;
        p.deadline = WallNow() + options_.io_timeout;
        p.done = std::move(done);
        pending_.emplace(id, std::move(p));
      }
    }
    if (!need_flush) break;
    if (Status flushed = FlushCork(); !flushed.ok()) return flushed;
  }

  const std::vector<std::uint8_t> encoded =
      EncodeFrame(type, body, kProtocolVersion2, id);
  Status sent;
  {
    MutexLock lock(send_mu_);
    if (corked_) {
      cork_buf_.insert(cork_buf_.end(), encoded.begin(), encoded.end());
      cork_dirty_.store(true, std::memory_order_release);
      return OkStatus();
    }
    sent = SendAll(fd_, encoded.data(), encoded.size());
  }
  if (sent.ok()) return OkStatus();

  // The send failed, possibly mid-frame: the stream is desynchronized, so
  // the whole connection is done. Reclaim this request's callback (it must
  // not run — Submit is returning the error) and fail the rest. If the
  // reader already completed this id (it failed everything first), the
  // callback owns the outcome and Submit reports success.
  bool mine = false;
  std::vector<Completion> rest;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      mine = true;
      pending_.erase(it);
    }
    if (!broken_) {
      broken_ = true;
      broken_status_ = sent;
      broken_flag_.store(true, std::memory_order_release);
    }
    rest.reserve(pending_.size());
    for (auto& [unused_id, p] : pending_) rest.push_back(std::move(p.done));
    pending_.clear();
    slots_cv_.NotifyAll();
  }
  for (Completion& cb : rest) cb(Status(sent));
  return mine ? sent : OkStatus();
}

void AsyncClient::Cork() {
  MutexLock lock(send_mu_);
  corked_ = true;
}

Status AsyncClient::Uncork() {
  {
    MutexLock lock(send_mu_);
    corked_ = false;
  }
  return FlushCork();
}

Status AsyncClient::FlushCork() {
  Status sent = OkStatus();
  {
    MutexLock lock(send_mu_);
    if (cork_buf_.empty()) return OkStatus();
    sent = SendAll(fd_, cork_buf_.data(), cork_buf_.size());
    cork_buf_.clear();
    cork_dirty_.store(false, std::memory_order_release);
  }
  // A failed batch send desynchronizes the stream and its frames are not
  // individually attributable: fail everything in flight.
  if (!sent.ok()) FailAll(sent);
  return sent;
}

void AsyncClient::ReaderLoop() {
  FrameDecoder decoder(kMaxFrameBytes);
  std::vector<char> buf(65536);
  const int fd = fd_;
  while (true) {
    {
      MutexLock lock(mu_);
      if (closing_ || broken_) return;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (pr < 0 && errno != EINTR) {
      FailAll(InternalError(std::string("poll: ") + std::strerror(errno)));
      return;
    }
    ExpireDeadlines(WallNow());
    if (pr <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    bool peer_closed = false;
    while (true) {
      const ssize_t r = ::recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (r > 0) {
        decoder.Append(buf.data(), static_cast<std::size_t>(r));
        continue;
      }
      if (r == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      FailAll(InternalError(std::string("recv: ") + std::strerror(errno)));
      return;
    }
    while (true) {
      Frame frame;
      auto got = decoder.Next(&frame);
      if (!got.ok()) {
        // Undecodable response stream: the decoder's typed failure,
        // applied to everything in flight.
        FailAll(got.status());
        return;
      }
      if (!*got) break;
      DispatchFrame(std::move(frame));
      if (broken_flag_.load(std::memory_order_acquire)) return;
    }
    if (peer_closed) {
      FailAll(CancelledError("server closed the connection"));
      return;
    }
  }
}

void AsyncClient::DispatchFrame(Frame frame) {
  if (frame.request_id == 0) {
    // Uncorrelated frame. The server only sends these for
    // connection-level failures (an undecodable request stream); whatever
    // it says applies to every request in flight.
    Status poison = InternalError("uncorrelated response frame type " +
                                  std::to_string(static_cast<int>(frame.type)));
    if (frame.type == MsgType::kError) {
      ErrorResponseMsg err;
      if (Decode(frame.body.data(), frame.body.size(), &err).ok()) {
        poison = StatusFromWireError(err.code, err.message);
      }
    }
    FailAll(poison);
    return;
  }
  Completion done;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(frame.request_id);
    if (it == pending_.end()) return;  // late response past its deadline
    done = std::move(it->second.done);
    pending_.erase(it);
    slots_cv_.NotifyAll();
  }
  done(std::move(frame));
}

void AsyncClient::ExpireDeadlines(Tick now) {
  std::vector<Completion> expired;
  {
    MutexLock lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.deadline <= now) {
        expired.push_back(std::move(it->second.done));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    if (!expired.empty()) slots_cv_.NotifyAll();
  }
  for (Completion& cb : expired) {
    cb(Status(DeadlineExceededError("request deadline exceeded in flight")));
  }
}

void AsyncClient::FailAll(const Status& status) {
  std::vector<Completion> failed;
  {
    MutexLock lock(mu_);
    if (!broken_) {
      broken_ = true;
      broken_status_ = status;
      broken_flag_.store(true, std::memory_order_release);
    }
    failed.reserve(pending_.size());
    for (auto& [unused_id, p] : pending_) failed.push_back(std::move(p.done));
    pending_.clear();
    slots_cv_.NotifyAll();
  }
  for (Completion& cb : failed) cb(Status(status));
}

std::size_t AsyncClient::InFlight() const {
  MutexLock lock(mu_);
  return pending_.size();
}

void AsyncClient::SolveAsync(
    const SolveRequestMsg& request,
    std::function<void(Expected<SolveResponseMsg>)> done) {
  Status queued = Submit(
      MsgType::kSolve, EncodeBody(request),
      [done](Expected<Frame> frame) {
        if (!frame.ok()) {
          done(frame.status());
          return;
        }
        done(DecodeTyped<SolveResponseMsg>(*frame, MsgType::kSolveOk));
      });
  if (!queued.ok()) done(std::move(queued));
}

void AsyncClient::LookupAsync(
    const LookupRequestMsg& request,
    std::function<void(Expected<LookupResponseMsg>)> done) {
  Status queued = Submit(
      MsgType::kLookup, EncodeBody(request),
      [done](Expected<Frame> frame) {
        if (!frame.ok()) {
          done(frame.status());
          return;
        }
        done(DecodeTyped<LookupResponseMsg>(*frame, MsgType::kLookupOk));
      });
  if (!queued.ok()) done(std::move(queued));
}

void AsyncClient::HealthAsync(
    std::function<void(Expected<HealthResponseMsg>)> done) {
  Status queued = Submit(
      MsgType::kHealth, {},
      [done](Expected<Frame> frame) {
        if (!frame.ok()) {
          done(frame.status());
          return;
        }
        done(DecodeTyped<HealthResponseMsg>(*frame, MsgType::kHealthOk));
      });
  if (!queued.ok()) done(std::move(queued));
}

template <typename Msg>
Expected<Msg> AsyncClient::CallBlocking(MsgType type, MsgType want,
                                        const std::vector<std::uint8_t>& body) {
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool done SS_GUARDED_BY(mu) = false;
    std::optional<Expected<Msg>> result SS_GUARDED_BY(mu);
  };
  auto waiter = std::make_shared<Waiter>();
  Status queued =
      Submit(type, body, [waiter, want](Expected<Frame> frame) {
        Expected<Msg> typed = frame.ok() ? DecodeTyped<Msg>(*frame, want)
                                         : Expected<Msg>(frame.status());
        MutexLock lock(waiter->mu);
        waiter->result = std::move(typed);
        waiter->done = true;
        waiter->cv.NotifyAll();
      });
  if (!queued.ok()) return queued;
  MutexLock lock(waiter->mu);
  while (!waiter->done) waiter->cv.Wait(lock);
  return std::move(*waiter->result);
}

Expected<SolveResponseMsg> AsyncClient::Solve(const SolveRequestMsg& request) {
  return CallBlocking<SolveResponseMsg>(MsgType::kSolve, MsgType::kSolveOk,
                                        EncodeBody(request));
}

Expected<LookupResponseMsg> AsyncClient::Lookup(
    const LookupRequestMsg& request) {
  return CallBlocking<LookupResponseMsg>(MsgType::kLookup, MsgType::kLookupOk,
                                         EncodeBody(request));
}

Expected<StatsResponseMsg> AsyncClient::Stats() {
  return CallBlocking<StatsResponseMsg>(MsgType::kStats, MsgType::kStatsOk,
                                        {});
}

Expected<HealthResponseMsg> AsyncClient::Health() {
  return CallBlocking<HealthResponseMsg>(MsgType::kHealth, MsgType::kHealthOk,
                                         {});
}

}  // namespace ss::net

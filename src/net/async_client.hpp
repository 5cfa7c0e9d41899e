// The protocol client: many requests in flight on one connection.
//
// Every request is framed with a fresh nonzero request_id;
// the server echoes the id, so responses complete out of order and a slow
// cold solve never holds up the cache hits pipelined behind it. One reader
// thread owns the receive side and finishes requests as their responses
// arrive: via callback (SubmitAsync verbs) or by waking the blocking
// wrapper verbs, which submit and wait.
//
// Flow control is a bounded in-flight window: Submit blocks while
// `window` requests are outstanding, so a fast producer cannot queue
// unbounded state client-side (the server's per-connection cap is the
// matching server-side bound). Every request carries a deadline
// (io_timeout); the reader expires overdue requests with
// kDeadlineExceeded and drops their responses if they arrive late.
//
// Completion contract: the completion callback runs exactly once if and
// only if Submit returned OK — with the response frame, a typed error
// (kError mapped via StatusFromWireError), kDeadlineExceeded on expiry,
// or the connection-level failure when the stream dies (server close,
// undecodable bytes, Close()). If Submit returns an error, the callback
// never runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/error.hpp"
#include "core/sync.hpp"
#include "core/time.hpp"
#include "net/protocol.hpp"

namespace ss::net {

/// Opens a TCP connection to an IPv4 address ("localhost" is accepted as
/// 127.0.0.1) with TCP_NODELAY and `io_timeout` as the socket's send and
/// receive timeouts. A connect() interrupted by a signal is waited out,
/// not failed. The caller owns the returned fd.
Expected<int> ConnectTcp(const std::string& host, int port, Tick io_timeout);

/// Writes all `size` bytes to `fd`, restarting after signals;
/// kDeadlineExceeded once the socket's send timeout expires.
Status SendAll(int fd, const void* data, std::size_t size);

struct AsyncClientOptions {
  /// Per-request deadline: requests still pending this long after submit
  /// complete with kDeadlineExceeded. Also bounds each send syscall.
  Tick io_timeout = ticks::FromSeconds(30);
  /// Max requests in flight; Submit blocks while the window is full.
  int window = 64;
};

class AsyncClient {
 public:
  /// Receives the raw response frame, or the typed failure. Invoked on
  /// the reader thread (or the submitting thread for connection-level
  /// failures discovered during send) — keep it quick and do not call
  /// blocking AsyncClient verbs from inside it.
  using Completion = std::function<void(Expected<Frame>)>;

  AsyncClient() = default;
  explicit AsyncClient(AsyncClientOptions options) : options_(options) {}
  ~AsyncClient();

  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  /// Connects (IPv4, TCP_NODELAY) and starts the reader thread. Closes
  /// any previous connection first.
  Status Connect(const std::string& host, int port);
  /// Connected and the stream has not failed. After a connection-level
  /// failure every pending request has been completed and this returns
  /// false until the next Connect.
  bool connected() const {
    return running_.load(std::memory_order_acquire) &&
           !broken_flag_.load(std::memory_order_acquire);
  }
  /// Fails all pending requests with kCancelled, joins the reader,
  /// closes the socket. Idempotent.
  void Close();

  /// Sends one request frame; `done` completes it later (see the
  /// completion contract above). Blocks while the in-flight window is
  /// full. Errors: kFailedPrecondition (not connected), kCancelled
  /// (closing / stream already failed), or the send failure.
  Status Submit(MsgType type, const std::vector<std::uint8_t>& body,
                Completion done);

  /// Write coalescing. Between Cork() and Uncork(), Submit buffers each
  /// encoded frame instead of paying a send syscall per request; Uncork()
  /// pushes the whole batch to the wire with one send. A Submit that must
  /// wait for a window slot flushes the buffer first — the buffered
  /// frames may be the very requests the window is waiting on, so they
  /// can never deadlock behind it. A send failure while flushing poisons
  /// the stream and fails everything in flight (the frames of a batch are
  /// not individually attributable). Cork state serves one submitting
  /// thread; concurrent Submit callers are safe but defeat the batching.
  void Cork();
  Status Uncork();

  /// Callback flavors of the verbs. Unlike Submit, a submit-side failure
  /// is delivered through `done` (exactly one invocation either way).
  void SolveAsync(const SolveRequestMsg& request,
                  std::function<void(Expected<SolveResponseMsg>)> done);
  void LookupAsync(const LookupRequestMsg& request,
                   std::function<void(Expected<LookupResponseMsg>)> done);
  void HealthAsync(std::function<void(Expected<HealthResponseMsg>)> done);

  /// Blocking wrappers: submit, then wait for the completion. Other
  /// requests may complete while one waits — these are safe to interleave
  /// with SubmitAsync traffic from other threads.
  Expected<SolveResponseMsg> Solve(const SolveRequestMsg& request);
  Expected<LookupResponseMsg> Lookup(const LookupRequestMsg& request);
  Expected<StatsResponseMsg> Stats();
  Expected<HealthResponseMsg> Health();

  /// Requests currently in flight (submitted, not yet completed).
  std::size_t InFlight() const;

 private:
  struct Pending {
    Tick deadline = 0;
    Completion done;
  };

  /// Sends the cork buffer (one syscall for the whole batch) and clears
  /// it; on failure poisons the stream via FailAll. OK when empty.
  Status FlushCork();

  void ReaderLoop();
  /// Completes one correlated response; drops ids nobody is waiting on
  /// (a late response past its deadline).
  void DispatchFrame(Frame frame);
  /// Completes requests whose deadline passed with kDeadlineExceeded.
  void ExpireDeadlines(Tick now);
  /// Connection-level failure: completes every pending request with
  /// `status` and marks the stream broken.
  void FailAll(const Status& status);

  template <typename Msg>
  Expected<Msg> CallBlocking(MsgType type, MsgType want,
                             const std::vector<std::uint8_t>& body);

  AsyncClientOptions options_;
  /// The connected socket; -1 when closed. Written only by Connect and
  /// Close, which the reader thread never overlaps.
  int fd_ = -1;
  std::thread reader_;
  std::atomic<bool> running_{false};
  std::atomic<bool> broken_flag_{false};

  /// Serializes writers so pipelined frames never interleave mid-frame.
  Mutex send_mu_;
  bool corked_ SS_GUARDED_BY(send_mu_) = false;
  /// Encoded frames buffered while corked, contiguous and send-ready.
  std::vector<std::uint8_t> cork_buf_ SS_GUARDED_BY(send_mu_);
  /// Mirrors !cork_buf_.empty() for the window-wait flush valve, which
  /// must peek without taking send_mu_ inside mu_.
  std::atomic<bool> cork_dirty_{false};

  mutable Mutex mu_;
  CondVar slots_cv_;
  std::unordered_map<std::uint64_t, Pending> pending_ SS_GUARDED_BY(mu_);
  /// 0 is reserved: the server uses request_id 0 for uncorrelated frames
  /// (a connection-level error for an undecodable stream).
  std::uint64_t next_id_ SS_GUARDED_BY(mu_) = 1;
  bool closing_ SS_GUARDED_BY(mu_) = false;
  bool broken_ SS_GUARDED_BY(mu_) = false;
  Status broken_status_ SS_GUARDED_BY(mu_);
};

}  // namespace ss::net

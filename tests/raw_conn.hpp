// Raw protocol access over one blocking TCP connection.
//
// No framing policy of its own: SendBytes writes whatever it is given and
// ReadFrame blocks for the next whole frame the server sends back. The
// protocol tests push malformed prefixes, forged version bytes, dribbled
// frames and parked requests through it; bench/loadgen's one-request-per-
// round-trip baseline sends v2 frames through it. The library that builds
// it (ss_raw_conn) is linked by the tests and the load generator only.
#pragma once

#include <cstddef>
#include <string>

#include "core/error.hpp"
#include "core/time.hpp"
#include "net/protocol.hpp"

namespace ss::net {

class RawConn {
 public:
  /// `io_timeout` bounds each send and receive (socket timeouts).
  explicit RawConn(Tick io_timeout = ticks::FromSeconds(30))
      : io_timeout_(io_timeout) {}
  ~RawConn() { Close(); }

  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  /// Connects with net::ConnectTcp (TCP_NODELAY, EINTR-safe connect).
  Status Connect(const std::string& host, int port);
  void Close();

  /// Writes raw bytes (no framing).
  Status SendBytes(const void* data, std::size_t size);
  /// Blocks for the next complete frame. kDeadlineExceeded on timeout,
  /// kCancelled when the server closes the connection first, the decoder's
  /// typed error on an undecodable stream.
  Expected<Frame> ReadFrame();

 private:
  Tick io_timeout_;
  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace ss::net

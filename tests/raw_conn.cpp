#include "raw_conn.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/async_client.hpp"

namespace ss::net {

Status RawConn::Connect(const std::string& host, int port) {
  Close();
  auto fd = ConnectTcp(host, port, io_timeout_);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  decoder_ = FrameDecoder();
  return OkStatus();
}

void RawConn::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status RawConn::SendBytes(const void* data, std::size_t size) {
  if (fd_ < 0) return FailedPreconditionError("not connected");
  return SendAll(fd_, data, size);
}

Expected<Frame> RawConn::ReadFrame() {
  if (fd_ < 0) return FailedPreconditionError("not connected");
  while (true) {
    Frame frame;
    auto got = decoder_.Next(&frame);
    if (!got.ok()) return got.status();
    if (*got) return frame;
    char buf[65536];
    const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r > 0) {
      decoder_.Append(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0) return CancelledError("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return DeadlineExceededError("response timed out");
    }
    return InternalError(std::string("recv: ") + std::strerror(errno));
  }
}

}  // namespace ss::net

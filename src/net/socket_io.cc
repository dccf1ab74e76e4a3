#include "net/socket_io.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>

#include "obs/catalog.h"

namespace robust_sampling {
namespace net {

namespace {

timeval MsToTimeval(int ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  return tv;
}

bool SetNonBlocking(int fd, bool nonblocking) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want == flags) return true;
  return fcntl(fd, F_SETFL, want) == 0;
}

}  // namespace

bool SetSocketDeadlines(int fd, int recv_timeout_ms, int send_timeout_ms) {
  const timeval rcv = MsToTimeval(recv_timeout_ms);
  const timeval snd = MsToTimeval(send_timeout_ms);
  if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof(rcv)) != 0) {
    return false;
  }
  return setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof(snd)) == 0;
}

int ConnectWithDeadline(const std::string& host, uint16_t port,
                        int connect_timeout_ms) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (!SetNonBlocking(fd, true)) {
    close(fd);
    return -1;
  }

  int rc;
  do {
    rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);

  if (rc < 0) {
    if (errno != EINPROGRESS) {
      close(fd);
      return -1;
    }
    // Non-blocking connect in flight: poll for writability, then read the
    // socket's pending error to learn whether the handshake succeeded.
    pollfd pfd = {fd, POLLOUT, 0};
    do {
      rc = poll(&pfd, 1, connect_timeout_ms > 0 ? connect_timeout_ms : -1);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      if (rc == 0) errno = ETIMEDOUT;
      close(fd);
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      if (so_error != 0) errno = so_error;
      close(fd);
      return -1;
    }
  }

  if (!SetNonBlocking(fd, false)) {
    close(fd);
    return -1;
  }
  // Snapshot frames are latency-sensitive request/response pairs; never
  // let Nagle hold the tail of a frame.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int ListenLoopback(uint16_t port, uint16_t* bound_port, int backlog) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, backlog) != 0) {
    close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in actual;
    socklen_t len = sizeof(actual);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
      close(fd);
      return -1;
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

int AcceptWithTimeout(int listen_fd, int timeout_ms) {
  pollfd pfd = {listen_fd, POLLIN, 0};
  int rc;
  do {
    rc = poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
  } while (rc < 0 && errno == EINTR);
  if (rc == 0) return -1;
  if (rc < 0) return -2;
  int fd;
  do {
    fd = accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return -2;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SocketSink::Append(const void* data, size_t n) {
  if (!ok_ || n == 0) return;
  ok_ = wire::WriteAllFd(fd_, data, n);
}

bool SocketSource::ReadImpl(void* out, size_t n) {
  auto* p = static_cast<uint8_t*>(out);
  while (n > 0) {
    const ssize_t got = recv(fd_, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      // EAGAIN/EWOULDBLOCK here means the SO_RCVTIMEO deadline expired
      // mid-read: the peer is half-open or wedged. Treat it exactly like
      // truncation — poison the stream.
      return false;
    }
    if (got == 0) return false;  // peer closed mid-object
    obs::WireBytesIn().Increment(static_cast<uint64_t>(got));
    p += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

size_t SocketSource::ReadSomeImpl(void* out, size_t n) {
  if (n == 0) return 0;
  ssize_t got;
  do {
    got = recv(fd_, out, n, 0);
  } while (got < 0 && errno == EINTR);
  if (got <= 0) return 0;
  obs::WireBytesIn().Increment(static_cast<uint64_t>(got));
  return static_cast<size_t>(got);
}

}  // namespace net
}  // namespace robust_sampling

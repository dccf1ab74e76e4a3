#ifndef ROBUST_SAMPLING_NET_SOCKET_IO_H_
#define ROBUST_SAMPLING_NET_SOCKET_IO_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "wire/codec.h"

namespace robust_sampling {
namespace net {

// ---------------------------------------------------------------------------
// TCP transport primitives for the aggregation tier (docs/distributed.md).
//
// SocketSink / SocketSource layer the wire codec's ByteSink / ByteSource
// contract over a connected stream socket, so everything that already
// serializes through the codec — snapshots, checkpoints, framed bodies —
// ships over TCP unchanged. Failure semantics match the codec: any
// unrecoverable socket error (peer reset, deadline expiry, EPIPE) latches
// the sink/source failed and every later call is a no-op; nothing aborts,
// nothing raises SIGPIPE, nothing blocks forever.
//
// Deadlines are per-operation socket timeouts (SO_RCVTIMEO / SO_SNDTIMEO):
// a recv or send that makes no progress within the deadline fails the
// stream. That is the half-open-peer defence — a peer that vanished
// without a FIN costs one deadline, not a hang.
// ---------------------------------------------------------------------------

/// Applies per-operation deadlines to a connected socket. 0 disables the
/// corresponding timeout (block indefinitely). Returns false if either
/// setsockopt failed.
bool SetSocketDeadlines(int fd, int recv_timeout_ms, int send_timeout_ms);

/// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1") with a
/// connect deadline: the connect runs non-blocking and is polled until it
/// completes or `connect_timeout_ms` expires. Returns the connected fd, or
/// -1 (with errno from the failing call). EINTR-safe.
int ConnectWithDeadline(const std::string& host, uint16_t port,
                        int connect_timeout_ms);

/// Opens a loopback listener. `port` 0 binds an ephemeral port;
/// `*bound_port` receives the actual one. SO_REUSEADDR is set so a
/// restarted collector can rebind its old port immediately (the kill -9
/// recovery path). Returns the listening fd or -1.
int ListenLoopback(uint16_t port, uint16_t* bound_port, int backlog = 16);

/// Accepts one connection, waiting at most `timeout_ms` (0 = wait
/// forever). Returns the connected fd, -1 on timeout, -2 on listener
/// error. EINTR-safe.
int AcceptWithTimeout(int listen_fd, int timeout_ms);

/// ByteSink over a connected socket: each Append is one WriteAllFd
/// (send with MSG_NOSIGNAL), so a hung-up collector surfaces as
/// ok() == false. Does not own the fd.
class SocketSink final : public wire::ByteSink {
 public:
  explicit SocketSink(int fd) : fd_(fd) {}

  void Append(const void* data, size_t n) override;
  bool ok() const override { return ok_; }

 private:
  int fd_;
  bool ok_ = true;
};

/// ByteSource over a connected socket: EINTR-safe recv loops, deadline
/// failures poison the source (mid-frame timeout == truncated stream,
/// exactly like a closed peer). Length is unknowable, so remaining() is
/// nullopt and the codec's hard caps bound every attacker-controlled
/// length prefix. Does not own the fd.
class SocketSource final : public wire::ByteSource {
 public:
  explicit SocketSource(int fd) : fd_(fd) {}

  std::optional<uint64_t> remaining() const override { return std::nullopt; }

 protected:
  bool ReadImpl(void* out, size_t n) override;
  size_t ReadSomeImpl(void* out, size_t n) override;

 private:
  int fd_;
};

}  // namespace net
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_NET_SOCKET_IO_H_

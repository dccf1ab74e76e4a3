#include "net/fault_proxy.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/socket_io.h"

namespace robust_sampling {
namespace net {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultProxy::FaultProxy(FaultProxyOptions options)
    : options_(std::move(options)) {}

FaultProxy::~FaultProxy() { Stop(); }

bool FaultProxy::Start(std::string* error) {
  if (listen_fd_ >= 0) return true;
  listen_fd_ = ListenLoopback(options_.listen_port, &port_);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "fault proxy: cannot bind loopback port";
    return false;
  }
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread(&FaultProxy::AcceptLoop, this);
  return true;
}

void FaultProxy::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
}

void FaultProxy::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = AcceptWithTimeout(listen_fd_, options_.idle_poll_ms);
    if (fd == -1) continue;
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) break;
      continue;
    }
    const uint64_t index =
        connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace_back(&FaultProxy::Relay, this, fd, index);
  }
}

void FaultProxy::Relay(int client_fd, uint64_t index) {
  const FaultMode mode =
      options_.schedule.empty()
          ? FaultMode::kPass
          : options_.schedule[index % options_.schedule.size()];
  if (mode != FaultMode::kPass) {
    faults_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t rand = SplitMix64(options_.seed + index);

  const int upstream_fd =
      mode == FaultMode::kDrop
          ? -1  // blackhole never contacts the upstream
          : ConnectWithDeadline(options_.upstream_host,
                                options_.upstream_port,
                                options_.connect_timeout_ms);
  if (mode != FaultMode::kDrop && upstream_fd < 0) {
    close(client_fd);
    return;
  }

  // kTruncate: forward exactly this many client bytes, then cut. Seeded
  // into [cut/2, cut) so the cut lands at a different mid-frame offset
  // per connection but is reproducible for a given seed.
  const size_t cut =
      static_cast<size_t>(options_.truncate_cut_bytes / 2 +
                          rand % static_cast<uint64_t>(std::max(
                                     1, options_.truncate_cut_bytes / 2)));
  size_t client_bytes = 0;   // client -> upstream bytes forwarded so far
  bool flipped = false;
  uint8_t buf[4096];
  bool done = false;

  while (!done && !stop_.load(std::memory_order_acquire)) {
    pollfd pfds[2];
    pfds[0] = {client_fd, POLLIN, 0};
    pfds[1] = {upstream_fd, POLLIN, 0};
    const nfds_t nfds = upstream_fd >= 0 ? 2 : 1;
    const int rc = poll(pfds, nfds, options_.idle_poll_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;  // idle tick; re-check stop

    // Client -> upstream: the faulty direction.
    if (pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      ssize_t got;
      do {
        got = recv(client_fd, buf, sizeof(buf), 0);
      } while (got < 0 && errno == EINTR);
      if (got <= 0) break;  // client gone (or error): tear down
      size_t n = static_cast<size_t>(got);
      switch (mode) {
        case FaultMode::kDrop:
          break;  // swallow
        case FaultMode::kHardClose:
          done = true;  // first byte kills the connection
          break;
        case FaultMode::kTruncate: {
          const size_t remaining =
              client_bytes < cut ? cut - client_bytes : 0;
          const size_t fwd = std::min(n, remaining);
          if (fwd > 0 && !wire::WriteAllFd(upstream_fd, buf, fwd)) done = true;
          client_bytes += fwd;
          if (client_bytes >= cut) done = true;
          break;
        }
        case FaultMode::kBitFlip: {
          if (!flipped) {
            buf[rand % n] ^= static_cast<uint8_t>(1u << ((rand >> 8) % 8));
            flipped = true;
          }
          if (!wire::WriteAllFd(upstream_fd, buf, n)) done = true;
          client_bytes += n;
          break;
        }
        case FaultMode::kDelay:
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options_.delay_ms));
          [[fallthrough]];
        case FaultMode::kPass:
          if (!wire::WriteAllFd(upstream_fd, buf, n)) done = true;
          client_bytes += n;
          break;
      }
    }

    // Upstream -> client: relayed faithfully (except drop/hard-close,
    // which never get here or tear down first).
    if (!done && upstream_fd >= 0 &&
        (pfds[1].revents & (POLLIN | POLLHUP | POLLERR))) {
      ssize_t got;
      do {
        got = recv(upstream_fd, buf, sizeof(buf), 0);
      } while (got < 0 && errno == EINTR);
      if (got <= 0) break;
      if (mode == FaultMode::kDrop) continue;  // unreachable; for symmetry
      if (!wire::WriteAllFd(client_fd, buf, static_cast<size_t>(got))) break;
    }
  }

  close(client_fd);
  if (upstream_fd >= 0) close(upstream_fd);
}

}  // namespace net
}  // namespace robust_sampling

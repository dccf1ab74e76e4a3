#ifndef ROBUST_SAMPLING_OBS_ADMIN_SERVER_H_
#define ROBUST_SAMPLING_OBS_ADMIN_SERVER_H_

// ---------------------------------------------------------------------------
// Admin plane: a minimal dependency-free HTTP/1.0 server that makes the
// in-process observability state (metric registry, flight recorder, and
// whatever the embedding service registers) scrapeable while the process
// runs.
//
// One blocking accept thread serves one request per connection (HTTP/1.0,
// Connection: close) with socket deadlines on both directions, so a stalled
// scraper cannot wedge the plane for longer than the per-connection
// timeout. Responses go through wire::WriteAllFd (send with MSG_NOSIGNAL),
// same as the shipping path.
//
// Built-in endpoints (all GET):
//   /metrics     Prometheus text exposition (MetricRegistry).
//   /healthz     "ok" — liveness.
//   /trace       flight-recorder dump + the last RecordError post-mortem.
//   /trace.json  chrome-trace JSON (load in Perfetto / chrome://tracing).
//
// Services add their own views with RegisterHandler ("/shippers" on
// Collector<T> is the first embedder). The server binds loopback only: it
// is an operator plane, not a public surface. See docs/observability.md.
// ---------------------------------------------------------------------------

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace robust_sampling {
namespace obs {

struct AdminServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with port() after Start).
  uint16_t port = 0;
  /// Read/write deadline per connection, so a stalled client cannot hold
  /// the single-threaded serve loop hostage.
  int io_timeout_ms = 2000;
  /// Accept-poll granularity; bounds how long Stop() waits for the accept
  /// thread to notice the stop flag.
  int idle_poll_ms = 50;
};

class AdminServer {
 public:
  /// A handler renders the current body for its path on every request.
  /// Called from the accept thread; must be safe to invoke concurrently
  /// with the embedding service's own threads.
  using Handler = std::function<std::string()>;

  explicit AdminServer(AdminServerOptions options = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds, listens, and starts the accept thread. Returns false (with a
  /// reason in *error when given) if the port cannot be bound.
  bool Start(std::string* error = nullptr);

  /// Stops the accept thread and closes the listening socket. Idempotent;
  /// also run by the destructor.
  void Stop();

  /// The bound port (resolves port=0 ephemeral binds); 0 before Start.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Registers (or replaces) `GET path` -> 200 with `content_type`. The
  /// built-in endpoints are registered at construction and can be
  /// overridden the same way.
  void RegisterHandler(const std::string& path, const std::string& content_type,
                       Handler handler);

 private:
  struct Endpoint {
    std::string content_type;
    Handler handler;
  };

  void AcceptLoop();
  void ServeConnection(int fd);

  AdminServerOptions options_;
  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;

  std::mutex handlers_mu_;
  std::map<std::string, Endpoint> handlers_;
};

}  // namespace obs
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_OBS_ADMIN_SERVER_H_

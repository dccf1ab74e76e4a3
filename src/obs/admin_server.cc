#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "wire/codec.h"

namespace robust_sampling {
namespace obs {

namespace {

// Requests are tiny (a GET line + a handful of headers); anything larger
// is not a scraper and gets 400.
constexpr size_t kMaxRequestBytes = 8192;

void SetDeadlines(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool WriteResponse(int fd, int status, const char* reason,
                   const std::string& content_type, const std::string& body) {
  std::string head = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  return wire::WriteAllFd(fd, head.data(), head.size()) &&
         wire::WriteAllFd(fd, body.data(), body.size());
}

}  // namespace

AdminServer::AdminServer(AdminServerOptions options) : options_(options) {
  RegisterHandler("/metrics", "text/plain; version=0.0.4; charset=utf-8",
                  [] { return MetricRegistry::Global().ToPrometheusText(); });
  RegisterHandler("/healthz", "text/plain; charset=utf-8",
                  [] { return std::string("ok\n"); });
  RegisterHandler("/trace", "text/plain; charset=utf-8", [] {
    std::string out = FlightRecorder::Global().Dump();
    const std::string last_error = FlightRecorder::Global().LastErrorDump();
    if (!last_error.empty()) {
      out += "\n--- last error post-mortem ---\n";
      out += last_error;
    }
    return out;
  });
  RegisterHandler("/trace.json", "application/json", [] {
    return FlightRecorder::Global().DumpChromeTraceJson();
  });
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::RegisterHandler(const std::string& path,
                                  const std::string& content_type,
                                  Handler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[path] = Endpoint{content_type, std::move(handler)};
}

bool AdminServer::Start(std::string* error) {
  if (started_) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) *error = "bind: " + std::string(strerror(errno));
    ::close(fd);
    return false;
  }
  if (::listen(fd, 16) != 0) {
    if (error != nullptr) *error = "listen: " + std::string(strerror(errno));
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    if (error != nullptr) {
      *error = "getsockname: " + std::string(strerror(errno));
    }
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return true;
}

void AdminServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_.store(0, std::memory_order_release);
  started_ = false;
}

void AdminServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, options_.idle_poll_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0) continue;  // idle poll tick: re-check the stop flag
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    SetDeadlines(conn, options_.io_timeout_ms);
    ServeConnection(conn);
    ::close(conn);
  }
}

void AdminServer::ServeConnection(int fd) {
  // Read until the end of the request headers; the body (none expected for
  // GET) is ignored.
  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF, deadline, or error: serve what we have
    request.append(buf, static_cast<size_t>(n));
  }
  const size_t line_end = request.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const size_t method_end = request_line.find(' ');
  if (method_end == std::string::npos) {
    WriteResponse(fd, 400, "Bad Request", "text/plain; charset=utf-8",
                  "malformed request line\n");
    return;
  }
  const std::string method = request_line.substr(0, method_end);
  const size_t target_end = request_line.find(' ', method_end + 1);
  std::string target =
      target_end == std::string::npos
          ? request_line.substr(method_end + 1)
          : request_line.substr(method_end + 1, target_end - method_end - 1);
  const size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);
  if (method != "GET") {
    WriteResponse(fd, 405, "Method Not Allowed", "text/plain; charset=utf-8",
                  "only GET is served here\n");
    return;
  }
  Endpoint endpoint;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    const auto it = handlers_.find(target);
    if (it == handlers_.end()) {
      std::string known = "unknown path; try:\n";
      for (const auto& [path, unused] : handlers_) known += "  " + path + "\n";
      WriteResponse(fd, 404, "Not Found", "text/plain; charset=utf-8", known);
      return;
    }
    endpoint = it->second;
  }
  WriteResponse(fd, 200, "OK", endpoint.content_type, endpoint.handler());
}

}  // namespace obs
}  // namespace robust_sampling

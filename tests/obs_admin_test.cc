// Tests for src/obs/admin_server.*: the HTTP/1.0 introspection plane.
// Exercises the real socket path end to end — every request here opens a
// TCP connection to the loopback listener, exactly like curl in the CI
// smoke job. The name matches the ^obs ctest regex, so this whole binary
// also runs under TSan (admin accept thread vs Start/Stop races).

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "net/socket_io.h"
#include "obs/admin_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace robust_sampling {
namespace obs {
namespace {

struct HttpResponse {
  int status = 0;
  std::string headers;  // raw header block (status line included)
  std::string body;
};

// Sends `raw_request` to the admin port and reads to EOF (the server is
// HTTP/1.0 and closes after one response). Returns false on socket error.
bool RawRequest(uint16_t port, const std::string& raw_request,
                HttpResponse* out) {
  const int fd = net::ConnectWithDeadline("127.0.0.1", port, 2000);
  if (fd < 0) return false;
  net::SetSocketDeadlines(fd, 5000, 5000);
  size_t sent = 0;
  while (sent < raw_request.size()) {
    const ssize_t n =
        send(fd, raw_request.data() + sent, raw_request.size() - sent, 0);
    if (n <= 0) {
      close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      close(fd);
      return false;
    }
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  out->headers = response.substr(0, header_end);
  out->body = response.substr(header_end + 4);
  // Status line: "HTTP/1.0 NNN Reason".
  if (out->headers.rfind("HTTP/1.0 ", 0) != 0 || out->headers.size() < 12) {
    return false;
  }
  out->status = std::stoi(out->headers.substr(9, 3));
  return true;
}

bool Get(uint16_t port, const std::string& path, HttpResponse* out) {
  return RawRequest(port, "GET " + path + " HTTP/1.0\r\n\r\n", out);
}

class AdminServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(server_.Start(&error)) << error;
    ASSERT_NE(server_.port(), 0);
  }
  void TearDown() override { server_.Stop(); }

  AdminServer server_;  // default options: ephemeral loopback port
};

TEST_F(AdminServerTest, HealthzReturnsOk) {
  HttpResponse response;
  ASSERT_TRUE(Get(server_.port(), "/healthz", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
  EXPECT_NE(response.headers.find("Content-Type: text/plain"),
            std::string::npos);
  EXPECT_NE(response.headers.find("Content-Length: 3"), std::string::npos);
}

TEST_F(AdminServerTest, MetricsServesPrometheusExposition) {
  MetricRegistry::Global()
      .GetCounter("rs_test_admin_total", "admin endpoint test counter")
      ->Increment(9);
  HttpResponse response;
  ASSERT_TRUE(Get(server_.port(), "/metrics", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.headers.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.body.find("rs_test_admin_total 9"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("# TYPE rs_test_admin_total counter"),
            std::string::npos);
}

TEST_F(AdminServerTest, TraceJsonIsServed) {
  { TraceSpan span("obs_admin_test", "admin-trace-span"); }
  HttpResponse response;
  ASSERT_TRUE(Get(server_.port(), "/trace.json", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.headers.find("Content-Type: application/json"),
            std::string::npos);
  // Validity of the JSON itself is asserted in obs_test; here we check
  // the endpoint serves the export (and the OFF build a valid stub).
  EXPECT_EQ(response.body.rfind("{\"traceEvents\":[", 0), 0u)
      << response.body.substr(0, 64);
  EXPECT_EQ(response.body.back(), '}');
  EXPECT_NE(response.body.find("admin-trace-span"), std::string::npos);
}

TEST_F(AdminServerTest, TraceIncludesLastErrorPostMortem) {
  FlightRecorder::Global().SetErrorHook([](const std::string&) {});
  FlightRecorder::Global().RecordError("obs_admin_test",
                                       "admin-visible failure", 7);
  FlightRecorder::Global().SetErrorHook(nullptr);
  HttpResponse response;
  ASSERT_TRUE(Get(server_.port(), "/trace", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("admin-visible failure"), std::string::npos);
  EXPECT_NE(response.body.find("last error post-mortem"), std::string::npos);
}

TEST_F(AdminServerTest, UnknownPathReturns404) {
  HttpResponse response;
  ASSERT_TRUE(Get(server_.port(), "/nope", &response));
  EXPECT_EQ(response.status, 404);
  // The 404 body lists the known paths, as a discoverability aid.
  EXPECT_NE(response.body.find("/metrics"), std::string::npos);
  EXPECT_NE(response.body.find("/healthz"), std::string::npos);
}

TEST_F(AdminServerTest, NonGetReturns405) {
  HttpResponse response;
  ASSERT_TRUE(RawRequest(server_.port(),
                         "POST /metrics HTTP/1.0\r\n\r\n", &response));
  EXPECT_EQ(response.status, 405);
}

TEST_F(AdminServerTest, MalformedRequestReturns400) {
  HttpResponse response;
  ASSERT_TRUE(RawRequest(server_.port(), "garbage\r\n\r\n", &response));
  EXPECT_EQ(response.status, 400);
}

TEST_F(AdminServerTest, QueryStringIsIgnored) {
  HttpResponse response;
  ASSERT_TRUE(Get(server_.port(), "/healthz?verbose=1", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

TEST_F(AdminServerTest, RegisteredHandlerServesCustomPath) {
  server_.RegisterHandler("/custom", "application/json",
                          [] { return std::string("{\"hello\":true}"); });
  HttpResponse response;
  ASSERT_TRUE(Get(server_.port(), "/custom", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "{\"hello\":true}");
  EXPECT_NE(response.headers.find("Content-Type: application/json"),
            std::string::npos);
}

TEST(AdminServerLifecycleTest, RepeatedStartStopIsClean) {
  // Each cycle binds a fresh ephemeral port, serves one request, and
  // stops; leaks or thread races here are what ASan/TSan watch for.
  for (int cycle = 0; cycle < 3; ++cycle) {
    AdminServer server;
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << "cycle " << cycle << ": " << error;
    HttpResponse response;
    ASSERT_TRUE(Get(server.port(), "/healthz", &response));
    EXPECT_EQ(response.status, 200);
    server.Stop();
  }
}

TEST(AdminServerLifecycleTest, StopWithoutRequestsIsPrompt) {
  AdminServer server;
  ASSERT_TRUE(server.Start());
  server.Stop();  // must not hang on the idle accept loop
  server.Stop();  // idempotent
}

TEST(AdminServerLifecycleTest, FixedPortConflictFailsWithError) {
  AdminServer first;
  ASSERT_TRUE(first.Start());
  AdminServerOptions conflicting;
  conflicting.port = first.port();
  AdminServer second(conflicting);
  std::string error;
  EXPECT_FALSE(second.Start(&error));
  EXPECT_FALSE(error.empty());
  first.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace robust_sampling

// Aggregation-tier suite: socket transport semantics, the ship/query
// protocol, fault-proxy failure modes (every one must end in recovery via
// backoff or a clean fail-closed rejection — no hang, no crash, no
// silently wrong merge), keep-latest shipper degradation, and the
// collector's checkpoint / kill -9 / restore contract.

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/random.h"
#include "net/collector.h"
#include "net/fault_proxy.h"
#include "net/protocol.h"
#include "net/snapshot_shipper.h"
#include "net/socket_io.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "pipeline/sketch_config.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "wire/codec.h"
#include "wire/snapshot.h"

namespace robust_sampling {
namespace {

SketchConfig KllConfig() {
  SketchConfig config;
  config.kind = "kll";
  config.capacity = 256;
  config.universe_size = 1024;
  config.seed = 0x4E7;
  return config;
}

SketchConfig CountMinConfig() {
  SketchConfig config;
  config.kind = "count_min";
  config.width = 512;
  config.depth = 4;
  config.universe_size = 1024;
  config.seed = 0x4E7;
  return config;
}

std::vector<int64_t> TestStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<int64_t>(rng.NextBelow(1024)) + 1);
  }
  return out;
}

StreamSketch<int64_t> MakeSketch(const SketchConfig& config,
                                 const std::vector<int64_t>& stream) {
  StreamSketch<int64_t> sketch =
      SketchRegistry<int64_t>::Global().Create(config);
  sketch.InsertBatch(stream);
  return sketch;
}

std::vector<uint8_t> SnapshotBytes(const StreamSketch<int64_t>& sketch,
                                   const SketchConfig& config) {
  wire::BufferSink sink;
  EXPECT_TRUE(wire::WriteSnapshot(sketch, config, sink));
  return sink.TakeBytes();
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// Binds an ephemeral loopback port, closes it, and returns the number —
/// a port a collector can claim a moment later (loopback test idiom).
uint16_t ReservePort() {
  uint16_t port = 0;
  const int fd = net::ListenLoopback(0, &port);
  EXPECT_GE(fd, 0);
  close(fd);
  return port;
}

// ----------------------------------------------------------- transport ----

TEST(SocketIoTest, SinkAndSourceRoundTripAcrossLoopback) {
  uint16_t port = 0;
  const int listen_fd = net::ListenLoopback(0, &port);
  ASSERT_GE(listen_fd, 0);
  const int client = net::ConnectWithDeadline("127.0.0.1", port, 1000);
  ASSERT_GE(client, 0);
  const int server = net::AcceptWithTimeout(listen_fd, 1000);
  ASSERT_GE(server, 0);

  net::SocketSink sink(client);
  wire::PutVarint(sink, 12345);
  wire::PutString(sink, "loopback");
  ASSERT_TRUE(sink.ok());

  net::SocketSource source(server);
  uint64_t v = 0;
  std::string s;
  EXPECT_TRUE(wire::GetVarint(source, &v));
  EXPECT_EQ(v, uint64_t{12345});
  EXPECT_TRUE(wire::GetString(source, &s));
  EXPECT_EQ(s, "loopback");
  EXPECT_GT(source.bytes_read(), uint64_t{0});
  EXPECT_EQ(source.remaining(), std::nullopt);

  close(client);
  close(server);
  close(listen_fd);
}

TEST(SocketIoTest, ReadDeadlinePoisonsSourceInsteadOfHanging) {
  uint16_t port = 0;
  const int listen_fd = net::ListenLoopback(0, &port);
  ASSERT_GE(listen_fd, 0);
  const int client = net::ConnectWithDeadline("127.0.0.1", port, 1000);
  ASSERT_GE(client, 0);
  const int server = net::AcceptWithTimeout(listen_fd, 1000);
  ASSERT_GE(server, 0);

  // The peer never writes: a half-open read must fail within the
  // deadline, not block forever.
  ASSERT_TRUE(net::SetSocketDeadlines(server, /*recv_timeout_ms=*/100,
                                      /*send_timeout_ms=*/100));
  net::SocketSource source(server);
  uint8_t byte = 0;
  EXPECT_FALSE(source.Read(&byte, 1));
  EXPECT_TRUE(source.failed());

  close(client);
  close(server);
  close(listen_fd);
}

TEST(SocketIoTest, ConnectToDeadPortFailsFast) {
  const uint16_t dead = ReservePort();  // bound then released: nobody home
  EXPECT_LT(net::ConnectWithDeadline("127.0.0.1", dead, 200), 0);
}

TEST(SocketIoTest, WriteToClosedPeerLatchesSinkNotSigpipe) {
  uint16_t port = 0;
  const int listen_fd = net::ListenLoopback(0, &port);
  ASSERT_GE(listen_fd, 0);
  const int client = net::ConnectWithDeadline("127.0.0.1", port, 1000);
  ASSERT_GE(client, 0);
  const int server = net::AcceptWithTimeout(listen_fd, 1000);
  ASSERT_GE(server, 0);
  close(server);

  // Large repeated writes eventually hit the reset; the sink must latch
  // failed, and the process must not die of SIGPIPE.
  net::SocketSink sink(client);
  const std::vector<uint8_t> chunk(64 * 1024, 0xAB);
  for (int i = 0; i < 64 && sink.ok(); ++i) {
    sink.Append(chunk.data(), chunk.size());
  }
  EXPECT_FALSE(sink.ok());

  close(client);
  close(listen_fd);
}

// ------------------------------------------------------------ protocol ----

TEST(NetProtocolTest, MessageRoundTripAndUnknownTypeRejected) {
  wire::BufferSink sink;
  const std::vector<uint8_t> payload = {1, 2, 3, 4};
  ASSERT_TRUE(net::WriteMessage(sink, net::MessageType::kShip, payload));

  wire::BufferSource source(sink.bytes());
  net::MessageType type;
  std::vector<uint8_t> got;
  std::string error;
  ASSERT_TRUE(net::ReadMessage(source, &type, &got, &error));
  EXPECT_EQ(type, net::MessageType::kShip);
  EXPECT_EQ(got, payload);

  // A frame whose body carries an unknown type parses as a frame but is
  // rejected at the protocol layer.
  wire::BufferSink bad_body;
  wire::PutVarint(bad_body, 99);
  wire::BufferSink bad_frame;
  ASSERT_TRUE(
      wire::WriteFramedBody(bad_frame, net::kNetMagic, bad_body.bytes()));
  wire::BufferSource bad_source(bad_frame.bytes());
  EXPECT_FALSE(net::ReadMessage(bad_source, &type, &got, &error));
  EXPECT_NE(error.find("unknown type"), std::string::npos);
}

TEST(NetProtocolTest, CorruptFrameFailsClosed) {
  wire::BufferSink sink;
  ASSERT_TRUE(net::WriteStatusMessage(sink, net::MessageType::kShipAck,
                                      net::Status::kOk));
  std::vector<uint8_t> bytes = sink.bytes();
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-frame
  wire::BufferSource source(bytes);
  net::MessageType type;
  std::vector<uint8_t> payload;
  std::string error;
  EXPECT_FALSE(net::ReadMessage(source, &type, &payload, &error));
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------- ship + query happy ----

TEST(CollectorTest, TwoShippersMergeAndServeQueries) {
  net::CollectorOptions options;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> stream_a = TestStream(4000, 11);
  const std::vector<int64_t> stream_b = TestStream(4000, 22);
  StreamSketch<int64_t> sketch_a = MakeSketch(config, stream_a);
  StreamSketch<int64_t> sketch_b = MakeSketch(config, stream_b);

  net::ShipperOptions ship_a;
  ship_a.port = collector.port();
  ship_a.shipper_id = 1;
  net::ShipperOptions ship_b = ship_a;
  ship_b.shipper_id = 2;
  net::SnapshotShipper shipper_a(ship_a);
  net::SnapshotShipper shipper_b(ship_b);
  shipper_a.Start();
  shipper_b.Start();
  shipper_a.Offer(SnapshotBytes(sketch_a, config));
  shipper_b.Offer(SnapshotBytes(sketch_b, config));
  ASSERT_TRUE(shipper_a.WaitUntilDrained(5000));
  ASSERT_TRUE(shipper_b.WaitUntilDrained(5000));
  shipper_a.Stop();
  shipper_b.Stop();

  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{2});
  EXPECT_EQ(collector.known_shippers(), size_t{2});

  // Reference: the same two snapshots merged locally in the collector's
  // order (shipper_id ascending) must answer identically over the wire.
  StreamSketch<int64_t> reference = MakeSketch(config, stream_a);
  reference.MergeFrom(sketch_b);

  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  for (int64_t x : {int64_t{1}, int64_t{7}, int64_t{512}, int64_t{1024}}) {
    double over_wire = -1.0;
    ASSERT_TRUE(client.EstimateFrequency(x, &over_wire));
    EXPECT_DOUBLE_EQ(over_wire, reference.EstimateFrequency(x)) << x;
  }
  std::vector<HeavyHitter> wire_hits;
  ASSERT_TRUE(client.HeavyHitters(0.001, &wire_hits));
  const std::vector<HeavyHitter> local_hits = reference.HeavyHitters(0.001);
  ASSERT_EQ(wire_hits.size(), local_hits.size());
  for (size_t i = 0; i < wire_hits.size(); ++i) {
    EXPECT_EQ(wire_hits[i].element, local_hits[i].element);
    EXPECT_DOUBLE_EQ(wire_hits[i].frequency, local_hits[i].frequency);
  }

  // Quantile on a frequency sketch: clean kUnsupported, not an abort.
  double q = 0.0;
  net::Status status = net::Status::kOk;
  EXPECT_FALSE(client.Quantile(0.5, &q, &status));
  EXPECT_EQ(status, net::Status::kUnsupported);
  collector.Stop();
}

TEST(CollectorTest, QuantileQueriesMatchLocalMerge) {
  net::CollectorOptions options;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = KllConfig();
  const std::vector<int64_t> stream = TestStream(8000, 33);
  StreamSketch<int64_t> sketch = MakeSketch(config, stream);

  net::ShipperOptions ship;
  ship.port = collector.port();
  ship.shipper_id = 7;
  net::SnapshotShipper shipper(ship);
  shipper.Start();
  shipper.Offer(SnapshotBytes(sketch, config));
  ASSERT_TRUE(shipper.WaitUntilDrained(5000));
  shipper.Stop();

  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    double over_wire = -1.0;
    ASSERT_TRUE(client.Quantile(q, &over_wire));
    EXPECT_DOUBLE_EQ(over_wire, sketch.Quantile(q)) << q;
    // The in-process query passes the same check and reads the same view.
    const std::optional<double> local = collector.Quantile(q);
    ASSERT_TRUE(local.has_value()) << q;
    EXPECT_DOUBLE_EQ(*local, over_wire) << q;
  }
  // An out-of-range q over the wire is refused status-only and counted as
  // a reject, and the connection keeps serving.
  double refused = -1.0;
  net::Status status = net::Status::kOk;
  EXPECT_FALSE(client.Quantile(1.5, &refused, &status));
  EXPECT_EQ(status, net::Status::kMalformed);
  EXPECT_EQ(collector.rejects(), uint64_t{1});
  EXPECT_TRUE(client.Quantile(0.5, &refused));
  // Where the wire refuses, the in-process query has no answer either.
  EXPECT_FALSE(collector.Quantile(1.5).has_value());
  EXPECT_FALSE(
      collector.Quantile(std::numeric_limits<double>::quiet_NaN())
          .has_value());
  EXPECT_FALSE(collector.HeavyHitters(0.0).has_value());
  collector.Stop();
}

TEST(CollectorTest, QueryBeforeAnyShipReportsEmpty) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());
  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  double q = 0.0;
  net::Status status = net::Status::kOk;
  EXPECT_FALSE(client.Quantile(0.5, &q, &status));
  EXPECT_EQ(status, net::Status::kEmpty);

  // A node ships an empty sketch before its first element arrives. The
  // view then exists but holds no element: still kEmpty, not an abort.
  const SketchConfig config = KllConfig();
  net::ShipperOptions ship;
  ship.port = collector.port();
  ship.shipper_id = 3;
  net::SnapshotShipper shipper(ship);
  shipper.Start();
  shipper.Offer(SnapshotBytes(MakeSketch(config, {}), config));
  ASSERT_TRUE(shipper.WaitUntilDrained(5000));
  shipper.Stop();
  ASSERT_EQ(collector.known_shippers(), size_t{1});
  status = net::Status::kOk;
  EXPECT_FALSE(client.Quantile(0.5, &q, &status));
  EXPECT_EQ(status, net::Status::kEmpty);
  EXPECT_FALSE(collector.Quantile(0.5).has_value());
  collector.Stop();
}

// ------------------------------------------------ degradation / outbox ----

TEST(ShipperTest, KeepLatestOutboxSupersedesWhileCollectorDown) {
  const uint16_t port = ReservePort();  // nobody listening yet
  const SketchConfig config = CountMinConfig();

  net::ShipperOptions options;
  options.port = port;
  options.shipper_id = 1;
  options.connect_timeout_ms = 100;
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 40;
  net::SnapshotShipper shipper(options);
  shipper.Start();

  // Five successive states offered into a dead port: the outbox keeps
  // only the newest, counting the rest as superseded (bounded memory,
  // honest accounting).
  std::vector<int64_t> cumulative;
  std::vector<uint8_t> latest;
  for (int i = 0; i < 5; ++i) {
    const std::vector<int64_t> more = TestStream(500, 100 + i);
    cumulative.insert(cumulative.end(), more.begin(), more.end());
    latest = SnapshotBytes(MakeSketch(config, cumulative), config);
    shipper.Offer(latest);
  }
  EXPECT_FALSE(shipper.WaitUntilDrained(300));  // degraded, visibly
  EXPECT_GE(shipper.superseded(), uint64_t{3});
  EXPECT_GE(shipper.reconnect_attempts(), uint64_t{2});
  EXPECT_EQ(shipper.shipped(), uint64_t{0});

  // Collector comes up on the same port: backoff recovers, only the
  // latest cumulative state arrives, and it answers like a local revive.
  net::CollectorOptions coptions;
  coptions.port = port;
  net::Collector<int64_t> collector(coptions);
  ASSERT_TRUE(collector.Start());
  ASSERT_TRUE(shipper.WaitUntilDrained(10000));
  shipper.Stop();
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{1});

  StreamSketch<int64_t> reference = MakeSketch(config, cumulative);
  const auto freq = collector.EstimateFrequency(7);
  ASSERT_TRUE(freq.has_value());
  EXPECT_DOUBLE_EQ(*freq, reference.EstimateFrequency(7));
  collector.Stop();
}

// ------------------------------------------------------- fault matrix ----

struct FaultCase {
  net::FaultMode mode;
  const char* name;
};

/// Shared skeleton: shipper -> proxy(faulty connection first, then clean
/// ones) -> collector. Every mode must converge to exactly the reference
/// answers with no hang and no garbage merge.
void RunFaultRecovery(net::FaultMode mode) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());

  net::FaultProxyOptions poptions;
  poptions.upstream_port = collector.port();
  poptions.seed = 0xFA01;
  poptions.schedule = {mode, mode, net::FaultMode::kPass};
  net::FaultProxy proxy(poptions);
  ASSERT_TRUE(proxy.Start());

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> stream = TestStream(4000, 55);
  StreamSketch<int64_t> sketch = MakeSketch(config, stream);

  net::ShipperOptions soptions;
  soptions.port = proxy.port();
  soptions.shipper_id = 3;
  soptions.connect_timeout_ms = 300;
  soptions.io_timeout_ms = 400;  // bounds the blackhole ack wait
  soptions.backoff_initial_ms = 5;
  soptions.backoff_max_ms = 50;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(sketch, config));

  // Two faulty connections then a clean one: the shipper must push
  // through within the drain window or the mode failed to recover.
  ASSERT_TRUE(shipper.WaitUntilDrained(20000)) << "mode did not recover";
  EXPECT_EQ(shipper.shipped(), uint64_t{1});
  if (mode != net::FaultMode::kDelay) {
    // Delay is survivable in-band (the io deadline outlasts it); every
    // other mode kills the first two connections, forcing retries.
    EXPECT_GE(shipper.failures() + shipper.reconnect_attempts(),
              uint64_t{2});
  }
  shipper.Stop();

  // The merge is the clean snapshot, never a corrupted one.
  ASSERT_EQ(collector.accepted_snapshots(), uint64_t{1});
  const auto freq = collector.EstimateFrequency(7);
  ASSERT_TRUE(freq.has_value());
  EXPECT_DOUBLE_EQ(*freq, sketch.EstimateFrequency(7));
  if (mode == net::FaultMode::kBitFlip || mode == net::FaultMode::kTruncate) {
    EXPECT_GE(collector.rejects(), uint64_t{1});
  }
  proxy.Stop();
  collector.Stop();
}

TEST(FaultMatrixTest, DropBlackholeRecoversViaAckDeadline) {
  RunFaultRecovery(net::FaultMode::kDrop);
}

TEST(FaultMatrixTest, DelayedLinkStillDelivers) {
  RunFaultRecovery(net::FaultMode::kDelay);
}

TEST(FaultMatrixTest, MidFrameTruncationFailsClosedThenRecovers) {
  RunFaultRecovery(net::FaultMode::kTruncate);
}

TEST(FaultMatrixTest, BitFlipRejectedByChecksumThenRecovers) {
  RunFaultRecovery(net::FaultMode::kBitFlip);
}

TEST(FaultMatrixTest, HardCloseRecoversViaBackoff) {
  RunFaultRecovery(net::FaultMode::kHardClose);
}

TEST(FaultMatrixTest, ReconnectStormSettlesWithoutDuplicateState) {
  // A long run of consecutive hard-closes: the shipper storms through
  // reconnects with growing backoff and still lands exactly one copy.
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());
  net::FaultProxyOptions poptions;
  poptions.upstream_port = collector.port();
  poptions.schedule.assign(6, net::FaultMode::kHardClose);
  poptions.schedule.push_back(net::FaultMode::kPass);
  net::FaultProxy proxy(poptions);
  ASSERT_TRUE(proxy.Start());

  const SketchConfig config = CountMinConfig();
  StreamSketch<int64_t> sketch = MakeSketch(config, TestStream(2000, 66));
  net::ShipperOptions soptions;
  soptions.port = proxy.port();
  soptions.shipper_id = 9;
  soptions.io_timeout_ms = 300;
  soptions.backoff_initial_ms = 2;
  soptions.backoff_max_ms = 30;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(sketch, config));
  ASSERT_TRUE(shipper.WaitUntilDrained(30000));
  shipper.Stop();
  EXPECT_GE(shipper.reconnect_attempts(), uint64_t{7});
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{1});
  EXPECT_EQ(collector.known_shippers(), size_t{1});
  proxy.Stop();
  collector.Stop();
}

TEST(CollectorTest, HalfOpenPeerDoesNotBlockOtherShippers) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());

  // A peer that connects and then goes silent forever.
  const int mute = net::ConnectWithDeadline("127.0.0.1", collector.port(),
                                            1000);
  ASSERT_GE(mute, 0);

  // A real shipper must still get through concurrently.
  const SketchConfig config = CountMinConfig();
  StreamSketch<int64_t> sketch = MakeSketch(config, TestStream(1000, 77));
  net::ShipperOptions soptions;
  soptions.port = collector.port();
  soptions.shipper_id = 4;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(sketch, config));
  EXPECT_TRUE(shipper.WaitUntilDrained(5000));
  shipper.Stop();
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{1});
  close(mute);
  collector.Stop();
}

TEST(CollectorTest, FinishedConnectionThreadsAreReaped) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());
  const int64_t baseline = obs::NetConnections().Value();
  for (int i = 0; i < 200; ++i) {
    net::CollectorClient<int64_t> client;
    ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
    // A round trip proves a connection thread served this client.
    double q = 0.0;
    net::Status status = net::Status::kOk;
    EXPECT_FALSE(client.Quantile(0.5, &q, &status));
    EXPECT_EQ(status, net::Status::kEmpty);
  }
  // The accept loop joins finished threads on every tick; the last ones
  // finish moments after their client closes.
  for (int i = 0; i < 1000 && obs::NetConnections().Value() > baseline;
       ++i) {
    usleep(5000);
  }
  EXPECT_EQ(obs::NetConnections().Value(), baseline);
  collector.Stop();
}

// --------------------------------------------- checkpoint / kill -9 ----

TEST(CollectorCheckpointTest, CorruptCheckpointStartsEmptyNotWrong) {
  const std::string path = TempPath("net_collector_corrupt.ck");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "not a checkpoint at all";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());  // fail closed: up, but empty
  EXPECT_EQ(collector.known_shippers(), size_t{0});
  EXPECT_FALSE(collector.Quantile(0.5).has_value());
  collector.Stop();
  std::remove(path.c_str());
}

TEST(CollectorCheckpointTest, CheckpointRestoresIdenticalAnswers) {
  const std::string path = TempPath("net_collector_roundtrip.ck");
  std::remove(path.c_str());
  const SketchConfig config = KllConfig();
  const std::vector<int64_t> stream = TestStream(6000, 88);
  StreamSketch<int64_t> sketch = MakeSketch(config, stream);

  uint16_t port = 0;
  {
    net::CollectorOptions options;
    options.checkpoint_path = path;
    net::Collector<int64_t> collector(options);
    ASSERT_TRUE(collector.Start());
    port = collector.port();
    net::ShipperOptions soptions;
    soptions.port = port;
    soptions.shipper_id = 5;
    net::SnapshotShipper shipper(soptions);
    shipper.Start();
    shipper.Offer(SnapshotBytes(sketch, config));
    ASSERT_TRUE(shipper.WaitUntilDrained(5000));
    shipper.Stop();
    collector.Stop();  // checkpoint_every_snapshots=1 already wrote it
  }

  // A brand-new collector restores the identical merged state from disk
  // before any shipper reconnects.
  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> restored(options);
  ASSERT_TRUE(restored.Start());
  EXPECT_EQ(restored.known_shippers(), size_t{1});
  for (double q : {0.1, 0.5, 0.9}) {
    const auto got = restored.Quantile(q);
    ASSERT_TRUE(got.has_value());
    EXPECT_DOUBLE_EQ(*got, sketch.Quantile(q)) << q;
  }
  restored.Stop();
  std::remove(path.c_str());
}

// The acceptance-criteria scenario: collector kill -9'd mid-merge (child
// process), restarted against the same checkpoint + port, shippers
// reconnect and re-ship cumulative state, queries agree with a
// single-process run. The child forks BEFORE this process creates any
// threads (fork-with-threads is UB-adjacent under the sanitizers).
TEST(CollectorCheckpointTest, Kill9MidMergeRestoresAndConverges) {
  const std::string path = TempPath("net_collector_kill9.ck");
  std::remove(path.c_str());
  const uint16_t port = ReservePort();

  int ready_pipe[2];
  ASSERT_EQ(pipe(ready_pipe), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: run a checkpointing collector until killed.
    close(ready_pipe[0]);
    net::CollectorOptions options;
    options.port = port;
    options.checkpoint_path = path;
    net::Collector<int64_t> collector(options);
    if (!collector.Start()) _exit(1);
    const char ready = 'R';
    if (write(ready_pipe[1], &ready, 1) != 1) _exit(1);
    for (;;) pause();  // SIGKILL is the only exit
  }
  close(ready_pipe[1]);
  char ready = 0;
  ASSERT_EQ(read(ready_pipe[0], &ready, 1), 1);
  close(ready_pipe[0]);

  const SketchConfig config = KllConfig();
  const std::vector<int64_t> first_half = TestStream(4000, 99);
  std::vector<int64_t> full = first_half;
  const std::vector<int64_t> second_half = TestStream(4000, 101);
  full.insert(full.end(), second_half.begin(), second_half.end());

  // Phase 1: ship the first half, acked + checkpointed by the child.
  StreamSketch<int64_t> first_sketch = MakeSketch(config, first_half);
  {
    net::ShipperOptions soptions;
    soptions.port = port;
    soptions.shipper_id = 6;
    net::SnapshotShipper shipper(soptions);
    shipper.Start();
    shipper.Offer(SnapshotBytes(first_sketch, config));
    ASSERT_TRUE(shipper.WaitUntilDrained(10000));
    shipper.Stop();
  }

  // kill -9 mid-run: no destructors, no flush, no goodbye.
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Phase 2: restart in-process on the same port + checkpoint. The
  // restored state must answer exactly like the pre-kill merge...
  net::CollectorOptions options;
  options.port = port;
  options.checkpoint_path = path;
  net::Collector<int64_t> restored(options);
  ASSERT_TRUE(restored.Start());
  EXPECT_EQ(restored.known_shippers(), size_t{1});
  {
    const auto got = restored.Quantile(0.5);
    ASSERT_TRUE(got.has_value());
    EXPECT_DOUBLE_EQ(*got, first_sketch.Quantile(0.5));
  }

  // ...and after the shipper re-ships cumulative state, match a
  // single-process run over the full stream exactly (one shipper, so the
  // merge IS the single sketch).
  StreamSketch<int64_t> full_sketch = MakeSketch(config, full);
  {
    net::ShipperOptions soptions;
    soptions.port = port;
    soptions.shipper_id = 6;
    soptions.backoff_initial_ms = 5;
    net::SnapshotShipper shipper(soptions);
    shipper.Start();
    shipper.Offer(SnapshotBytes(full_sketch, config));
    ASSERT_TRUE(shipper.WaitUntilDrained(10000));
    shipper.Stop();
  }
  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    double over_wire = -1.0;
    ASSERT_TRUE(client.Quantile(q, &over_wire));
    EXPECT_DOUBLE_EQ(over_wire, full_sketch.Quantile(q)) << q;
  }
  restored.Stop();
  std::remove(path.c_str());
}

TEST(CollectorCheckpointTest, PreFreshnessCheckpointStillRestores) {
  // Hand-craft a v1 checkpoint body — count | id | seq | frame, no
  // freshness stamps — and let the restore fall back to the old layout.
  const std::string path = TempPath("net_collector_v1.ck");
  std::remove(path.c_str());
  const SketchConfig config = KllConfig();
  const std::vector<int64_t> stream = TestStream(3000, 91);
  StreamSketch<int64_t> sketch = MakeSketch(config, stream);
  {
    wire::BufferSink body;
    wire::PutVarint(body, 1);   // one entry
    wire::PutVarint(body, 13);  // shipper id
    wire::PutVarint(body, 2);   // seq
    wire::PutBytes(body, SnapshotBytes(sketch, config));
    wire::FileSink file(path);
    ASSERT_TRUE(wire::WriteFramedBody(
        file, net::internal::kCollectorCheckpointMagic, body.bytes()));
    ASSERT_TRUE(file.SyncAndClose());
  }

  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());
  EXPECT_EQ(collector.known_shippers(), size_t{1});
  const auto got = collector.Quantile(0.5);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(*got, sketch.Quantile(0.5));
  collector.Stop();
  std::remove(path.c_str());
}

TEST(CollectorCheckpointTest, FailedCheckpointWithholdsTheAck) {
  // Every checkpoint write fails: its directory does not exist.
  const std::string dir = TempPath("net_collector_missing_dir");
  std::filesystem::remove_all(dir);
  net::CollectorOptions options;
  options.checkpoint_path = dir + "/collector.ck";
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = KllConfig();
  StreamSketch<int64_t> sketch = MakeSketch(config, TestStream(3000, 71));
  net::ShipperOptions soptions;
  soptions.port = collector.port();
  soptions.shipper_id = 12;
  soptions.backoff_initial_ms = 5;
  soptions.backoff_max_ms = 20;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(sketch, config));
  for (int i = 0; i < 2000 && shipper.failures() < 2; ++i) usleep(5000);

  // The collector serves the ship from memory but never acks it: the
  // shipper counts failures and keeps the frame queued for a retry.
  EXPECT_GE(shipper.failures(), uint64_t{2});
  EXPECT_EQ(shipper.shipped(), uint64_t{0});
  EXPECT_FALSE(shipper.WaitUntilDrained(0));
  const auto got = collector.Quantile(0.5);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(*got, sketch.Quantile(0.5));
  shipper.Stop();
  collector.Stop();
}

TEST(CollectorCheckpointTest, CheckpointWithoutPathTouchesNoFile) {
  // An empty checkpoint_path disables checkpointing. A forced Checkpoint()
  // must fail without writing "" + ".tmp" into the working directory.
  const std::filesystem::path dir = TempPath("net_collector_no_path");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  const std::filesystem::path old_cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  std::ofstream(".tmp") << "sentinel";

  net::Collector<int64_t> collector(net::CollectorOptions{});
  std::string error;
  EXPECT_FALSE(collector.Checkpoint(&error));
  EXPECT_NE(error.find("disabled"), std::string::npos) << error;
  std::string contents;
  std::getline(std::ifstream(".tmp"), contents);
  EXPECT_EQ(contents, "sentinel");

  std::filesystem::current_path(old_cwd);
  std::filesystem::remove_all(dir);
}

TEST(CollectorCheckpointTest, QueryCompletesWhileCheckpointWriterIsBlocked) {
  const std::string path = TempPath("net_collector_blocked.ck");
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());
  // A FIFO at the writer's tmp path: its open blocks until a reader opens
  // the other end, which holds the writer mid-checkpoint.
  ASSERT_EQ(mkfifo(tmp.c_str(), 0600), 0);
  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = KllConfig();
  StreamSketch<int64_t> sketch = MakeSketch(config, TestStream(3000, 72));
  net::ShipperOptions soptions;
  soptions.port = collector.port();
  soptions.shipper_id = 13;
  soptions.backoff_initial_ms = 5;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(sketch, config));
  for (int i = 0; i < 2000 && collector.accepted_snapshots() == 0; ++i) {
    usleep(5000);
  }
  ASSERT_EQ(collector.accepted_snapshots(), uint64_t{1});

  // The ship is merged and its ack waits on the held writer, yet a query
  // completes. (EXPECT, not ASSERT: the writer must be released below.)
  net::CollectorClient<int64_t> client;
  EXPECT_TRUE(client.Connect("127.0.0.1", collector.port()));
  double got = 0.0;
  EXPECT_TRUE(client.Quantile(0.5, &got));
  EXPECT_DOUBLE_EQ(got, sketch.Quantile(0.5));
  EXPECT_EQ(shipper.shipped(), uint64_t{0});

  // Release the writer by reading the FIFO to EOF. fsync fails on a FIFO,
  // so that write withholds the ack; the shipper's retry then writes a
  // regular file and is acked.
  const int fd = open(tmp.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  char buf[4096];
  while (read(fd, buf, sizeof(buf)) > 0) {
  }
  close(fd);
  ASSERT_TRUE(shipper.WaitUntilDrained(10000));
  EXPECT_EQ(shipper.shipped(), uint64_t{1});
  EXPECT_GE(shipper.failures(), uint64_t{1});
  shipper.Stop();
  collector.Stop();
  std::remove(path.c_str());
  std::remove(tmp.c_str());
}

TEST(CollectorCheckpointTest, ConcurrentShipsReviveOnceAndShareCheckpoints) {
  const std::string path = TempPath("net_collector_work.ck");
  std::remove(path.c_str());
  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = KllConfig();
  constexpr uint64_t kShippers = 3;
  constexpr uint64_t kRounds = 8;
  std::vector<std::unique_ptr<net::SnapshotShipper>> shippers;
  std::vector<StreamSketch<int64_t>> sketches;
  for (uint64_t i = 0; i < kShippers; ++i) {
    net::ShipperOptions soptions;
    soptions.port = collector.port();
    soptions.shipper_id = 21 + i;
    shippers.push_back(std::make_unique<net::SnapshotShipper>(soptions));
    shippers.back()->Start();
    sketches.push_back(SketchRegistry<int64_t>::Global().Create(config));
  }
  const uint64_t revives0 = obs::WireDeserializeNs(config.kind).Read().count;
  const uint64_t writes0 = obs::NetCheckpointNs().Read().count;
  for (uint64_t round = 0; round < kRounds; ++round) {
    for (uint64_t i = 0; i < kShippers; ++i) {
      sketches[i].InsertBatch(TestStream(500, 1000 * round + i));
      shippers[i]->Offer(SnapshotBytes(sketches[i], config));
    }
    for (auto& shipper : shippers) {
      ASSERT_TRUE(shipper->WaitUntilDrained(10000));
    }
  }
  for (auto& shipper : shippers) shipper->Stop();

  // Work counts, not wall time: one revive per received ship (the
  // accept-time validation, kept for every rebuild) and at most one
  // checkpoint write per accepted ship.
  const uint64_t ships = collector.accepted_snapshots();
  EXPECT_EQ(ships, kShippers * kRounds);
  EXPECT_EQ(obs::WireDeserializeNs(config.kind).Read().count - revives0,
            ships);
  const uint64_t writes = obs::NetCheckpointNs().Read().count - writes0;
  EXPECT_GE(writes, uint64_t{1});
  EXPECT_LE(writes, ships);
  collector.Stop();
  std::remove(path.c_str());
}

/// Forks a child that serves a checkpointing collector on `port` until it
/// is killed; returns its pid once it accepts, or -1. An empty `path`
/// serves without checkpoints. Call only while no other thread runs in
/// this process.
pid_t ForkCheckpointingCollector(uint16_t port, const std::string& path) {
  int ready_pipe[2];
  if (pipe(ready_pipe) != 0) return -1;
  const pid_t child = fork();
  if (child == 0) {
    close(ready_pipe[0]);
    net::CollectorOptions options;
    options.port = port;
    options.checkpoint_path = path;
    net::Collector<int64_t> collector(options);
    if (!collector.Start()) _exit(1);
    const char ready = 'R';
    if (write(ready_pipe[1], &ready, 1) != 1) _exit(1);
    for (;;) pause();  // SIGKILL is the only exit
  }
  close(ready_pipe[1]);
  char ready = 0;
  const bool up = child > 0 && read(ready_pipe[0], &ready, 1) == 1;
  close(ready_pipe[0]);
  return up ? child : -1;
}

// Group commit keeps the kill -9 promise: SIGKILL lands at seeded points
// while three shippers ship concurrently, and every ship acked before it
// must be in the restored state.
TEST(CollectorCheckpointTest, Kill9AtSeededPointsLosesNoAckedShip) {
  const std::string path = TempPath("net_collector_kill9_cycles.ck");
  std::remove(path.c_str());
  const uint16_t port = ReservePort();
  SketchConfig config;
  config.kind = "reservoir";
  config.capacity = 4096;  // keeps every element, and so does its merge
  constexpr int kShippers = 3;
  std::vector<std::unique_ptr<net::SnapshotShipper>> shippers;
  std::vector<StreamSketch<int64_t>> sketches;
  for (int i = 0; i < kShippers; ++i) {
    sketches.push_back(SketchRegistry<int64_t>::Global().Create(config));
    net::ShipperOptions soptions;
    soptions.port = port;
    soptions.shipper_id = static_cast<uint64_t>(i) + 1;
    soptions.connect_timeout_ms = 200;
    soptions.backoff_initial_ms = 2;
    soptions.backoff_max_ms = 20;
    shippers.push_back(std::make_unique<net::SnapshotShipper>(soptions));
  }
  // Shipper i's k-th offer holds elements Key(i, 1) .. Key(i, k), so the
  // restored sample shows the newest of its ships on disk.
  const auto key = [](int i, uint64_t k) {
    return static_cast<int64_t>(1000 * (i + 1) + k);
  };
  std::vector<uint64_t> offered(kShippers, 0);
  std::vector<uint64_t> acked(kShippers, 0);
  const auto offer = [&] {
    for (int i = 0; i < kShippers; ++i) {
      ++offered[i];
      sketches[i].Insert(key(i, offered[i]));
      shippers[i]->Offer(SnapshotBytes(sketches[i], config), offered[i]);
    }
  };
  const auto drain = [&] {
    bool drained = true;
    for (int i = 0; i < kShippers; ++i) {
      if (shippers[i]->WaitUntilDrained(10000)) {
        acked[i] = offered[i];
      } else {
        drained = false;
      }
    }
    return drained;
  };

  Rng rng(0xC1C1E5);
  for (int cycle = 0; cycle < 20; ++cycle) {
    // Fork while no thread runs here: the shippers are stopped.
    const pid_t child = ForkCheckpointingCollector(port, path);
    ASSERT_GT(child, 0);
    for (auto& shipper : shippers) shipper->Start();
    EXPECT_TRUE(drain());  // what the last kill left in flight
    for (uint64_t r = rng.NextBelow(3); r > 0; --r) {
      offer();
      EXPECT_TRUE(drain());
    }
    // One more concurrent round, cut at a seeded point.
    std::vector<uint64_t> shipped_before(kShippers);
    for (int i = 0; i < kShippers; ++i) {
      shipped_before[i] = shippers[i]->shipped();
    }
    offer();
    usleep(static_cast<useconds_t>(rng.NextBelow(4000)));
    ASSERT_EQ(kill(child, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(child, &wstatus, 0), child);
    for (auto& shipper : shippers) shipper->Stop();
    for (int i = 0; i < kShippers; ++i) {
      if (shippers[i]->shipped() > shipped_before[i]) acked[i] = offered[i];
    }

    // Restore in process (ephemeral port; it receives no ship, so it never
    // writes the checkpoint).
    net::CollectorOptions options;
    options.checkpoint_path = path;
    net::Collector<int64_t> restored(options);
    ASSERT_TRUE(restored.Start());
    for (int i = 0; i < kShippers; ++i) {
      uint64_t held = 0;
      while (held < offered[i] &&
             restored.EstimateFrequency(key(i, held + 1)).value_or(0.0) >
                 0.0) {
        ++held;
      }
      EXPECT_GE(held, acked[i]) << "cycle " << cycle << " shipper " << i + 1;
    }
    restored.Stop();
  }
  std::remove(path.c_str());
}

// ------------------------------------ query arguments and empty views ----

/// Sends one query of `kind` (`arg` is q, phi, or the element for
/// kFrequency); true only on a kOk answer.
bool Ask(net::CollectorClient<int64_t>& client, net::QueryKind kind,
         double arg, net::Status* status) {
  double value = 0.0;
  std::vector<HeavyHitter> hits;
  switch (kind) {
    case net::QueryKind::kQuantile:
      return client.Quantile(arg, &value, status);
    case net::QueryKind::kHeavyHitters:
      return client.HeavyHitters(arg, &hits, status);
    case net::QueryKind::kFrequency:
      return client.EstimateFrequency(static_cast<int64_t>(arg), &value,
                                      status);
  }
  return false;
}

// No client query can abort the collector. Each probe ships one frame to
// a collector in a forked child, then asks a question the merged view
// cannot answer: an argument outside the kind's domain (kMalformed), or
// a view that holds no element (kEmpty). The child must survive, and the
// connection must stay open: the same question asked again on it gets
// the same status.
TEST(CollectorTest, NoClientQueryAbortsTheCollector) {
  struct Probe {
    const char* name;
    SketchConfig config;
    size_t elements;
    net::QueryKind kind;
    double arg;
    net::Status expected;
  };
  SketchConfig reservoir;
  reservoir.kind = "reservoir";
  reservoir.capacity = 64;
  SketchConfig robust;
  robust.kind = "robust_sample";
  SketchConfig bernoulli;
  bernoulli.kind = "bernoulli";
  bernoulli.probability = 0.0;  // sees every element, keeps none
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using net::QueryKind;
  using net::Status;
  const std::vector<Probe> probes = {
      {"kll q=1.5", KllConfig(), 1000, QueryKind::kQuantile, 1.5,
       Status::kMalformed},
      {"kll q=NaN", KllConfig(), 1000, QueryKind::kQuantile, nan,
       Status::kMalformed},
      {"kll q=-inf", KllConfig(), 1000, QueryKind::kQuantile, -inf,
       Status::kMalformed},
      {"empty kll", KllConfig(), 0, QueryKind::kQuantile, 0.5,
       Status::kEmpty},
      {"empty robust_sample", robust, 0, QueryKind::kQuantile, 0.5,
       Status::kEmpty},
      {"empty reservoir", reservoir, 0, QueryKind::kQuantile, 0.5,
       Status::kEmpty},
      {"reservoir q=1.5", reservoir, 1000, QueryKind::kQuantile, 1.5,
       Status::kMalformed},
      {"reservoir q=NaN", reservoir, 1000, QueryKind::kQuantile, nan,
       Status::kMalformed},
      {"bernoulli sample kept nothing", bernoulli, 1000,
       QueryKind::kQuantile, 0.5, Status::kEmpty},
      {"count_min phi=0", CountMinConfig(), 1000, QueryKind::kHeavyHitters,
       0.0, Status::kMalformed},
      {"count_min phi=1.5", CountMinConfig(), 1000,
       QueryKind::kHeavyHitters, 1.5, Status::kMalformed},
      {"count_min phi=NaN", CountMinConfig(), 1000,
       QueryKind::kHeavyHitters, nan, Status::kMalformed},
      {"reservoir phi=inf", reservoir, 1000, QueryKind::kHeavyHitters, inf,
       Status::kMalformed},
      {"empty count_min frequency", CountMinConfig(), 0,
       QueryKind::kFrequency, 7.0, Status::kEmpty},
  };
  for (const Probe& probe : probes) {
    SCOPED_TRACE(probe.name);
    const uint16_t port = ReservePort();
    // Fork while no thread runs here: the shipper starts after. Only
    // EXPECTs until the child is reaped, so a failure never leaks it.
    const pid_t child = ForkCheckpointingCollector(port, "");
    ASSERT_GT(child, 0);
    net::ShipperOptions soptions;
    soptions.port = port;
    soptions.shipper_id = 1;
    net::SnapshotShipper shipper(soptions);
    shipper.Start();
    const StreamSketch<int64_t> sketch =
        MakeSketch(probe.config, TestStream(probe.elements, 77));
    shipper.Offer(SnapshotBytes(sketch, probe.config));
    EXPECT_TRUE(shipper.WaitUntilDrained(5000));
    shipper.Stop();
    net::CollectorClient<int64_t> client;
    EXPECT_TRUE(client.Connect("127.0.0.1", port));
    for (int ask = 0; ask < 2; ++ask) {
      Status status = Status::kOk;
      EXPECT_FALSE(Ask(client, probe.kind, probe.arg, &status));
      EXPECT_EQ(status, probe.expected) << "ask " << ask;
    }
    EXPECT_TRUE(client.connected());
    int wstatus = 0;
    const pid_t exited = waitpid(child, &wstatus, WNOHANG);
    EXPECT_EQ(exited, 0) << "the collector died, signal "
                         << (WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : 0);
    if (exited == 0) {
      kill(child, SIGKILL);
      waitpid(child, &wstatus, 0);
    }
  }
}

// ------------------------------------------------ freshness / v2 ships ----

TEST(FreshnessTest, QueryResultsCarryTheShippedWatermark) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> stream_a = TestStream(4000, 111);
  const std::vector<int64_t> stream_b = TestStream(6000, 112);

  net::ShipperOptions ship_a;
  ship_a.port = collector.port();
  ship_a.shipper_id = 31;
  net::ShipperOptions ship_b = ship_a;
  ship_b.shipper_id = 32;
  net::SnapshotShipper shipper_a(ship_a);
  net::SnapshotShipper shipper_b(ship_b);
  shipper_a.Start();
  shipper_b.Start();
  shipper_a.Offer(SnapshotBytes(MakeSketch(config, stream_a), config),
                  /*total_ingested=*/stream_a.size());
  shipper_b.Offer(SnapshotBytes(MakeSketch(config, stream_b), config),
                  /*total_ingested=*/stream_b.size());
  ASSERT_TRUE(shipper_a.WaitUntilDrained(5000));
  ASSERT_TRUE(shipper_b.WaitUntilDrained(5000));
  shipper_a.Stop();
  shipper_b.Stop();

  // Every answer is annotated: the watermark floor is the LEAST advanced
  // shipper (what the merge is guaranteed to cover), and both shipped in
  // the past so staleness is strictly positive.
  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  double out = 0.0;
  net::QueryFreshness fresh;
  ASSERT_TRUE(client.EstimateFrequency(int64_t{7}, &out, nullptr, &fresh));
  EXPECT_EQ(fresh.contributing_shippers, uint64_t{2});
  EXPECT_EQ(fresh.min_watermark, uint64_t{4000});
  EXPECT_GT(fresh.max_staleness_ns, uint64_t{0});

  // The annotation rides error statuses too: an unsupported query still
  // tells the caller how fresh the view it could not serve was.
  double q = 0.0;
  net::Status status = net::Status::kOk;
  net::QueryFreshness fresh_on_error;
  EXPECT_FALSE(client.Quantile(0.5, &q, &status, &fresh_on_error));
  EXPECT_EQ(status, net::Status::kUnsupported);
  EXPECT_EQ(fresh_on_error.min_watermark, uint64_t{4000});
  EXPECT_EQ(fresh_on_error.contributing_shippers, uint64_t{2});
  collector.Stop();
}

TEST(FreshnessTest, AnswerAndFreshnessComeFromOneView) {
  // A reservoir that keeps every element of 1..w answers Quantile(1.0) = w,
  // and w is also the shipped watermark: an answer and its annotation
  // taken from different views would disagree.
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());
  SketchConfig config;
  config.kind = "reservoir";
  config.capacity = 4096;
  config.seed = 0x4E7;
  StreamSketch<int64_t> sketch =
      SketchRegistry<int64_t>::Global().Create(config);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> answers{0};
  std::thread reader([&] {
    net::CollectorClient<int64_t> client;
    ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
    while (!done.load()) {
      double got = 0.0;
      net::Status status = net::Status::kOk;
      net::QueryFreshness fresh;
      if (!client.Quantile(1.0, &got, &status, &fresh)) {
        ASSERT_EQ(status, net::Status::kEmpty);
        continue;
      }
      ASSERT_EQ(got, static_cast<double>(fresh.min_watermark));
      answers.fetch_add(1);
    }
  });

  net::ShipperOptions soptions;
  soptions.port = collector.port();
  soptions.shipper_id = 41;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  int64_t w = 0;
  for (int round = 0; round < 64; ++round) {
    std::vector<int64_t> more;
    for (int i = 0; i < 32; ++i) more.push_back(++w);
    sketch.InsertBatch(more);
    shipper.Offer(SnapshotBytes(sketch, config),
                  /*total_ingested=*/static_cast<uint64_t>(w));
    ASSERT_TRUE(shipper.WaitUntilDrained(5000));
  }
  // Let the reader see the final state too.
  const uint64_t seen = answers.load();
  for (int i = 0; i < 5000 && answers.load() < seen + 2; ++i) usleep(1000);
  done.store(true);
  reader.join();
  shipper.Stop();
  EXPECT_EQ(collector.Quantile(1.0), static_cast<double>(w));
  collector.Stop();
}

TEST(FreshnessTest, StalenessGaugesMoveUnderTheFaultMatrix) {
  // A faulted link forces supersession: snapshot A dies on two hard-closed
  // connections while B replaces it, so the collector's first accepted
  // ship arrives with seq 2 — one snapshot superseded (seq_lag 1) and the
  // full watermark caught up in one merge (elements_behind 3000).
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());

  net::FaultProxyOptions poptions;
  poptions.upstream_port = collector.port();
  poptions.seed = 0xFA02;
  poptions.schedule = {net::FaultMode::kHardClose, net::FaultMode::kHardClose,
                       net::FaultMode::kPass, net::FaultMode::kPass};
  net::FaultProxy proxy(poptions);
  ASSERT_TRUE(proxy.Start());

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> first_part = TestStream(1000, 121);
  std::vector<int64_t> cumulative = first_part;
  const std::vector<int64_t> second_part = TestStream(2000, 122);
  cumulative.insert(cumulative.end(), second_part.begin(), second_part.end());

  constexpr uint64_t kShipperId = 41;  // unique: gauges are process-global
  net::ShipperOptions soptions;
  soptions.port = proxy.port();
  soptions.shipper_id = kShipperId;
  soptions.connect_timeout_ms = 300;
  soptions.io_timeout_ms = 400;
  soptions.backoff_initial_ms = 5;
  soptions.backoff_max_ms = 50;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(MakeSketch(config, first_part), config),
                /*total_ingested=*/first_part.size());
  shipper.Offer(SnapshotBytes(MakeSketch(config, cumulative), config),
                /*total_ingested=*/cumulative.size());
  ASSERT_TRUE(shipper.WaitUntilDrained(20000));
  shipper.Stop();

  // Only the latest cumulative snapshot lands (seq 2 of 2 offered).
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{1});
  EXPECT_GE(shipper.superseded(), uint64_t{1});

  // RefreshFreshnessLocked ran at merge time, so the per-shipper gauges
  // already reflect the degraded delivery.
  EXPECT_EQ(obs::NetStalenessSeqLag(kShipperId).Value(), 1);
  EXPECT_EQ(obs::NetStalenessElementsBehind(kShipperId).Value(), 3000);
  EXPECT_GT(obs::NetStalenessNs(kShipperId).Value(), 0);
  // The e2e produce->merge histogram saw exactly the merged ship.
  EXPECT_GE(obs::NetE2eProduceMergeNs().Read().count, uint64_t{1});

  // The wire annotation agrees with the gauges.
  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  double out = 0.0;
  net::QueryFreshness fresh;
  ASSERT_TRUE(client.EstimateFrequency(int64_t{7}, &out, nullptr, &fresh));
  EXPECT_EQ(fresh.contributing_shippers, uint64_t{1});
  EXPECT_EQ(fresh.min_watermark, cumulative.size());
  EXPECT_GT(fresh.max_staleness_ns, uint64_t{0});
  proxy.Stop();
  collector.Stop();
}

TEST(FreshnessTest, V1ShipFrameWithoutFreshnessTailStillAccepted) {
  // Wire-evolution contract (docs/wire.md): a v2 reader accepts v1
  // payloads. Hand-craft the pre-freshness kShip layout — shipper_id, seq,
  // snapshot frame, nothing after — and deliver it over a raw socket.
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> stream = TestStream(3000, 131);
  StreamSketch<int64_t> sketch = MakeSketch(config, stream);

  const int fd = net::ConnectWithDeadline("127.0.0.1", collector.port(),
                                          1000);
  ASSERT_GE(fd, 0);
  net::SetSocketDeadlines(fd, 5000, 5000);
  {
    wire::BufferSink payload;
    wire::PutVarint(payload, 51);  // shipper_id
    wire::PutVarint(payload, 1);   // seq
    wire::PutBytes(payload, SnapshotBytes(sketch, config));
    // v1 ends here: no produced_ns, no total_ingested.
    net::SocketSink sink(fd);
    ASSERT_TRUE(
        net::WriteMessage(sink, net::MessageType::kShip, payload.bytes()));
    ASSERT_TRUE(sink.ok());
  }
  {
    net::SocketSource source(fd);
    net::MessageType type;
    std::vector<uint8_t> ack;
    std::string error;
    ASSERT_TRUE(net::ReadMessage(source, &type, &ack, &error)) << error;
    ASSERT_EQ(type, net::MessageType::kShipAck);
    net::Status status = net::Status::kMalformed;
    ASSERT_TRUE(net::ParseStatusPayload(ack, &status));
    EXPECT_EQ(status, net::Status::kOk);
  }
  close(fd);

  // The v1 ship merged for real, and its absent stamps read as zero in
  // the freshness annotation (min_watermark 0 = "not tracked").
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{1});
  const auto freq = collector.EstimateFrequency(7);
  ASSERT_TRUE(freq.has_value());
  EXPECT_DOUBLE_EQ(*freq, sketch.EstimateFrequency(7));

  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  double out = 0.0;
  net::QueryFreshness fresh;
  fresh.min_watermark = 99;
  fresh.max_staleness_ns = 99;
  ASSERT_TRUE(client.EstimateFrequency(int64_t{7}, &out, nullptr, &fresh));
  EXPECT_EQ(fresh.contributing_shippers, uint64_t{1});
  EXPECT_EQ(fresh.min_watermark, uint64_t{0});
  EXPECT_EQ(fresh.max_staleness_ns, uint64_t{0});
  collector.Stop();
}

// --------------------------------------------------- embedded admin ----

/// Minimal HTTP/1.0 GET against the collector's embedded admin plane
/// (obs_admin_test covers the server itself; this covers the embedding).
std::string HttpGetBody(uint16_t port, const std::string& path,
                        int* status_out) {
  const int fd = net::ConnectWithDeadline("127.0.0.1", port, 2000);
  EXPECT_GE(fd, 0);
  if (fd < 0) return "";
  net::SetSocketDeadlines(fd, 5000, 5000);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_TRUE(wire::WriteAllFd(fd, request.data(), request.size(),
                               /*socket_nosignal=*/true));
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos || response.size() < 12) return "";
  *status_out = std::atoi(response.substr(9, 3).c_str());
  return response.substr(header_end + 4);
}

TEST(CollectorAdminTest, EmbeddedPlaneServesShippersView) {
  net::CollectorOptions options;
  options.admin_port = 0;  // ephemeral
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());
  ASSERT_NE(collector.admin_port(), 0);

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> stream = TestStream(2500, 141);
  net::ShipperOptions soptions;
  soptions.port = collector.port();
  soptions.shipper_id = 61;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(MakeSketch(config, stream), config),
                /*total_ingested=*/stream.size());
  ASSERT_TRUE(shipper.WaitUntilDrained(5000));
  shipper.Stop();

  int status = 0;
  const std::string body =
      HttpGetBody(collector.admin_port(), "/shippers", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"shipper\":61"), std::string::npos) << body;
  EXPECT_NE(body.find("\"total_ingested\":2500"), std::string::npos) << body;
  EXPECT_NE(body.find("\"seq\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"contributing_shippers\":1"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"min_watermark\":2500"), std::string::npos) << body;

  int health_status = 0;
  const std::string health =
      HttpGetBody(collector.admin_port(), "/healthz", &health_status);
  EXPECT_EQ(health_status, 200);
  EXPECT_EQ(health, "ok\n");

  // Stop tears the plane down with the collector.
  const uint16_t admin_port = collector.admin_port();
  collector.Stop();
  EXPECT_LT(net::ConnectWithDeadline("127.0.0.1", admin_port, 200), 0);
}

TEST(CollectorAdminTest, DisabledByDefault) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());
  EXPECT_EQ(collector.admin_port(), 0);
  collector.Stop();
}

}  // namespace
}  // namespace robust_sampling

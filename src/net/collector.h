#ifndef ROBUST_SAMPLING_NET_COLLECTOR_H_
#define ROBUST_SAMPLING_NET_COLLECTOR_H_

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "heavy/frequency_estimator.h"
#include "net/protocol.h"
#include "net/socket_io.h"
#include "obs/admin_server.h"
#include "obs/catalog.h"
#include "obs/flight_recorder.h"
#include "pipeline/stream_sketch.h"
#include "wire/snapshot.h"

namespace robust_sampling {
namespace net {

// ---------------------------------------------------------------------------
// Collector: the aggregation-tier service. Accepts N shipper connections,
// revives every shipped "RSNP" snapshot through SketchRegistry<T> once, at
// accept, keeps the revived sketch beside its frame, folds the per-shipper
// *latest* sketches into one merged sketch, and serves the erased query
// surface (Quantile / HeavyHitters / EstimateFrequency) over the same
// protocol.
//
// Correctness under failure rests on two invariants:
//
//  * Ships are cumulative and keyed by (shipper_id, seq): the collector
//    keeps only the newest snapshot per shipper and rebuilds the merged
//    view by folding those. A shipper that reconnects and re-ships after
//    an outage (or after the collector itself restarted) replaces its own
//    contribution — nothing is ever double-counted, at worst the merge is
//    stale by one outage.
//  * Checkpoints persist the raw per-shipper frames (each internally
//    checksummed) through wire::AtomicWriteFile, so a kill -9 at any
//    moment leaves either the previous or the new complete checkpoint on
//    disk. A ship is acked only once a checkpoint covering it is durable
//    (group commit: ships that arrive during one write share the next),
//    so a restarted collector restores every acked ship and answers
//    queries identically.
//
// Malformed input never propagates: a frame or snapshot that fails to
// parse is counted (rs_net_collector_rejects_total), flight-recorded, the
// shipper gets a kMalformed ack when the channel still works, and the
// connection is dropped — fail closed, never merge garbage. Every query,
// over the wire or in process, passes one check first (QueryStatusLocked):
// an argument outside its kind's domain is refused with kMalformed (the
// connection stays open), and a view holding no element answers kEmpty.
// ---------------------------------------------------------------------------

namespace internal {

inline constexpr char kCollectorCheckpointMagic[4] = {'R', 'N', 'C', 'K'};

}  // namespace internal

struct CollectorOptions {
  /// 0 binds an ephemeral loopback port (read it back via port()).
  uint16_t port = 0;
  /// Empty disables checkpointing.
  std::string checkpoint_path;
  /// Checkpoint after every N accepted snapshots (>= 1).
  uint64_t checkpoint_every_snapshots = 1;
  /// recv/send deadline on established connections.
  int io_timeout_ms = 2000;
  /// Granularity at which idle connection/accept loops re-check Stop().
  int idle_poll_ms = 50;
  /// Admin plane (GET /metrics, /healthz, /shippers, /trace[.json]):
  /// -1 disables it, 0 binds an ephemeral loopback port (read it back via
  /// admin_port()), anything else binds that port. A failed admin bind is
  /// recorded but never stops the collector — the data plane wins.
  int admin_port = -1;
};

template <typename T>
class Collector {
 public:
  explicit Collector(CollectorOptions options)
      : options_(std::move(options)) {}

  ~Collector() { Stop(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Binds, restores any existing checkpoint, and starts accepting.
  /// False (with a reason) only on bind failure; a corrupt checkpoint is
  /// recorded and counted but the service starts with empty state —
  /// fail closed, stay up.
  bool Start(std::string* error = nullptr) {
    if (listen_fd_ >= 0) return true;
    listen_fd_ = ListenLoopback(options_.port, &port_);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = "collector: cannot bind loopback port";
      return false;
    }
    if (!options_.checkpoint_path.empty()) {
      std::string restore_error;
      if (!RestoreFromCheckpoint(&restore_error) && !restore_error.empty()) {
        obs::FlightRecorder::Global().RecordError(
            "net", "collector restore rejected: " + restore_error);
      }
    }
    if (options_.admin_port >= 0) {
      obs::AdminServerOptions admin_options;
      admin_options.port = static_cast<uint16_t>(options_.admin_port);
      admin_ = std::make_unique<obs::AdminServer>(admin_options);
      admin_->RegisterHandler("/shippers", "application/json",
                              [this] { return ShippersJson(); });
      std::string admin_error;
      if (!admin_->Start(&admin_error)) {
        obs::FlightRecorder::Global().RecordError(
            "net", "collector admin plane failed: " + admin_error);
        admin_.reset();
      }
    }
    stop_.store(false, std::memory_order_release);
    accept_thread_ = std::thread(&Collector::AcceptLoop, this);
    return true;
  }

  void Stop() {
    if (listen_fd_ < 0) return;
    if (admin_ != nullptr) {
      admin_->Stop();
      admin_.reset();
    }
    stop_.store(true, std::memory_order_release);
    if (accept_thread_.joinable()) accept_thread_.join();
    close(listen_fd_);
    listen_fd_ = -1;
    ReapConnections(/*all=*/true);
  }

  uint16_t port() const { return port_; }

  /// The admin plane's bound port; 0 when disabled or failed to bind.
  uint16_t admin_port() const {
    return admin_ != nullptr ? admin_->port() : 0;
  }

  uint64_t accepted_snapshots() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  uint64_t rejects() const { return rejects_.load(std::memory_order_relaxed); }
  uint64_t queries_served() const {
    return queries_.load(std::memory_order_relaxed);
  }

  size_t known_shippers() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return latest_.size();
  }

  /// Local (in-process) views of the merged state — the same lock, check
  /// and sketch the network queries use, so a bench can compare in-process
  /// truth against over-the-wire answers. nullopt wherever a network query
  /// would get a status other than kOk.
  std::optional<double> Quantile(double q) const {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (QueryStatusLocked(QueryKind::kQuantile, q) != Status::kOk) {
      return std::nullopt;
    }
    return merged_.Quantile(q);
  }

  std::optional<double> EstimateFrequency(const T& x) const {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (QueryStatusLocked(QueryKind::kFrequency, 0.0) != Status::kOk) {
      return std::nullopt;
    }
    return merged_.EstimateFrequency(x);
  }

  std::optional<std::vector<HeavyHitter>> HeavyHitters(double phi) const {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (QueryStatusLocked(QueryKind::kHeavyHitters, phi) != Status::kOk) {
      return std::nullopt;
    }
    return merged_.HeavyHitters(phi);
  }

  /// Writes a checkpoint of the current state now (accepted ships also
  /// checkpoint on their own, every checkpoint_every_snapshots). False
  /// with a reason when checkpointing is disabled — no file is touched —
  /// or the write fails.
  bool Checkpoint(std::string* error = nullptr) {
    if (options_.checkpoint_path.empty()) {
      return CheckpointFail(error, "collector: checkpointing is disabled");
    }
    return CommitCheckpoint(std::nullopt, error);
  }

 private:
  struct SourceState {
    uint64_t seq = 0;
    // Complete "RSNP" snapshot frame; shared with in-flight checkpoint
    // writes, which run outside state_mu_.
    std::shared_ptr<const std::vector<uint8_t>> frame;
    // `frame` revived once, at accept or restore. Never mutated, so a copy
    // of it carries the RNG state a fresh revive would.
    StreamSketch<T> sketch;
    // Protocol-v2 freshness stamps (0 when the shipper sent a v1 payload).
    uint64_t produced_ns = 0;      // shipper wall clock at Offer time
    uint64_t total_ingested = 0;   // producer watermark the frame covers
    // Derived at merge time, frozen until the next accepted ship.
    uint64_t seq_lag = 0;          // snapshots superseded before this ship
    uint64_t elements_behind = 0;  // watermark delta this ship caught up
  };

  /// One checkpoint row, captured under state_mu_ and written outside it.
  struct CheckpointEntry {
    uint64_t id;
    uint64_t seq;
    std::shared_ptr<const std::vector<uint8_t>> frame;
    uint64_t produced_ns;
    uint64_t total_ingested;
  };

  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop() {
    while (!stop_.load(std::memory_order_acquire)) {
      ReapConnections(/*all=*/false);
      const int fd = AcceptWithTimeout(listen_fd_, options_.idle_poll_ms);
      if (fd < 0) continue;  // idle tick or accept error; re-check stop
      Connection& conn = conns_.emplace_back();
      conn.thread =
          std::thread(&Collector::ServeConnection, this, fd, &conn.done);
      obs::NetConnections().Add(1);
    }
  }

  /// Joins connection threads that have finished — every one when `all`
  /// (Stop(), after stop_ is set). conns_ belongs to the accept thread,
  /// and to Stop() once that thread is joined.
  void ReapConnections(bool all) {
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (!all && !it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      it = conns_.erase(it);
      obs::NetConnections().Add(-1);
    }
  }

  void ServeConnection(int fd, std::atomic<bool>* done) {
    SetSocketDeadlines(fd, options_.io_timeout_ms, options_.io_timeout_ms);
    while (!stop_.load(std::memory_order_acquire)) {
      // Wait for the next frame with poll + MSG_PEEK so a clean
      // disconnect closes quietly instead of burning a frame-failure
      // event on the EOF.
      pollfd pfd = {fd, POLLIN, 0};
      const int rc = poll(&pfd, 1, options_.idle_poll_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (rc == 0) continue;  // idle; re-check stop
      uint8_t peek = 0;
      const ssize_t got = recv(fd, &peek, 1, MSG_PEEK);
      if (got == 0) break;  // peer closed between messages
      if (got < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        break;
      }
      SocketSource source(fd);
      MessageType type;
      std::vector<uint8_t> payload;
      std::string error;
      if (!ReadMessage(source, &type, &payload, &error)) {
        // Mid-frame truncation, bad magic, checksum mismatch, unknown
        // type: fail closed — count, record, drop the connection. The
        // peer's reconnect path owns recovery.
        RecordReject("collector read: " + error);
        break;
      }
      bool keep = false;
      if (type == MessageType::kShip) {
        keep = HandleShip(payload, fd);
      } else if (type == MessageType::kQuery) {
        keep = HandleQuery(payload, fd);
      } else {
        RecordReject("collector: unexpected message type");
      }
      if (!keep) break;
    }
    close(fd);
    done->store(true, std::memory_order_release);
  }

  bool HandleShip(const std::vector<uint8_t>& payload, int fd) {
    uint64_t shipper_id = 0;
    uint64_t seq = 0;
    std::vector<uint8_t> frame;
    uint64_t produced_ns = 0;
    uint64_t total_ingested = 0;
    wire::BufferSource src(payload);
    std::string error;
    bool ok = wire::GetVarint(src, &shipper_id) &&
              wire::GetVarint(src, &seq) &&
              wire::GetBytes(src, &frame, wire::kMaxBodyBytes);
    if (ok && src.remaining() != uint64_t{0}) {
      // Protocol-v2 freshness tail. A v1 payload ends at the snapshot
      // bytes and keeps the zero defaults (docs/wire.md evolution policy:
      // appended fields, reader defaults them when absent).
      ok = wire::GetVarint(src, &produced_ns) &&
           wire::GetVarint(src, &total_ingested) &&
           src.remaining() == uint64_t{0};
    }
    StreamSketch<T> revived;
    if (ok) {
      // The frame's one revive, up front: garbage must be refused before
      // it can touch the merged state or the checkpoint, and the revived
      // sketch serves every later rebuild.
      wire::BufferSource frame_source(frame);
      revived = wire::ReadSnapshot<T>(frame_source, &error);
      ok = revived.valid();
    }
    SocketSink sink(fd);
    if (!ok) {
      RecordReject("collector ship rejected: " +
                   (error.empty() ? std::string("malformed payload")
                                  : error));
      WriteStatusMessage(sink, MessageType::kShipAck, Status::kMalformed);
      return false;  // fail closed
    }
    uint64_t version = 0;
    bool checkpoint = false;
    {
      char span_detail[64];
      std::snprintf(span_detail, sizeof(span_detail),
                    "ship merge shipper=%llu seq=%llu",
                    static_cast<unsigned long long>(shipper_id),
                    static_cast<unsigned long long>(seq));
      obs::TraceSpan span("net", span_detail);
      std::lock_guard<std::mutex> lock(state_mu_);
      SourceState& entry = latest_[shipper_id];
      // An out-of-order duplicate (seq < entry.seq after a reconnect race)
      // changes nothing and still acks kOk: the collector already holds
      // newer state.
      if (entry.frame == nullptr || seq >= entry.seq) {
        // Derive the lag this ship closes before overwriting: seq gaps are
        // outbox supersessions, watermark deltas are the elements the
        // merged view was missing until now.
        entry.seq_lag = seq > entry.seq ? seq - entry.seq - 1 : 0;
        entry.elements_behind = total_ingested > entry.total_ingested
                                    ? total_ingested - entry.total_ingested
                                    : 0;
        entry.seq = seq;
        entry.frame =
            std::make_shared<const std::vector<uint8_t>>(std::move(frame));
        entry.sketch = std::move(revived);
        entry.produced_ns = produced_ns;
        entry.total_ingested = total_ingested;
        const uint64_t merge_wall_ns = WallClockNanos();
        if (produced_ns != 0 && merge_wall_ns > produced_ns) {
          obs::NetE2eProduceMergeNs().Observe(merge_wall_ns - produced_ns);
        }
        RebuildMergedLocked();
      }
      RefreshFreshnessLocked(WallClockNanos());
      accepted_.fetch_add(1, std::memory_order_relaxed);
      obs::NetCollectorSnapshots().Increment();
      version = ++state_version_;
      if (!options_.checkpoint_path.empty() &&
          ++since_checkpoint_ >= options_.checkpoint_every_snapshots) {
        since_checkpoint_ = 0;
        checkpoint = true;
      }
    }
    // The ack promises durability: it waits for a checkpoint covering this
    // ship. A failed write withholds it and drops the connection; the
    // shipper re-queues the frame and retries after backoff.
    if (checkpoint && !CommitCheckpoint(version, nullptr)) return false;
    return WriteStatusMessage(sink, MessageType::kShipAck, Status::kOk);
  }

  bool HandleQuery(const std::vector<uint8_t>& payload, int fd) {
    wire::BufferSource src(payload);
    uint64_t raw_kind = 0;
    SocketSink sink(fd);
    if (!wire::GetVarint(src, &raw_kind)) {
      RecordReject("collector query: missing kind");
      WriteStatusMessage(sink, MessageType::kQueryResult, Status::kMalformed);
      return false;
    }
    queries_.fetch_add(1, std::memory_order_relaxed);
    obs::NetQueries().Increment();
    const auto kind = static_cast<QueryKind>(raw_kind);
    double arg = 0.0;  // q or phi
    T x{};
    bool parsed = false;
    if (kind == QueryKind::kQuantile || kind == QueryKind::kHeavyHitters) {
      parsed = wire::GetDouble(src, &arg);
    } else if (kind == QueryKind::kFrequency) {
      parsed = wire::GetValue(src, &x);
    }
    if (!parsed) {
      RecordReject("collector query: malformed payload");
      WriteStatusMessage(sink, MessageType::kQueryResult, Status::kMalformed);
      return false;
    }
    wire::BufferSink result;
    wire::BufferSink response;
    Status status = Status::kOk;
    {
      // One view for the answer and its freshness: callers learn what the
      // merge was missing (watermark floor, staleness ceiling) alongside
      // the result, and no ship can land between the two.
      std::lock_guard<std::mutex> lock(state_mu_);
      status = QueryStatusLocked(kind, arg);
      if (status != Status::kMalformed) {
        if (status == Status::kOk) AnswerLocked(kind, arg, x, result);
        const QueryFreshness fresh = RefreshFreshnessLocked(WallClockNanos());
        wire::PutVarint(response, static_cast<uint64_t>(status));
        wire::PutVarint(response, fresh.contributing_shippers);
        wire::PutVarint(response, fresh.min_watermark);
        wire::PutVarint(response, fresh.max_staleness_ns);
      }
    }
    if (status == Status::kMalformed) {
      // An argument outside the kind's domain is the client's mistake:
      // refuse it status-only and keep serving this connection.
      RecordReject("collector query: argument out of range");
      return WriteStatusMessage(sink, MessageType::kQueryResult, status);
    }
    response.Append(result.bytes().data(), result.bytes().size());
    return WriteMessage(sink, MessageType::kQueryResult, response.bytes());
  }

  /// The one check in front of every query, network or in-process: kOk
  /// exactly when merged_ can answer `kind` at `arg` (q for kQuantile, phi
  /// for kHeavyHitters, unused for kFrequency) without reaching any kind's
  /// RS_CHECK. q must lie in [0, 1] and phi in (0, 1] — NaN and the
  /// infinities fail both ranges — else kMalformed. A view that holds no
  /// element (nothing merged, nothing ingested, or an empty sample) is
  /// kEmpty for every kind.
  Status QueryStatusLocked(QueryKind kind, double arg) const {
    if (kind == QueryKind::kQuantile && !(arg >= 0.0 && arg <= 1.0)) {
      return Status::kMalformed;
    }
    if (kind == QueryKind::kHeavyHitters && !(arg > 0.0 && arg <= 1.0)) {
      return Status::kMalformed;
    }
    if (!merged_.valid() || merged_.StreamSize() == 0 ||
        (merged_.Supports(kCapSampleView) && merged_.SpaceItems() == 0)) {
      return Status::kEmpty;
    }
    const SketchCapability need =
        kind == QueryKind::kQuantile       ? kCapQuantiles
        : kind == QueryKind::kHeavyHitters ? kCapHeavyHitters
                                           : kCapFrequencies;
    return merged_.Supports(need) ? Status::kOk : Status::kUnsupported;
  }

  /// Writes the answer to a query that QueryStatusLocked passed.
  void AnswerLocked(QueryKind kind, double arg, const T& x,
                    wire::BufferSink& result) const {
    if (kind == QueryKind::kQuantile) {
      wire::PutDouble(result, merged_.Quantile(arg));
    } else if (kind == QueryKind::kHeavyHitters) {
      const std::vector<HeavyHitter> hits = merged_.HeavyHitters(arg);
      wire::PutVarint(result, hits.size());
      for (const HeavyHitter& h : hits) {
        wire::PutValue<int64_t>(result, h.element);
        wire::PutDouble(result, h.frequency);
      }
    } else {
      wire::PutDouble(result, merged_.EstimateFrequency(x));
    }
  }

  /// Recomputes the per-shipper staleness gauges against `now_wall_ns` and
  /// folds them into the fleet-wide annotation. Called with state_mu_ held
  /// on every merge, query, and /shippers render, so the gauges track the
  /// freshest view an observer could have asked for.
  QueryFreshness RefreshFreshnessLocked(uint64_t now_wall_ns) const {
    QueryFreshness fresh;
    fresh.contributing_shippers = latest_.size();
    bool first = true;
    for (const auto& [id, state] : latest_) {
      const uint64_t staleness_ns =
          state.produced_ns != 0 && now_wall_ns > state.produced_ns
              ? now_wall_ns - state.produced_ns
              : 0;
      obs::NetStalenessNs(id).Set(static_cast<int64_t>(staleness_ns));
      obs::NetStalenessSeqLag(id).Set(static_cast<int64_t>(state.seq_lag));
      obs::NetStalenessElementsBehind(id).Set(
          static_cast<int64_t>(state.elements_behind));
      if (staleness_ns > fresh.max_staleness_ns) {
        fresh.max_staleness_ns = staleness_ns;
      }
      if (first || state.total_ingested < fresh.min_watermark) {
        fresh.min_watermark = state.total_ingested;
      }
      first = false;
    }
    return fresh;
  }

  /// The /shippers admin view: one JSON row per known shipper plus the
  /// fleet-wide freshness summary a query would have been annotated with.
  std::string ShippersJson() const {
    const uint64_t now_wall_ns = WallClockNanos();
    std::lock_guard<std::mutex> lock(state_mu_);
    const QueryFreshness fresh = RefreshFreshnessLocked(now_wall_ns);
    std::string out = "{\"shippers\":[";
    bool first = true;
    for (const auto& [id, state] : latest_) {
      if (!first) out += ",";
      first = false;
      const uint64_t staleness_ns =
          state.produced_ns != 0 && now_wall_ns > state.produced_ns
              ? now_wall_ns - state.produced_ns
              : 0;
      out += "{\"shipper\":" + std::to_string(id) +
             ",\"seq\":" + std::to_string(state.seq) +
             ",\"produced_ns\":" + std::to_string(state.produced_ns) +
             ",\"total_ingested\":" + std::to_string(state.total_ingested) +
             ",\"staleness_ns\":" + std::to_string(staleness_ns) +
             ",\"seq_lag\":" + std::to_string(state.seq_lag) +
             ",\"elements_behind\":" + std::to_string(state.elements_behind) +
             ",\"frame_bytes\":" + std::to_string(state.frame->size()) + "}";
    }
    out += "],\"contributing_shippers\":" +
           std::to_string(fresh.contributing_shippers) +
           ",\"min_watermark\":" + std::to_string(fresh.min_watermark) +
           ",\"max_staleness_ns\":" + std::to_string(fresh.max_staleness_ns) +
           "}";
    return out;
  }

  /// Folds the kept per-shipper sketches into merged_: a copy of the
  /// first, MergeFrom the rest, no revive. Because the kept sketches are
  /// never mutated, the answers are bit-identical to folding freshly
  /// revived frames. Cost is O(#shippers x sketch size) per accepted ship
  /// — the price of the no-double-count invariant under cumulative
  /// re-ships.
  void RebuildMergedLocked() {
    const uint64_t start_ns = obs::NowNanos();
    StreamSketch<T> merged;
    for (const auto& [id, state] : latest_) {
      if (!merged.valid()) {
        merged = state.sketch;
      } else {
        merged.MergeFrom(state.sketch);
      }
    }
    merged_ = std::move(merged);
    obs::NetCollectorMergeNs().Observe(obs::NowNanos() - start_ns);
  }

  /// Group commit. Returns once a durable checkpoint covers state version
  /// `covering` — or, with nullopt, once a write that began after the call
  /// is durable. One writer at a time captures the map under state_mu_ and
  /// writes outside every lock; callers that arrive meanwhile wait, and
  /// the next writer's capture covers all of them. A caller whose covering
  /// write failed writes for itself, so false always reports a write this
  /// caller made.
  bool CommitCheckpoint(std::optional<uint64_t> covering, std::string* error) {
    const auto covered = [&] {
      return covering.has_value() && durable_version_ >= *covering;
    };
    {
      std::unique_lock<std::mutex> lock(commit_mu_);
      commit_cv_.wait(lock, [&] { return covered() || !writer_active_; });
      if (covered()) return true;
      writer_active_ = true;
    }
    std::vector<CheckpointEntry> entries;
    uint64_t captured = 0;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      captured = state_version_;
      entries.reserve(latest_.size());
      for (const auto& [id, state] : latest_) {
        entries.push_back({id, state.seq, state.frame, state.produced_ns,
                           state.total_ingested});
      }
    }
    const bool ok = WriteCheckpoint(entries, error);
    {
      std::lock_guard<std::mutex> lock(commit_mu_);
      writer_active_ = false;
      if (ok && captured > durable_version_) durable_version_ = captured;
    }
    commit_cv_.notify_all();
    return ok;
  }

  bool WriteCheckpoint(const std::vector<CheckpointEntry>& entries,
                       std::string* error) {
    obs::ScopedLatencyTimer timer(obs::NetCheckpointNs());
    wire::BufferSink body;
    wire::PutVarint(body, entries.size());
    for (const CheckpointEntry& entry : entries) {
      wire::PutVarint(body, entry.id);
      wire::PutVarint(body, entry.seq);
      wire::PutBytes(body, *entry.frame);
      // Freshness stamps survive restarts so a restored collector still
      // reports honest watermarks/staleness for state it answered from.
      wire::PutVarint(body, entry.produced_ns);
      wire::PutVarint(body, entry.total_ingested);
    }
    std::string reason;
    if (!wire::AtomicWriteFile(options_.checkpoint_path,
                               internal::kCollectorCheckpointMagic,
                               body.bytes(), wire::BodyEncoding::kNone,
                               &reason)) {
      return CheckpointFail(error, "collector: " + reason);
    }
    return true;
  }

  /// Loads options_.checkpoint_path. False with empty error = no file
  /// (fresh start); false with a reason = corrupt file, state left empty.
  bool RestoreFromCheckpoint(std::string* error) {
    wire::FileSource file(options_.checkpoint_path);
    if (!file.open()) return false;  // fresh start, not an error
    std::vector<uint8_t> body;
    if (!wire::ReadFramedBody(file, internal::kCollectorCheckpointMagic,
                              &body, error)) {
      return false;
    }
    // Current checkpoints carry per-entry freshness stamps; pre-freshness
    // files do not. Try the new layout first and fall back to the old one
    // (the outer frame checksum already vouches for the bytes, so a parse
    // mismatch here is a layout difference, not corruption).
    std::map<uint64_t, SourceState> restored;
    if (!ParseCheckpointBody(body, /*with_freshness=*/true, &restored,
                             error) &&
        !ParseCheckpointBody(body, /*with_freshness=*/false, &restored,
                             error)) {
      return false;
    }
    std::lock_guard<std::mutex> lock(state_mu_);
    latest_ = std::move(restored);
    RebuildMergedLocked();
    return true;
  }

  bool ParseCheckpointBody(const std::vector<uint8_t>& body,
                           bool with_freshness,
                           std::map<uint64_t, SourceState>* out,
                           std::string* error) {
    wire::BufferSource source(body);
    uint64_t count = 0;
    if (!wire::GetVarint(source, &count) ||
        count > wire::kMaxVectorElements) {
      if (error != nullptr) *error = "malformed checkpoint entry count";
      return false;
    }
    std::map<uint64_t, SourceState> restored;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t id = 0;
      SourceState state;
      std::vector<uint8_t> frame;
      if (!wire::GetVarint(source, &id) ||
          !wire::GetVarint(source, &state.seq) ||
          !wire::GetBytes(source, &frame, wire::kMaxBodyBytes)) {
        if (error != nullptr) *error = "malformed checkpoint entry";
        return false;
      }
      if (with_freshness &&
          (!wire::GetVarint(source, &state.produced_ns) ||
           !wire::GetVarint(source, &state.total_ingested))) {
        if (error != nullptr) *error = "malformed checkpoint freshness";
        return false;
      }
      // Same gate as the live path: each frame must revive cleanly, and
      // the revived sketch is kept for the rebuilds.
      wire::BufferSource frame_source(frame);
      std::string revive_error;
      state.sketch = wire::ReadSnapshot<T>(frame_source, &revive_error);
      if (!state.sketch.valid()) {
        if (error != nullptr) {
          *error = "checkpoint snapshot rejected: " + revive_error;
        }
        return false;
      }
      state.frame =
          std::make_shared<const std::vector<uint8_t>>(std::move(frame));
      restored[id] = std::move(state);
    }
    if (source.remaining() != uint64_t{0}) {
      if (error != nullptr) *error = "trailing bytes after checkpoint";
      return false;
    }
    *out = std::move(restored);
    return true;
  }

  static bool CheckpointFail(std::string* error, std::string reason) {
    obs::FlightRecorder::Global().RecordError("net", reason);
    if (error != nullptr) *error = std::move(reason);
    return false;
  }

  void RecordReject(const std::string& detail) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    obs::NetCollectorRejects().Increment();
    obs::FlightRecorder::Global().RecordError("net", detail);
  }

  const CollectorOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{true};
  std::thread accept_thread_;
  std::unique_ptr<obs::AdminServer> admin_;
  std::list<Connection> conns_;  // stable addresses for Connection::done

  mutable std::mutex state_mu_;
  std::map<uint64_t, SourceState> latest_;  // ordered: stable checkpoints
  StreamSketch<T> merged_;
  uint64_t since_checkpoint_ = 0;
  uint64_t state_version_ = 0;  // bumped by every accepted ship

  // Group commit (CommitCheckpoint); never held together with state_mu_.
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  bool writer_active_ = false;
  uint64_t durable_version_ = 0;  // state_version_ of the last durable write

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejects_{0};
  std::atomic<uint64_t> queries_{0};
};

// ---------------------------------------------------------------------------
// CollectorClient: blocking query client (benches, tests, operator
// tooling). One connection, request/response in lockstep. Every call
// returns false on transport failure or a non-kOk status — a degraded
// collector is visible, never silently wrong.
// ---------------------------------------------------------------------------

template <typename T>
class CollectorClient {
 public:
  CollectorClient() = default;
  ~CollectorClient() { Close(); }
  CollectorClient(const CollectorClient&) = delete;
  CollectorClient& operator=(const CollectorClient&) = delete;

  bool Connect(const std::string& host, uint16_t port,
               int timeout_ms = 1000) {
    Close();
    fd_ = ConnectWithDeadline(host, port, timeout_ms);
    if (fd_ < 0) return false;
    SetSocketDeadlines(fd_, timeout_ms, timeout_ms);
    return true;
  }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

  bool connected() const { return fd_ >= 0; }

  bool Quantile(double q, double* out, Status* status = nullptr,
                QueryFreshness* freshness = nullptr) {
    wire::BufferSink payload;
    wire::PutVarint(payload, static_cast<uint64_t>(QueryKind::kQuantile));
    wire::PutDouble(payload, q);
    std::vector<uint8_t> result;
    if (!RoundTrip(payload.bytes(), &result, status, freshness)) {
      return false;
    }
    wire::BufferSource src(result);
    return wire::GetDouble(src, out);
  }

  bool EstimateFrequency(const T& x, double* out, Status* status = nullptr,
                         QueryFreshness* freshness = nullptr) {
    wire::BufferSink payload;
    wire::PutVarint(payload, static_cast<uint64_t>(QueryKind::kFrequency));
    wire::PutValue(payload, x);
    std::vector<uint8_t> result;
    if (!RoundTrip(payload.bytes(), &result, status, freshness)) {
      return false;
    }
    wire::BufferSource src(result);
    return wire::GetDouble(src, out);
  }

  bool HeavyHitters(double phi, std::vector<HeavyHitter>* out,
                    Status* status = nullptr,
                    QueryFreshness* freshness = nullptr) {
    wire::BufferSink payload;
    wire::PutVarint(payload,
                    static_cast<uint64_t>(QueryKind::kHeavyHitters));
    wire::PutDouble(payload, phi);
    std::vector<uint8_t> result;
    if (!RoundTrip(payload.bytes(), &result, status, freshness)) {
      return false;
    }
    wire::BufferSource src(result);
    uint64_t count = 0;
    if (!wire::GetVarint(src, &count) || count > wire::kMaxVectorElements) {
      return false;
    }
    out->clear();
    for (uint64_t i = 0; i < count; ++i) {
      HeavyHitter h{};
      if (!wire::GetValue<int64_t>(src, &h.element) ||
          !wire::GetDouble(src, &h.frequency)) {
        return false;
      }
      out->push_back(h);
    }
    return true;
  }

 private:
  bool RoundTrip(std::span<const uint8_t> query_payload,
                 std::vector<uint8_t>* result, Status* status_out,
                 QueryFreshness* freshness_out = nullptr) {
    if (fd_ < 0) return false;
    SocketSink sink(fd_);
    if (!WriteMessage(sink, MessageType::kQuery, query_payload)) {
      Close();
      return false;
    }
    SocketSource source(fd_);
    MessageType type;
    std::vector<uint8_t> payload;
    std::string error;
    if (!ReadMessage(source, &type, &payload, &error) ||
        type != MessageType::kQueryResult) {
      Close();
      return false;
    }
    wire::BufferSource src(payload);
    uint64_t raw_status = 0;
    if (!wire::GetVarint(src, &raw_status) ||
        raw_status > static_cast<uint64_t>(Status::kEmpty)) {
      Close();
      return false;
    }
    if (status_out != nullptr) {
      *status_out = static_cast<Status>(raw_status);
    }
    // Freshness annotation (status | freshness | result). Early-rejection
    // responses are status-only; everything else carries it, so surface
    // it even on kEmpty/kUnsupported answers.
    if (src.remaining() != uint64_t{0}) {
      QueryFreshness fresh;
      if (!wire::GetVarint(src, &fresh.contributing_shippers) ||
          !wire::GetVarint(src, &fresh.min_watermark) ||
          !wire::GetVarint(src, &fresh.max_staleness_ns)) {
        Close();
        return false;
      }
      if (freshness_out != nullptr) *freshness_out = fresh;
    }
    if (static_cast<Status>(raw_status) != Status::kOk) return false;
    const uint64_t consumed = payload.size() - *src.remaining();
    result->assign(payload.begin() + static_cast<ptrdiff_t>(consumed),
                   payload.end());
    return true;
  }

  int fd_ = -1;
};

}  // namespace net
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_NET_COLLECTOR_H_

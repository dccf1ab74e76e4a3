#include "obs/catalog.h"

#include <vector>

namespace robust_sampling {
namespace obs {

namespace {

// One row per metric; the accessors below must register with exactly
// these names/helps (docs_drift_test keeps docs/observability.md in step
// with this table).
constexpr MetricDescriptor kCatalog[] = {
    {"rs_pipeline_ingest_batches_total", "counter", "",
     "Batches accepted by ShardedPipeline Ingest"},
    {"rs_pipeline_ingest_elements_total", "counter", "",
     "Elements accepted by ShardedPipeline Ingest"},
    {"rs_pipeline_rejected_batches_total", "counter", "",
     "Batches rejected as oversized (max_batch_elements); never folded"},
    {"rs_pipeline_shard_elements_total", "counter", "shard",
     "Elements folded into this shard's sketch"},
    {"rs_pipeline_producer_elements_total", "counter", "producer",
     "Elements accepted through this producer handle"},
    {"rs_pipeline_partition_ns", "histogram", "",
     "Hash-partition pass latency per batch (hash, bucket, scatter)"},
    {"rs_pipeline_checkpoint_ns", "histogram", "",
     "Checkpoint end-to-end duration (serialize + write + rename)"},
    {"rs_pipeline_checkpoint_bytes", "histogram", "",
     "Checkpoint body size in bytes"},
    {"rs_pipeline_restore_ns", "histogram", "",
     "ShardedPipeline Restore end-to-end duration"},
    {"rs_wire_bytes_out_total", "counter", "",
     "Bytes written through wire file/fd sinks"},
    {"rs_wire_bytes_in_total", "counter", "",
     "Bytes read through wire file/fd sources"},
    {"rs_wire_frame_failures_total", "counter", "",
     "Framed-body reads rejected (magic/version/length/truncation/checksum)"},
    {"rs_wire_fsync_ns", "histogram", "",
     "fsync duration inside FileSink SyncAndClose (checkpoint durability)"},
    {"rs_wire_serialize_ns", "histogram", "kind",
     "Snapshot serialize latency per sketch kind"},
    {"rs_wire_deserialize_ns", "histogram", "kind",
     "Snapshot revive latency per sketch kind"},
    {"rs_wire_snapshot_bytes", "histogram", "kind",
     "Serialized snapshot size per sketch kind"},
    {"rs_wire_buffer_flushes_total", "counter", "",
     "BufferedSink windows forwarded to the wrapped sink (batched writes)"},
    {"rs_wire_compress_ratio", "histogram", "",
     "Compressed framed-body size as percent of raw (zstd frames only)"},
    {"rs_net_reconnects_total", "counter", "",
     "Shipper reconnect attempts (successful or not) after a lost link"},
    {"rs_net_backoff_wait_ns", "histogram", "",
     "Backoff sleep before each reconnect attempt (exponential + jitter)"},
    {"rs_net_ship_rtt_ns", "histogram", "",
     "Snapshot ship round-trip: send frame to collector ack received"},
    {"rs_net_snapshots_shipped_total", "counter", "",
     "Snapshots acknowledged by the collector"},
    {"rs_net_snapshots_superseded_total", "counter", "",
     "Snapshots dropped from the keep-latest outbox by a newer one"},
    {"rs_net_ship_failures_total", "counter", "",
     "Ship attempts that failed (send error, bad/missing ack)"},
    {"rs_net_collector_merge_ns", "histogram", "",
     "Collector merged-view rebuild from the kept per-shipper sketches"},
    {"rs_net_collector_snapshots_total", "counter", "",
     "Snapshots the collector accepted and merged"},
    {"rs_net_collector_rejects_total", "counter", "",
     "Frames or snapshots the collector rejected as malformed (fail closed)"},
    {"rs_net_queries_total", "counter", "",
     "Queries served by the collector over shipper/client connections"},
    {"rs_net_checkpoint_ns", "histogram", "",
     "Collector checkpoint write (serialize, write, fsync, rename), per write"},
    {"rs_net_connections", "gauge", "",
     "Connection threads the collector holds (serving or not yet joined)"},
    {"rs_net_staleness_ns", "gauge", "shipper",
     "Wall-clock age of this shipper's latest merged snapshot"},
    {"rs_net_staleness_seq_lag", "gauge", "shipper",
     "Snapshots superseded between the two most recent merged ships"},
    {"rs_net_staleness_elements_behind", "gauge", "shipper",
     "Watermark delta between the previous and latest merged snapshots"},
    {"rs_net_e2e_produce_merge_ns", "histogram", "",
     "Produce-to-merge latency (collector merge time minus produced_ns)"},
    {"rs_attacklab_trials_total", "counter", "",
     "AttackLab game trials played"},
    {"rs_attacklab_trial_ns", "histogram", "",
     "Wall time per AttackLab game trial"},
    {"rs_attacklab_adversary_accepted_total", "counter", "",
     "Adversary budget consumed: elements the sampler ever accepted"},
};

const MetricDescriptor& Find(const char* name) {
  for (const MetricDescriptor& d : kCatalog) {
    if (std::string(d.name) == name) return d;
  }
  // Unreachable for catalog-declared accessors; returning the first entry
  // keeps this function total without pulling in check.h.
  return kCatalog[0];
}

Counter& CatalogCounter(const char* name) {
  const MetricDescriptor& d = Find(name);
  return *MetricRegistry::Global().GetCounter(d.name, d.help);
}

Gauge& CatalogGauge(const char* name) {
  const MetricDescriptor& d = Find(name);
  return *MetricRegistry::Global().GetGauge(d.name, d.help);
}

Histogram& CatalogHistogram(const char* name) {
  const MetricDescriptor& d = Find(name);
  return *MetricRegistry::Global().GetHistogram(d.name, d.help);
}

Histogram& LabeledHistogram(const char* name, const std::string& value) {
  const MetricDescriptor& d = Find(name);
  return *MetricRegistry::Global().GetHistogram(d.name, d.help,
                                                {d.label_key, value});
}

}  // namespace

const std::vector<MetricDescriptor>& AllMetricDescriptors() {
  static const std::vector<MetricDescriptor> catalog(
      std::begin(kCatalog), std::end(kCatalog));
  return catalog;
}

// Unlabeled accessors cache the registry pointer in a function-local
// static: after first use the hot path costs one guard check.

Counter& PipelineIngestBatches() {
  static Counter& c = CatalogCounter("rs_pipeline_ingest_batches_total");
  return c;
}

Counter& PipelineIngestElements() {
  static Counter& c = CatalogCounter("rs_pipeline_ingest_elements_total");
  return c;
}

Counter& PipelineRejectedBatches() {
  static Counter& c = CatalogCounter("rs_pipeline_rejected_batches_total");
  return c;
}

Counter& PipelineShardElements(size_t shard) {
  const MetricDescriptor& d = Find("rs_pipeline_shard_elements_total");
  return *MetricRegistry::Global().GetCounter(
      d.name, d.help, {d.label_key, std::to_string(shard)});
}

Counter& PipelineProducerElements(size_t producer) {
  const MetricDescriptor& d = Find("rs_pipeline_producer_elements_total");
  return *MetricRegistry::Global().GetCounter(
      d.name, d.help, {d.label_key, std::to_string(producer)});
}

Histogram& PipelinePartitionNs() {
  static Histogram& h = CatalogHistogram("rs_pipeline_partition_ns");
  return h;
}

Histogram& PipelineCheckpointNs() {
  static Histogram& h = CatalogHistogram("rs_pipeline_checkpoint_ns");
  return h;
}

Histogram& PipelineCheckpointBytes() {
  static Histogram& h = CatalogHistogram("rs_pipeline_checkpoint_bytes");
  return h;
}

Histogram& PipelineRestoreNs() {
  static Histogram& h = CatalogHistogram("rs_pipeline_restore_ns");
  return h;
}

Counter& WireBytesOut() {
  static Counter& c = CatalogCounter("rs_wire_bytes_out_total");
  return c;
}

Counter& WireBytesIn() {
  static Counter& c = CatalogCounter("rs_wire_bytes_in_total");
  return c;
}

Counter& WireFrameFailures() {
  static Counter& c = CatalogCounter("rs_wire_frame_failures_total");
  return c;
}

Histogram& WireFsyncNs() {
  static Histogram& h = CatalogHistogram("rs_wire_fsync_ns");
  return h;
}

Histogram& WireSerializeNs(const std::string& kind) {
  return LabeledHistogram("rs_wire_serialize_ns", kind);
}

Histogram& WireDeserializeNs(const std::string& kind) {
  return LabeledHistogram("rs_wire_deserialize_ns", kind);
}

Histogram& WireSnapshotBytes(const std::string& kind) {
  return LabeledHistogram("rs_wire_snapshot_bytes", kind);
}

Counter& WireBufferFlushes() {
  static Counter& c = CatalogCounter("rs_wire_buffer_flushes_total");
  return c;
}

Histogram& WireCompressRatio() {
  static Histogram& h = CatalogHistogram("rs_wire_compress_ratio");
  return h;
}

Counter& NetReconnects() {
  static Counter& c = CatalogCounter("rs_net_reconnects_total");
  return c;
}

Histogram& NetBackoffWaitNs() {
  static Histogram& h = CatalogHistogram("rs_net_backoff_wait_ns");
  return h;
}

Histogram& NetShipRttNs() {
  static Histogram& h = CatalogHistogram("rs_net_ship_rtt_ns");
  return h;
}

Counter& NetSnapshotsShipped() {
  static Counter& c = CatalogCounter("rs_net_snapshots_shipped_total");
  return c;
}

Counter& NetSnapshotsSuperseded() {
  static Counter& c = CatalogCounter("rs_net_snapshots_superseded_total");
  return c;
}

Counter& NetShipFailures() {
  static Counter& c = CatalogCounter("rs_net_ship_failures_total");
  return c;
}

Histogram& NetCollectorMergeNs() {
  static Histogram& h = CatalogHistogram("rs_net_collector_merge_ns");
  return h;
}

Counter& NetCollectorSnapshots() {
  static Counter& c = CatalogCounter("rs_net_collector_snapshots_total");
  return c;
}

Counter& NetCollectorRejects() {
  static Counter& c = CatalogCounter("rs_net_collector_rejects_total");
  return c;
}

Counter& NetQueries() {
  static Counter& c = CatalogCounter("rs_net_queries_total");
  return c;
}

Histogram& NetCheckpointNs() {
  static Histogram& h = CatalogHistogram("rs_net_checkpoint_ns");
  return h;
}

Gauge& NetConnections() {
  static Gauge& g = CatalogGauge("rs_net_connections");
  return g;
}

Gauge& NetStalenessNs(uint64_t shipper) {
  const MetricDescriptor& d = Find("rs_net_staleness_ns");
  return *MetricRegistry::Global().GetGauge(
      d.name, d.help, {d.label_key, std::to_string(shipper)});
}

Gauge& NetStalenessSeqLag(uint64_t shipper) {
  const MetricDescriptor& d = Find("rs_net_staleness_seq_lag");
  return *MetricRegistry::Global().GetGauge(
      d.name, d.help, {d.label_key, std::to_string(shipper)});
}

Gauge& NetStalenessElementsBehind(uint64_t shipper) {
  const MetricDescriptor& d = Find("rs_net_staleness_elements_behind");
  return *MetricRegistry::Global().GetGauge(
      d.name, d.help, {d.label_key, std::to_string(shipper)});
}

Histogram& NetE2eProduceMergeNs() {
  static Histogram& h = CatalogHistogram("rs_net_e2e_produce_merge_ns");
  return h;
}

Counter& AttacklabTrials() {
  static Counter& c = CatalogCounter("rs_attacklab_trials_total");
  return c;
}

Histogram& AttacklabTrialNs() {
  static Histogram& h = CatalogHistogram("rs_attacklab_trial_ns");
  return h;
}

Counter& AttacklabAdversaryAccepted() {
  static Counter& c =
      CatalogCounter("rs_attacklab_adversary_accepted_total");
  return c;
}

}  // namespace obs
}  // namespace robust_sampling

#ifndef ROBUST_SAMPLING_OBS_CATALOG_H_
#define ROBUST_SAMPLING_OBS_CATALOG_H_

// ---------------------------------------------------------------------------
// The standard metric catalog: every metric the instrumented layers emit,
// declared in one place so (a) hot call sites get a cached reference via a
// function-local static instead of a registry lookup, and (b) the full set
// of names is enumerable without having exercised the code paths that
// register them — tests/docs_drift_test.cc walks AllMetricDescriptors()
// and fails if any name is missing from docs/observability.md.
//
// Naming convention: rs_<layer>_<what>[_<unit>], with `_total` for
// counters, `_ns` for nanosecond histograms, `_bytes` for size histograms
// and `_hwm` for high-water-mark gauges. Per-instance dimensions (sketch
// kind, shard index) are labels on a documented base name, never new
// names.
// ---------------------------------------------------------------------------

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace robust_sampling {
namespace obs {

struct MetricDescriptor {
  const char* name;
  const char* type;  // "counter" | "gauge" | "histogram"
  const char* label_key;  // "" when unlabeled
  const char* help;
};

/// Every standard metric, in catalog order. Static data, not registry
/// state: available whether or not the metrics are enabled at runtime.
const std::vector<MetricDescriptor>& AllMetricDescriptors();

// --- pipeline (src/pipeline/) --------------------------------------------

Counter& PipelineIngestBatches();
Counter& PipelineIngestElements();
/// Batches refused by Ingest (oversized vs max_batch_elements).
Counter& PipelineRejectedBatches();
/// Elements folded into shard `shard`'s sketch (label: shard index).
Counter& PipelineShardElements(size_t shard);
/// Elements accepted through producer handle `producer` (label: producer
/// index).
Counter& PipelineProducerElements(size_t producer);
/// Hash-partition pass latency per batch (hash + bucket + scatter; the
/// folds that follow are not included).
Histogram& PipelinePartitionNs();
Histogram& PipelineCheckpointNs();
Histogram& PipelineCheckpointBytes();
Histogram& PipelineRestoreNs();

// --- wire (src/wire/) ----------------------------------------------------

Counter& WireBytesOut();
Counter& WireBytesIn();
/// Framed-body reads rejected (bad magic/version/length, truncation,
/// checksum mismatch). Each rejection also leaves a flight-recorder
/// error event.
Counter& WireFrameFailures();
Histogram& WireFsyncNs();
Histogram& WireSerializeNs(const std::string& kind);
Histogram& WireDeserializeNs(const std::string& kind);
Histogram& WireSnapshotBytes(const std::string& kind);
/// BufferedSink windows forwarded to the wrapped sink — each flush is one
/// batched Append where unbuffered writes would have made many.
Counter& WireBufferFlushes();
/// Compressed framed-body size as a percent of the raw body (zstd frames
/// only; uncompressed fallbacks are not observed).
Histogram& WireCompressRatio();

// --- net (src/net/) ------------------------------------------------------

/// Reconnect attempts the shipper made after losing its link (counts the
/// attempt, not just successes — a flapping collector shows up here).
Counter& NetReconnects();
Histogram& NetBackoffWaitNs();
Histogram& NetShipRttNs();
Counter& NetSnapshotsShipped();
/// Keep-latest outbox drops: a newer snapshot replaced one that never got
/// shipped. Rising while the collector is down is the designed degradation,
/// rising while it is up means shipping cannot keep pace.
Counter& NetSnapshotsSuperseded();
Counter& NetShipFailures();
Histogram& NetCollectorMergeNs();
Counter& NetCollectorSnapshots();
/// Malformed frames/snapshots the collector refused (fail closed). Each
/// rejection also leaves a flight-recorder error event.
Counter& NetCollectorRejects();
Counter& NetQueries();
/// One collector checkpoint write; a group-committed write covers every
/// ship that arrived while the previous write ran.
Histogram& NetCheckpointNs();
/// Connection threads collectors hold: serving, or finished and not yet
/// joined by the accept loop. Summed over collectors in the process.
Gauge& NetConnections();
/// Wall-clock age of this shipper's latest merged snapshot (label:
/// shipper id), refreshed at merge, query, and /shippers render time.
Gauge& NetStalenessNs(uint64_t shipper);
/// Snapshots superseded between the two most recent merged ships from
/// this shipper (seq gap minus one) — how much the keep-latest outbox
/// skipped while the link was down.
Gauge& NetStalenessSeqLag(uint64_t shipper);
/// Producer elements ingested between the previous and latest merged
/// snapshots from this shipper (total_ingested watermark delta) — how far
/// behind the merged view was just before the latest ship landed.
Gauge& NetStalenessElementsBehind(uint64_t shipper);
/// End-to-end produce-to-merge latency: collector merge wall time minus
/// the produced_ns the shipper stamped at Offer time.
Histogram& NetE2eProduceMergeNs();

// --- attacklab (src/attacklab/) ------------------------------------------

Counter& AttacklabTrials();
Histogram& AttacklabTrialNs();
/// Adversary move budget consumed: stream elements the sampler ever
/// accepted across trials (the adversary's observation currency).
Counter& AttacklabAdversaryAccepted();

}  // namespace obs
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_OBS_CATALOG_H_

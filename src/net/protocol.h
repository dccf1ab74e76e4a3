#ifndef ROBUST_SAMPLING_NET_PROTOCOL_H_
#define ROBUST_SAMPLING_NET_PROTOCOL_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wire/codec.h"

namespace robust_sampling {
namespace net {

// ---------------------------------------------------------------------------
// The shipper <-> collector message protocol (docs/distributed.md).
//
// Every message is one standard wire frame (magic "RNET", versioned,
// checksummed — WriteFramedBody/ReadFramedBody provide truncation and
// corruption rejection for free) whose body is `type varint | payload`.
// Payload shapes by type:
//
//   kShip        shipper_id varint | seq varint | PutBytes(snapshot frame)
//                | produced_ns varint | total_ingested varint
//                The nested bytes are a complete self-describing "RSNP"
//                snapshot frame, checksummed independently of the outer
//                frame; the collector revives it through SketchRegistry.
//                `seq` increases per shipper; the collector keeps only the
//                newest (last-writer-wins across reconnects). Protocol v2
//                appended the trailing freshness pair — `produced_ns`
//                (WallClockNanos at Offer time) and the shipper's
//                `total_ingested` watermark; per the docs/wire.md
//                evolution policy the collector still accepts v1 payloads
//                that end after the snapshot bytes and defaults both to 0.
//   kShipAck     status varint
//   kQuery       kind varint | arg (kind-specific, see collector.h)
//   kQueryResult status varint | freshness | result (kind-specific)
//                freshness = contributing_shippers varint | min_watermark
//                varint | max_staleness_ns varint (see QueryFreshness) —
//                every answer says what it might be missing. Rejections
//                produced before the collector consults its state
//                (malformed query payloads) are status-only.
//
// Ship payloads are cumulative state, not deltas: each snapshot fully
// replaces the previous one from the same shipper, which is what makes
// keep-latest degradation and crash recovery safe (no gap can corrupt the
// merge — at worst the collector serves slightly stale totals).
// ---------------------------------------------------------------------------

inline constexpr char kNetMagic[4] = {'R', 'N', 'E', 'T'};

enum class MessageType : uint64_t {
  kShip = 1,
  kShipAck = 2,
  kQuery = 3,
  kQueryResult = 4,
};

enum class QueryKind : uint64_t {
  kQuantile = 1,
  kHeavyHitters = 2,
  kFrequency = 3,
};

/// Response / ack status codes.
enum class Status : uint64_t {
  kOk = 0,
  kMalformed = 1,    // unparsable payload or snapshot, out-of-range argument
  kUnsupported = 2,  // merged sketch lacks the queried capability
  kEmpty = 3,        // no element merged yet
};

/// Wall-clock nanoseconds since the Unix epoch. Freshness stamps cross
/// node boundaries, so this is system_clock — not the steady clock behind
/// obs::NowNanos() — and deliberately independent of the obs runtime
/// switch (the stamps are protocol data, not instrumentation).
inline uint64_t WallClockNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// The freshness annotation carried by every kQueryResult: how complete
/// the merged answer was at query time. `min_watermark` is the smallest
/// total_ingested across contributing shippers (every contribution covers
/// at least this many producer elements); `max_staleness_ns` is the
/// largest produce->query wall-clock age. Both are 0 when a contributing
/// shipper predates protocol v2 (no stamp shipped).
struct QueryFreshness {
  uint64_t contributing_shippers = 0;
  uint64_t min_watermark = 0;
  uint64_t max_staleness_ns = 0;
};

/// Frames `type | payload` and writes it to `sink`. Returns sink.ok().
bool WriteMessage(wire::ByteSink& sink, MessageType type,
                  std::span<const uint8_t> payload);

/// Reads one "RNET" frame and splits off the type. On failure returns
/// false with a one-line reason in `*error` (when non-null); the caller
/// decides whether that means disconnect (source failed before any byte)
/// or a corrupt peer (fail closed, drop the connection). Does NOT bump
/// metrics or the flight recorder beyond what ReadFramedBody does.
bool ReadMessage(wire::ByteSource& source, MessageType* type,
                 std::vector<uint8_t>* payload, std::string* error);

/// One-varint payloads (acks, simple statuses).
bool WriteStatusMessage(wire::ByteSink& sink, MessageType type, Status status);
bool ParseStatusPayload(std::span<const uint8_t> payload, Status* status);

}  // namespace net
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_NET_PROTOCOL_H_

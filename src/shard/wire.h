#ifndef PS2_SHARD_WIRE_H_
#define PS2_SHARD_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/object.h"
#include "core/query.h"

namespace ps2 {

// Wire serde for everything that crosses the shard fabric's Transport seam:
// published objects (front -> owner shard), query inserts/deletes (front ->
// every overlapping shard, and shard-to-shard during migration copies),
// match batches (shard -> front), and drain markers (the migration
// protocol's flush barrier). One frame = one message:
//
//   u8 kind, u32 payload_len, u32 crc32(kind || payload), payload
//
// Payloads are little-endian via common/bytes; query payloads reuse the
// persist layer's WriteQueryRecord/ReadQueryRecord shape with raw u32 term
// ids (shards share one in-process vocabulary today; a socket transport
// would swap in the WAL's self-contained string codec without touching the
// frame layout). Decoding validates length and CRC before touching the
// payload, so a corrupt or truncated frame fails cleanly instead of
// poisoning a shard.
//
// Every encoder builds its frame in one buffer: it reserves the header,
// writes the payload behind it and patches kind, length and CRC in place.
// A kControl envelope appends its inner frame once, and DecodeFrame decodes
// that inner frame where it sits inside the envelope (a pointer and length
// into the same buffer, with its own length and CRC checks) instead of
// copying it out first.
enum class FrameKind : uint8_t {
  kObject = 1,
  kQueryInsert = 2,
  kQueryDelete = 3,
  kMatchBatch = 4,
  kDrain = 5,
  kDrainAck = 6,
  // Reliable-link framing (shard/reliable.h): every frame a reliable link
  // carries travels inside a kControl envelope stamped with the link epoch
  // and a per-link sequence number; the receiver answers with cumulative
  // kAck frames. kPing is an empty payload whose ack doubles as a health
  // probe pong. Envelopes never nest.
  kControl = 7,
  kAck = 8,
  kPing = 9,
  // Subscription replacement (moving subscribers): the payload is the
  // complete *new* query record followed by the *old* region, so the
  // receiving shard can tear down the old placement and apply the new one
  // as one delete+insert without a registry lookup.
  kQueryUpdate = 10,
};

// One delivered match on the wire: the ids plus the publish timestamp the
// front stamped, so publish->deliver latency spans the whole cross-shard
// path.
struct WireMatch {
  QueryId query_id = 0;
  ObjectId object_id = 0;
  int64_t publish_us = 0;
  // Scored-class metadata: the match score (0 for boolean queries) and the
  // object's event-time expiry stamp (0 = never expires). Top-k admission
  // happens at the front, so these must survive the shard -> front hop.
  double score = 0.0;
  int64_t expire_us = 0;
};

// A decoded frame; only the fields of `kind` are meaningful. Decoding a
// kControl envelope yields the *inner* frame's kind and fields with
// `enveloped` set and the envelope's epoch/seq attached — callers never see
// kControl as a kind of its own.
struct Frame {
  FrameKind kind = FrameKind::kObject;
  SpatioTextualObject object;  // kObject
  int64_t publish_us = 0;      // kObject
  STSQuery query;              // kQueryInsert / kQueryDelete / kQueryUpdate
                               // (kQueryUpdate: the replacement query)
  Rect old_region;             // kQueryUpdate: pre-update placement
  std::vector<WireMatch> matches;  // kMatchBatch
  uint64_t drain_token = 0;    // kDrain / kDrainAck
  // Reliable-link metadata (enveloped frames and kAck).
  bool enveloped = false;
  uint64_t epoch = 0;   // link incarnation (bumped on shard restart)
  uint64_t seq = 0;     // per-link sequence number (enveloped frames)
  uint64_t ack_upto = 0;  // kAck: cumulative — every seq <= this arrived
};

std::string EncodeObjectFrame(const SpatioTextualObject& o,
                              int64_t publish_us);
std::string EncodeQueryFrame(FrameKind kind, const STSQuery& q);
// kQueryUpdate: `q` is the complete replacement, `old_region` its previous
// placement (the shard drops the old cell registrations from it).
std::string EncodeQueryUpdateFrame(const STSQuery& q, const Rect& old_region);
std::string EncodeMatchBatchFrame(const WireMatch* matches, size_t n);
std::string EncodeDrainFrame(FrameKind kind, uint64_t token);
// Wraps an already-sealed frame in a reliable-link envelope. `inner` must
// not itself be a kControl or kAck frame (DecodeFrame rejects nesting).
std::string EncodeControlFrame(uint64_t epoch, uint64_t seq,
                               const std::string& inner);
// The inner frame of an envelope EncodeControlFrame built (unvalidated: for
// a sender re-stamping or salvaging its own envelopes).
std::string ControlFrameInner(const std::string& envelope);
std::string EncodeAckFrame(uint64_t epoch, uint64_t ack_upto);
std::string EncodePingFrame();

// Returns false on any malformed input: short header, truncated payload,
// trailing garbage, CRC mismatch, unknown kind, or counts that outsize the
// payload.
bool DecodeFrame(const std::string& frame, Frame* out);

}  // namespace ps2

#endif  // PS2_SHARD_WIRE_H_

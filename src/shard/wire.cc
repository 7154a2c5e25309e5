#include "shard/wire.h"

#include <utility>

#include "common/bytes.h"
#include "persist/record_codec.h"

namespace ps2 {

namespace {

constexpr size_t kHeaderBytes = 1 + 2 * sizeof(uint32_t);
// kControl payload ahead of the inner frame: u64 epoch, u64 seq, u32 len.
constexpr size_t kControlPrefixBytes = 2 * sizeof(uint64_t) + sizeof(uint32_t);
// One WireMatch on the wire: ids, publish stamp, score, expiry.
constexpr size_t kWireMatchBytes = 2 * sizeof(uint64_t) + 2 * sizeof(int64_t) +
                                   sizeof(double);

// The CRC seeds with the kind byte so every header-or-payload single-byte
// corruption is caught (the length field is cross-checked against the
// actual frame size instead).
uint32_t FrameCrc(uint8_t kind, const char* payload, size_t n) {
  const uint32_t seed = Crc32(&kind, 1);
  return Crc32(payload, n, seed);
}

// Starts a frame with room for a `payload_bytes` payload behind a header
// placeholder that Seal patches in place, so a frame is built in one buffer.
ByteWriter BeginFrame(size_t payload_bytes) {
  ByteWriter w;
  w.Reserve(kHeaderBytes + payload_bytes);
  w.Pod<uint8_t>(0);
  w.Pod<uint32_t>(0);
  w.Pod<uint32_t>(0);
  return w;
}

std::string Seal(FrameKind kind, ByteWriter& w) {
  const uint8_t k = static_cast<uint8_t>(kind);
  const size_t payload_len = w.size() - kHeaderBytes;
  w.PodAt<uint8_t>(0, k);
  w.PodAt<uint32_t>(1, static_cast<uint32_t>(payload_len));
  w.PodAt<uint32_t>(
      5, FrameCrc(k, w.buffer().data() + kHeaderBytes, payload_len));
  return w.TakeBuffer();
}

void WriteWireQuery(ByteWriter& w, const STSQuery& q) {
  WriteQueryRecord(w, q,
                   [](ByteWriter& bw, TermId t) { bw.Pod<uint32_t>(t); });
}

bool ReadWireQuery(ByteReader& r, STSQuery* q) {
  return ReadQueryRecord(r, q, [](ByteReader& br) {
    return static_cast<TermId>(br.Pod<uint32_t>());
  });
}

bool DecodeObjectPayload(ByteReader& r, Frame* out) {
  out->object.id = r.Pod<uint64_t>();
  const double x = r.Pod<double>();
  const double y = r.Pod<double>();
  out->object.loc = Point{x, y};
  out->object.timestamp_us = r.Pod<int64_t>();
  out->object.ttl_us = r.Pod<int64_t>();
  out->publish_us = r.Pod<int64_t>();
  const uint32_t nterms = r.Pod<uint32_t>();
  if (!r.FitsCount(nterms, sizeof(uint32_t))) return false;
  std::vector<TermId> terms;
  terms.reserve(nterms);
  for (uint32_t i = 0; i < nterms && r.ok(); ++i) {
    terms.push_back(r.Pod<uint32_t>());
  }
  if (!r.ok()) return false;
  // FromTerms re-sorts/dedups, so a hand-crafted frame cannot smuggle an
  // unnormalized term list past the matcher's binary-search assumption.
  const ObjectId id = out->object.id;
  const Point loc = out->object.loc;
  const int64_t ts = out->object.timestamp_us;
  const int64_t ttl = out->object.ttl_us;
  out->object = SpatioTextualObject::FromTerms(id, loc, std::move(terms));
  out->object.timestamp_us = ts;
  out->object.ttl_us = ttl;
  return true;
}

bool DecodeMatchBatchPayload(ByteReader& r, Frame* out) {
  const uint32_t n = r.Pod<uint32_t>();
  if (!r.FitsCount(n, kWireMatchBytes)) return false;
  out->matches.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    WireMatch m;
    m.query_id = r.Pod<uint64_t>();
    m.object_id = r.Pod<uint64_t>();
    m.publish_us = r.Pod<int64_t>();
    m.score = r.Pod<double>();
    m.expire_us = r.Pod<int64_t>();
    out->matches.push_back(m);
  }
  return r.ok();
}

}  // namespace

std::string EncodeObjectFrame(const SpatioTextualObject& o,
                              int64_t publish_us) {
  ByteWriter w = BeginFrame(sizeof(uint64_t) + 2 * sizeof(double) +
                            3 * sizeof(int64_t) + sizeof(uint32_t) +
                            o.terms.size() * sizeof(uint32_t));
  w.Pod<uint64_t>(o.id);
  w.Pod<double>(o.loc.x);
  w.Pod<double>(o.loc.y);
  w.Pod<int64_t>(o.timestamp_us);
  w.Pod<int64_t>(o.ttl_us);
  w.Pod<int64_t>(publish_us);
  w.Pod<uint32_t>(static_cast<uint32_t>(o.terms.size()));
  for (const TermId t : o.terms) w.Pod<uint32_t>(t);
  return Seal(FrameKind::kObject, w);
}

std::string EncodeQueryFrame(FrameKind kind, const STSQuery& q) {
  ByteWriter w = BeginFrame(QueryRecordBytes(q, sizeof(uint32_t)));
  WriteWireQuery(w, q);
  return Seal(kind, w);
}

std::string EncodeMatchBatchFrame(const WireMatch* matches, size_t n) {
  ByteWriter w = BeginFrame(sizeof(uint32_t) + n * kWireMatchBytes);
  w.Pod<uint32_t>(static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) {
    w.Pod<uint64_t>(matches[i].query_id);
    w.Pod<uint64_t>(matches[i].object_id);
    w.Pod<int64_t>(matches[i].publish_us);
    w.Pod<double>(matches[i].score);
    w.Pod<int64_t>(matches[i].expire_us);
  }
  return Seal(FrameKind::kMatchBatch, w);
}

std::string EncodeQueryUpdateFrame(const STSQuery& q, const Rect& old_region) {
  ByteWriter w = BeginFrame(QueryRecordBytes(q, sizeof(uint32_t)) +
                            4 * sizeof(double));
  WriteWireQuery(w, q);
  w.Pod<double>(old_region.min_x);
  w.Pod<double>(old_region.min_y);
  w.Pod<double>(old_region.max_x);
  w.Pod<double>(old_region.max_y);
  return Seal(FrameKind::kQueryUpdate, w);
}

std::string EncodeDrainFrame(FrameKind kind, uint64_t token) {
  ByteWriter w = BeginFrame(sizeof(uint64_t));
  w.Pod<uint64_t>(token);
  return Seal(kind, w);
}

std::string EncodeControlFrame(uint64_t epoch, uint64_t seq,
                               const std::string& inner) {
  ByteWriter w = BeginFrame(kControlPrefixBytes + inner.size());
  w.Pod<uint64_t>(epoch);
  w.Pod<uint64_t>(seq);
  w.Pod<uint32_t>(static_cast<uint32_t>(inner.size()));
  w.Bytes(inner.data(), inner.size());
  return Seal(FrameKind::kControl, w);
}

std::string ControlFrameInner(const std::string& envelope) {
  return envelope.substr(kHeaderBytes + kControlPrefixBytes);
}

std::string EncodeAckFrame(uint64_t epoch, uint64_t ack_upto) {
  ByteWriter w = BeginFrame(2 * sizeof(uint64_t));
  w.Pod<uint64_t>(epoch);
  w.Pod<uint64_t>(ack_upto);
  return Seal(FrameKind::kAck, w);
}

std::string EncodePingFrame() {
  ByteWriter w = BeginFrame(0);
  return Seal(FrameKind::kPing, w);
}

namespace {

// Decodes the frame at [data, data + size) into a default-constructed
// `out`. A kControl envelope's inner frame is decoded from its place inside
// the envelope, never copied out.
bool DecodeFrameView(const char* data, size_t size, Frame* out) {
  if (size < kHeaderBytes) return false;
  ByteReader h(data, kHeaderBytes);
  const uint8_t kind = h.Pod<uint8_t>();
  const uint32_t payload_len = h.Pod<uint32_t>();
  const uint32_t crc = h.Pod<uint32_t>();
  if (size != kHeaderBytes + payload_len) return false;
  const char* payload = data + kHeaderBytes;
  if (FrameCrc(kind, payload, payload_len) != crc) return false;

  ByteReader r(payload, payload_len);
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kObject:
      out->kind = FrameKind::kObject;
      return DecodeObjectPayload(r, out) && r.remaining() == 0;
    case FrameKind::kQueryInsert:
    case FrameKind::kQueryDelete:
      out->kind = static_cast<FrameKind>(kind);
      return ReadWireQuery(r, &out->query) && r.remaining() == 0;
    case FrameKind::kQueryUpdate: {
      out->kind = FrameKind::kQueryUpdate;
      if (!ReadWireQuery(r, &out->query)) return false;
      const double mnx = r.Pod<double>();
      const double mny = r.Pod<double>();
      const double mxx = r.Pod<double>();
      const double mxy = r.Pod<double>();
      out->old_region = Rect(mnx, mny, mxx, mxy);
      return r.ok() && r.remaining() == 0;
    }
    case FrameKind::kMatchBatch:
      out->kind = FrameKind::kMatchBatch;
      return DecodeMatchBatchPayload(r, out) && r.remaining() == 0;
    case FrameKind::kDrain:
    case FrameKind::kDrainAck:
      out->kind = static_cast<FrameKind>(kind);
      out->drain_token = r.Pod<uint64_t>();
      return r.ok() && r.remaining() == 0;
    case FrameKind::kControl: {
      const uint64_t epoch = r.Pod<uint64_t>();
      const uint64_t seq = r.Pod<uint64_t>();
      const uint32_t inner_len = r.Pod<uint32_t>();
      if (!r.ok() || epoch == 0 || seq == 0) return false;
      if (r.remaining() != inner_len) return false;
      const char* inner = payload + r.pos();
      // Envelopes never nest, and an ack is a link-level reply, not a
      // payload. Both are refused by the inner kind byte before decoding,
      // so the recursion depth stays at one however deep a forged frame
      // nests.
      const auto inner_kind = static_cast<FrameKind>(
          inner_len > 0 ? static_cast<uint8_t>(inner[0]) : 0);
      if (inner_kind == FrameKind::kControl || inner_kind == FrameKind::kAck) {
        return false;
      }
      if (!DecodeFrameView(inner, inner_len, out)) return false;
      out->enveloped = true;
      out->epoch = epoch;
      out->seq = seq;
      return true;
    }
    case FrameKind::kAck:
      out->kind = FrameKind::kAck;
      out->epoch = r.Pod<uint64_t>();
      out->ack_upto = r.Pod<uint64_t>();
      return r.ok() && r.remaining() == 0 && out->epoch != 0;
    case FrameKind::kPing:
      out->kind = FrameKind::kPing;
      return r.remaining() == 0;
  }
  return false;
}

}  // namespace

bool DecodeFrame(const std::string& frame, Frame* out) {
  *out = Frame();
  return DecodeFrameView(frame.data(), frame.size(), out);
}

}  // namespace ps2

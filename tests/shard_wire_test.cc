#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "shard/shard_map.h"
#include "shard/wire.h"
#include "text/bool_expr.h"

namespace ps2 {
namespace {

STSQuery MakeQuery(QueryId id) {
  STSQuery q;
  q.id = id;
  q.region = Rect(10.5, -3.25, 42.0, 17.75);
  q.expr = BoolExpr::Cnf({{3, 7, 11}, {2}, {5, 19}});
  return q;
}

TEST(ShardWireTest, ObjectFrameRoundTrip) {
  SpatioTextualObject o =
      SpatioTextualObject::FromTerms(42, Point{12.5, -7.25}, {9, 3, 3, 17});
  o.timestamp_us = 123456789;
  const std::string frame = EncodeObjectFrame(o, 987654321);

  Frame f;
  ASSERT_TRUE(DecodeFrame(frame, &f));
  EXPECT_EQ(f.kind, FrameKind::kObject);
  EXPECT_EQ(f.object.id, o.id);
  EXPECT_EQ(f.object.loc, o.loc);
  EXPECT_EQ(f.object.terms, o.terms);  // sorted, deduped
  EXPECT_EQ(f.object.timestamp_us, o.timestamp_us);
  EXPECT_EQ(f.publish_us, 987654321);
}

TEST(ShardWireTest, QueryFrameRoundTrip) {
  const STSQuery q = MakeQuery(77);
  for (const FrameKind kind :
       {FrameKind::kQueryInsert, FrameKind::kQueryDelete}) {
    const std::string frame = EncodeQueryFrame(kind, q);
    Frame f;
    ASSERT_TRUE(DecodeFrame(frame, &f));
    EXPECT_EQ(f.kind, kind);
    EXPECT_EQ(f.query.id, q.id);
    EXPECT_EQ(f.query.region.min_x, q.region.min_x);
    EXPECT_EQ(f.query.region.max_y, q.region.max_y);
    EXPECT_EQ(f.query.expr.clauses(), q.expr.clauses());
  }
}

TEST(ShardWireTest, MatchBatchRoundTrip) {
  std::vector<WireMatch> matches;
  for (uint64_t i = 0; i < 17; ++i) {
    WireMatch m;
    m.query_id = 1000 + i;
    m.object_id = 2000 + 3 * i;
    m.publish_us = static_cast<int64_t>(5000 + i);
    matches.push_back(m);
  }
  const std::string frame =
      EncodeMatchBatchFrame(matches.data(), matches.size());
  Frame f;
  ASSERT_TRUE(DecodeFrame(frame, &f));
  EXPECT_EQ(f.kind, FrameKind::kMatchBatch);
  ASSERT_EQ(f.matches.size(), matches.size());
  for (size_t i = 0; i < matches.size(); ++i) {
    EXPECT_EQ(f.matches[i].query_id, matches[i].query_id);
    EXPECT_EQ(f.matches[i].object_id, matches[i].object_id);
    EXPECT_EQ(f.matches[i].publish_us, matches[i].publish_us);
  }

  const std::string empty = EncodeMatchBatchFrame(nullptr, 0);
  ASSERT_TRUE(DecodeFrame(empty, &f));
  EXPECT_TRUE(f.matches.empty());
}

TEST(ShardWireTest, DrainFrameRoundTrip) {
  for (const FrameKind kind : {FrameKind::kDrain, FrameKind::kDrainAck}) {
    const std::string frame = EncodeDrainFrame(kind, 0xDEADBEEFCAFEULL);
    Frame f;
    ASSERT_TRUE(DecodeFrame(frame, &f));
    EXPECT_EQ(f.kind, kind);
    EXPECT_EQ(f.drain_token, 0xDEADBEEFCAFEULL);
  }
}

// --- reliable-link framing ---------------------------------------------------

TEST(ShardWireTest, ControlEnvelopeRoundTrip) {
  const STSQuery q = MakeQuery(12);
  const std::string inner = EncodeQueryFrame(FrameKind::kQueryInsert, q);
  const std::string env = EncodeControlFrame(3, 41, inner);
  Frame f;
  ASSERT_TRUE(DecodeFrame(env, &f));
  // The caller sees the inner frame's kind with the envelope metadata
  // attached — kControl itself never surfaces.
  EXPECT_TRUE(f.enveloped);
  EXPECT_EQ(f.epoch, 3u);
  EXPECT_EQ(f.seq, 41u);
  EXPECT_EQ(f.kind, FrameKind::kQueryInsert);
  EXPECT_EQ(f.query.id, q.id);
  EXPECT_EQ(f.query.expr.clauses(), q.expr.clauses());

  // The bare inner frame decodes un-enveloped.
  ASSERT_TRUE(DecodeFrame(inner, &f));
  EXPECT_FALSE(f.enveloped);
}

TEST(ShardWireTest, AckAndPingRoundTrip) {
  Frame f;
  ASSERT_TRUE(DecodeFrame(EncodeAckFrame(7, 99), &f));
  EXPECT_EQ(f.kind, FrameKind::kAck);
  EXPECT_EQ(f.epoch, 7u);
  EXPECT_EQ(f.ack_upto, 99u);
  EXPECT_FALSE(f.enveloped);

  // Cumulative ack of "nothing yet" is legal (ack_upto 0 after a reset).
  ASSERT_TRUE(DecodeFrame(EncodeAckFrame(1, 0), &f));
  EXPECT_EQ(f.ack_upto, 0u);

  const std::string ping = EncodePingFrame();
  ASSERT_TRUE(DecodeFrame(ping, &f));
  EXPECT_EQ(f.kind, FrameKind::kPing);

  // Pings ride the control link enveloped like any other control frame.
  ASSERT_TRUE(DecodeFrame(EncodeControlFrame(2, 5, ping), &f));
  EXPECT_TRUE(f.enveloped);
  EXPECT_EQ(f.kind, FrameKind::kPing);
  EXPECT_EQ(f.epoch, 2u);
  EXPECT_EQ(f.seq, 5u);
}

TEST(ShardWireTest, EnvelopesNeverNestAndAcksNeverRideInside) {
  const std::string inner = EncodeDrainFrame(FrameKind::kDrain, 5);
  const std::string env = EncodeControlFrame(1, 1, inner);
  Frame f;
  EXPECT_FALSE(DecodeFrame(EncodeControlFrame(1, 2, env), &f))
      << "control-in-control must be rejected";
  EXPECT_FALSE(DecodeFrame(EncodeControlFrame(1, 2, EncodeAckFrame(1, 1)), &f))
      << "an ack is a link-level reply, not an envelope payload";
}

TEST(ShardWireTest, ZeroEpochOrSequenceIsRejected) {
  const std::string inner = EncodePingFrame();
  Frame f;
  // Epoch and seq both start at 1; a zero of either marks a torn frame.
  EXPECT_FALSE(DecodeFrame(EncodeControlFrame(0, 1, inner), &f));
  EXPECT_FALSE(DecodeFrame(EncodeControlFrame(1, 0, inner), &f));
  EXPECT_FALSE(DecodeFrame(EncodeAckFrame(0, 3), &f));
}

TEST(ShardWireTest, ControlInnerLengthMismatchIsRejected) {
  const std::string inner = EncodeDrainFrame(FrameKind::kDrain, 9);
  const std::string env = EncodeControlFrame(4, 4, inner);
  // A corrupt inner (still inside an intact envelope CRC? no — any byte
  // flip breaks the outer CRC first, so corrupt the declared inner length
  // by re-encoding with a lie instead: truncate the inner frame itself).
  Frame f;
  EXPECT_FALSE(
      DecodeFrame(EncodeControlFrame(4, 4, inner.substr(0, inner.size() - 1)),
                  &f))
      << "truncated inner frame must fail its own CRC";
  EXPECT_FALSE(DecodeFrame(EncodeControlFrame(4, 4, std::string()), &f))
      << "empty inner is not a frame";
  // And the whole-envelope corruption sweep below covers the outer seal.
  ASSERT_TRUE(DecodeFrame(env, &f));
}

TEST(ShardWireTest, EnvelopedFramesSurviveTheCorruptionSweep) {
  const std::string frames[] = {
      EncodeControlFrame(2, 17, EncodeQueryFrame(FrameKind::kQueryInsert,
                                                 MakeQuery(3))),
      EncodeControlFrame(1, 1, EncodePingFrame()),
      EncodeAckFrame(6, 12345),
  };
  Rng rng(0xFAB);
  for (const std::string& frame : frames) {
    Frame decoded;
    ASSERT_TRUE(DecodeFrame(frame, &decoded));
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      std::string corrupt = frame;
      corrupt[pos] = static_cast<char>(
          corrupt[pos] ^ static_cast<char>(1 + rng.NextBelow(255)));
      Frame f;
      EXPECT_FALSE(DecodeFrame(corrupt, &f))
          << "corruption at byte " << pos << " of a " << frame.size()
          << "-byte frame was not rejected";
    }
    for (size_t n = 0; n < frame.size(); ++n) {
      Frame f;
      EXPECT_FALSE(DecodeFrame(frame.substr(0, n), &f)) << "prefix " << n;
    }
  }
}

// Every single-byte corruption of every frame kind must be rejected: the
// CRC seeds with the kind byte, the length field is cross-checked against
// the frame size, and CRC-32 catches any burst error within one byte.
TEST(ShardWireTest, EverySingleByteCorruptionIsRejected) {
  SpatioTextualObject o =
      SpatioTextualObject::FromTerms(7, Point{1, 2}, {4, 8, 15});
  std::vector<WireMatch> matches(3);
  for (size_t i = 0; i < matches.size(); ++i) {
    matches[i].query_id = i + 1;
    matches[i].object_id = 100 + i;
    matches[i].publish_us = 42;
  }
  const std::string frames[] = {
      EncodeObjectFrame(o, 999),
      EncodeQueryFrame(FrameKind::kQueryInsert, MakeQuery(5)),
      EncodeQueryFrame(FrameKind::kQueryDelete, MakeQuery(5)),
      EncodeMatchBatchFrame(matches.data(), matches.size()),
      EncodeDrainFrame(FrameKind::kDrain, 31337),
  };
  Rng rng(0xC0FFEE);
  for (const std::string& frame : frames) {
    Frame decoded;
    ASSERT_TRUE(DecodeFrame(frame, &decoded));
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      std::string corrupt = frame;
      corrupt[pos] = static_cast<char>(
          corrupt[pos] ^ static_cast<char>(1 + rng.NextBelow(255)));
      Frame f;
      EXPECT_FALSE(DecodeFrame(corrupt, &f))
          << "corruption at byte " << pos << " of a "
          << frame.size() << "-byte frame was not rejected";
    }
  }
}

TEST(ShardWireTest, TruncatedAndOversizedFramesAreRejected) {
  const std::string frame = EncodeQueryFrame(FrameKind::kQueryInsert,
                                             MakeQuery(9));
  Frame f;
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(DecodeFrame(frame.substr(0, n), &f)) << "prefix " << n;
  }
  EXPECT_FALSE(DecodeFrame(frame + "x", &f));
  EXPECT_FALSE(DecodeFrame(std::string(), &f));
}

TEST(ShardWireTest, UnknownKindIsRejected) {
  // Re-seal a valid payload under an unknown kind id with a correct CRC:
  // rejection must come from the kind check, not the checksum.
  const std::string drain = EncodeDrainFrame(FrameKind::kDrain, 1);
  std::string forged = drain;
  forged[0] = static_cast<char>(200);
  // Fix up the CRC for the forged kind (recompute the seal manually).
  const uint8_t kind = 200;
  uint32_t crc = Crc32(&kind, 1);
  crc = Crc32(forged.data() + 9, forged.size() - 9, crc);
  std::memcpy(&forged[5], &crc, sizeof(crc));
  Frame f;
  EXPECT_FALSE(DecodeFrame(forged, &f));
}

// Byte-for-byte pins of every frame kind, captured from the encoders before
// they were rebuilt around one-buffer sealing: an encoder or CRC change that
// alters a single wire byte fails here, not in a cross-version deployment.
std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

TEST(ShardWireTest, EncodedBytesAreUnchanged) {
  SpatioTextualObject o =
      SpatioTextualObject::FromTerms(42, Point{12.5, -7.25}, {9, 3, 17});
  o.timestamp_us = 123456789;
  o.ttl_us = 5000;
  STSQuery q = MakeQuery(77);
  q.cls = SubscriptionClass::kSimilarity;
  q.tau = 0.5;
  q.k = 3;
  std::vector<WireMatch> m(2);
  m[0] = WireMatch{1, 2, 3, 0.25, 4};
  m[1] = WireMatch{5, 6, 7, 0.0, 0};

  EXPECT_EQ(Hex(EncodeObjectFrame(o, 987654321)),
            "0140000000510aedf02a0000000000000000000000000029400000000000001d"
            "c015cd5b07000000008813000000000000b168de3a0000000003000000030000"
            "000900000011000000");
  EXPECT_EQ(Hex(EncodeQueryFrame(FrameKind::kQueryInsert, q)),
            "025d000000e3a9b5d84d0000000000000000000000000025400000000000000a"
            "c000000000000045400000000000c03140030000000300000003000000070000"
            "000b000000010000000200000002000000050000001300000001000000000000"
            "e03f03000000");
  EXPECT_EQ(Hex(EncodeQueryUpdateFrame(q, Rect(1, 2, 3, 4))),
            "0a7d0000006ff47a394d0000000000000000000000000025400000000000000a"
            "c000000000000045400000000000c03140030000000300000003000000070000"
            "000b000000010000000200000002000000050000001300000001000000000000"
            "e03f03000000000000000000f03f000000000000004000000000000008400000"
            "000000001040");
  EXPECT_EQ(Hex(EncodeMatchBatchFrame(m.data(), m.size())),
            "045400000075ee9d240200000001000000000000000200000000000000030000"
            "0000000000000000000000d03f04000000000000000500000000000000060000"
            "0000000000070000000000000000000000000000000000000000000000");
  EXPECT_EQ(Hex(EncodeDrainFrame(FrameKind::kDrain, 0xDEADBEEFCAFEULL)),
            "05080000009c51e15efecaefbeadde0000");
  EXPECT_EQ(Hex(EncodeControlFrame(3, 41, EncodeObjectFrame(o, 987654321))),
            "075d0000001dc105680300000000000000290000000000000049000000014000"
            "0000510aedf02a0000000000000000000000000029400000000000001dc015cd"
            "5b07000000008813000000000000b168de3a0000000003000000030000000900"
            "000011000000");
  EXPECT_EQ(Hex(EncodeAckFrame(7, 99)),
            "08100000000ee1628c07000000000000006300000000000000");
  EXPECT_EQ(Hex(EncodePingFrame()), "09000000002957deab");
}

// --- ShardMap ----------------------------------------------------------------

TEST(ShardMapTest, UniformAssignmentStripes) {
  const ShardMap map = ShardMap::Uniform(16, 4);
  EXPECT_EQ(map.num_shards, 4);
  ASSERT_EQ(map.cell_shard.size(), 16u);
  for (CellId c = 0; c < 16; ++c) {
    EXPECT_EQ(map.OwnerOf(c), static_cast<ShardId>(c % 4));
  }
  // Out-of-range cells fall back to shard 0 (routing stays total).
  EXPECT_EQ(map.OwnerOf(999), 0);
}

TEST(ShardMapTest, CodecRoundTripAndCorruption) {
  ShardMap map = ShardMap::Uniform(64, 3);
  map.version = 17;
  map.cell_shard[5] = 2;
  const std::string bytes = EncodeShardMap(map);

  ShardMap out;
  ASSERT_TRUE(DecodeShardMap(bytes, &out));
  EXPECT_EQ(out.version, 17u);
  EXPECT_EQ(out.num_shards, 3);
  EXPECT_EQ(out.cell_shard, map.cell_shard);

  Rng rng(99);
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(
        corrupt[pos] ^ static_cast<char>(1 + rng.NextBelow(255)));
    EXPECT_FALSE(DecodeShardMap(corrupt, &out)) << "byte " << pos;
  }
  for (size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(DecodeShardMap(bytes.substr(0, n), &out));
  }
}

TEST(ShardMapTest, RejectsOutOfRangeOwner) {
  ShardMap map = ShardMap::Uniform(8, 2);
  map.cell_shard[3] = 7;  // owner >= num_shards
  ShardMap out;
  EXPECT_FALSE(DecodeShardMap(EncodeShardMap(map), &out));
}

TEST(ShardMapTest, FileRoundTripIsAtomic) {
  const std::string dir =
      ::testing::TempDir() + "/ps2_shardmap_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = ShardMapPath(dir);

  ShardMap map = ShardMap::Uniform(256, 4);
  ASSERT_TRUE(WriteShardMapFile(path, map));
  // No temp residue after the atomic rename.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  ShardMap out;
  ASSERT_TRUE(ReadShardMapFile(path, &out));
  EXPECT_EQ(out.cell_shard, map.cell_shard);

  // Overwrite with a newer assignment; readers see old-or-new, never torn.
  map.cell_shard[0] = 3;
  map.version = 2;
  ASSERT_TRUE(WriteShardMapFile(path, map));
  ASSERT_TRUE(ReadShardMapFile(path, &out));
  EXPECT_EQ(out.version, 2u);
  EXPECT_EQ(out.cell_shard[0], 3);

  EXPECT_FALSE(ReadShardMapFile(dir + "/missing", &out));
  std::filesystem::remove_all(dir);
}

TEST(ShardMapTest, PublisherVersionsMonotonically) {
  ShardMapPublisher pub(ShardMap::Uniform(16, 2));
  const auto v1 = pub.Current();
  EXPECT_EQ(v1->version, 1u);

  ShardMap next = *v1;
  next.cell_shard[4] = 1;
  pub.Publish(std::move(next));
  const auto v2 = pub.Current();
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(v2->OwnerOf(4), 1);
  // The old snapshot is immutable and still readable by in-flight routers.
  EXPECT_EQ(v1->version, 1u);
}

}  // namespace
}  // namespace ps2

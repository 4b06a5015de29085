// Wire codec: framing, checksums, typed payload round-trips, and rejection
// of corrupted byte streams. Serialization must be bit-exact — a tile that
// crosses the process boundary and comes back must stitch identically to one
// that never left — so the round-trip assertions compare doubles with ==,
// not tolerances.
#include "runtime/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace flexcs::runtime::wire {
namespace {

la::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  la::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  return m;
}

RecoveryReport random_report(std::size_t rows, std::size_t cols, Rng& rng) {
  RecoveryReport rep;
  rep.frame_index = rng.uniform_index(1000);
  rep.strategy = static_cast<Strategy>(
      rng.uniform_index(static_cast<std::size_t>(Strategy::kResample) + 1));
  rep.escalation_depth = static_cast<int>(rng.uniform_index(5));
  rep.decode_calls = static_cast<int>(rng.uniform_index(32));
  rep.accepted = rng.uniform() < 0.5;
  rep.budget_exhausted = rng.uniform() < 0.5;
  rep.converged = rng.uniform() < 0.5;
  rep.deadline_expired = rng.uniform() < 0.5;
  rep.solver_iterations = static_cast<int>(rng.uniform_index(500));
  rep.decode_seconds = rng.uniform(0.0, 2.0);
  rep.rel_residual = rng.uniform(0.0, 1.0);
  rep.first_rel_residual = rng.uniform(0.0, 1.0);
  rep.trimmed_measurements = rng.uniform_index(64);
  rep.dropped_measurements = rng.uniform_index(64);
  rep.saturated_measurements = rng.uniform_index(64);
  rep.suspected_defects.resize(rows * cols);
  for (std::size_t i = 0; i < rep.suspected_defects.size(); ++i)
    rep.suspected_defects[i] = rng.uniform() < 0.1;
  rep.suspected_defect_count = rng.uniform_index(rows * cols + 1);
  rep.estimated_defect_rate = rng.uniform(0.0, 0.3);
  return rep;
}

void expect_reports_equal(const RecoveryReport& a, const RecoveryReport& b) {
  EXPECT_EQ(a.frame_index, b.frame_index);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.escalation_depth, b.escalation_depth);
  EXPECT_EQ(a.decode_calls, b.decode_calls);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.deadline_expired, b.deadline_expired);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  EXPECT_EQ(a.decode_seconds, b.decode_seconds);  // bit-exact, not near
  EXPECT_EQ(a.rel_residual, b.rel_residual);
  EXPECT_EQ(a.first_rel_residual, b.first_rel_residual);
  EXPECT_EQ(a.trimmed_measurements, b.trimmed_measurements);
  EXPECT_EQ(a.dropped_measurements, b.dropped_measurements);
  EXPECT_EQ(a.saturated_measurements, b.saturated_measurements);
  EXPECT_EQ(a.suspected_defects, b.suspected_defects);
  EXPECT_EQ(a.suspected_defect_count, b.suspected_defect_count);
  EXPECT_EQ(a.estimated_defect_rate, b.estimated_defect_rate);
}

TEST(Wire, Crc32KnownAnswer) {
  // The IEEE 802.3 check value: CRC-32 of "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition the table
// driven crc32 must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Wire, Crc32MatchesTheBitwiseDefinitionAtEveryLengthAndOffset) {
  Rng rng(0xC3C);
  std::vector<std::uint8_t> buf(300);
  for (std::uint8_t& b : buf)
    b = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; offset + len <= buf.size(); ++len)
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bitwise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
}

// FNV-1a, 64-bit: a digest of encoded bytes that owes nothing to the codec.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// A runtime-sized tile (36x36) whose pixels are exact IEEE quotients, plus
// a signed zero, the smallest subnormal, a huge value and an infinity.
la::Matrix golden_tile() {
  la::Matrix m(36, 36);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      m(r, c) = static_cast<double>(r * 37 + c * 11) / 97.0 - 4.0;
  m(0, 1) = -0.0;
  m(2, 3) = std::numeric_limits<double>::denorm_min();
  m(5, 7) = -1e300;
  m(35, 35) = std::numeric_limits<double>::infinity();
  return m;
}

TEST(Wire, TileRequestAndResponseBytesArePinned) {
  // The encoded bytes of a fixed request and response, recorded from the
  // byte-at-a-time codec. Any change to them is a wire-format change and
  // needs a kVersion bump, never a new digest.
  TileRequest req;
  req.seq = 0x0102030405060708ull;
  req.frame_index = 9001;
  req.tile_index = 3;
  req.deadline_seconds = 0.125;
  req.tile = golden_tile();
  const std::vector<std::uint8_t> req_bytes = encode_tile_request(req);
  EXPECT_EQ(req_bytes.size(), 10436u);
  EXPECT_EQ(fnv1a(req_bytes), 0x776fdfa983ec64d3ull);

  TileResponse resp;
  resp.seq = req.seq;
  resp.tile = golden_tile();
  RecoveryReport& rep = resp.report;
  rep.frame_index = 9001;
  rep.strategy = Strategy::kResample;
  rep.escalation_depth = 2;
  rep.decode_calls = 17;
  rep.accepted = true;
  rep.budget_exhausted = false;
  rep.converged = true;
  rep.deadline_expired = false;
  rep.solver_iterations = 295;
  rep.decode_seconds = 0.0625;
  rep.rel_residual = 1.0 / 3.0;
  rep.first_rel_residual = 2.0 / 7.0;
  rep.trimmed_measurements = 12;
  rep.dropped_measurements = 5;
  rep.saturated_measurements = 1;
  rep.suspected_defects.resize(36 * 36);
  for (std::size_t i = 0; i < rep.suspected_defects.size(); ++i)
    rep.suspected_defects[i] = i % 7 == 3;
  rep.suspected_defect_count = 185;
  rep.estimated_defect_rate = 0.1;
  const std::vector<std::uint8_t> resp_bytes = encode_tile_response(resp);
  EXPECT_EQ(resp_bytes.size(), 11808u);
  EXPECT_EQ(fnv1a(resp_bytes), 0xb2874f8bf936973eull);

  // And they decode back to the same values.
  Message msg;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_message(resp_bytes.data(), resp_bytes.size(), msg,
                           consumed),
            DecodeStatus::kOk);
  const TileResponse back = decode_tile_response(msg);
  EXPECT_EQ(std::memcmp(back.tile.data(), resp.tile.data(),
                        resp.tile.size() * sizeof(double)),
            0);
  expect_reports_equal(rep, back.report);
}

TEST(Wire, MessageFramingRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes =
      encode_message(MessageType::kFrame, payload);
  EXPECT_EQ(bytes.size(), kHeaderBytes + payload.size() + kTrailerBytes);

  Message out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_message(bytes.data(), bytes.size(), out, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.type, MessageType::kFrame);
  EXPECT_EQ(out.payload, payload);

  // Empty payloads frame fine too (the shutdown message).
  const std::vector<std::uint8_t> bye =
      encode_message(MessageType::kShutdown, {});
  EXPECT_EQ(decode_message(bye.data(), bye.size(), out, consumed),
            DecodeStatus::kOk);
  EXPECT_TRUE(out.payload.empty());
}

TEST(Wire, EveryTruncationIsShortNeverOk) {
  Rng rng(21);
  const la::Matrix m = random_matrix(6, 5, rng);
  Writer w;
  put_matrix(w, m);
  const std::vector<std::uint8_t> bytes =
      encode_message(MessageType::kFrame, w.take());
  // A frame cut at ANY byte boundary must parse as "need more bytes" —
  // truncation is indistinguishable from a slow pipe until the length-prefix
  // worth of bytes has arrived, and must never yield a message.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Message out;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_message(bytes.data(), cut, out, consumed),
              DecodeStatus::kShort)
        << "cut at " << cut;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(Wire, CorruptedHeadersAndPayloadsAreRejected) {
  Rng rng(22);
  const la::Matrix m = random_matrix(4, 4, rng);
  Writer w;
  put_matrix(w, m);
  const std::vector<std::uint8_t> good =
      encode_message(MessageType::kFrame, w.take());
  Message out;
  std::size_t consumed = 0;

  {  // magic
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xFF;
    EXPECT_EQ(decode_message(bad.data(), bad.size(), out, consumed),
              DecodeStatus::kBadMagic);
  }
  {  // version
    std::vector<std::uint8_t> bad = good;
    bad[4] ^= 0xFF;
    EXPECT_EQ(decode_message(bad.data(), bad.size(), out, consumed),
              DecodeStatus::kBadVersion);
  }
  {  // length field claims more than kMaxPayloadBytes
    std::vector<std::uint8_t> bad = good;
    for (std::size_t i = 8; i < 16; ++i) bad[i] = 0xFF;
    EXPECT_EQ(decode_message(bad.data(), bad.size(), out, consumed),
              DecodeStatus::kBadLength);
  }
  // Any single payload bit flip must fail the checksum.
  for (std::size_t i = kHeaderBytes; i < good.size() - kTrailerBytes;
       i += 7) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x01;
    EXPECT_EQ(decode_message(bad.data(), bad.size(), out, consumed),
              DecodeStatus::kBadChecksum)
        << "flip at " << i;
  }
  // A corrupted trailer (the CRC itself) is also a checksum failure.
  {
    std::vector<std::uint8_t> bad = good;
    bad[bad.size() - 1] ^= 0x01;
    EXPECT_EQ(decode_message(bad.data(), bad.size(), out, consumed),
              DecodeStatus::kBadChecksum);
  }
}

TEST(Wire, PropertyRandomGeometriesRoundTripBitExact) {
  Rng rng(33);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t rows = 1 + rng.uniform_index(12);
    const std::size_t cols = 1 + rng.uniform_index(12);

    // Matrix.
    const la::Matrix m = random_matrix(rows, cols, rng);
    {
      Writer w;
      put_matrix(w, m);
      const std::vector<std::uint8_t> bytes = w.take();
      Reader r(bytes);
      const la::Matrix back = get_matrix(r);
      ASSERT_TRUE(r.exhausted());
      ASSERT_EQ(back.rows(), rows);
      ASSERT_EQ(back.cols(), cols);
      for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
          ASSERT_EQ(back(i, j), m(i, j));  // bit-exact
    }

    // Recovery report.
    const RecoveryReport rep = random_report(rows, cols, rng);
    {
      Writer w;
      put_recovery_report(w, rep);
      const std::vector<std::uint8_t> bytes = w.take();
      Reader r(bytes);
      const RecoveryReport back = get_recovery_report(r);
      ASSERT_TRUE(r.exhausted());
      expect_reports_equal(rep, back);
    }
  }
}

TEST(Wire, TileRequestAndResponseRoundTrip) {
  Rng rng(55);
  TileRequest req;
  req.seq = 0xABCDEF0102030405ull;
  req.frame_index = 42;
  req.tile_index = 7;
  req.deadline_seconds = 0.125;
  req.tile = random_matrix(8, 8, rng);

  const std::vector<std::uint8_t> bytes = encode_tile_request(req);
  Message msg;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_message(bytes.data(), bytes.size(), msg, consumed),
            DecodeStatus::kOk);
  ASSERT_EQ(msg.type, MessageType::kTileRequest);
  const TileRequest back = decode_tile_request(msg);
  EXPECT_EQ(back.seq, req.seq);
  EXPECT_EQ(back.frame_index, 42u);
  EXPECT_EQ(back.tile_index, 7u);
  EXPECT_EQ(back.deadline_seconds, 0.125);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      ASSERT_EQ(back.tile(i, j), req.tile(i, j));

  TileResponse resp;
  resp.seq = req.seq;
  resp.tile = random_matrix(8, 8, rng);
  resp.report = random_report(8, 8, rng);
  const std::vector<std::uint8_t> rbytes = encode_tile_response(resp);
  ASSERT_EQ(decode_message(rbytes.data(), rbytes.size(), msg, consumed),
            DecodeStatus::kOk);
  ASSERT_EQ(msg.type, MessageType::kTileResponse);
  const TileResponse rback = decode_tile_response(msg);
  EXPECT_EQ(rback.seq, resp.seq);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      ASSERT_EQ(rback.tile(i, j), resp.tile(i, j));
  expect_reports_equal(resp.report, rback.report);
}

TEST(Wire, StructurallyLyingPayloadsThrowCheckError) {
  // These payloads frame correctly and pass the checksum; the typed decoders
  // must still reject them instead of reading out of bounds.
  {  // matrix that claims more elements than the payload carries
    Writer w;
    w.put_u64(1u << 19);  // rows
    w.put_u64(1u << 19);  // cols
    w.put_f64(0.0);       // ... but one element
    const std::vector<std::uint8_t> bytes = w.take();
    Reader r(bytes);
    EXPECT_THROW(get_matrix(r), CheckError);
  }
  {  // matrix dimensions beyond the sanity bound
    Writer w;
    w.put_u64(~0ull);
    w.put_u64(1);
    const std::vector<std::uint8_t> bytes = w.take();
    Reader r(bytes);
    EXPECT_THROW(get_matrix(r), CheckError);
  }
  {  // reading past the end of an empty payload
    Reader r(nullptr, 0);
    EXPECT_THROW(r.get_u8(), CheckError);
  }
  {  // strategy out of range in a recovery report
    Rng rng(66);
    RecoveryReport rep = random_report(3, 3, rng);
    Writer w;
    put_recovery_report(w, rep);
    std::vector<std::uint8_t> bytes = w.take();
    bytes[8] = 0xEE;  // strategy byte follows the u64 frame_index
    Reader r(bytes);
    EXPECT_THROW(get_recovery_report(r), CheckError);
  }
  {  // rung 4 (retired) as a report's strategy
    Rng rng(67);
    RecoveryReport rep = random_report(3, 3, rng);
    rep.strategy = static_cast<Strategy>(4);
    Writer w;
    put_recovery_report(w, rep);
    const std::vector<std::uint8_t> bytes = w.take();
    Reader r(bytes);
    EXPECT_THROW(get_recovery_report(r), CheckError);
  }
  // A non-finite deadline in a tile request: +inf or NaN would reach the
  // worker's clock arithmetic.
  for (const double deadline : {std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()}) {
    Rng rng(68);
    TileRequest req;
    req.deadline_seconds = deadline;
    req.tile = random_matrix(4, 4, rng);
    const std::vector<std::uint8_t> bytes = encode_tile_request(req);
    Message msg;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_message(bytes.data(), bytes.size(), msg, consumed),
              DecodeStatus::kOk);
    EXPECT_THROW(decode_tile_request(msg), CheckError) << deadline;
  }
}

TEST(Wire, HelloAndHelloAckRoundTripAndReject) {
  HelloRequest req;
  req.capabilities = kCapTileDecode | (1ull << 7);  // unknown bits survive
  req.padded_rows = 20;
  req.padded_cols = 24;
  req.seed = 0xFEEDu;
  const std::vector<std::uint8_t> bytes = encode_hello(req);
  Message msg;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_message(bytes.data(), bytes.size(), msg, consumed),
            DecodeStatus::kOk);
  ASSERT_EQ(msg.type, MessageType::kHello);
  const HelloRequest back = decode_hello(msg);
  EXPECT_EQ(back.wire_version, kVersion);
  EXPECT_EQ(back.capabilities, req.capabilities);
  EXPECT_EQ(back.padded_rows, 20u);
  EXPECT_EQ(back.padded_cols, 24u);
  EXPECT_EQ(back.seed, 0xFEEDu);

  for (std::uint8_t reason = 0; reason < kHelloRejectCount; ++reason) {
    HelloAck ack;
    ack.reason = static_cast<HelloReject>(reason);
    ack.accepted = ack.reason == HelloReject::kNone;
    const std::vector<std::uint8_t> abytes = encode_hello_ack(ack);
    ASSERT_EQ(decode_message(abytes.data(), abytes.size(), msg, consumed),
              DecodeStatus::kOk);
    const HelloAck aback = decode_hello_ack(msg);
    EXPECT_EQ(aback.accepted, ack.accepted);
    EXPECT_EQ(aback.reason, ack.reason);
    EXPECT_NE(std::string(hello_reject_name(aback.reason)), "unknown");
  }

  {  // reason out of range
    Writer w;
    w.put_bool(false);
    w.put_u8(kHelloRejectCount);
    Message bad;
    bad.type = MessageType::kHelloAck;
    bad.payload = w.take();
    EXPECT_THROW(decode_hello_ack(bad), CheckError);
  }
  {  // accepted with a reject reason is inconsistent
    Writer w;
    w.put_bool(true);
    w.put_u8(static_cast<std::uint8_t>(HelloReject::kSeedMismatch));
    Message bad;
    bad.type = MessageType::kHelloAck;
    bad.payload = w.take();
    EXPECT_THROW(decode_hello_ack(bad), CheckError);
  }
  {  // hello with absurd geometry
    Writer w;
    w.put_u16(kVersion);
    w.put_u64(kCapTileDecode);
    w.put_u64(~0ull);  // padded_rows far beyond kMaxDim
    w.put_u64(1);
    w.put_u64(0);
    Message bad;
    bad.type = MessageType::kHello;
    bad.payload = w.take();
    EXPECT_THROW(decode_hello(bad), CheckError);
  }
}

TEST(Wire, HostileByteSweepNeverCrashesAnyTypedDecoder) {
  // The trust-boundary sweep: flip every byte position of every message
  // type, both at the framing layer (checksum must catch it) and at the
  // payload layer with the CRC recomputed (the typed decoder must catch it).
  // The invariant is *clean* rejection: a DecodeStatus or a CheckError,
  // never a crash, OOB read (ASan-visible), or unbounded allocation.
  Rng rng(77);

  TileRequest treq;
  treq.seq = 9;
  treq.frame_index = 3;
  treq.tile_index = 1;
  treq.deadline_seconds = 0.25;
  treq.tile = random_matrix(8, 8, rng);
  TileResponse tresp;
  tresp.seq = 9;
  tresp.tile = random_matrix(8, 8, rng);
  tresp.report = random_report(8, 8, rng);
  HelloRequest hello;
  hello.padded_rows = hello.padded_cols = 12;
  Writer wm;
  put_matrix(wm, random_matrix(5, 5, rng));
  Writer wr;
  put_recovery_report(wr, random_report(4, 4, rng));

  const std::vector<std::vector<std::uint8_t>> corpus = {
      encode_tile_request(treq),
      encode_tile_response(tresp),
      encode_hello(hello),
      encode_hello_ack({true, HelloReject::kNone}),
      encode_message(MessageType::kFrame, wm.bytes()),
      encode_message(MessageType::kRecoveryReport, wr.bytes()),
      encode_message(MessageType::kShutdown, {}),
      encode_message(MessageType::kPing, {}),
      encode_message(MessageType::kPong, {}),
  };

  // Typed dispatch mirroring what the broker/worker would do with a framed
  // message of each type; must only ever throw CheckError.
  const auto typed_decode = [](const Message& msg) {
    try {
      switch (msg.type) {
        case MessageType::kTileRequest:
          decode_tile_request(msg);
          break;
        case MessageType::kTileResponse:
          decode_tile_response(msg);
          break;
        case MessageType::kHello:
          decode_hello(msg);
          break;
        case MessageType::kHelloAck:
          decode_hello_ack(msg);
          break;
        case MessageType::kFrame: {
          Reader r(msg.payload);
          get_matrix(r);
          break;
        }
        case MessageType::kRecoveryReport: {
          Reader r(msg.payload);
          get_recovery_report(r);
          break;
        }
        default:
          break;  // empty-payload types carry nothing to decode
      }
    } catch (const CheckError&) {
      // Clean structural rejection — exactly what the sweep demands.
    }
  };

  for (const std::vector<std::uint8_t>& good : corpus) {
    // (a) framing-layer flips: decode_message must classify, never crash.
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
      std::vector<std::uint8_t> bad = good;
      bad[pos] ^= 0xFF;
      Message out;
      std::size_t consumed = 0;
      const DecodeStatus st =
          decode_message(bad.data(), bad.size(), out, consumed);
      // A flipped length can only ask for more bytes (kShort) or get caught
      // (kBadLength/kBadChecksum); header flips classify; payload flips fail
      // the checksum. kOk would mean a 1-in-2^32 CRC collision — treat any
      // surviving frame like the broker would and require clean typed
      // handling.
      if (st == DecodeStatus::kOk) typed_decode(out);
    }
    // (b) payload-layer flips behind a valid CRC: the typed decoder is the
    // last line of defence.
    if (good.size() <= kHeaderBytes + kTrailerBytes) continue;
    Message frame;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_message(good.data(), good.size(), frame, consumed),
              DecodeStatus::kOk);
    for (std::size_t pos = 0; pos < frame.payload.size(); ++pos) {
      Message hostile = frame;
      hostile.payload[pos] ^= 0xFF;
      typed_decode(hostile);
    }
  }
}

TEST(Wire, BackToBackMessagesParseSequentially) {
  // The broker reads a byte stream, so two messages may land in one read().
  Writer w1;
  put_matrix(w1, la::Matrix::from_flat(la::Vector({1.0, 2.0, 3.0}), 1, 3));
  std::vector<std::uint8_t> stream =
      encode_message(MessageType::kFrame, w1.bytes());
  const std::vector<std::uint8_t> second =
      encode_message(MessageType::kShutdown, {});
  stream.insert(stream.end(), second.begin(), second.end());

  Message out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_message(stream.data(), stream.size(), out, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(out.type, MessageType::kFrame);
  const std::size_t first_size = consumed;
  ASSERT_EQ(decode_message(stream.data() + first_size,
                           stream.size() - first_size, out, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(out.type, MessageType::kShutdown);
}

}  // namespace
}  // namespace flexcs::runtime::wire

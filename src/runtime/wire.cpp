#include "runtime/wire.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "runtime/posix_io.hpp"

namespace flexcs::runtime::wire {
namespace {

// Shape sanity bound for matrices/vectors arriving off the wire: combined
// with kMaxPayloadBytes it keeps a corrupt-but-checksum-passing size field
// from driving a pathological allocation.
constexpr std::uint64_t kMaxDim = 1u << 20;

// Slice-by-8 tables for the reflected CRC-32: kCrcTables[0] is the classic
// byte table, and kCrcTables[k][b] is the CRC of byte b followed by k zero
// bytes, so one lookup per byte of an 8-byte block advances the whole block.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Appends the little-endian bytes of an unsigned integer.
template <typename T>
void append_le(std::vector<std::uint8_t>& out, T v) {
  std::array<std::uint8_t, sizeof(T)> b{};
  for (std::size_t i = 0; i < sizeof(T); ++i)
    b[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu);
  out.insert(out.end(), b.begin(), b.end());
}

// On a little-endian host a double's wire bytes are its memory bytes.
constexpr bool kNativeLittleEndian = std::endian::native == std::endian::little;

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint32_t lo = c ^ load_le32(data + i);
    const std::uint32_t hi = load_le32(data + i + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < size; ++i) c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void Writer::put_u16(std::uint16_t v) { append_le(bytes_, v); }

void Writer::put_u32(std::uint32_t v) { append_le(bytes_, v); }

void Writer::put_u64(std::uint64_t v) { append_le(bytes_, v); }

void Writer::put_i32(std::int32_t v) {
  put_u32(static_cast<std::uint32_t>(v));
}

void Writer::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::put_f64s(const double* v, std::size_t n) {
  if constexpr (kNativeLittleEndian) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n * sizeof(double));
    if (n > 0) std::memcpy(bytes_.data() + at, v, n * sizeof(double));
  } else {
    reserve(n * sizeof(double));
    for (std::size_t i = 0; i < n; ++i) put_f64(v[i]);
  }
}

void Reader::require(std::size_t n) const {
  FLEXCS_CHECK(size_ - pos_ >= n, "wire payload truncated");
}

std::uint8_t Reader::get_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t Reader::get_u16() {
  require(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(data_[pos_]) |
      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::get_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::get_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 8;
  return v;
}

std::int32_t Reader::get_i32() { return static_cast<std::int32_t>(get_u32()); }

double Reader::get_f64() { return std::bit_cast<double>(get_u64()); }

void Reader::get_f64s(double* out, std::size_t n) {
  FLEXCS_CHECK(n <= remaining() / sizeof(double), "wire payload truncated");
  if constexpr (kNativeLittleEndian) {
    if (n > 0) std::memcpy(out, data_ + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = get_f64();
  }
}

std::vector<std::uint8_t> encode_message(
    MessageType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size() + kTrailerBytes);
  append_le(out, kMagic);
  append_le(out, kVersion);
  append_le(out, static_cast<std::uint16_t>(type));
  append_le(out, static_cast<std::uint64_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  append_le(out, crc32(payload.data(), payload.size()));
  return out;
}

DecodeStatus decode_message(const std::uint8_t* data, std::size_t size,
                            Message& out, std::size_t& consumed) {
  consumed = 0;
  if (size < kHeaderBytes) return DecodeStatus::kShort;
  Reader header(data, kHeaderBytes);
  if (header.get_u32() != kMagic) return DecodeStatus::kBadMagic;
  if (header.get_u16() != kVersion) return DecodeStatus::kBadVersion;
  const std::uint16_t type = header.get_u16();
  const std::uint64_t payload_len = header.get_u64();
  if (payload_len > kMaxPayloadBytes) return DecodeStatus::kBadLength;
  const std::size_t total =
      kHeaderBytes + static_cast<std::size_t>(payload_len) + kTrailerBytes;
  if (size < total) return DecodeStatus::kShort;
  const std::uint8_t* payload = data + kHeaderBytes;
  Reader trailer(payload + payload_len, kTrailerBytes);
  if (crc32(payload, static_cast<std::size_t>(payload_len)) !=
      trailer.get_u32())
    return DecodeStatus::kBadChecksum;
  out.type = static_cast<MessageType>(type);
  out.payload.assign(payload, payload + payload_len);
  consumed = total;
  return DecodeStatus::kOk;
}

// --- typed payload encodings -----------------------------------------------

void put_matrix(Writer& w, const la::Matrix& m) {
  w.reserve(16 + m.size() * sizeof(double));
  w.put_u64(m.rows());
  w.put_u64(m.cols());
  w.put_f64s(m.data(), m.size());
}

la::Matrix get_matrix(Reader& r) {
  const std::uint64_t rows = r.get_u64();
  const std::uint64_t cols = r.get_u64();
  FLEXCS_CHECK(rows <= kMaxDim && cols <= kMaxDim,
               "wire matrix dimensions out of range");
  FLEXCS_CHECK(rows * cols * 8 <= r.remaining(),
               "wire matrix larger than its payload");
  la::Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  r.get_f64s(m.data(), m.size());
  return m;
}

void put_recovery_report(Writer& w, const RecoveryReport& rep) {
  w.put_u64(rep.frame_index);
  w.put_u32(static_cast<std::uint32_t>(rep.strategy));
  w.put_i32(rep.escalation_depth);
  w.put_i32(rep.decode_calls);
  w.put_bool(rep.accepted);
  w.put_bool(rep.budget_exhausted);
  w.put_bool(rep.converged);
  w.put_bool(rep.deadline_expired);
  w.put_i32(rep.solver_iterations);
  w.put_f64(rep.decode_seconds);
  w.put_f64(rep.rel_residual);
  w.put_f64(rep.first_rel_residual);
  w.put_u64(rep.trimmed_measurements);
  w.put_u64(rep.dropped_measurements);
  w.put_u64(rep.saturated_measurements);
  w.put_u64(rep.suspected_defects.size());
  for (const bool b : rep.suspected_defects) w.put_bool(b);
  w.put_u64(rep.suspected_defect_count);
  w.put_f64(rep.estimated_defect_rate);
}

RecoveryReport get_recovery_report(Reader& r) {
  RecoveryReport rep;
  rep.frame_index = static_cast<std::size_t>(r.get_u64());
  const std::uint32_t strategy = r.get_u32();
  FLEXCS_CHECK(strategy <= static_cast<std::uint32_t>(Strategy::kResample),
               "wire report strategy out of range");
  rep.strategy = static_cast<Strategy>(strategy);
  rep.escalation_depth = r.get_i32();
  rep.decode_calls = r.get_i32();
  rep.accepted = r.get_bool();
  rep.budget_exhausted = r.get_bool();
  rep.converged = r.get_bool();
  rep.deadline_expired = r.get_bool();
  rep.solver_iterations = r.get_i32();
  rep.decode_seconds = r.get_f64();
  rep.rel_residual = r.get_f64();
  rep.first_rel_residual = r.get_f64();
  rep.trimmed_measurements = static_cast<std::size_t>(r.get_u64());
  rep.dropped_measurements = static_cast<std::size_t>(r.get_u64());
  rep.saturated_measurements = static_cast<std::size_t>(r.get_u64());
  const std::uint64_t defects = r.get_u64();
  FLEXCS_CHECK(defects <= r.remaining(),
               "wire report defect mask larger than its payload");
  rep.suspected_defects.resize(static_cast<std::size_t>(defects));
  for (std::size_t i = 0; i < rep.suspected_defects.size(); ++i)
    rep.suspected_defects[i] = r.get_bool();
  rep.suspected_defect_count = static_cast<std::size_t>(r.get_u64());
  rep.estimated_defect_rate = r.get_f64();
  return rep;
}

// --- service tile protocol -------------------------------------------------

std::vector<std::uint8_t> encode_tile_request(const TileRequest& req) {
  Writer w;
  w.put_u64(req.seq);
  w.put_u64(req.frame_index);
  w.put_u64(req.tile_index);
  w.put_f64(req.deadline_seconds);
  put_matrix(w, req.tile);
  return encode_message(MessageType::kTileRequest, w.take());
}

TileRequest decode_tile_request(const Message& msg) {
  FLEXCS_CHECK(msg.type == MessageType::kTileRequest,
               "wire message is not a tile request");
  Reader r(msg.payload);
  TileRequest req;
  req.seq = r.get_u64();
  req.frame_index = r.get_u64();
  req.tile_index = r.get_u64();
  req.deadline_seconds = r.get_f64();
  FLEXCS_CHECK(std::isfinite(req.deadline_seconds),
               "wire tile request deadline is not finite");
  req.tile = get_matrix(r);
  FLEXCS_CHECK(r.exhausted(), "wire tile request has trailing bytes");
  return req;
}

std::vector<std::uint8_t> encode_tile_response(const TileResponse& resp) {
  // One allocation: seq, the matrix shape and pixels, the report's fixed
  // fields (under 128 bytes) and its defect mask.
  Writer w;
  w.reserve(24 + resp.tile.size() * sizeof(double) + 128 +
            resp.report.suspected_defects.size());
  w.put_u64(resp.seq);
  put_matrix(w, resp.tile);
  put_recovery_report(w, resp.report);
  return encode_message(MessageType::kTileResponse, w.take());
}

TileResponse decode_tile_response(const Message& msg) {
  FLEXCS_CHECK(msg.type == MessageType::kTileResponse,
               "wire message is not a tile response");
  Reader r(msg.payload);
  TileResponse resp;
  resp.seq = r.get_u64();
  resp.tile = get_matrix(r);
  resp.report = get_recovery_report(r);
  FLEXCS_CHECK(r.exhausted(), "wire tile response has trailing bytes");
  return resp;
}

// --- remote worker handshake -----------------------------------------------

const char* hello_reject_name(HelloReject reason) {
  switch (reason) {
    case HelloReject::kNone: return "accepted";
    case HelloReject::kVersionMismatch: return "version-mismatch";
    case HelloReject::kMissingCapability: return "missing-capability";
    case HelloReject::kGeometryMismatch: return "geometry-mismatch";
    case HelloReject::kSeedMismatch: return "seed-mismatch";
    case HelloReject::kFleetFull: return "fleet-full";
    case HelloReject::kBudgetExhausted: return "budget-exhausted";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_hello(const HelloRequest& req) {
  Writer w;
  w.put_u16(req.wire_version);
  w.put_u64(req.capabilities);
  w.put_u64(req.padded_rows);
  w.put_u64(req.padded_cols);
  w.put_u64(req.seed);
  return encode_message(MessageType::kHello, w.take());
}

HelloRequest decode_hello(const Message& msg) {
  FLEXCS_CHECK(msg.type == MessageType::kHello,
               "wire message is not a hello");
  Reader r(msg.payload);
  HelloRequest req;
  req.wire_version = r.get_u16();
  req.capabilities = r.get_u64();
  req.padded_rows = r.get_u64();
  req.padded_cols = r.get_u64();
  FLEXCS_CHECK(req.padded_rows <= kMaxDim && req.padded_cols <= kMaxDim,
               "wire hello geometry out of range");
  req.seed = r.get_u64();
  FLEXCS_CHECK(r.exhausted(), "wire hello has trailing bytes");
  return req;
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& ack) {
  Writer w;
  w.put_bool(ack.accepted);
  w.put_u8(static_cast<std::uint8_t>(ack.reason));
  return encode_message(MessageType::kHelloAck, w.take());
}

HelloAck decode_hello_ack(const Message& msg) {
  FLEXCS_CHECK(msg.type == MessageType::kHelloAck,
               "wire message is not a hello ack");
  Reader r(msg.payload);
  HelloAck ack;
  ack.accepted = r.get_bool();
  const std::uint8_t reason = r.get_u8();
  FLEXCS_CHECK(reason < kHelloRejectCount,
               "wire hello ack reason out of range");
  ack.reason = static_cast<HelloReject>(reason);
  FLEXCS_CHECK(!ack.accepted || ack.reason == HelloReject::kNone,
               "wire hello ack accepted with a reject reason");
  FLEXCS_CHECK(r.exhausted(), "wire hello ack has trailing bytes");
  return ack;
}

// --- blocking framed transport (worker side) -------------------------------

bool send_message(int fd, const std::vector<std::uint8_t>& bytes) {
  FLEXCS_CHECK(fd >= 0, "wire send on an invalid fd");
  return io::send_all(fd, bytes.data(), bytes.size());
}

ReadStatus read_message(int fd, std::vector<std::uint8_t>& buffer,
                        Message& out) {
  FLEXCS_CHECK(fd >= 0, "wire read on an invalid fd");
  for (;;) {
    std::size_t consumed = 0;
    const DecodeStatus status =
        decode_message(buffer.data(), buffer.size(), out, consumed);
    if (status == DecodeStatus::kOk) {
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<std::ptrdiff_t>(consumed));
      return ReadStatus::kMessage;
    }
    if (status != DecodeStatus::kShort) return ReadStatus::kCorrupt;
    std::uint8_t chunk[4096];
    std::size_t got = 0;
    // posix_io retries EINTR internally, so a signal during a partial frame
    // can never surface as a spurious short read here.
    const io::ReadResult rr = io::read_some(fd, chunk, sizeof chunk, &got);
    if (rr == io::ReadResult::kEof) return ReadStatus::kEof;
    if (rr != io::ReadResult::kData) return ReadStatus::kError;
    buffer.insert(buffer.end(), chunk, chunk + got);
  }
}

}  // namespace flexcs::runtime::wire

// Wire serialization for the multi-process decode service: a versioned,
// checksummed, length-prefixed frame codec plus typed payload encodings for
// the values that cross the broker <-> worker boundary (sampling patterns,
// measurement frames, DecodeResult, RecoveryReport, and the service's tile
// request/response protocol).
//
// Framing (all integers little-endian, doubles as IEEE-754 bit patterns):
//
//   [u32 magic "FXW1"][u16 version][u16 type][u64 payload bytes]
//   [payload...][u32 CRC-32 of the payload]
//
// The codec is defensive on purpose — it is the trust boundary between the
// supervising broker and its crash-prone workers:
//
//   - decode_message never throws on hostile bytes: bad magic / version /
//     length / checksum come back as a DecodeStatus the broker turns into a
//     worker kill + tile re-dispatch, and a short buffer asks for more bytes;
//   - the typed payload decoders (Reader-based) FLEXCS_CHECK structural
//     invariants (sizes, bounds), so a payload that passes the checksum but
//     lies about its shape still cannot corrupt broker state — the CheckError
//     is caught and treated exactly like a checksum reject.
//
// Nothing here touches a socket except send_message/read_message, the
// blocking framed transport used by the worker loop (the broker runs its own
// poll-based nonblocking reads over the same decode_message parser).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cs/decoder.hpp"
#include "cs/sampling.hpp"
#include "la/matrix.hpp"
#include "runtime/pipeline.hpp"

namespace flexcs::runtime::wire {

inline constexpr std::uint32_t kMagic = 0x46585731u;  // "FXW1"
// Version 2: the ladder tops out at rung 3 (resample); a version-1 peer
// would send or expect rung 4, so the header check rejects it up front.
inline constexpr std::uint16_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 16;  // magic + version + type + len
inline constexpr std::size_t kTrailerBytes = 4;  // payload CRC-32
// Upper bound on a payload (a 1024 x 1024 double frame is 8 MiB; 64 MiB
// leaves headroom without letting a corrupt length field drive a huge
// allocation in the broker).
inline constexpr std::uint64_t kMaxPayloadBytes = 64ull << 20;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `size` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

enum class MessageType : std::uint16_t {
  kTileRequest = 1,
  kTileResponse = 2,
  kShutdown = 3,
  // Standalone typed payloads, for callers (tests, future RPC fronts) that
  // ship one value per message rather than the service's tile protocol.
  kPattern = 4,
  kFrame = 5,
  kDecodeResult = 6,
  kRecoveryReport = 7,
  // Remote worker protocol (TCP): connection handshake and keepalive.
  kHello = 8,      // worker -> broker: version + capability announcement
  kHelloAck = 9,   // broker -> worker: admit or refuse, with a reason
  kPing = 10,      // broker -> idle worker: liveness probe (empty payload)
  kPong = 11,      // worker -> broker: probe echo (empty payload)
};

/// Append-only payload builder.
class Writer {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v);
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  std::size_t size() const { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked payload reader. Every getter FLEXCS_CHECKs that enough
/// bytes remain, so a structurally lying payload throws CheckError instead of
/// reading out of bounds.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int32_t get_i32();
  double get_f64();
  bool get_bool() { return get_u8() != 0; }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  void require(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

struct Message {
  MessageType type = MessageType::kShutdown;
  std::vector<std::uint8_t> payload;
};

enum class DecodeStatus {
  kOk,           // one message decoded, `consumed` bytes eaten
  kShort,        // not enough bytes yet — read more and retry
  kBadMagic,     // stream desynchronised or not a flexcs peer
  kBadVersion,   // incompatible protocol revision
  kBadLength,    // length field exceeds kMaxPayloadBytes
  kBadChecksum,  // payload bits flipped in transit
};

/// Short stable identifier, e.g. "ok" or "bad-checksum".
const char* decode_status_name(DecodeStatus status);

/// Frames a payload into one wire message.
std::vector<std::uint8_t> encode_message(MessageType type,
                                         const std::vector<std::uint8_t>& payload);

/// Attempts to decode one message from the head of `data`. On kOk, `out` is
/// filled and `consumed` is the full frame size; on kShort nothing is
/// consumed; on any other status the stream is unrecoverable (a byte-stream
/// transport has no resync point) and the caller should drop the peer.
DecodeStatus decode_message(const std::uint8_t* data, std::size_t size,
                            Message& out, std::size_t& consumed);

// --- typed payload encodings -----------------------------------------------

void put_matrix(Writer& w, const la::Matrix& m);
la::Matrix get_matrix(Reader& r);

void put_la_vector(Writer& w, const la::Vector& v);
la::Vector get_la_vector(Reader& r);

void put_pattern(Writer& w, const cs::SamplingPattern& p);
cs::SamplingPattern get_pattern(Reader& r);

void put_recovery_report(Writer& w, const RecoveryReport& rep);
RecoveryReport get_recovery_report(Reader& r);

void put_decode_result(Writer& w, const cs::DecodeResult& res);
cs::DecodeResult get_decode_result(Reader& r);

// --- service tile protocol -------------------------------------------------

/// One tile dispatch. frame_index/tile_index identify the tile globally (and
/// seed its deterministic sampling pattern — any worker decoding the same
/// tile draws the same pattern, which is what makes a re-dispatch after a
/// crash bit-identical). The control fields mirror FrameControl so the
/// Degrade admission policy can cheapen tiles over the wire.
struct TileRequest {
  std::uint64_t seq = 0;           // dispatch id, echoed by the response
  std::uint64_t frame_index = 0;   // global frame number
  std::uint64_t tile_index = 0;    // row-major tile-grid index
  double deadline_seconds = 0.0;   // per-tile solve budget; <= 0 = none
  std::int32_t max_decode_calls = -1;  // FrameControl override; < 0 = none
  std::uint32_t max_rung = 3;          // ladder cap (Strategy value)
  la::Matrix tile;                 // padded tile pixels
};

std::vector<std::uint8_t> encode_tile_request(const TileRequest& req);
TileRequest decode_tile_request(const Message& msg);

struct TileResponse {
  std::uint64_t seq = 0;  // echoes the request's dispatch id
  la::Matrix tile;
  RecoveryReport report;
};

std::vector<std::uint8_t> encode_tile_response(const TileResponse& resp);
TileResponse decode_tile_response(const Message& msg);

// --- remote worker handshake -----------------------------------------------

/// Capability bits a remote worker announces in its Hello. The broker admits
/// a worker only when every capability it needs is present; unknown bits are
/// ignored, which is what lets future workers talk to older brokers.
inline constexpr std::uint64_t kCapTileDecode = 1ull << 0;

/// First message on every remote connection, worker -> broker. The broker
/// admits the worker only when the wire version matches, kCapTileDecode is
/// announced, and the tile geometry and base seed equal its own — the
/// (seed, frame, tile) determinism contract only holds across hosts when
/// every decoding process draws patterns from identical parameters.
struct HelloRequest {
  std::uint16_t wire_version = kVersion;
  std::uint64_t capabilities = kCapTileDecode;
  std::uint64_t padded_rows = 0;  // tile geometry the worker decodes
  std::uint64_t padded_cols = 0;
  std::uint64_t seed = 0;         // base seed for tile_seed()
};

std::vector<std::uint8_t> encode_hello(const HelloRequest& req);
HelloRequest decode_hello(const Message& msg);

enum class HelloReject : std::uint8_t {
  kNone = 0,             // accepted
  kVersionMismatch = 1,
  kMissingCapability = 2,
  kGeometryMismatch = 3,
  kSeedMismatch = 4,
  kFleetFull = 5,        // no remote slot available
  kBudgetExhausted = 6,  // broker's reconnect budget is spent
};
inline constexpr std::uint8_t kHelloRejectCount = 7;

/// Short stable identifier, e.g. "accepted" or "version-mismatch".
const char* hello_reject_name(HelloReject reason);

struct HelloAck {
  bool accepted = false;
  HelloReject reason = HelloReject::kNone;
};

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& ack);
HelloAck decode_hello_ack(const Message& msg);

// --- blocking framed transport (worker side) -------------------------------

/// Writes one encoded message to a socket fd (socketpair or TCP), looping
/// over partial sends (EINTR-safe via runtime/posix_io, MSG_NOSIGNAL so a
/// dead peer reads as EPIPE, not SIGPIPE). Returns false on any transport
/// error.
bool send_message(int fd, const std::vector<std::uint8_t>& bytes);

enum class ReadStatus { kMessage, kEof, kError, kCorrupt };

/// Blocking framed read: appends fd bytes to `buffer` until one full message
/// parses out of its head (consumed bytes are erased). kCorrupt covers every
/// non-kShort DecodeStatus — the stream cannot be resynchronised.
ReadStatus read_message(int fd, std::vector<std::uint8_t>& buffer,
                        Message& out);

}  // namespace flexcs::runtime::wire

// Wire protocol for the multi-tenant scheduling server.
//
// Length-prefixed binary frames over TCP, little-endian throughout, one
// frame layout:
//
//   [u32 length][u8 version=2][u8 type][u64 request_id][body...]
//
// `length` counts everything after itself (version + type + request_id +
// body) and is bounded by kMaxFrameBytes — a peer announcing more is
// malformed and the connection is closed. A version byte other than 2 is
// unsupported (the retired v1 layout included) and closes the connection
// too. Strings are [u32 length][bytes] (no NUL). The request verbs are
// solve / lookup / stats / health; every request gets exactly one response
// frame: the matching *Ok type on success or kError carrying a typed
// WireError plus a human-readable message. Responses carry the request's
// `request_id` back and may complete out of order, which is what lets one
// connection keep a window of requests in flight (AsyncClient). Error
// codes are a closed enum so clients can switch on them;
// WireErrorFromStatus / StatusFromWireError give a lossless-enough round
// trip for the service's typed failures (deadline, queue-full,
// admission-rejected, corrupt-artifact, ...).
//
// Solve and lookup requests carry the problem inline as .ssg text
// (graph/graph_io.hpp): the server stays stateless across connections and
// keys its cache on the canonical fingerprint, so isomorphic problem texts
// from different tenants still coalesce. The decoder is incremental
// (FrameDecoder) and every field read is bounds-checked: arbitrary bytes
// fed to it must produce a typed error, never undefined behavior.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/time.hpp"

namespace ss::net {

/// The version byte every frame carries. Frames hold a u64 request_id
/// after the type byte and responses may complete out of order.
inline constexpr std::uint8_t kProtocolVersion2 = 2;
/// Upper bound on one frame's payload (version + type + request_id +
/// body). Problem texts are a few KiB; anything near this bound is abuse.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;
/// Smallest legal `length`: version + type + request_id, empty body.
inline constexpr std::size_t kFrameHeaderBytes = 2 + sizeof(std::uint64_t);

enum class MsgType : std::uint8_t {
  kSolve = 1,
  kLookup = 2,
  kStats = 3,
  kHealth = 4,
  kSolveOk = 65,
  kLookupOk = 66,
  kStatsOk = 67,
  kHealthOk = 68,
  kError = 127,
};

/// Typed protocol error codes. Stable on the wire — append only.
enum class WireError : std::uint8_t {
  kOk = 0,
  kMalformed = 1,          // undecodable frame / bad problem text / regime
  kUnsupported = 2,        // unknown type or version
  kDeadlineExceeded = 3,
  kQueueFull = 4,          // tenant lane or service queue at capacity
  kAdmissionRejected = 5,  // token-bucket rate limit refused the request
  kUnknownTenant = 6,      // registry closed and the tenant is not in it
  kCorruptArtifact = 7,    // cached schedule failed verification
  kNotFound = 8,
  kCancelled = 9,
  kShuttingDown = 10,      // server draining; retry against another replica
  kInternal = 11,
  kOverloaded = 12,        // load shedding refused the request; retry later
};

const char* WireErrorName(WireError code);
WireError WireErrorFromStatus(const Status& status);
/// Reconstructs a typed Status from an error frame (code + message).
Status StatusFromWireError(WireError code, const std::string& message);

// ---- Message bodies ------------------------------------------------------

struct SolveRequestMsg {
  std::string tenant;
  /// Problem in .ssg text form (graph/graph_io.hpp).
  std::string problem_text;
  std::int32_t regime = 0;
  /// Relative deadline in microseconds from server receipt; 0 = none.
  std::int64_t deadline_micros = 0;
  bool allow_degraded = false;
};

/// Compact result summary shared by solve and lookup responses.
struct ScheduleSummary {
  std::string fingerprint_hex;
  std::int64_t latency = 0;
  std::int64_t initiation_interval = 0;
  std::int32_t rotation = 0;
  /// 0 = proven optimal, 1 = heuristic (degraded / cancelled search).
  std::uint8_t quality = 0;
};

struct SolveResponseMsg {
  ScheduleSummary summary;
  /// True when the answer came from the schedule cache without queueing.
  bool cache_hit = false;
};

struct LookupRequestMsg {
  std::string tenant;
  std::string problem_text;
  std::int32_t regime = 0;
};

struct LookupResponseMsg {
  bool found = false;
  ScheduleSummary summary;  // valid only when found
};

/// The STATS body: the service's, the tenant front end's and the server's
/// metric rows (core/metrics.hpp), in that order; docs/net.md lists them.
/// The four counts are filled by Decode from the rows, for perfbench.
struct StatsResponseMsg {
  MetricSnapshot metrics;
  std::uint64_t solves = 0;           // service_solves
  std::uint64_t coalesced = 0;        // service_coalesced
  std::uint64_t retries = 0;          // no row: the service never retries
  std::uint64_t protocol_errors = 0;  // net_protocol_errors, all loops
};

struct HealthResponseMsg {
  /// "ok" while serving, "draining" once a graceful stop began.
  std::string state;
  std::int64_t uptime_micros = 0;
};

struct ErrorResponseMsg {
  WireError code = WireError::kInternal;
  std::string message;
};

// ---- Encoding ------------------------------------------------------------

/// Appends little-endian scalars / length-prefixed strings to a buffer.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(v); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back(Byte(v, i));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back(Byte(v, i));
  }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }

 private:
  template <typename T>
  static std::uint8_t Byte(T v, int i) {
    return static_cast<std::uint8_t>(v >> (8 * i));
  }
  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked little-endian reads over a frame body. Every method
/// fails (sticky) instead of reading past the end.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool U8(std::uint8_t* v);
  bool U32(std::uint32_t* v);
  bool U64(std::uint64_t* v);
  bool I32(std::int32_t* v);
  bool I64(std::int64_t* v);
  bool F64(double* v);
  bool Str(std::string* s);

  bool failed() const { return failed_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// True when the whole body was consumed cleanly (trailing bytes are a
  /// malformed frame — they hide version skew).
  bool AtEnd() const { return !failed_ && pos_ == size_; }

 private:
  bool Take(std::size_t n, const std::uint8_t** p);
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Encodes a complete frame: length prefix, `version`, type, request_id,
/// body. Peers always send kProtocolVersion2; the byte is a parameter so
/// tests can forge frames a server must refuse.
std::vector<std::uint8_t> EncodeFrame(MsgType type,
                                      const std::vector<std::uint8_t>& body,
                                      std::uint8_t version = kProtocolVersion2,
                                      std::uint64_t request_id = 0);

// Body encoders; EncodeFrame wraps them (the server echoes the request's
// id, the async client stamps fresh ids).
std::vector<std::uint8_t> EncodeBody(const SolveRequestMsg& msg);
std::vector<std::uint8_t> EncodeBody(const SolveResponseMsg& msg);
std::vector<std::uint8_t> EncodeBody(const LookupRequestMsg& msg);
std::vector<std::uint8_t> EncodeBody(const LookupResponseMsg& msg);
std::vector<std::uint8_t> EncodeBody(const StatsResponseMsg& msg);
std::vector<std::uint8_t> EncodeBody(const HealthResponseMsg& msg);
std::vector<std::uint8_t> EncodeBody(const ErrorResponseMsg& msg);

Status Decode(const std::uint8_t* body, std::size_t size,
              SolveRequestMsg* out);
Status Decode(const std::uint8_t* body, std::size_t size,
              SolveResponseMsg* out);
Status Decode(const std::uint8_t* body, std::size_t size,
              LookupRequestMsg* out);
Status Decode(const std::uint8_t* body, std::size_t size,
              LookupResponseMsg* out);
Status Decode(const std::uint8_t* body, std::size_t size,
              StatsResponseMsg* out);
Status Decode(const std::uint8_t* body, std::size_t size,
              HealthResponseMsg* out);
Status Decode(const std::uint8_t* body, std::size_t size,
              ErrorResponseMsg* out);

/// One decoded frame: the type byte, the correlation id and the body.
struct Frame {
  MsgType type = MsgType::kError;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> body;
};

/// Incremental frame extractor for a TCP byte stream. Feed arbitrary
/// chunks with Append(); Next() yields complete frames in order. A bad
/// prefix (oversized length, a version byte other than 2, a length too
/// short for the header) is a permanent, typed failure — the connection
/// must be closed. The version byte is judged as soon as it arrives, so a
/// peer speaking another layout is refused as unsupported, not as a runt.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  void Append(const void* data, std::size_t size);

  /// Returns true and fills `out` when a complete frame is buffered;
  /// false when more bytes are needed; a non-OK status permanently when
  /// the stream is malformed.
  Expected<bool> Next(Frame* out);

  std::size_t buffered() const { return buf_.size() - pos_; }
  /// Wire code of the permanent failure: kUnsupported for a foreign
  /// version byte, kMalformed otherwise; kOk while the stream is healthy.
  WireError error_code() const { return error_code_; }

 private:
  Expected<bool> Fail(WireError code, std::string message);

  std::size_t max_frame_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  Status error_;
  WireError error_code_ = WireError::kOk;
};

}  // namespace ss::net

#include "net/protocol.hpp"

#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace ss::net {

const char* WireErrorName(WireError code) {
  switch (code) {
    case WireError::kOk: return "OK";
    case WireError::kMalformed: return "MALFORMED";
    case WireError::kUnsupported: return "UNSUPPORTED";
    case WireError::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case WireError::kQueueFull: return "QUEUE_FULL";
    case WireError::kAdmissionRejected: return "ADMISSION_REJECTED";
    case WireError::kUnknownTenant: return "UNKNOWN_TENANT";
    case WireError::kCorruptArtifact: return "CORRUPT_ARTIFACT";
    case WireError::kNotFound: return "NOT_FOUND";
    case WireError::kCancelled: return "CANCELLED";
    case WireError::kShuttingDown: return "SHUTTING_DOWN";
    case WireError::kInternal: return "INTERNAL";
    case WireError::kOverloaded: return "OVERLOADED";
  }
  return "UNKNOWN";
}

WireError WireErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return WireError::kOk;
    case StatusCode::kDeadlineExceeded: return WireError::kDeadlineExceeded;
    case StatusCode::kWouldBlock: return WireError::kQueueFull;
    case StatusCode::kAdmissionRejected:
      return WireError::kAdmissionRejected;
    case StatusCode::kCorruptArtifact: return WireError::kCorruptArtifact;
    // The solve path's kNotFound is "unknown tenant" (a lookup miss is a
    // found=false response, not an error frame).
    case StatusCode::kNotFound: return WireError::kUnknownTenant;
    case StatusCode::kInvalidArgument: return WireError::kMalformed;
    case StatusCode::kCancelled: return WireError::kCancelled;
    case StatusCode::kOverloaded: return WireError::kOverloaded;
    default: return WireError::kInternal;
  }
}

Status StatusFromWireError(WireError code, const std::string& message) {
  switch (code) {
    case WireError::kOk: return OkStatus();
    case WireError::kDeadlineExceeded: return DeadlineExceededError(message);
    case WireError::kQueueFull: return WouldBlockError(message);
    case WireError::kAdmissionRejected:
      return AdmissionRejectedError(message);
    case WireError::kUnknownTenant: return NotFoundError(message);
    case WireError::kCorruptArtifact: return CorruptArtifactError(message);
    case WireError::kNotFound: return NotFoundError(message);
    case WireError::kMalformed:
    case WireError::kUnsupported:
      return InvalidArgumentError(message);
    case WireError::kCancelled:
    case WireError::kShuttingDown:
      return CancelledError(message);
    case WireError::kInternal: return InternalError(message);
    case WireError::kOverloaded: return OverloadedError(message);
  }
  return InternalError(message);
}

// ---- WireReader ----------------------------------------------------------

bool WireReader::Take(std::size_t n, const std::uint8_t** p) {
  if (failed_ || size_ - pos_ < n) {
    failed_ = true;
    return false;
  }
  *p = data_ + pos_;
  pos_ += n;
  return true;
}

bool WireReader::U8(std::uint8_t* v) {
  const std::uint8_t* p = nullptr;
  if (!Take(1, &p)) return false;
  *v = p[0];
  return true;
}

bool WireReader::U32(std::uint32_t* v) {
  const std::uint8_t* p = nullptr;
  if (!Take(4, &p)) return false;
  *v = 0;
  for (int i = 3; i >= 0; --i) *v = (*v << 8) | p[i];
  return true;
}

bool WireReader::U64(std::uint64_t* v) {
  const std::uint8_t* p = nullptr;
  if (!Take(8, &p)) return false;
  *v = 0;
  for (int i = 7; i >= 0; --i) *v = (*v << 8) | p[i];
  return true;
}

bool WireReader::I32(std::int32_t* v) {
  std::uint32_t u = 0;
  if (!U32(&u)) return false;
  *v = static_cast<std::int32_t>(u);
  return true;
}

bool WireReader::I64(std::int64_t* v) {
  std::uint64_t u = 0;
  if (!U64(&u)) return false;
  *v = static_cast<std::int64_t>(u);
  return true;
}

bool WireReader::F64(double* v) {
  std::uint64_t bits = 0;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool WireReader::Str(std::string* s) {
  std::uint32_t len = 0;
  if (!U32(&len)) return false;
  const std::uint8_t* p = nullptr;
  if (!Take(len, &p)) return false;
  s->assign(reinterpret_cast<const char*>(p), len);
  return true;
}

// ---- Frame encoding ------------------------------------------------------

std::vector<std::uint8_t> EncodeFrame(MsgType type,
                                      const std::vector<std::uint8_t>& body,
                                      std::uint8_t version,
                                      std::uint64_t request_id) {
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + kFrameHeaderBytes + body.size());
  WireWriter w(&frame);
  w.U32(static_cast<std::uint32_t>(kFrameHeaderBytes + body.size()));
  w.U8(version);
  w.U8(static_cast<std::uint8_t>(type));
  w.U64(request_id);
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

namespace {

Status MalformedBody(const char* what) {
  return InvalidArgumentError(std::string("malformed ") + what + " body");
}

void WriteSummary(WireWriter* w, const ScheduleSummary& s) {
  w->Str(s.fingerprint_hex);
  w->I64(s.latency);
  w->I64(s.initiation_interval);
  w->I32(s.rotation);
  w->U8(s.quality);
}

bool ReadSummary(WireReader* r, ScheduleSummary* s) {
  return r->Str(&s->fingerprint_hex) && r->I64(&s->latency) &&
         r->I64(&s->initiation_interval) && r->I32(&s->rotation) &&
         r->U8(&s->quality);
}

}  // namespace

std::vector<std::uint8_t> EncodeBody(const SolveRequestMsg& msg) {
  std::vector<std::uint8_t> body;
  WireWriter w(&body);
  w.Str(msg.tenant);
  w.Str(msg.problem_text);
  w.I32(msg.regime);
  w.I64(msg.deadline_micros);
  w.U8(msg.allow_degraded ? 1 : 0);
  return body;
}

Status Decode(const std::uint8_t* body, std::size_t size,
              SolveRequestMsg* out) {
  WireReader r(body, size);
  std::uint8_t degraded = 0;
  if (!r.Str(&out->tenant) || !r.Str(&out->problem_text) ||
      !r.I32(&out->regime) || !r.I64(&out->deadline_micros) ||
      !r.U8(&degraded) || !r.AtEnd()) {
    return MalformedBody("solve request");
  }
  out->allow_degraded = degraded != 0;
  return OkStatus();
}

std::vector<std::uint8_t> EncodeBody(const SolveResponseMsg& msg) {
  std::vector<std::uint8_t> body;
  WireWriter w(&body);
  WriteSummary(&w, msg.summary);
  w.U8(msg.cache_hit ? 1 : 0);
  return body;
}

Status Decode(const std::uint8_t* body, std::size_t size,
              SolveResponseMsg* out) {
  WireReader r(body, size);
  std::uint8_t hit = 0;
  if (!ReadSummary(&r, &out->summary) || !r.U8(&hit) || !r.AtEnd()) {
    return MalformedBody("solve response");
  }
  out->cache_hit = hit != 0;
  return OkStatus();
}

std::vector<std::uint8_t> EncodeBody(const LookupRequestMsg& msg) {
  std::vector<std::uint8_t> body;
  WireWriter w(&body);
  w.Str(msg.tenant);
  w.Str(msg.problem_text);
  w.I32(msg.regime);
  return body;
}

Status Decode(const std::uint8_t* body, std::size_t size,
              LookupRequestMsg* out) {
  WireReader r(body, size);
  if (!r.Str(&out->tenant) || !r.Str(&out->problem_text) ||
      !r.I32(&out->regime) || !r.AtEnd()) {
    return MalformedBody("lookup request");
  }
  return OkStatus();
}

std::vector<std::uint8_t> EncodeBody(const LookupResponseMsg& msg) {
  std::vector<std::uint8_t> body;
  WireWriter w(&body);
  w.U8(msg.found ? 1 : 0);
  if (msg.found) WriteSummary(&w, msg.summary);
  return body;
}

Status Decode(const std::uint8_t* body, std::size_t size,
              LookupResponseMsg* out) {
  WireReader r(body, size);
  std::uint8_t found = 0;
  if (!r.U8(&found)) return MalformedBody("lookup response");
  out->found = found != 0;
  if (out->found && !ReadSummary(&r, &out->summary)) {
    return MalformedBody("lookup response");
  }
  if (!r.AtEnd()) return MalformedBody("lookup response");
  return OkStatus();
}

std::vector<std::uint8_t> EncodeBody(const StatsResponseMsg& msg) {
  const std::vector<MetricRow>& rows = msg.metrics.rows;
  std::vector<std::uint8_t> body;
  WireWriter w(&body);
  w.U32(static_cast<std::uint32_t>(rows.size()));
  // Rows repeat their names (one per tenant or loop); the help text goes
  // out once per name, after the rows.
  std::vector<const MetricRow*> helps;
  std::unordered_set<std::string_view> named;
  for (const MetricRow& row : rows) {
    w.Str(row.name);
    w.U8(static_cast<std::uint8_t>(row.kind));
    w.U32(static_cast<std::uint32_t>(row.labels.size()));
    for (const auto& [key, value] : row.labels) {
      w.Str(key);
      w.Str(value);
    }
    if (row.kind == MetricKind::kGauge) {
      w.F64(row.value);
    } else {
      w.U64(row.count);
    }
    if (row.kind == MetricKind::kHistogram) {
      w.F64(row.p50);
      w.F64(row.p99);
      w.F64(row.p999);
    }
    if (named.insert(row.name).second) helps.push_back(&row);
  }
  w.U32(static_cast<std::uint32_t>(helps.size()));
  for (const MetricRow* row : helps) {
    w.Str(row->name);
    w.Str(row->help);
  }
  return body;
}

Status Decode(const std::uint8_t* body, std::size_t size,
              StatsResponseMsg* out) {
  // Counts are checked against what the rest of the body could hold before
  // anything is reserved: a row is at least an empty name, the kind, a
  // label count and a u64; a label or help entry at least two empty
  // strings.
  constexpr std::size_t kMinRowBytes = 4 + 1 + 4 + 8;
  constexpr std::size_t kMinPairBytes = 4 + 4;
  WireReader r(body, size);
  std::uint32_t row_count = 0;
  if (!r.U32(&row_count) || row_count > r.remaining() / kMinRowBytes) {
    return MalformedBody("stats response");
  }
  std::vector<MetricRow> rows(row_count);
  for (MetricRow& row : rows) {
    std::uint8_t kind = 0;
    std::uint32_t label_count = 0;
    if (!r.Str(&row.name) || !r.U8(&kind) ||
        kind > static_cast<std::uint8_t>(MetricKind::kHistogram) ||
        !r.U32(&label_count) ||
        label_count > r.remaining() / kMinPairBytes) {
      return MalformedBody("stats response");
    }
    row.kind = static_cast<MetricKind>(kind);
    row.labels.resize(label_count);
    for (auto& [key, value] : row.labels) {
      if (!r.Str(&key) || !r.Str(&value)) {
        return MalformedBody("stats response");
      }
    }
    const bool value_read =
        row.kind == MetricKind::kGauge
            ? r.F64(&row.value)
            : r.U64(&row.count) && (row.kind == MetricKind::kCounter ||
                                    (r.F64(&row.p50) && r.F64(&row.p99) &&
                                     r.F64(&row.p999)));
    if (!value_read) return MalformedBody("stats response");
  }
  std::uint32_t help_count = 0;
  if (!r.U32(&help_count) || help_count > r.remaining() / kMinPairBytes) {
    return MalformedBody("stats response");
  }
  std::unordered_map<std::string, std::string> helps;
  for (std::uint32_t i = 0; i < help_count; ++i) {
    std::string name;
    std::string help;
    if (!r.Str(&name) || !r.Str(&help)) return MalformedBody("stats response");
    helps[std::move(name)] = std::move(help);
  }
  if (!r.AtEnd()) return MalformedBody("stats response");
  for (MetricRow& row : rows) {
    if (auto it = helps.find(row.name); it != helps.end()) {
      row.help = it->second;
    }
  }
  out->metrics.rows = std::move(rows);
  out->solves = out->metrics.Count("service_solves");
  out->coalesced = out->metrics.Count("service_coalesced");
  out->retries = 0;
  out->protocol_errors = out->metrics.Count("net_protocol_errors");
  return OkStatus();
}

std::vector<std::uint8_t> EncodeBody(const HealthResponseMsg& msg) {
  std::vector<std::uint8_t> body;
  WireWriter w(&body);
  w.Str(msg.state);
  w.I64(msg.uptime_micros);
  return body;
}

Status Decode(const std::uint8_t* body, std::size_t size,
              HealthResponseMsg* out) {
  WireReader r(body, size);
  if (!r.Str(&out->state) || !r.I64(&out->uptime_micros) || !r.AtEnd()) {
    return MalformedBody("health response");
  }
  return OkStatus();
}

std::vector<std::uint8_t> EncodeBody(const ErrorResponseMsg& msg) {
  std::vector<std::uint8_t> body;
  WireWriter w(&body);
  w.U8(static_cast<std::uint8_t>(msg.code));
  w.Str(msg.message);
  return body;
}

Status Decode(const std::uint8_t* body, std::size_t size,
              ErrorResponseMsg* out) {
  WireReader r(body, size);
  std::uint8_t code = 0;
  if (!r.U8(&code) || !r.Str(&out->message) || !r.AtEnd()) {
    return MalformedBody("error response");
  }
  if (code > static_cast<std::uint8_t>(WireError::kOverloaded)) {
    return MalformedBody("error response");
  }
  out->code = static_cast<WireError>(code);
  return OkStatus();
}

// ---- FrameDecoder --------------------------------------------------------

void FrameDecoder::Append(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  // Compact once the consumed prefix dominates, so long-lived connections
  // do not grow the buffer without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes, bytes + size);
}

Expected<bool> FrameDecoder::Fail(WireError code, std::string message) {
  error_code_ = code;
  error_ = InvalidArgumentError(std::move(message));
  return error_;
}

Expected<bool> FrameDecoder::Next(Frame* out) {
  if (!error_.ok()) return error_;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 4) return false;
  WireReader header(&buf_[pos_], avail);
  std::uint32_t length = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  header.U32(&length);
  if (length > max_frame_) {
    return Fail(WireError::kMalformed,
                "malformed frame: length " + std::to_string(length) +
                    " exceeds " + std::to_string(max_frame_));
  }
  // The version byte is judged as soon as it arrives, before the header
  // length: a peer speaking another layout (v1's shorter header included)
  // is unsupported, not a runt.
  if (length > 0 && !header.U8(&version)) return false;
  if (length > 0 && version != kProtocolVersion2) {
    return Fail(WireError::kUnsupported,
                "unsupported protocol version " + std::to_string(version));
  }
  if (length < kFrameHeaderBytes) {
    return Fail(WireError::kMalformed,
                "malformed frame: length " + std::to_string(length) +
                    " too short for the " +
                    std::to_string(kFrameHeaderBytes) + "-byte header");
  }
  if (avail < 4u + length) return false;
  header.U8(&type);
  header.U64(&out->request_id);
  out->type = static_cast<MsgType>(type);
  const auto body_at =
      buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4 + kFrameHeaderBytes);
  out->body.assign(body_at,
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4 + length));
  pos_ += 4u + length;
  return true;
}

}  // namespace ss::net

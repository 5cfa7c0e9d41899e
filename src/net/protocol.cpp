#include "net/protocol.hpp"

#include "core/ascii_table.hpp"

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
  std::vector<std::uint8_t> body;
  WireWriter w(&body);
  w.U64(msg.requests);
  w.U64(msg.cache_hits);
  w.U64(msg.lookups);
  w.U64(msg.lookup_hits);
  w.U64(msg.coalesced);
  w.U64(msg.solves);
  w.U64(msg.solve_failures);
  w.U64(msg.deadline_exceeded);
  w.U64(msg.queue_rejected);
  w.U64(msg.corrupt_rejected);
  w.U64(msg.degraded);
  w.U64(msg.cache_entries);
  w.U64(msg.retries);
  w.U64(msg.connections_accepted);
  w.U64(msg.connections_active);
  w.U64(msg.frames_received);
  w.U64(msg.protocol_errors);
  w.U64(msg.shed_overload);
  w.U64(msg.expired_in_queue);
  w.I64(msg.uptime_micros);
  w.U32(static_cast<std::uint32_t>(msg.tenants.size()));
  for (const TenantStatsMsg& t : msg.tenants) {
    w.Str(t.name);
    w.F64(t.weight);
    w.U64(t.admitted);
    w.U64(t.rejected_rate_limited);
    w.U64(t.rejected_queue_full);
    w.U64(t.dispatched);
    w.U64(t.completed);
    w.U64(t.failed);
    w.U64(t.cancelled);
    w.U64(t.cache_hits);
    w.U64(t.queued);
    w.F64(t.p50_latency_us);
    w.F64(t.p99_latency_us);
    w.F64(t.p999_latency_us);
  }
  w.U32(static_cast<std::uint32_t>(msg.loops.size()));
  for (const LoopStatsMsg& l : msg.loops) {
    w.U32(l.loop);
    w.U64(l.connections_active);
    w.U64(l.frames_received);
    w.U64(l.responses_sent);
  }
  return body;
}

Status Decode(const std::uint8_t* body, std::size_t size,
              StatsResponseMsg* out) {
  WireReader r(body, size);
  std::uint32_t tenant_count = 0;
  if (!r.U64(&out->requests) || !r.U64(&out->cache_hits) ||
      !r.U64(&out->lookups) || !r.U64(&out->lookup_hits) ||
      !r.U64(&out->coalesced) || !r.U64(&out->solves) ||
      !r.U64(&out->solve_failures) || !r.U64(&out->deadline_exceeded) ||
      !r.U64(&out->queue_rejected) || !r.U64(&out->corrupt_rejected) ||
      !r.U64(&out->degraded) || !r.U64(&out->cache_entries) ||
      !r.U64(&out->retries) || !r.U64(&out->connections_accepted) ||
      !r.U64(&out->connections_active) || !r.U64(&out->frames_received) ||
      !r.U64(&out->protocol_errors) || !r.U64(&out->shed_overload) ||
      !r.U64(&out->expired_in_queue) || !r.I64(&out->uptime_micros) ||
      !r.U32(&tenant_count)) {
    return MalformedBody("stats response");
  }
  // Each tenant entry is over 100 bytes; reject counts the body cannot
  // possibly hold before reserving (loose bound — the per-field reads
  // still bounds-check everything).
  if (tenant_count > size / 32) return MalformedBody("stats response");
  out->tenants.clear();
  out->tenants.reserve(tenant_count);
  for (std::uint32_t i = 0; i < tenant_count; ++i) {
    TenantStatsMsg t;
    if (!r.Str(&t.name) || !r.F64(&t.weight) || !r.U64(&t.admitted) ||
        !r.U64(&t.rejected_rate_limited) ||
        !r.U64(&t.rejected_queue_full) || !r.U64(&t.dispatched) ||
        !r.U64(&t.completed) || !r.U64(&t.failed) || !r.U64(&t.cancelled) ||
        !r.U64(&t.cache_hits) || !r.U64(&t.queued) ||
        !r.F64(&t.p50_latency_us) || !r.F64(&t.p99_latency_us) ||
        !r.F64(&t.p999_latency_us)) {
      return MalformedBody("stats response");
    }
    out->tenants.push_back(std::move(t));
  }
  std::uint32_t loop_count = 0;
  if (!r.U32(&loop_count)) return MalformedBody("stats response");
  // Each loop entry is 28 bytes; reject counts the body cannot hold.
  if (loop_count > size / 28) return MalformedBody("stats response");
  out->loops.clear();
  out->loops.reserve(loop_count);
  for (std::uint32_t i = 0; i < loop_count; ++i) {
    LoopStatsMsg l;
    if (!r.U32(&l.loop) || !r.U64(&l.connections_active) ||
        !r.U64(&l.frames_received) || !r.U64(&l.responses_sent)) {
      return MalformedBody("stats response");
    }
    out->loops.push_back(l);
  }
  if (!r.AtEnd()) return MalformedBody("stats response");
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

TenantStatsMsg ToWire(const tenant::TenantStats& stats) {
  TenantStatsMsg msg;
  msg.name = stats.name;
  msg.weight = stats.weight;
  msg.admitted = stats.admitted;
  msg.rejected_rate_limited = stats.rejected_rate_limited;
  msg.rejected_queue_full = stats.rejected_queue_full;
  msg.dispatched = stats.dispatched;
  msg.completed = stats.completed;
  msg.failed = stats.failed;
  msg.cancelled = stats.cancelled;
  msg.cache_hits = stats.cache_hits;
  msg.queued = stats.queued;
  msg.p50_latency_us = stats.p50_latency_us;
  msg.p99_latency_us = stats.p99_latency_us;
  msg.p999_latency_us = stats.p999_latency_us;
  return msg;
}

std::string StatsResponseMsg::ToTable() const {
  AsciiTable service;
  service.SetHeader({"metric", "value"});
  auto row = [&](const char* name, std::uint64_t v) {
    service.AddRow({name, std::to_string(v)});
  };
  row("requests", requests);
  row("cache hits", cache_hits);
  row("lookups (cache probes)", lookups);
  row("lookup hits", lookup_hits);
  row("coalesced (single-flight)", coalesced);
  row("solver invocations", solves);
  row("solver failures", solve_failures);
  row("deadline exceeded", deadline_exceeded);
  row("queue rejected", queue_rejected);
  row("corrupt artifacts rejected", corrupt_rejected);
  row("degraded (heuristic) serves", degraded);
  row("cache entries", cache_entries);
  service.AddRule();
  row("connections accepted", connections_accepted);
  row("connections active", connections_active);
  row("frames received", frames_received);
  row("protocol errors", protocol_errors);
  row("shed (overloaded)", shed_overload);
  row("expired in queue", expired_in_queue);
  service.AddRow({"uptime", FormatTick(uptime_micros)});

  std::string out = service.Render();
  if (!loops.empty()) {
    AsciiTable per_loop;
    per_loop.SetHeader({"loop", "conns", "frames", "responses"});
    for (const LoopStatsMsg& l : loops) {
      per_loop.AddRow({std::to_string(l.loop),
                       std::to_string(l.connections_active),
                       std::to_string(l.frames_received),
                       std::to_string(l.responses_sent)});
    }
    out += "\n";
    out += per_loop.Render();
  }
  if (tenants.empty()) return out;

  AsciiTable per_tenant;
  per_tenant.SetHeader({"tenant", "weight", "admitted", "rate-rej",
                        "queue-rej", "dispatched", "hits", "failed",
                        "queued", "p50", "p99", "p999"});
  for (const TenantStatsMsg& t : tenants) {
    per_tenant.AddRow(
        {t.name, FormatDouble(t.weight, 2), std::to_string(t.admitted),
         std::to_string(t.rejected_rate_limited),
         std::to_string(t.rejected_queue_full),
         std::to_string(t.dispatched), std::to_string(t.cache_hits),
         std::to_string(t.failed), std::to_string(t.queued),
         FormatTick(static_cast<Tick>(t.p50_latency_us)),
         FormatTick(static_cast<Tick>(t.p99_latency_us)),
         FormatTick(static_cast<Tick>(t.p999_latency_us))});
  }
  out += "\n";
  out += per_tenant.Render();
  return out;
}

}  // namespace ss::net

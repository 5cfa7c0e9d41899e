#include "verify/finding.hpp"

#include <sstream>

#include "core/ascii_table.hpp"

namespace ss::verify {

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError: return "ERROR";
    case Severity::kWarning: return "WARNING";
  }
  return "UNKNOWN";
}

std::string_view CheckName(Check check) {
  switch (check) {
    case Check::kCoverage: return "coverage";
    case Check::kProcRange: return "proc-range";
    case Check::kDuration: return "duration";
    case Check::kStartTime: return "start-time";
    case Check::kOverlap: return "overlap";
    case Check::kPrecedence: return "precedence";
    case Check::kVariants: return "variants";
    case Check::kMakespan: return "makespan";
    case Check::kPipelineShape: return "pipeline-shape";
    case Check::kPipelineCollision: return "pipeline-collision";
    case Check::kPipelineSlack: return "pipeline-slack";
    case Check::kChannelCapacity: return "channel-capacity";
    case Check::kLowerBound: return "lower-bound";
    case Check::kArtifact: return "artifact";
  }
  return "unknown";
}

std::string Finding::ToString() const {
  std::ostringstream os;
  os << SeverityName(severity) << ' ' << CheckName(check);
  if (op >= 0) os << " op=" << op;
  if (proc.valid()) os << " proc=P" << proc.value();
  if (tick != kNoTick) os << " t=" << FormatTick(tick);
  os << ": " << message;
  return os.str();
}

void VerifyReport::Add(Finding finding) {
  if (finding.severity == Severity::kError) ++errors_;
  findings_.push_back(std::move(finding));
}

void VerifyReport::AddError(Check check, std::string message, int op,
                            ProcId proc, Tick tick) {
  Add(Finding{Severity::kError, check, op, proc, tick, std::move(message)});
}

void VerifyReport::AddWarning(Check check, std::string message, int op,
                              ProcId proc, Tick tick) {
  Add(Finding{Severity::kWarning, check, op, proc, tick,
              std::move(message)});
}

void VerifyReport::Merge(const VerifyReport& other) {
  for (const Finding& f : other.findings_) Add(f);
}

bool VerifyReport::Has(Check check) const {
  for (const Finding& f : findings_) {
    if (f.check == check) return true;
  }
  return false;
}

std::string VerifyReport::ToTable() const {
  if (findings_.empty()) return "";
  AsciiTable table;
  table.SetHeader({"severity", "check", "op", "proc", "tick", "message"});
  for (const Finding& f : findings_) {
    std::string proc = "-";
    if (f.proc.valid()) {
      proc = "P";
      proc += std::to_string(f.proc.value());
    }
    table.AddRow({std::string(SeverityName(f.severity)),
                  std::string(CheckName(f.check)),
                  f.op >= 0 ? std::to_string(f.op) : "-", std::move(proc),
                  f.tick != kNoTick ? FormatTick(f.tick) : "-", f.message});
  }
  return table.Render();
}

Status VerifyReport::ToStatus() const {
  if (ok()) return OkStatus();
  for (const Finding& f : findings_) {
    if (f.severity != Severity::kError) continue;
    std::string msg = f.ToString();
    if (errors_ > 1) {
      msg += " (+" + std::to_string(errors_ - 1) + " more error(s))";
    }
    return CorruptArtifactError(std::move(msg));
  }
  return CorruptArtifactError("verification failed");
}

}  // namespace ss::verify

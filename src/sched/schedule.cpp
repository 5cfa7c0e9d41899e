#include "sched/schedule.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <sstream>

namespace ss::sched {

IterationSchedule::IterationSchedule(std::vector<VariantId> variants,
                                     std::vector<ScheduleEntry> entries)
    : variants_(std::move(variants)), entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const ScheduleEntry& a, const ScheduleEntry& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.proc != b.proc) return a.proc < b.proc;
              return a.op < b.op;
            });
  latency_ = 0;
  for (const auto& e : entries_) latency_ = std::max(latency_, e.end());
}

const ScheduleEntry& IterationSchedule::EntryFor(int op) const {
  for (const auto& e : entries_) {
    if (e.op == op) return e;
  }
  SS_CHECK_MSG(false, "op not present in schedule");
  __builtin_unreachable();
}

Tick IterationSchedule::ProcBusy(ProcId proc) const {
  Tick busy = 0;
  for (const auto& e : entries_) {
    if (e.proc == proc) busy += e.duration;
  }
  return busy;
}

int IterationSchedule::ProcsUsed() const {
  int highest = -1;
  for (const auto& e : entries_) highest = std::max(highest, e.proc.value());
  return highest + 1;
}

Tick IterationSchedule::IdleTime(int procs) const {
  Tick busy = 0;
  for (const auto& e : entries_) busy += e.duration;
  return latency_ * static_cast<Tick>(procs) - busy;
}

Status IterationSchedule::Validate(const graph::OpGraph& og,
                                   const graph::MachineConfig& machine,
                                   const graph::CommModel& comm) const {
  if (entries_.size() != og.op_count()) {
    return FailedPreconditionError("schedule does not cover every op");
  }
  std::vector<int> seen(og.op_count(), 0);
  for (const auto& e : entries_) {
    if (e.op < 0 || static_cast<std::size_t>(e.op) >= og.op_count()) {
      return FailedPreconditionError("entry references unknown op");
    }
    if (++seen[static_cast<std::size_t>(e.op)] > 1) {
      return FailedPreconditionError("op scheduled more than once");
    }
    if (!e.proc.valid() || e.proc.value() >= machine.total_procs()) {
      return FailedPreconditionError("entry uses a processor outside machine");
    }
    if (e.duration != og.op(e.op).cost) {
      return FailedPreconditionError("entry duration != op cost");
    }
    if (e.start < 0) {
      return FailedPreconditionError("negative start time");
    }
  }
  // No overlap per processor.
  std::map<ProcId, std::vector<const ScheduleEntry*>> per_proc;
  for (const auto& e : entries_) per_proc[e.proc].push_back(&e);
  for (auto& [proc, list] : per_proc) {
    std::sort(list.begin(), list.end(),
              [](const ScheduleEntry* a, const ScheduleEntry* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i]->start < list[i - 1]->end()) {
        return FailedPreconditionError("ops overlap on processor " +
                                       std::to_string(proc.value()));
      }
    }
  }
  // Dependencies with communication.
  for (const auto& edge : og.edges()) {
    const ScheduleEntry& from = EntryFor(edge.from);
    const ScheduleEntry& to = EntryFor(edge.to);
    Tick ready = from.end();
    if (from.proc != to.proc) {
      ready += comm.Cost(edge.bytes, machine.SameNode(from.proc, to.proc));
    }
    if (to.start < ready) {
      return FailedPreconditionError(
          "dependence violated: " + og.op(edge.from).label + " -> " +
          og.op(edge.to).label);
    }
  }
  return OkStatus();
}

std::string IterationSchedule::CanonicalKey() const {
  // "v/v/.../|op:proc:start;..." with ops in id order, in decimal. The text
  // is the order itself (BetterThroughput and the solver's tie caps compare
  // keys as strings), so the bytes must not change.
  std::vector<const ScheduleEntry*> by_op;
  by_op.reserve(entries_.size());
  for (const auto& e : entries_) by_op.push_back(&e);
  std::sort(by_op.begin(), by_op.end(),
            [](const ScheduleEntry* a, const ScheduleEntry* b) {
              return a->op < b->op;
            });
  std::string key;
  key.reserve(variants_.size() * 4 + 1 + entries_.size() * 24);
  const auto put = [&key](std::int64_t v, char sep) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    key.append(buf, r.ptr);
    key.push_back(sep);
  };
  for (VariantId v : variants_) put(v.value(), '/');
  key.push_back('|');
  for (const ScheduleEntry* e : by_op) {
    put(e->op, ':');
    put(e->proc.value(), ':');
    put(e->start, ';');
  }
  return key;
}

std::string IterationSchedule::ToString(const graph::OpGraph& og) const {
  std::ostringstream os;
  os << "iteration latency " << FormatTick(latency_) << "\n";
  for (const auto& e : entries_) {
    os << "  P" << e.proc.value() << "  [" << FormatTick(e.start) << ", "
       << FormatTick(e.end()) << ")  " << og.op(e.op).label << "\n";
  }
  return os.str();
}

std::string PipelinedSchedule::ToString() const {
  std::ostringstream os;
  os << "latency " << FormatTick(iteration.Latency()) << ", II "
     << FormatTick(initiation_interval) << " ("
     << ThroughputPerSec() << " frames/s), rotation " << rotation << " of "
     << procs << " procs";
  return os.str();
}

}  // namespace ss::sched

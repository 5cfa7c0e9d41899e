#include "sim/trace.hpp"

#include <algorithm>
#include <sstream>

namespace ss::sim {

Tick Trace::BusyTime(ProcId proc) const {
  Tick busy = 0;
  for (const auto& e : events_) {
    if (e.proc == proc) busy += e.end - e.start;
  }
  return busy;
}

Tick Trace::EndTime() const {
  Tick end = 0;
  for (const auto& e : events_) end = std::max(end, e.end);
  return end;
}

std::vector<TraceEvent> Trace::Sorted() const {
  std::vector<TraceEvent> sorted = events_;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.proc < b.proc;
            });
  return sorted;
}

std::string Trace::ToCsv() const {
  std::ostringstream os;
  os << "proc,start_us,end_us,label,frame\n";
  for (const auto& e : Sorted()) {
    os << e.proc.value() << ',' << e.start << ',' << e.end << ',' << e.label
       << ',';
    if (e.frame != kNoTimestamp) os << e.frame;
    os << '\n';
  }
  return os.str();
}

std::string RenderGantt(const Trace& trace, int procs,
                        const GanttOptions& options) {
  std::ostringstream os;
  const Tick t0 = options.from;
  const Tick t1 = options.to > 0 ? options.to : trace.EndTime();
  if (t1 <= t0 || trace.empty() || procs <= 0) return "(empty trace)\n";
  const Tick row_ticks = std::max<Tick>(1, options.row_ticks);
  const int total_rows =
      static_cast<int>((t1 - t0 + row_ticks - 1) / row_ticks);
  const int rows = std::min(total_rows, options.max_rows);
  const int w = std::max(6, options.col_width);

  auto cell = [&](std::string text) {
    if (static_cast<int>(text.size()) > w - 1) {
      text.resize(static_cast<std::size_t>(w - 1));
    }
    text.resize(static_cast<std::size_t>(w), ' ');
    return text;
  };

  // Header.
  os << cell("time");
  for (int p = 0; p < procs; ++p) {
    std::string label = "P";
    label += std::to_string(p);
    os << cell(label);
  }
  os << '\n';
  os << std::string(static_cast<std::size_t>(w * (procs + 1)), '-') << '\n';

  const auto sorted = trace.Sorted();
  for (int r = 0; r < rows; ++r) {
    const Tick row_start = t0 + static_cast<Tick>(r) * row_ticks;
    const Tick row_end = row_start + row_ticks;
    os << cell(FormatTick(row_start));
    for (int p = 0; p < procs; ++p) {
      // Pick the event that overlaps this row the longest on processor p,
      // so short setup ops do not mask the row's dominant work.
      const TraceEvent* found = nullptr;
      Tick best_overlap = 0;
      for (const auto& e : sorted) {
        if (e.proc.value() != p) continue;
        if (e.end <= row_start || e.start >= row_end) continue;
        const Tick overlap =
            std::min(e.end, row_end) - std::max(e.start, row_start);
        if (overlap > best_overlap) {
          best_overlap = overlap;
          found = &e;
        }
      }
      if (!found) {
        os << cell(".");
      } else {
        // Compact labels: "T4:TargetDetect.c2" renders as "T4.c2".
        std::string text = found->label;
        const auto colon = text.find(':');
        if (colon != std::string::npos) {
          const auto dot = text.find('.', colon);
          text = text.substr(0, colon) +
                 (dot == std::string::npos ? "" : text.substr(dot));
        }
        if (found->frame != kNoTimestamp) {
          text += '#';
          text += std::to_string(found->frame);
        }
        os << cell(text);
      }
    }
    os << '\n';
  }
  if (rows < total_rows) {
    os << "... (" << (total_rows - rows) << " more rows)\n";
  }
  return os.str();
}

}  // namespace ss::sim

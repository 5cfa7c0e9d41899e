// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph/cost_model.hpp"
#include "graph/machine.hpp"
#include "regime/regime.hpp"
#include "tracker/costs.hpp"
#include "tracker/graph_builder.hpp"

namespace ss::bench {

/// Standard experimental setup: the paper's per-node machine (one 4-way
/// SMP of the AlphaServer cluster), regimes for 1..8 tracked models, and
/// the paper-calibrated cost model.
struct PaperSetup {
  tracker::TrackerGraph tg;
  regime::RegimeSpace space{1, 8};
  graph::CostModel costs;
  graph::CommModel comm;
  graph::MachineConfig machine = graph::MachineConfig::SingleNode(4);

  PaperSetup() : tg(tracker::BuildTrackerGraph()) {
    costs = tracker::PaperCostModel(tg, space);
  }
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n\n", title.c_str());
}

inline void PrintNote(const std::string& note) {
  std::printf("note: %s\n", note.c_str());
}

/// Machine-readable sidecar for bench results. Collects one record per
/// measurement and, if `--json <file>` was on the command line, writes them
/// as a JSON array of {"name", "median", "p95", "unit", "better"} objects
/// (the field names BENCHMARK.json uses) so CI or notebooks can diff runs
/// without scraping the console tables, and tools/bench_compare knows each
/// record's direction without guessing it from the name.
class JsonReport {
 public:
  /// Which way a record improves. kNone marks an informational record
  /// (a search counter, say): printed, never gated.
  enum class Better { kLower, kHigher, kNone };

  /// Scans argv for `--json <file>`; an empty path disables emission.
  /// The flag (and operand) are left in argv — benches that forward argv to
  /// another harness should strip them with `StripJsonFlag`.
  static std::string PathFromArgs(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") return argv[i + 1];
    }
    return {};
  }

  /// Removes `--json <file>` from argv in place and returns the new argc.
  /// Useful before handing argv to google-benchmark, which rejects flags it
  /// does not know.
  static int StripJsonFlag(int argc, char** argv) {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json" && i + 1 < argc) {
        ++i;  // skip the operand too
        continue;
      }
      argv[out++] = argv[i];
    }
    return out;
  }

  explicit JsonReport(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& name, double median, double p95,
           const std::string& unit, Better better) {
    records_.push_back({name, median, p95, unit, better});
  }

  /// Writes the collected records; returns false (with a stderr note) if
  /// the file cannot be opened. No-op when disabled.
  bool Write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot open %s for writing\n",
                   path_.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"median\": %.6f, "
                   "\"p95\": %.6f, \"unit\": \"%s\", "
                   "\"better\": \"%s\"}%s\n",
                   Escaped(r.name).c_str(), r.median, r.p95,
                   Escaped(r.unit).c_str(), BetterName(r.better),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %zu bench records to %s\n", records_.size(),
                path_.c_str());
    return true;
  }

 private:
  struct Record {
    std::string name;
    double median;
    double p95;
    std::string unit;
    Better better;
  };

  static const char* BetterName(Better better) {
    switch (better) {
      case Better::kLower: return "lower";
      case Better::kHigher: return "higher";
      case Better::kNone: return "none";
    }
    return "none";
  }

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<Record> records_;
};

}  // namespace ss::bench

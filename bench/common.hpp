// Shared infrastructure for the bench binaries: `paper` renders Table III
// and Figs. 2-7 (see DESIGN.md §4), the ablations and micro benches emit
// BENCH_<name>.json records.  All paper results are in *simulated seconds*
// on the scaled Cascade Lake platform; shapes -- orderings and ratios --
// are the reproduction target, not absolute numbers (the authors ran on
// real Optane hardware).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dnn/models.hpp"
#include "dnn/trainer.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/format.hpp"

namespace ca::bench {

using dnn::Harness;
using dnn::HarnessConfig;
using dnn::IterationMetrics;
using dnn::Mode;
using dnn::ModelSpec;

inline void print_header(const char* figure, const char* description) {
  const auto platform = sim::Platform::cascade_lake_default();
  std::printf("=== %s ===\n%s\n", figure, description);
  std::printf(
      "Platform: %s\n"
      "Config: DRAM %s, NVRAM %s (2LM modes: DRAM acts as the hardware "
      "cache)\nAll times are simulated seconds; reproduce shapes, not "
      "absolute numbers.\n\n",
      platform.scale_note,
      util::format_bytes(platform.spec(sim::kFast).capacity).c_str(),
      util::format_bytes(platform.spec(sim::kSlow).capacity).c_str());
}

/// The output directory every bench accepts as its first non-flag
/// argument (nullptr when none was given).
inline const char* output_dir(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') return argv[i];
  }
  return nullptr;
}

/// Best-effort CSV export: when an output directory was given, `rows` are
/// written there as <name>.
inline void maybe_write_csv(const char* dir, const char* name,
                            const std::vector<std::vector<std::string>>& rows) {
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + name;
  if (telemetry::write_csv(path, rows)) {
    std::printf("[csv] wrote %s\n", path.c_str());
  } else {
    std::printf("[csv] could not write %s\n", path.c_str());
  }
}

inline std::string mib(std::uint64_t bytes) {
  return util::format_fixed(static_cast<double>(bytes) / (1024.0 * 1024.0),
                            0);
}

/// Host wall-clock stopwatch, for reporting real elapsed time next to the
/// simulated seconds (the async mover moves real bytes in the background,
/// so the two can diverge in interesting ways).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One machine-readable result row for BENCH_<name>.json.
struct BenchRecord {
  std::string label;
  double simulated_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t bytes_moved = 0;
};

/// Escape a string for inclusion in a JSON document.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Machine-readable export: writes BENCH_<name>.json into the output
/// directory given as the first non-flag argument (or the current
/// directory), with one entry per record.
inline void write_bench_json(int argc, char** argv, const char* name,
                             const std::vector<BenchRecord>& records) {
  const char* dir = output_dir(argc, argv);
  const std::string path =
      std::string(dir != nullptr ? dir : ".") + "/BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("[json] could not write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
               json_escape(name).c_str());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"simulated_seconds\": %.9g, "
                 "\"wall_seconds\": %.9g, \"bytes_moved\": %llu}%s\n",
                 json_escape(r.label).c_str(), r.simulated_seconds,
                 r.wall_seconds,
                 static_cast<unsigned long long>(r.bytes_moved),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] wrote %s\n", path.c_str());
}

/// True when `flag` (e.g. "--smoke") appears among the arguments.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

/// Nearest-rank percentile of `samples` (p in [0, 1]); sorts in place.
/// Every bench reporting a latency tail uses this one definition so p99
/// means the same thing in every BENCH_*.json.
inline double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

/// Accumulates one bench's machine-readable output -- the BENCH_<name>.json
/// records and the mirrored CSV table -- behind a single interface, so all
/// benches share one emitter and one label convention instead of each
/// hand-maintaining parallel vectors:
///   * add()        -- a timed result row (simulated + wall seconds, bytes);
///   * add_metric() -- a derived value (rate, latency, ratio): the
///                     `wall_seconds` JSON field carries the value and the
///                     label names the unit;
///   * add_speedup()-- the acceptance-record shape "speedup: <what>" with
///                     the ratio in `wall_seconds`, so CI greps one label
///                     shape across every bench.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void add(std::string label, double simulated_seconds, double wall_seconds,
           std::uint64_t bytes_moved = 0) {
    records_.push_back({std::move(label), simulated_seconds, wall_seconds,
                        bytes_moved});
  }

  void add_metric(const std::string& label, double value,
                  std::uint64_t bytes = 0) {
    records_.push_back({label, 0.0, value, bytes});
  }

  void add_speedup(const std::string& what, double ratio,
                   std::uint64_t bytes = 0) {
    add_metric("speedup: " + what, ratio, bytes);
  }

  void csv_header(std::vector<std::string> columns) {
    table_.insert(table_.begin(), std::move(columns));
  }

  void csv_row(std::vector<std::string> columns) {
    table_.push_back(std::move(columns));
  }

  /// Emit BENCH_<name>.json (always) and, when a CSV file name was given
  /// and rows were added, <csv_name> via maybe_write_csv.
  void write(int argc, char** argv, const char* csv_name = nullptr) const {
    if (csv_name != nullptr && !table_.empty()) {
      maybe_write_csv(output_dir(argc, argv), csv_name, table_);
    }
    write_bench_json(argc, argv, name_.c_str(), records_);
  }

  [[nodiscard]] const std::vector<BenchRecord>& records() const {
    return records_;
  }

 private:
  std::string name_;
  std::vector<BenchRecord> records_;
  std::vector<std::vector<std::string>> table_;
};

}  // namespace ca::bench

// Loading, writing and diffing google-benchmark JSON result files — the
// library half of tools/bench_diff, the CI perf-regression gate.
//
// Matching model: benchmarks pair by exact "name". Files written with
// --benchmark_repetitions carry both per-repetition entries and
// aggregates; to compare one stable number per benchmark family, loading
// keeps the "median" aggregate when a family has aggregates and the
// plain iteration entry otherwise (mean/stddev/cv aggregates are
// skipped). Times normalize to nanoseconds using each entry's time_unit.
#ifndef SGCL_COMMON_BENCH_COMPARE_H_
#define SGCL_COMMON_BENCH_COMPARE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sgcl {

struct BenchEntry {
  std::string name;      // full benchmark name, e.g. "BM_X/16_median"
  std::string run_name;  // family name without the aggregate suffix
  double real_ns = 0.0;
  double cpu_ns = 0.0;
};

// Parses a google-benchmark --benchmark_format=json file into comparable
// entries (see matching model above). InvalidArgument when the file is
// not a benchmark result file.
Result<std::vector<BenchEntry>> LoadBenchmarkJson(const std::string& path);

struct BenchDelta {
  std::string name;  // run_name shared by both sides
  double base_ns = 0.0;
  double current_ns = 0.0;
  // Signed percent change of real time: positive = current is slower.
  double pct = 0.0;
};

struct BenchComparison {
  std::vector<BenchDelta> matched;        // sorted by name
  std::vector<std::string> only_base;     // names missing from current
  std::vector<std::string> only_current;  // names missing from baseline
};

// Pairs entries by run_name and computes per-benchmark real-time deltas.
BenchComparison CompareBenchmarks(const std::vector<BenchEntry>& base,
                                  const std::vector<BenchEntry>& current);

// Human-readable delta table plus unmatched-name notes, one line per
// benchmark; `threshold_pct` rows at or past the threshold are flagged.
std::string FormatComparison(const BenchComparison& comparison,
                             double threshold_pct);

// Count of matched benchmarks whose slowdown is >= threshold_pct.
int CountRegressions(const BenchComparison& comparison, double threshold_pct);

// The host fields of a result file's "context": num_cpus and
// library_build_type, each "" when the file does not record it.
struct BenchHost {
  std::string num_cpus;
  std::string build_type;
};

Result<BenchHost> LoadBenchmarkHost(const std::string& path);

// Writes a google-benchmark JSON result file: one iteration row per
// (name, microseconds) entry, and a "context" that names `library`,
// records the host (num_cpus, library_build_type) and appends
// `context_fields`, a run of comma-separated JSON members ("" for none).
// Used by the repo's own bench tools so every committed BENCH_*.json
// carries the host fields LoadBenchmarkHost reads.
Status WriteBenchJson(
    const std::string& path, const std::string& library,
    const std::vector<std::pair<std::string, double>>& entries_us,
    const std::string& context_fields);

// One warning line naming both values of each host field that both
// files record and that differs; "" when none does. Deltas between
// different hosts measure the hosts as much as the code.
std::string HostMismatchWarning(const BenchHost& base,
                                const BenchHost& current);

}  // namespace sgcl

#endif  // SGCL_COMMON_BENCH_COMPARE_H_

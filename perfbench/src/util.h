// Small shared helpers for the benchmark: statistics, metric output,
// registry snapshots and process memory.
#ifndef PERFBENCH_SRC_UTIL_H_
#define PERFBENCH_SRC_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

// Linear-interpolated q-quantile of `values` (q in [0,1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Peak resident set of this process so far, in MiB.
double PeakRssMib();

// Named metric values with units, in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }
  // {"name":{"value":v,"unit":"u"},...}
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// One correctness check's outcome, reported in the result line.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// Result of one workload run, printed as the binary's last stdout line.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricSet metrics;
  std::vector<Check> checks;
  std::vector<std::string> notes;  // human-readable context lines
  void AddCheck(const std::string& name, bool ok, const std::string& detail);
  std::string ToJson() const;
};

// Registry helpers over the global MetricsRegistry.
int64_t CounterOr0(const sgcl::MetricsSnapshot& snap, const std::string& name);
// Quantile of a registry histogram (0 when absent or empty).
double HistQuantile(const sgcl::MetricsSnapshot& snap, const std::string& name,
                    double q);
double HistMean(const sgcl::MetricsSnapshot& snap, const std::string& name);

std::string Fmt(const char* format, double value);

// Every per-layer metric of the traced run, in a fixed order, with its
// unit. Metrics a workload does not exercise read 0; a name in `values`
// that is not in the table is a programming error.
MetricSet LayerMetricSet(const std::map<std::string, double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_UTIL_H_

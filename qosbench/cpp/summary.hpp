// Summary statistics and the result line of the benchmark.
//
// Timings are reported as a median plus, where the sample holds at least
// ten values beyond it, the 90th percentile. Every metric carries a name
// and a unit; names are validated so the final JSON line always parses
// the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qosbench {

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  /// True when at least ten samples lie beyond the 90th percentile, the
  /// smallest sample for which that percentile is reported.
  bool has_p90 = false;
};

/// Median and 90th percentile (linear interpolation between closest
/// ranks, as util::percentile). An empty input gives n == 0 and NaNs.
Summary summarize(const std::vector<double>& values);

/// Number of samples strictly above the p-th percentile's rank: the
/// n - ceil(p/100 * n) values a percentile estimate rests its tail on.
std::size_t samplesBeyond(std::size_t n, double p);

/// [A-Za-z0-9_.-]+, at most 64 characters, starting with a letter or digit.
bool validMetricName(std::string_view name);

/// At most 16 characters of [A-Za-z0-9_/%.-].
bool validUnit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; add() throws std::invalid_argument on a malformed
/// or repeated name or unit, or a non-finite value.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The single-line result object: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values print with 17
/// significant digits.
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet& metrics);

}  // namespace qosbench

#include "summary.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/stats.hpp"

namespace qosbench {

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  s.p50 = mgq::util::percentile(values, 50.0);
  s.p90 = mgq::util::percentile(values, 90.0);
  s.has_p90 = samplesBeyond(s.n, 90.0) >= 10;
  return s;
}

std::size_t samplesBeyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

namespace {

bool isAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool validMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !isAlnum(name.front())) return false;
  for (const char c : name) {
    if (!isAlnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool validUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    if (!isAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!validMetricName(name)) {
    throw std::invalid_argument("invalid metric name '" + name + "'");
  }
  if (!validUnit(unit)) {
    throw std::invalid_argument("invalid unit '" + unit + "' for " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  for (const auto& m : metrics_) {
    if (m.name == name) {
      throw std::invalid_argument("duplicate metric name '" + name + "'");
    }
  }
  metrics_.push_back({name, value, unit});
}

std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& m : metrics.metrics()) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    // Names and units are validated to need no escaping.
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace qosbench

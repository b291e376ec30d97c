// Layer probes: small harnesses around single public functions, reported as
// nanoseconds per operation together with the operation count. Most reuse
// the mgq_perf mixes (bench/perf_*.hpp) unchanged; the TCP wire checksum
// and the GARA slot-table admission probes are the benchmark's own.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qosbench {

struct ProbeResult {
  std::string metric;      // per-layer metric name, e.g. "sim.cancel_ns"
  std::string unit;        // "ns" per operation, or "ns/KB"
  std::string operation;   // what one operation is
  std::uint64_t operations = 0;  // per trial
  double value = 0.0;      // median over trials
};

/// Runs every probe `trials` times and reports the median per-op cost.
std::vector<ProbeResult> runProbes(int trials);

}  // namespace qosbench

// Parameter sweeps: cross-product expansion of a base spec over named
// parameters, and the one thread pool in src/, which runs every batch of
// independent runs (sweeps, paper suites, chaos seed ranges) — one
// independent Simulator per run, so results are bit-identical to serial
// execution regardless of thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace mgq::scenario {

struct SweepParam {
  std::string key;
  std::vector<double> values;
};

/// Cross-product expansion: every combination of parameter values applied
/// to a copy of `base`, with "/key=value" appended to each name. Throws
/// std::invalid_argument when a key is unknown or does not apply.
std::vector<ScenarioSpec> expandSweep(const ScenarioSpec& base,
                                      const std::vector<SweepParam>& params);

class SweepRunner {
 public:
  /// threads <= 0: hardware concurrency.
  explicit SweepRunner(int threads = 0);

  /// Calls fn(i) once for every i in [0, count) across the pool. Workers
  /// claim indices in increasing order, one at a time, so there is no
  /// barrier: a slow index holds up only its own worker. With one worker
  /// (or count <= 1) everything runs on the calling thread. The first
  /// exception a call throws stops further claims and is rethrown here
  /// once every worker has finished.
  void forEach(std::size_t count,
               const std::function<void(std::size_t)>& fn) const;

  /// Runs every spec (each on its own Simulator) across the pool and
  /// returns results in spec order — the output is independent of thread
  /// count and completion order.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs) const;

  int threads() const { return threads_; }

 private:
  int threads_;
};

}  // namespace mgq::scenario

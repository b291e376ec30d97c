// ScenarioRegistry: names the paper's figures/tables/ablations as
// canonical specs so the CLI (and tests) can look experiments up, list
// them, and expand sweeps over them. Next to the single-run scenarios it
// names the paper suites: the multi-run experiments whose conclusions are
// cross-run shapes (curves, cliffs, tables), kept in their own map so the
// scenario set stays exactly the golden catalog's.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "scenario/check.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace mgq::scenario {

struct ScenarioInfo {
  std::string name;
  std::string title;
  std::string paper_ref;
  std::function<ScenarioSpec()> make;
};

/// One figure or table of the paper: run() builds its specs, runs them
/// on a SweepRunner of `threads` workers (0 = hardware concurrency),
/// prints the paper's series/rows to `out`, and records the cross-run
/// shape checks in `checks`. It returns the runs whose own checks and
/// BENCH_<name>.json export belong to the suite (empty: no export).
struct SuiteInfo {
  std::string name;
  std::string title;
  std::string paper_ref;
  std::function<std::vector<ScenarioResult>(CheckReporter& checks,
                                            std::ostream& out, int threads)>
      run;
};

class ScenarioRegistry {
 public:
  /// Registers (or replaces) an entry under info.name.
  void add(ScenarioInfo info);
  void addSuite(SuiteInfo info);

  const ScenarioInfo* find(const std::string& name) const;
  const SuiteInfo* findSuite(const std::string& name) const;
  /// Entries sorted by name whose name contains `filter` ("" = all).
  std::vector<const ScenarioInfo*> list(const std::string& filter = {}) const;
  std::vector<const SuiteInfo*> listSuites(
      const std::string& filter = {}) const;
  std::size_t size() const { return entries_.size(); }

  /// The registry of paper scenarios and suites (populated by
  /// catalog.cpp and suites.cpp).
  static const ScenarioRegistry& paper();

 private:
  std::map<std::string, ScenarioInfo> entries_;
  std::map<std::string, SuiteInfo> suites_;
};

/// Adds every paper figure/table/ablation spec to `registry`
/// (catalog.cpp; called once by ScenarioRegistry::paper()).
void registerPaperScenarios(ScenarioRegistry& registry);

/// Adds every paper suite to `registry` (suites.cpp; called once by
/// ScenarioRegistry::paper()).
void registerPaperSuites(ScenarioRegistry& registry);

}  // namespace mgq::scenario

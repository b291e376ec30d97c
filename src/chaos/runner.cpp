#include "chaos/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "net/buffer.hpp"
#include "scenario/builder.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"

namespace mgq::chaos {
namespace {

/// Applies ChaosOptions::pool_ceiling_bytes to this thread's payload pool
/// for one run and restores the previous ceiling on scope exit, so a
/// capped chaos run never leaks pressure into later runs on the same
/// worker thread.
class PoolCeilingGuard {
 public:
  explicit PoolCeilingGuard(std::int64_t ceiling_bytes)
      : previous_(net::BufferPool::local().liveBytesCeiling()),
        active_(ceiling_bytes > 0) {
    if (active_) net::BufferPool::local().setLiveBytesCeiling(ceiling_bytes);
  }
  ~PoolCeilingGuard() {
    if (active_) net::BufferPool::local().setLiveBytesCeiling(previous_);
  }
  PoolCeilingGuard(const PoolCeilingGuard&) = delete;
  PoolCeilingGuard& operator=(const PoolCeilingGuard&) = delete;

 private:
  std::int64_t previous_;
  bool active_;
};

std::string buildChaosLog(const ChaosPlan& plan,
                          const std::string& injector_log,
                          const std::string& injector_footer,
                          const std::vector<InvariantViolation>& violations) {
  std::string log = "mgq-chaos-run v1\n";
  char line[160];
  log += "scenario " + plan.scenario + "\n";
  std::snprintf(line, sizeof(line), "seed %llu\n",
                static_cast<unsigned long long>(plan.seed));
  log += line;
  std::snprintf(line, sizeof(line), "horizon_s %.17g\n",
                plan.horizon_seconds);
  log += line;
  std::snprintf(line, sizeof(line), "events %zu\n", plan.events.size());
  log += line;
  log += "--- injector ---\n";
  if (!injector_log.empty()) {
    log += injector_log;
    if (injector_log.back() != '\n') log += '\n';
  }
  log += injector_footer;  // "fired=N skipped_actions=N\n"
  log += "--- violations ---\n";
  for (const auto& v : violations) {
    std::snprintf(line, sizeof(line), "t=%.6f ", v.t_seconds);
    log += line;
    log += v.name + ": " + v.message + "\n";
    for (const auto& tail : v.trace_tail) {
      log += "  trace: " + tail + "\n";
    }
  }
  std::snprintf(line, sizeof(line), "violations=%zu\n", violations.size());
  log += line;
  return log;
}

}  // namespace

double ChaosRunner::resolveHorizon(const std::string& scenario,
                                   const ChaosOptions& options) const {
  if (options.horizon_seconds > 0) return options.horizon_seconds;
  const auto* info = registry_->find(scenario);
  if (info == nullptr) {
    throw std::invalid_argument("unknown scenario: " + scenario);
  }
  return scenario::defaultRunUntilSeconds(info->make());
}

ChaosRunReport ChaosRunner::runPlan(const ChaosPlan& plan,
                                    const ChaosOptions& options) const {
  const auto* info = registry_->find(plan.scenario);
  if (info == nullptr) {
    throw std::invalid_argument("unknown scenario: " + plan.scenario);
  }
  auto spec = info->make();
  spec.seed = plan.seed;
  // Failure in a chaos run means invariant violations, nothing else: the
  // plan replaces the spec's fault plan, and its shape checks (tuned for
  // fault-free runs) are dropped. Resilience wiring stays on via
  // spec.resil.
  spec.faults.clear();
  spec.checks.clear();
  if (plan.horizon_seconds > 0) spec.run_until_seconds = plan.horizon_seconds;
  // The monitor attaches violation context from the run's trace buffer.
  spec.observe = true;

  ChaosRunReport report;
  report.plan = plan;
  std::string injector_log, injector_footer;
  PoolCeilingGuard pool_guard(options.pool_ceiling_bytes);

  std::unique_ptr<InvariantMonitor> monitor;
  scenario::RunHooks hooks;
  hooks.on_built = [&](scenario::BuiltScenario& built) {
    // The spec carries no faults, so the builder wired no targets; the
    // chaos run registers all of them, in fault_target::kAll order.
    built.faults = std::make_unique<ChaosTargets>(
        built, /*seed=*/plan.seed * 2654435761u + 1);
    for (const char* name : scenario::fault_target::kAll) {
      built.faults->ensure(name);
    }
    monitor = std::make_unique<InvariantMonitor>(
        built.rig.sim, options.cadence_seconds, options.max_violations);
    if (built.trace != nullptr) {
      monitor->attachTrace(built.trace.get(), options.trace_tail);
    }
    attachStandardInvariants(*monitor, built);
    monitor->arm();
    if (options.prepare) options.prepare(built, *built.faults);
    built.faults->schedule(plan.events);
  };
  hooks.before_teardown = [&](scenario::BuiltScenario& built) {
    monitor->sweep();  // teardown sweep: catch end-state violations
    const auto& injector = built.faults->injector();
    report.injector_fired = injector.firedCount();
    report.injector_skipped = injector.skippedActions();
    injector_log = injector.logText();
    injector_footer = injector.logFooter();
  };

  scenario::ScenarioRunner runner(/*echo=*/nullptr);
  runner.run(spec, hooks);

  if (monitor != nullptr) report.violations = monitor->violations();
  report.log =
      buildChaosLog(plan, injector_log, injector_footer, report.violations);
  return report;
}

ChaosOutcome ChaosRunner::runSeeds(const std::string& scenario,
                                   std::uint64_t first_seed, int count,
                                   const ChaosOptions& options) const {
  ChaosOutcome outcome;
  if (count <= 0) return outcome;
  const double horizon = resolveHorizon(scenario, options);
  const ChaosPlanGenerator generator(options.profile);

  // Seeds run on the sweep pool, claimed in increasing order. A worker
  // skips any seed above the lowest failure found so far; every seed below
  // it still runs, so the kept reports (seed order, up to and including
  // the first failing seed) do not depend on thread count or scheduling.
  std::vector<ChaosRunReport> reports(static_cast<std::size_t>(count));
  std::atomic<int> first_failure{count};
  scenario::SweepRunner(options.threads)
      .forEach(reports.size(), [&](std::size_t index) {
        const int i = static_cast<int>(index);
        if (i > first_failure.load()) return;
        const auto plan = generator.generate(
            scenario, first_seed + static_cast<std::uint64_t>(i), horizon);
        reports[index] = runPlan(plan, options);
        if (reports[index].ok()) return;
        int lowest = first_failure.load();
        while (i < lowest && !first_failure.compare_exchange_weak(lowest, i)) {
        }
      });

  const int failing = first_failure.load();
  if (failing < count) {
    reports.resize(static_cast<std::size_t>(failing) + 1);
    outcome.failing_index = failing;
  }
  outcome.reports = std::move(reports);
  return outcome;
}

ChaosPlan ChaosRunner::shrink(const ChaosPlan& failing,
                              const ChaosOptions& options, int* steps) const {
  int runs = 0;
  const auto baseline = runPlan(failing, options);
  ++runs;
  ChaosPlan minimal = failing;
  if (baseline.ok()) {
    if (steps != nullptr) *steps = runs;
    return minimal;  // nothing to shrink: the plan does not fail
  }
  // Shrinking preserves the *failure mode*, not just "some failure": a
  // candidate only counts as reproducing when its first violation hits
  // the same invariant.
  const std::string invariant = baseline.violations.front().name;
  auto reproduces = [&](std::vector<sim::FaultEvent> events) {
    ChaosPlan candidate = failing;
    candidate.events = std::move(events);
    const auto report = runPlan(candidate, options);
    ++runs;
    return !report.violations.empty() &&
           report.violations.front().name == invariant;
  };

  auto& events = minimal.events;
  std::size_t chunk = (events.size() + 1) / 2;
  while (!events.empty() && chunk >= 1) {
    bool removed_any = false;
    for (std::size_t start = 0; start < events.size();) {
      auto candidate = events;
      const auto end =
          std::min(start + chunk, candidate.size());
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(start),
                      candidate.begin() + static_cast<std::ptrdiff_t>(end));
      if (reproduces(candidate)) {
        events = std::move(candidate);
        removed_any = true;  // retry the same position: it holds new events
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) {
      if (!removed_any) break;  // a full single-event pass removed nothing
    } else {
      chunk = (chunk + 1) / 2;
    }
  }
  if (steps != nullptr) *steps = runs;
  return minimal;
}

}  // namespace mgq::chaos

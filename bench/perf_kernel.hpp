// Event-kernel performance mixes and end-to-end wall-time probes for the
// mgq_perf harness.
//
// Each micro mix drives the Simulator the way a class of real callers
// does and reports kernel operations per wall-clock second:
//   schedule-heavy  — push N events at random times, drain (traffic
//                     sources, scripted scenario events)
//   cancel-heavy    — a ring of armed timers that are repeatedly
//                     cancelled and re-armed before they fire, the
//                     RTO/delayed-ack churn pattern from src/tcp/
//   wakeup-heavy    — coroutine processes ping-ponging on delay() and
//                     Condition wakeups (MPI ranks, QoS agents)
//   obs-record      — counter increments, histogram records and trace
//                     records with the obs runtime switch on and off
//                     (every instrumented layer pays these per event)
// "Operations" counts pushes + cancels + executed events, so a mix's
// throughput is comparable before and after a kernel change even though
// cancelled events never run.
//
// The end-to-end probes run unmodified catalog workloads (fig9_combined,
// a chaos seed batch) and report wall seconds — the number the ROADMAP's
// "fast as the hardware allows" goal ultimately cares about.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mgq::obs {
class MetricsRegistry;
}

namespace mgq::perf {

struct MixResult {
  std::string name;
  std::uint64_t operations = 0;       // pushes + cancels + executed events
  std::uint64_t events_executed = 0;  // events that actually ran
  double wall_seconds = 0.0;
  double ops_per_sec = 0.0;
};

struct WallResult {
  std::string name;
  double wall_seconds = 0.0;
  std::uint64_t events_executed = 0;
  bool ok = true;
};

/// Push `events` no-op events at deterministic pseudo-random times in a
/// 1-second window and drain; repeated `repeat` times on one Simulator.
MixResult runScheduleHeavy(int events, int repeat);

/// Keep `timers` armed timers; for `steps` iterations cancel one and
/// re-arm it at a fresh deadline, periodically advancing the clock so a
/// fraction of timers actually fire. Models RTO restart churn.
MixResult runCancelHeavy(int timers, int steps);

/// `processes` coroutines alternating delay() sleeps with Condition
/// ping-pong wakeups for `rounds` rounds each.
MixResult runWakeupHeavy(int processes, int rounds);

/// `records` counter.inc() + histogram.record() + trace.record() calls
/// with the registry and trace buffer enabled, then the same with both
/// disabled. Operations count every call (6 x records); aborts when an
/// enabled call was not recorded or a disabled one was.
MixResult runObsRecord(int records);

/// Wall time of one full catalog scenario run (e.g. "fig9_combined").
/// `ok` is false when the name is unknown.
WallResult runScenarioWall(const std::string& scenario);

/// Wall time of a chaos seed batch over `scenario` (seeds 1..count) with
/// the default profile and a short horizon (like the CI chaos smoke
/// sweeps). `ok` is false on an unknown scenario or invariant violation.
WallResult runChaosBatch(const std::string& scenario, int seeds, int threads,
                         double horizon_seconds = 3.0);

/// Records every result as gauges in `metrics` (perf.<name>.ops_per_sec,
/// perf.<name>.wall_seconds, ...) for BENCH_perf.json export.
void recordResults(obs::MetricsRegistry& metrics,
                   const std::vector<MixResult>& mixes,
                   const std::vector<WallResult>& walls);

/// Baseline gate for CI: reads a flat JSON object {"<mix>": ops_per_sec}
/// and returns the names of mixes whose measured throughput fell below
/// baseline * (1 - max_regress). Returns {"<file>"} sentinel-style error
/// via `error` when the file is missing/unparseable.
std::vector<std::string> checkBaseline(const std::vector<MixResult>& mixes,
                                       const std::string& baseline_path,
                                       double max_regress, std::string* error);

/// Writes the flat baseline JSON for the given mixes.
bool writeBaseline(const std::vector<MixResult>& mixes,
                   const std::string& path);

}  // namespace mgq::perf

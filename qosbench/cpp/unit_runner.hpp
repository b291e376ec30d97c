// Runs one unit through the public scenario and chaos APIs, timing each
// layer from outside and condensing the simulated outcome into a digest.
//
// Layer boundaries come from the calls the benchmark itself makes or the
// hooks those calls expose:
//   spec / chaos.plan  catalog factory, or ChaosPlanGenerator::generate
//   build              ScenarioRunner::run start to RunHooks::on_built
//                      (chaos: runPlan start to ChaosOptions::prepare,
//                      which includes target wiring and monitor arming)
//   sim.run            on_built to before_teardown (chaos: prepare to the
//                      runner's final delivered-bytes read, which follows
//                      the teardown invariant sweep)
//   teardown           before_teardown to return: result assembly, shape
//                      checks, rig destruction
//   obs.export         obs::renderMultiRunJson of the run's registry
// Nothing inside src/ is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace qosbench {

/// Seconds on the steady clock since the benchmark's first call.
double now();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the unit's span list; -1 for the root
  int unit = 0;
};

/// Work counters read from public stats after each run. Pure functions of
/// the unit's spec, so sums over a cycle repeat exactly.
struct UnitCounts {
  std::uint64_t events = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t policed_drops = 0;
  std::uint64_t be_drops = 0;
  std::uint64_t ef_enqueued = 0;
  /// Data segments: sender-side on MPI flows, receiver-side on the Fig. 1
  /// flow (whose sending socket lives inside the workload coroutine).
  std::uint64_t tcp_segments = 0;
  /// Sender-side retransmits and segments of MPI flows only: the
  /// retransmit ratio's numerator and base.
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_mpi_segments = 0;
  std::uint64_t tcp_timeouts = 0;
  /// MPI application messages delivered: visualization frames plus both
  /// directions of every ping-pong and latency-probe round trip.
  std::uint64_t mpi_messages = 0;
  std::uint64_t gara_requested = 0;
  std::uint64_t gara_admitted = 0;
  std::uint64_t gara_failed = 0;
  std::uint64_t recovery_attempts = 0;
  std::uint64_t adapt_decisions = 0;
  std::uint64_t adapt_resizes = 0;
  std::uint64_t resil_repairs = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t faults_skipped = 0;
  std::uint64_t violations = 0;
  std::uint64_t export_bytes = 0;

  UnitCounts& operator+=(const UnitCounts& o);
};

struct UnitOutcome {
  /// Canonical text of the simulated outcome (events, delivered bytes,
  /// policer drops, TCP retransmits, check verdicts; for chaos also the
  /// chaos log) and its FNV-1a 64 digest.
  std::string digest_text;
  std::uint64_t digest = 0;
  bool checks_passed = true;
  UnitCounts counts;
  /// spans[0] is the unit root; one child per scenario, whose children
  /// are the layer spans.
  std::vector<Span> spans;

  double seconds() const { return spans.front().end - spans.front().start; }
  /// Time to make the unit runnable: input generation plus build.
  double setupSeconds() const;
  /// Summed duration of the spans named `layer`.
  double layerSeconds(const std::string& layer) const;
};

UnitOutcome runUnit(const UnitPlan& plan, int unit_id);

}  // namespace qosbench

// Workloads of the benchmark and the seeded unit lists they run.
//
// A workload is a fixed-length cycle of units. The seed picks each
// unit's point on the paper's sweep axes (reservation size, message size,
// frame shape) or, for chaos_soak, the fault-plan seed; the simulator
// only ever sees the specs and plans generated from those points. A pass
// runs the cycle round and round, so every unit is executed more than
// once and its outcome must repeat exactly.
//
//   premium_tcp     Fig. 1 policed premium TCP flow + fig9_combined:
//                   per-segment TCP work (checksums, stream rings, RTO
//                   reschedules) on the EF path.
//   contention_mix  fig6 visualization + fig5 ping-pong + the low-latency
//                   ablation: a saturating best-effort UDP flood, so
//                   forwarding, classifier, qdisc drop path, UDP and MPI
//                   dominate and TCP carries little.
//   chaos_soak      chaos seeds alternating fault_recovery_crash and
//                   adapt_two_tenant_tradeoff at a 3 s horizon: a fresh
//                   rig per unit and control-plane churn (GARA, QoS agent,
//                   resil, adapt, invariant monitors).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chaos/generator.hpp"
#include "scenario/spec.hpp"

namespace qosbench {

enum class Workload { kPremiumTcp, kContentionMix, kChaosSoak };

std::optional<Workload> parseWorkload(const std::string& name);
const char* workloadName(Workload w);

/// Seed whose unit outcomes are pinned in the digest file.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// One catalog scenario at one sweep point. `label` spells the point out
/// (full precision) so two unit lists compare equal exactly when they
/// would run the same specs.
struct ScenarioPoint {
  std::string label;
  std::function<mgq::scenario::ScenarioSpec()> make;
};

/// One chaos seed against one registry scenario.
struct ChaosPoint {
  std::string scenario;
  std::uint64_t seed = 0;
};

struct UnitPlan {
  std::string label;
  std::vector<ScenarioPoint> scenarios;  // empty for chaos units
  std::optional<ChaosPoint> chaos;
};

/// The workload's unit cycle for `seed`. Sweep points are stratified over
/// each axis (one draw per stratum, strata visited in bit-reversed order)
/// so every seed and every prefix of the cycle covers the whole axis.
std::vector<UnitPlan> makeUnitCycle(Workload workload, std::uint64_t seed);

/// Chaos profile and horizon of chaos_soak units: the default profile plus
/// every control-plane and adversarial category at 20 episodes per 100 s.
mgq::chaos::ChaosProfile chaosProfile();
inline constexpr double kChaosHorizonSeconds = 3.0;

}  // namespace qosbench

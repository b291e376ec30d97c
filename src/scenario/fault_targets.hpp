// Fault targets: the one place that binds the fault-target vocabulary —
// the names a std::vector<sim::FaultEvent> plan addresses — to a live
// BuiltScenario. Scripted scenario faults (ScenarioSpec::faults) and
// chaos plans (chaos/runner.hpp) both execute through it.
//
//   premium-edge-link      down/up         LinkFault on the premium edge
//   premium-edge-loss      loss_start/stop seeded LossInjector on the
//                                          premium source's egress wire
//   premium-edge-corrupt   loss_start/stop seeded CorruptionInjector, same
//                                          wire
//   premium-edge-dup       loss_start/stop seeded DuplicateInjector, same
//                                          wire
//   premium-edge-reorder   loss_start/stop seeded ReorderInjector, same wire
//   premium-edge-partition down/up         directional PartitionFault
//                                          blackholing that egress until
//                                          healed
//   net-forward-manager    down/up         FlakyResourceManager proxy
//   net-reverse-manager                    swapped in for the rig's
//                                          network managers (down =
//                                          outage + revoke active)
//   sender-cpu-hog         down/up         CpuHog on the sending host
//   reservation-churn      down            cancel the lowest-id live
//                                          reservation
//                          loss_start(p)   modify it: amount ×= p
//   qos-agent              down/up         control-plane crash/restart
//                                          (needs the resilience stack)
//   lease-renewals         down/up         pause/resume lease renewals
//                                          (needs leases)
//
// The churn target deliberately leaves `up`/`loss_stop` unset — plan
// entries that land on them become logged "(no-op)" lines and count in
// skipped_actions, which the chaos log footer surfaces.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu_scheduler.hpp"
#include "gara/flaky_resource_manager.hpp"
#include "net/faults.hpp"
#include "sim/fault_injector.hpp"

namespace mgq::scenario {

struct BuiltScenario;

/// The fault-target names. kAll lists them in the order a chaos run
/// registers them, which fixes the chaos log's footer-counter order, the
/// manager-proxy swap, and the CPU hog's job id.
namespace fault_target {
inline constexpr const char* kPremiumEdgeLink = "premium-edge-link";
inline constexpr const char* kPremiumEdgeLoss = "premium-edge-loss";
inline constexpr const char* kPremiumEdgeCorrupt = "premium-edge-corrupt";
inline constexpr const char* kPremiumEdgeDup = "premium-edge-dup";
inline constexpr const char* kPremiumEdgeReorder = "premium-edge-reorder";
inline constexpr const char* kPremiumEdgePartition = "premium-edge-partition";
inline constexpr const char* kNetForwardManager = "net-forward-manager";
inline constexpr const char* kNetReverseManager = "net-reverse-manager";
inline constexpr const char* kSenderCpuHog = "sender-cpu-hog";
inline constexpr const char* kReservationChurn = "reservation-churn";
inline constexpr const char* kQosAgent = "qos-agent";
inline constexpr const char* kLeaseRenewals = "lease-renewals";

inline constexpr std::array<const char*, 12> kAll = {
    kPremiumEdgeLink,    kPremiumEdgeLoss,      kPremiumEdgeCorrupt,
    kPremiumEdgeDup,     kPremiumEdgeReorder,   kPremiumEdgePartition,
    kNetForwardManager,  kNetReverseManager,    kSenderCpuHog,
    kReservationChurn,   kQosAgent,             kLeaseRenewals};
}  // namespace fault_target

/// One plan entry: `action` on `target` at `at_seconds`.
inline sim::FaultEvent faultAt(double at_seconds, std::string target,
                               sim::FaultAction action, double param = 0.0) {
  return {sim::TimePoint::fromSeconds(at_seconds), std::move(target), action,
          param};
}

/// True when some event of `plan` addresses `target`.
bool namesTarget(const std::vector<sim::FaultEvent>& plan,
                 const std::string& target);

/// Owns the fault injector and the machinery behind each target; lives in
/// BuiltScenario (declared after the rig, so it is torn down first).
class FaultTargets {
 public:
  /// `seed` seeds the injector and the wire injectors: the LossInjector
  /// takes it as is, and the corruption/duplication/reorder injectors
  /// derive splitmix-offset streams from it, so arming one category never
  /// perturbs another's draws.
  FaultTargets(BuiltScenario& built, std::uint64_t seed);
  FaultTargets(const FaultTargets&) = delete;
  FaultTargets& operator=(const FaultTargets&) = delete;

  /// Builds and registers the named target; does nothing when it is
  /// already registered. Unknown names, and qos-agent / lease-renewals on
  /// a scenario without the resilience stack / leases they drive, stay
  /// unregistered: plan events on them log "(unregistered)" and count as
  /// skipped actions. The manager proxies must be ensured before the
  /// first reservation exists.
  void ensure(const std::string& name);

  /// Schedules every event of `plan` on the injector, in order; events at
  /// t <= 0 fire immediately (no simulator event).
  void schedule(const std::vector<sim::FaultEvent>& plan);

  sim::FaultInjector& injector() { return injector_; }

  // The machinery, null until its target is ensured. Tests reach the
  // manager proxies' slot tables here (e.g. forceOverAdmissionForTest).
  std::unique_ptr<net::LinkFault> edge_link;
  std::unique_ptr<net::LossInjector> edge_loss;
  std::unique_ptr<net::CorruptionInjector> edge_corrupt;
  std::unique_ptr<net::DuplicateInjector> edge_dup;
  std::unique_ptr<net::ReorderInjector> edge_reorder;
  std::unique_ptr<net::PartitionFault> edge_partition;
  std::unique_ptr<gara::FlakyResourceManager> net_forward;
  std::unique_ptr<gara::FlakyResourceManager> net_reverse;
  std::unique_ptr<cpu::CpuHog> hog;

 private:
  BuiltScenario& built_;
  std::uint64_t seed_;
  sim::FaultInjector injector_;
};

}  // namespace mgq::scenario

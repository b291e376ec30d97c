#include "scenario/fault_targets.hpp"

#include <algorithm>

#include "gara/gara.hpp"
#include "scenario/builder.hpp"

namespace mgq::scenario {

bool namesTarget(const std::vector<sim::FaultEvent>& plan,
                 const std::string& target) {
  return std::any_of(plan.begin(), plan.end(), [&](const auto& e) {
    return e.target == target;
  });
}

FaultTargets::FaultTargets(BuiltScenario& built, std::uint64_t seed)
    : built_(built), seed_(seed), injector_(built.rig.sim, seed) {}

void FaultTargets::ensure(const std::string& name) {
  using namespace fault_target;
  if (injector_.hasTarget(name)) return;
  auto& rig = built_.rig;
  // The data-plane targets sit on the premium edge: the link into the
  // ingress edge router, and the premium source's egress wire feeding it.
  auto& edge = *rig.garnet.ingressEdgeInterface();
  auto& egress = *edge.peer();
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  if (name == kPremiumEdgeLink) {
    edge_link = std::make_unique<net::LinkFault>(edge);
    injector_.registerTarget(name, net::linkFaultTarget(*edge_link));
  } else if (name == kPremiumEdgeLoss) {
    edge_loss = std::make_unique<net::LossInjector>(egress, seed_);
    injector_.registerTarget(name, net::lossFaultTarget(*edge_loss));
  } else if (name == kPremiumEdgeCorrupt) {
    edge_corrupt =
        std::make_unique<net::CorruptionInjector>(egress, seed_ + 1 * kGolden);
    injector_.registerTarget(name, net::corruptionFaultTarget(*edge_corrupt));
    // Footer accounting: zero-valued counters are omitted, so zero-rate
    // plans keep byte-identical footers.
    auto* corrupt = edge_corrupt.get();
    injector_.registerFooterCounter(
        "corrupted", [corrupt] { return corrupt->corrupted(); });
    injector_.registerFooterCounter(
        "corrupt_skipped", [corrupt] { return corrupt->skipped(); });
  } else if (name == kPremiumEdgeDup) {
    edge_dup =
        std::make_unique<net::DuplicateInjector>(egress, seed_ + 2 * kGolden);
    injector_.registerTarget(name, net::duplicateFaultTarget(*edge_dup));
    auto* dup = edge_dup.get();
    injector_.registerFooterCounter("duplicated",
                                    [dup] { return dup->duplicated(); });
  } else if (name == kPremiumEdgeReorder) {
    edge_reorder =
        std::make_unique<net::ReorderInjector>(egress, seed_ + 3 * kGolden);
    injector_.registerTarget(name, net::reorderFaultTarget(*edge_reorder));
    auto* reorder = edge_reorder.get();
    injector_.registerFooterCounter(
        "reordered", [reorder] { return reorder->reordered(); });
  } else if (name == kPremiumEdgePartition) {
    edge_partition = std::make_unique<net::PartitionFault>(egress);
    injector_.registerTarget(name,
                             net::partitionFaultTarget(*edge_partition));
    auto* partition = edge_partition.get();
    injector_.registerFooterCounter(
        "blackholed", [partition] { return partition->blackholed(); });
  } else if (name == kNetForwardManager || name == kNetReverseManager) {
    // Wrap the rig's network manager in a failure proxy and re-register it
    // under the same resource name (replace semantics), so every
    // reservation from here on is admitted through the proxy's slot table
    // and can be revoked by an outage.
    const bool forward = name == kNetForwardManager;
    auto& proxy = forward ? net_forward : net_reverse;
    proxy = std::make_unique<gara::FlakyResourceManager>(
        forward ? rig.net_forward : rig.net_reverse);
    rig.gara.registerManager(forward ? "net-forward" : "net-reverse", *proxy);
    injector_.registerTarget(name, proxy->faultTarget());
  } else if (name == kSenderCpuHog) {
    hog = std::make_unique<cpu::CpuHog>(rig.sender_cpu, "competitor");
    sim::FaultTarget target;
    auto* h = hog.get();
    target.down = [h] { h->start(); };
    target.up = [h] { h->stop(); };
    injector_.registerTarget(name, std::move(target));
  } else if (name == kReservationChurn) {
    // Cancel/modify storms against whatever is live at firing time,
    // lowest id first (liveHandles() is sorted) so the victim choice is
    // deterministic. `up`/`loss_stop` stay unset by design.
    sim::FaultTarget target;
    auto* gara = &rig.gara;
    target.down = [gara] {
      const auto live = gara->liveHandles();
      if (!live.empty()) gara->cancel(live.front());
    };
    target.loss_start = [gara](double factor) {
      const auto live = gara->liveHandles();
      if (live.empty()) return;
      const auto& victim = live.front();
      gara->modify(victim, victim->request().amount * factor);
    };
    injector_.registerTarget(name, std::move(target));
  } else if (name == kQosAgent) {
    // Crash/restart the QoS agent + GARA through the builder's
    // orchestration (BuiltScenario::resil).
    if (!built_.hasResilience()) return;
    sim::FaultTarget target;
    auto* resil = &built_.resil;
    target.down = [resil] { resil->crash(); };
    target.up = [resil] { resil->restart(); };
    injector_.registerTarget(name, std::move(target));
  } else if (name == kLeaseRenewals) {
    // A "renewal storm": the holder is alive but cannot renew, so leases
    // hard-expire enforcement.
    if (built_.resil.leases == nullptr) return;
    sim::FaultTarget target;
    auto* leases = built_.resil.leases.get();
    target.down = [leases] { leases->suspendRenewals(); };
    target.up = [leases] { leases->resumeRenewals(); };
    injector_.registerTarget(name, std::move(target));
  }
}

void FaultTargets::schedule(const std::vector<sim::FaultEvent>& plan) {
  for (const auto& event : plan) {
    if (event.at <= sim::TimePoint::zero()) {
      injector_.fire(event);
    } else {
      injector_.schedule(event);
    }
  }
}

}  // namespace mgq::scenario

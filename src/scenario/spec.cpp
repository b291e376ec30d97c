#include "scenario/spec.hpp"

#include <cstdio>
#include <utility>

#include "scenario/fault_targets.hpp"

namespace mgq::scenario {
namespace {

ReservationSpec* firstNetworkReservation(ScenarioSpec& spec) {
  for (auto& r : spec.reservations) {
    if (r.via == ReservationSpec::Via::kQosAttribute) return &r;
  }
  return nullptr;
}

/// Indices into spec.faults of the first qos-agent `down` and the first
/// `up` after it. A missing crash is appended at t=0 and a missing
/// restart 1 s after its crash.
std::pair<std::size_t, std::size_t> agentCrashPair(ScenarioSpec& spec) {
  auto& plan = spec.faults;
  const auto find = [&plan](std::size_t from, sim::FaultAction action) {
    for (std::size_t i = from; i < plan.size(); ++i) {
      if (plan[i].target == fault_target::kQosAgent &&
          plan[i].action == action) {
        return i;
      }
    }
    return plan.size();
  };
  auto crash = find(0, sim::FaultAction::kDown);
  if (crash == plan.size()) {
    plan.push_back(faultAt(0.0, fault_target::kQosAgent,
                           sim::FaultAction::kDown));
  }
  auto restart = find(crash + 1, sim::FaultAction::kUp);
  if (restart == plan.size()) {
    plan.push_back({plan[crash].at + sim::Duration::seconds(1.0),
                    fault_target::kQosAgent, sim::FaultAction::kUp});
  }
  return {crash, restart};
}

}  // namespace

bool applyParam(ScenarioSpec& spec, const std::string& key, double value) {
  if (key == "seed") {
    spec.seed = static_cast<std::uint64_t>(value);
    return true;
  }
  if (key == "reservation_kbps") {
    if (auto* r = firstNetworkReservation(spec)) {
      r->network_kbps = value;
      return true;
    }
    return false;
  }
  if (key == "bucket_divisor") {
    if (auto* r = firstNetworkReservation(spec)) {
      r->bucket_divisor = value;
      return true;
    }
    if (!spec.flows.empty()) {
      spec.flows.front().bucket_divisor = value;
      return true;
    }
    return false;
  }
  if (key == "flow_rate_bps") {
    if (spec.flows.empty()) return false;
    spec.flows.front().rate_bps = value;
    return true;
  }
  if (key == "contention_bps") {
    spec.contention.enabled = true;
    spec.contention.rate_bps = value;
    return true;
  }
  if (key == "cpu_fraction") {
    for (auto& r : spec.reservations) {
      if (r.via == ReservationSpec::Via::kGaraCpu) {
        r.cpu_fraction = value;
        return true;
      }
    }
    return false;
  }
  if (key == "message_bytes") {
    auto* w = std::get_if<PingPongWorkload>(&spec.workload);
    if (w == nullptr) return false;
    w->message_bytes = static_cast<int>(value);
    if (auto* r = firstNetworkReservation(spec)) {
      r->max_message_size = w->message_bytes;
    }
    return true;
  }
  if (key == "frame_bytes") {
    auto* w = std::get_if<VisualizationWorkload>(&spec.workload);
    if (w == nullptr) return false;
    w->frame_bytes = static_cast<std::int64_t>(value);
    if (auto* r = firstNetworkReservation(spec)) {
      r->max_message_size = static_cast<int>(w->frame_bytes);
    }
    return true;
  }
  if (key == "fps") {
    auto* w = std::get_if<VisualizationWorkload>(&spec.workload);
    if (w == nullptr) return false;
    w->frames_per_second = value;
    return true;
  }
  if (key == "cpu_seconds_per_frame") {
    auto* w = std::get_if<VisualizationWorkload>(&spec.workload);
    if (w == nullptr) return false;
    w->cpu_seconds_per_frame = value;
    return true;
  }
  if (key == "offered_bps") {
    if (auto* w = std::get_if<OfferedLoadTcpWorkload>(&spec.workload)) {
      w->offered_bps = value;
      return true;
    }
    if (auto* a = std::get_if<AdaptiveTenantsWorkload>(&spec.workload)) {
      if (a->tenants.empty()) return false;
      a->tenants.front().offered_bps = value;
      return true;
    }
    return false;
  }
  if (key == "adapt_cadence") {
    spec.adaptation.cadence_seconds = value;
    return true;
  }
  if (key == "adapt_headroom") {
    spec.adaptation.headroom = value;
    return true;
  }
  if (key == "bulk_seconds" || key == "idle_seconds") {
    auto* a = std::get_if<AdaptiveTenantsWorkload>(&spec.workload);
    if (a == nullptr || a->tenants.empty()) return false;
    if (key == "bulk_seconds") {
      a->tenants.front().bulk_seconds = value;
    } else {
      a->tenants.front().idle_seconds = value;
    }
    return true;
  }
  if (key == "lease_seconds") {
    spec.resil.lease.enabled = value > 0;
    if (value > 0) spec.resil.lease.duration_seconds = value;
    return true;
  }
  if (key == "crash_at") {
    const auto [crash, restart] = agentCrashPair(spec);
    const auto moved = sim::TimePoint::fromSeconds(value);
    spec.faults[restart].at += moved - spec.faults[crash].at;
    spec.faults[crash].at = moved;
    return true;
  }
  if (key == "restart_after") {
    const auto [crash, restart] = agentCrashPair(spec);
    spec.faults[restart].at =
        spec.faults[crash].at + sim::Duration::seconds(value);
    return true;
  }
  if (key == "seconds") {
    if (auto* p = std::get_if<PingPongWorkload>(&spec.workload)) {
      p->seconds = value;
      return true;
    }
    if (auto* v = std::get_if<VisualizationWorkload>(&spec.workload)) {
      v->seconds = value;
      if (spec.measure_at_seconds > 0) spec.measure_at_seconds = value;
      return true;
    }
    if (auto* o = std::get_if<OfferedLoadTcpWorkload>(&spec.workload)) {
      // A stop time pinned to the workload length moves with it.
      if (spec.run_until_seconds == o->seconds) spec.run_until_seconds = value;
      o->seconds = value;
      return true;
    }
    if (auto* a = std::get_if<AdaptiveTenantsWorkload>(&spec.workload)) {
      a->seconds = value;
      return true;
    }
    return false;
  }
  return false;
}

std::string paramValueLabel(double value) {
  // Integral values print without a decimal point; others keep up to
  // three significant decimals ("1.06", "0.85").
  char buf[64];
  if (value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3g", value);
  }
  return buf;
}

}  // namespace mgq::scenario

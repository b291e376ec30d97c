#include "chaos/generator.hpp"

#include <algorithm>
#include <functional>

#include "scenario/fault_targets.hpp"
#include "sim/random.hpp"

namespace mgq::chaos {
namespace {

using sim::FaultAction;
using sim::FaultEvent;
namespace target = scenario::fault_target;

/// Paired episodes (down at t, up at min(t + duration, horizon)), starts
/// Poisson with mean gap 100/rate, durations exponential. `param_fn` (may
/// be null) supplies the down-event parameter (loss probability).
void generateEpisodes(sim::Rng& rng, const std::string& target, double rate,
                      double mean_duration, double warmup, double horizon,
                      FaultAction down, FaultAction up,
                      const std::function<double(sim::Rng&)>& param_fn,
                      std::vector<FaultEvent>& out) {
  if (rate <= 0.0) return;
  const double mean_gap = 100.0 / rate;
  double t = warmup + rng.exponential(mean_gap);
  while (t < horizon) {
    const double param = param_fn ? param_fn(rng) : 0.0;
    out.push_back(scenario::faultAt(t, target, down, param));
    const double restore =
        std::min(t + rng.exponential(mean_duration), horizon);
    out.push_back(scenario::faultAt(restore, target, up));
    t = restore + rng.exponential(mean_gap);
  }
}

/// Single (unpaired) events at Poisson times: reservation churn.
void generatePoints(sim::Rng& rng, const std::string& target, double rate,
                    double warmup, double horizon, FaultAction action,
                    double param_lo, double param_hi,
                    std::vector<FaultEvent>& out) {
  if (rate <= 0.0) return;
  const double mean_gap = 100.0 / rate;
  double t = warmup + rng.exponential(mean_gap);
  while (t < horizon) {
    const double param =
        param_hi > param_lo ? rng.uniform(param_lo, param_hi) : param_lo;
    out.push_back(scenario::faultAt(t, target, action, param));
    t += rng.exponential(mean_gap);
  }
}

}  // namespace

ChaosPlan ChaosPlanGenerator::generate(const std::string& scenario,
                                       std::uint64_t seed,
                                       double horizon_seconds) const {
  ChaosPlan plan;
  plan.scenario = scenario;
  plan.seed = seed;
  plan.horizon_seconds = horizon_seconds;

  const double warmup = profile_.warmup_seconds;
  const double horizon = horizon_seconds;
  std::uint64_t stream = 0;
  // Per-category Rng derived from the seed: category k draws from
  // seed ^ golden-ratio stream so categories are independent.
  auto categoryRng = [&](void) {
    return sim::Rng(seed + (++stream) * 0x9e3779b97f4a7c15ULL);
  };

  auto& events = plan.events;
  {
    auto rng = categoryRng();
    generateEpisodes(rng, target::kPremiumEdgeLink,
                     profile_.link_flaps_per_100s,
                     profile_.mean_flap_seconds, warmup, horizon,
                     FaultAction::kDown, FaultAction::kUp,
                     nullptr, events);
  }
  {
    auto rng = categoryRng();
    const double lo = profile_.loss_min;
    const double hi = profile_.loss_max;
    auto draw = [lo, hi](sim::Rng& r) {
      return hi > lo ? r.uniform(lo, hi) : lo;
    };
    generateEpisodes(rng, target::kPremiumEdgeLoss,
                     profile_.loss_episodes_per_100s,
                     profile_.mean_loss_seconds, warmup, horizon,
                     FaultAction::kLossStart, FaultAction::kLossStop, draw,
                     events);
  }
  for (const char* manager :
       {target::kNetForwardManager, target::kNetReverseManager}) {
    auto rng = categoryRng();
    generateEpisodes(rng, manager, profile_.manager_outages_per_100s,
                     profile_.mean_outage_seconds, warmup, horizon,
                     FaultAction::kDown, FaultAction::kUp,
                     nullptr, events);
  }
  {
    auto rng = categoryRng();
    generateEpisodes(rng, target::kSenderCpuHog,
                     profile_.cpu_hog_bursts_per_100s,
                     profile_.mean_hog_seconds, warmup, horizon,
                     FaultAction::kDown, FaultAction::kUp,
                     nullptr, events);
  }
  {
    auto rng = categoryRng();
    generatePoints(rng, target::kReservationChurn,
                   profile_.reservation_cancels_per_100s, warmup, horizon,
                   FaultAction::kDown, 0.0, 0.0, events);
  }
  {
    auto rng = categoryRng();
    generatePoints(rng, target::kReservationChurn,
                   profile_.reservation_modifies_per_100s, warmup, horizon,
                   FaultAction::kLossStart, profile_.modify_min,
                   profile_.modify_max, events);
  }
  // Control-plane categories draw LAST so enabling them never reshuffles
  // the six original streams — existing soak plans stay byte-identical.
  {
    auto rng = categoryRng();
    generateEpisodes(rng, target::kQosAgent,
                     profile_.agent_crashes_per_100s,
                     profile_.mean_crash_downtime_seconds, warmup, horizon,
                     FaultAction::kDown, FaultAction::kUp, nullptr, events);
  }
  {
    auto rng = categoryRng();
    generateEpisodes(rng, target::kLeaseRenewals,
                     profile_.renewal_storms_per_100s,
                     profile_.mean_storm_seconds, warmup, horizon,
                     FaultAction::kDown, FaultAction::kUp, nullptr, events);
  }
  // Adversarial data-plane categories draw after the control-plane pair
  // for the same reason: appending streams never reshuffles earlier ones.
  {
    auto rng = categoryRng();
    const double lo = profile_.corrupt_min;
    const double hi = profile_.corrupt_max;
    auto draw = [lo, hi](sim::Rng& r) {
      return hi > lo ? r.uniform(lo, hi) : lo;
    };
    generateEpisodes(rng, target::kPremiumEdgeCorrupt,
                     profile_.corruption_episodes_per_100s,
                     profile_.mean_corruption_seconds, warmup, horizon,
                     FaultAction::kLossStart, FaultAction::kLossStop, draw,
                     events);
  }
  {
    auto rng = categoryRng();
    const double lo = profile_.duplicate_min;
    const double hi = profile_.duplicate_max;
    auto draw = [lo, hi](sim::Rng& r) {
      return hi > lo ? r.uniform(lo, hi) : lo;
    };
    generateEpisodes(rng, target::kPremiumEdgeDup,
                     profile_.duplicate_episodes_per_100s,
                     profile_.mean_duplicate_seconds, warmup, horizon,
                     FaultAction::kLossStart, FaultAction::kLossStop, draw,
                     events);
  }
  {
    auto rng = categoryRng();
    const double lo = profile_.reorder_min;
    const double hi = profile_.reorder_max;
    auto draw = [lo, hi](sim::Rng& r) {
      return hi > lo ? r.uniform(lo, hi) : lo;
    };
    generateEpisodes(rng, target::kPremiumEdgeReorder,
                     profile_.reorder_episodes_per_100s,
                     profile_.mean_reorder_seconds, warmup, horizon,
                     FaultAction::kLossStart, FaultAction::kLossStop, draw,
                     events);
  }
  {
    auto rng = categoryRng();
    generateEpisodes(rng, target::kPremiumEdgePartition,
                     profile_.partition_episodes_per_100s,
                     profile_.mean_partition_seconds, warmup, horizon,
                     FaultAction::kDown, FaultAction::kUp, nullptr, events);
  }

  // Stable: equal-timestamp events keep the fixed category order above,
  // so the plan (and hence the run) is byte-deterministic.
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

}  // namespace mgq::chaos

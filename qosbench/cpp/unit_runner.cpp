#include "unit_runner.hpp"

#include <chrono>
#include <cstdio>
#include <memory>

#include "chaos/runner.hpp"
#include "obs/export.hpp"
#include "scenario/builder.hpp"
#include "scenario/runner.hpp"

namespace qosbench {
namespace {

namespace sc = mgq::scenario;
namespace obs = mgq::obs;

std::uint64_t counter(const obs::MetricsRegistry* metrics,
                      const std::string& name) {
  if (metrics == nullptr) return 0;
  const auto& counters = metrics->counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

/// Counters every run's registry carries (GARA, QoS agent, resil, adapt,
/// and the rig snapshot the runner takes at teardown).
void addRegistryCounts(const obs::MetricsRegistry* m, std::size_t tenants,
                       UnitCounts& c) {
  c.forwarded += counter(m, "net.routers.forwarded");
  c.be_drops += counter(m, "qdisc.be.dropped_overflow");
  c.ef_enqueued += counter(m, "qdisc.ef.enqueued");
  const auto mpi_segments = counter(m, "tcp.flow01.segments_sent");
  c.tcp_segments += mpi_segments;
  c.tcp_mpi_segments += mpi_segments;
  c.tcp_retransmits += counter(m, "tcp.flow01.retransmits");
  c.tcp_timeouts += counter(m, "tcp.flow01.timeouts");
  c.gara_requested += counter(m, "gara.requests");
  c.gara_admitted += counter(m, "gara.admitted");
  c.gara_failed += counter(m, "gara.failed");
  c.recovery_attempts += counter(m, "qos.retries");
  c.adapt_decisions += counter(m, "qos.adapt.ticks") * tenants;
  c.adapt_resizes +=
      counter(m, "qos.adapt.grow") + counter(m, "qos.adapt.shrink");
  c.resil_repairs += counter(m, "resil.reconcile.zombies") +
                     counter(m, "resil.reconcile.adopted") +
                     counter(m, "resil.reconcile.refreshed") +
                     counter(m, "resil.reconcile.orphan_slots");
}

std::string outcomeLine(const std::string& name, std::uint64_t events,
                        std::int64_t delivered, std::uint64_t policed,
                        std::uint64_t retransmits, std::uint64_t timeouts) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: events=%llu delivered=%lld policed=%llu retx=%llu "
                "timeouts=%llu",
                name.c_str(), static_cast<unsigned long long>(events),
                static_cast<long long>(delivered),
                static_cast<unsigned long long>(policed),
                static_cast<unsigned long long>(retransmits),
                static_cast<unsigned long long>(timeouts));
  return buf;
}

/// Appends the layer spans of one scenario run under a new scenario span.
void addScenarioSpans(UnitOutcome& out, const std::string& name,
                      const char* inputs_layer, const double (&t)[6],
                      int unit_id) {
  const int parent = static_cast<int>(out.spans.size());
  out.spans.push_back({name, t[0], t[5], 0, unit_id});
  const char* layers[] = {inputs_layer, "build", "sim.run", "teardown",
                          "obs.export"};
  for (int i = 0; i < 5; ++i) {
    out.spans.push_back({layers[i], t[i], t[i + 1], parent, unit_id});
  }
}

void runScenario(const ScenarioPoint& point, int unit_id, UnitOutcome& out) {
  double t[6] = {now(), 0, 0, 0, 0, 0};
  const auto spec = point.make();
  t[1] = now();
  std::uint64_t rx_segments = 0;
  std::size_t tenants = 0;
  sc::RunHooks hooks;
  hooks.on_built = [&](sc::BuiltScenario& built) {
    t[2] = now();
    tenants = built.adapt != nullptr ? built.adapt->tenants.size() : 0;
  };
  hooks.before_teardown = [&](sc::BuiltScenario& built) {
    t[3] = now();
    if (built.receiver != nullptr) {
      rx_segments = built.receiver->stats().segments_received;
    }
  };
  const auto result = sc::ScenarioRunner(/*echo=*/nullptr).run(spec, hooks);
  t[4] = now();
  const auto json = obs::renderMultiRunJson(
      spec.name, {obs::RunExport{result.name, result.metrics.get(),
                                 result.trace.get()}});
  t[5] = now();
  addScenarioSpans(out, spec.name, "spec", t, unit_id);

  auto& c = out.counts;
  const auto* m = result.metrics.get();
  c.events += result.events_executed;
  c.policed_drops += result.policer_drops;
  c.tcp_segments += rx_segments;
  c.tcp_timeouts += result.tcp_timeouts;
  c.mpi_messages += static_cast<std::uint64_t>(result.viz.frames_delivered) +
                     2 * static_cast<std::uint64_t>(result.pingpong.round_trips) +
                     2 * result.rtt_ms.size();
  c.export_bytes += json.size();
  addRegistryCounts(m, tenants, c);

  std::string verdicts;
  for (const auto& check : result.checks) verdicts += check.ok ? 'P' : 'F';
  if (!result.checksPassed()) out.checks_passed = false;
  out.digest_text +=
      outcomeLine(spec.name, result.events_executed, result.delivered_bytes,
                  result.policer_drops,
                  counter(m, "tcp.flow01.retransmits"),
                  result.tcp_timeouts) +
      " rx_segments=" + std::to_string(rx_segments) + " checks=" + verdicts +
      "\n";
}

void runChaos(const ChaosPoint& point, int unit_id, UnitOutcome& out) {
  double t[6] = {now(), 0, 0, 0, 0, 0};
  const auto plan = mgq::chaos::ChaosPlanGenerator(chaosProfile())
                        .generate(point.scenario, point.seed,
                                  kChaosHorizonSeconds);
  t[1] = now();

  // runPlan keeps its BuiltScenario private; prepare() hands it over once,
  // after wiring. The registry is shared-owned, so it survives the run for
  // export. The runner reads the delivered-bytes counter one last time
  // after runUntil() and the teardown invariant sweep; wrapping that read
  // marks the end of the simulation without adding events.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TraceBuffer> trace;
  std::size_t tenants = 0;
  struct LastRead {
    double host = 0.0;
    std::uint64_t events = 0;
    std::int64_t delivered = 0;
  } end;
  mgq::chaos::ChaosOptions options;
  options.profile = chaosProfile();
  options.horizon_seconds = kChaosHorizonSeconds;
  options.prepare = [&](sc::BuiltScenario& built, mgq::chaos::ChaosTargets&) {
    t[2] = now();
    metrics = built.metrics;
    trace = built.trace;
    tenants = built.adapt != nullptr ? built.adapt->tenants.size() : 0;
    if (built.delivered_fn) {
      built.delivered_fn = [inner = std::move(built.delivered_fn),
                            sim = &built.rig.sim, &end] {
        end.host = now();
        end.delivered = inner();
        end.events = sim->eventsExecuted();
        return end.delivered;
      };
    }
  };
  const auto report = mgq::chaos::ChaosRunner().runPlan(plan, options);
  t[4] = now();
  t[3] = end.host > 0 ? end.host : t[4];
  const auto json = obs::renderMultiRunJson(
      "chaos_" + point.scenario,
      {obs::RunExport{point.scenario, metrics.get(), trace.get()}});
  t[5] = now();
  addScenarioSpans(out, point.scenario, "chaos.plan", t, unit_id);

  auto& c = out.counts;
  const auto* m = metrics.get();
  const auto policed = counter(m, "net.edge.drops_policed");
  c.events += end.events;
  c.policed_drops += policed;
  c.faults_fired += report.injector_fired;
  c.faults_skipped += report.injector_skipped;
  c.violations += report.violations.size();
  c.export_bytes += json.size();
  addRegistryCounts(m, tenants, c);

  out.digest_text += outcomeLine(point.scenario, end.events, end.delivered,
                                 policed, counter(m, "tcp.flow01.retransmits"),
                                 counter(m, "tcp.flow01.timeouts")) +
                     "\n" + report.log;
}

}  // namespace

double now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

UnitCounts& UnitCounts::operator+=(const UnitCounts& o) {
  events += o.events;
  forwarded += o.forwarded;
  policed_drops += o.policed_drops;
  be_drops += o.be_drops;
  ef_enqueued += o.ef_enqueued;
  tcp_segments += o.tcp_segments;
  tcp_retransmits += o.tcp_retransmits;
  tcp_mpi_segments += o.tcp_mpi_segments;
  tcp_timeouts += o.tcp_timeouts;
  mpi_messages += o.mpi_messages;
  gara_requested += o.gara_requested;
  gara_admitted += o.gara_admitted;
  gara_failed += o.gara_failed;
  recovery_attempts += o.recovery_attempts;
  adapt_decisions += o.adapt_decisions;
  adapt_resizes += o.adapt_resizes;
  resil_repairs += o.resil_repairs;
  faults_fired += o.faults_fired;
  faults_skipped += o.faults_skipped;
  violations += o.violations;
  export_bytes += o.export_bytes;
  return *this;
}

double UnitOutcome::setupSeconds() const {
  return layerSeconds("spec") + layerSeconds("chaos.plan") +
         layerSeconds("build");
}

double UnitOutcome::layerSeconds(const std::string& layer) const {
  double total = 0.0;
  for (const auto& s : spans) {
    if (s.name == layer) total += s.end - s.start;
  }
  return total;
}

UnitOutcome runUnit(const UnitPlan& plan, int unit_id) {
  UnitOutcome out;
  out.spans.push_back({"unit", now(), 0.0, -1, unit_id});
  for (const auto& point : plan.scenarios) runScenario(point, unit_id, out);
  if (plan.chaos) runChaos(*plan.chaos, unit_id, out);
  out.digest = obs::fnv1a64(out.digest_text);
  out.spans.front().end = now();
  return out;
}

}  // namespace qosbench

// End-to-end crash-restart: the fault_recovery_crash catalog scenario
// kills the QoS agent and GARA mid-stream, leases shed the orphaned
// enforcement, and the restart replays the journal, reconciles every
// manager, re-issues the QoS intent, and re-converges to granted QoS.
#include <gtest/gtest.h>

#include <vector>

#include "scenario/catalog.hpp"
#include "scenario/fault_targets.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"

namespace mgq::scenario {
namespace {

double counterOf(const ScenarioResult& res, const char* name) {
  return res.metrics == nullptr ? 0.0 : res.metrics->counter(name).value();
}

/// A qos-agent crash at `crash_s` and its restart at `restart_s`.
std::vector<sim::FaultEvent> agentCrash(double crash_s, double restart_s) {
  return {faultAt(crash_s, fault_target::kQosAgent, sim::FaultAction::kDown),
          faultAt(restart_s, fault_target::kQosAgent, sim::FaultAction::kUp)};
}

TEST(CrashRestartScenarioTest, RegistryCarriesTheCrashScenario) {
  ScenarioRegistry registry;
  registerPaperScenarios(registry);
  const auto* info = registry.find("fault_recovery_crash");
  ASSERT_NE(info, nullptr);
  const auto spec = info->make();
  EXPECT_TRUE(spec.resil.enabled());
  EXPECT_TRUE(spec.resil.lease.enabled);
  EXPECT_EQ(spec.faults, agentCrash(20.0, 25.0));
}

TEST(CrashRestartScenarioTest, CrashRestartReconvergesToGrantedQos) {
  const auto spec = crashRecoverySpec("fault_recovery_crash");
  ScenarioRunner runner;
  const auto res = runner.run(spec);

  // Every declarative check — pre-crash goodput, exactly one
  // crash/restart, lease expiry during the outage, intent re-issue,
  // post-restart goodput recovery, final kGranted — must pass.
  for (const auto& check : res.checks) {
    EXPECT_TRUE(check.ok) << check.what;
  }
  EXPECT_TRUE(res.checksPassed());

  // The restart went through the full reconciliation pipeline.
  EXPECT_EQ(counterOf(res, "resil.crashes"), 1.0);
  EXPECT_EQ(counterOf(res, "resil.restarts"), 1.0);
  EXPECT_EQ(counterOf(res, "resil.reconcile.runs"), 1.0);
  EXPECT_GE(counterOf(res, "resil.reissued_intents"), 1.0);
  EXPECT_GE(counterOf(res, "resil.lease.expired"), 1.0);
  EXPECT_GE(counterOf(res, "gara.crashes"), 1.0);
  EXPECT_EQ(res.qos_state, gq::QosRequestState::kGranted);
}

TEST(CrashRestartScenarioTest, CrashTimingIsTunableViaParams) {
  auto spec = crashRecoverySpec("fault_recovery_crash");
  EXPECT_TRUE(applyParam(spec, "crash_at", 12.0));
  EXPECT_TRUE(applyParam(spec, "restart_after", 2.0));
  EXPECT_TRUE(applyParam(spec, "lease_seconds", 1.0));
  EXPECT_EQ(spec.faults, agentCrash(12.0, 14.0));
  EXPECT_DOUBLE_EQ(spec.resil.lease.duration_seconds, 1.0);
}

TEST(CrashRestartScenarioTest, CrashAtKeepsTheRestartDelay) {
  auto spec = crashRecoverySpec("fault_recovery_crash");
  EXPECT_TRUE(applyParam(spec, "crash_at", 12.0));
  EXPECT_EQ(spec.faults, agentCrash(12.0, 17.0));
}

TEST(CrashRestartScenarioTest, CrashParamsAddAPairToAPlanWithoutOne) {
  // fault_recovery_on scripts a link flap only; crash_at appends a
  // qos-agent crash with the default 1 s restart delay and leaves the
  // flap alone.
  auto spec = ScenarioRegistry::paper().find("fault_recovery_on")->make();
  const auto flap = spec.faults;
  EXPECT_TRUE(applyParam(spec, "crash_at", 12.0));
  auto expected = flap;
  for (const auto& e : agentCrash(12.0, 13.0)) expected.push_back(e);
  EXPECT_EQ(spec.faults, expected);

  auto restart_only = ScenarioRegistry::paper().find("fig1_under")->make();
  EXPECT_TRUE(applyParam(restart_only, "restart_after", 4.0));
  EXPECT_EQ(restart_only.faults, agentCrash(0.0, 4.0));
}

TEST(CrashRestartScenarioTest, CrashAtThenRestartAfterSweepRetimesThePair) {
  // The sweep applies crash_at first, then restart_after: every point
  // ends with restart = crash_at + restart_after.
  const auto specs =
      expandSweep(crashRecoverySpec("fault_recovery_crash"),
                  {{"crash_at", {12.0, 30.0}}, {"restart_after", {2.0, 8.0}}});
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].faults, agentCrash(12.0, 14.0));
  EXPECT_EQ(specs[1].faults, agentCrash(12.0, 20.0));
  EXPECT_EQ(specs[2].faults, agentCrash(30.0, 32.0));
  EXPECT_EQ(specs[3].faults, agentCrash(30.0, 38.0));
}

TEST(CrashRestartScenarioTest, SameSeedIsDeterministic) {
  ScenarioRunner runner;
  const auto a = runner.run(crashRecoverySpec("fault_recovery_crash"));
  const auto b = runner.run(crashRecoverySpec("fault_recovery_crash"));
  EXPECT_EQ(a.goodput_kbps, b.goodput_kbps);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(counterOf(a, "resil.lease.expired"),
            counterOf(b, "resil.lease.expired"));
  EXPECT_EQ(counterOf(a, "resil.reissued_intents"),
            counterOf(b, "resil.reissued_intents"));
}

}  // namespace
}  // namespace mgq::scenario

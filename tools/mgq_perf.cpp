// mgq_perf: event-kernel + data-plane performance harness.
//
//   mgq_perf [--quick] [--skip-e2e] [--only MIX[,MIX...]] [--trials N]
//            [--threads N] [--json-dir DIR]
//            [--baseline FILE [--max-regress F]] [--write-baseline FILE]
//
// Runs the kernel micro mixes (schedule-heavy, cancel-heavy,
// wakeup-heavy), the data-plane mixes (hop_forward, police_qdisc,
// tcp_bulk, mpi_pingpong), the control-plane mix (adapt_controller) and
// the observability mix (obs_record), then — unless --skip-e2e — the
// end-to-end probes: one fig9_combined scenario run and a 200-seed chaos
// batch over fig1_under. Results are printed as a table and exported as
// BENCH_perf.json through the standard obs exporters, so the perf
// trajectory lands next to every other bench document.
//
// Each mix runs --trials times (default 3) and the best run is reported:
// on a shared machine the minimum wall time tracks the code's cost, the
// rest track the neighbors'.
//
// --only restricts the run to a comma-separated subset of mix names
// (implies --skip-e2e unless a probe name is listed). --baseline gates
// the mixes against a checked-in baseline JSON (flat
// {"mix": ops_per_sec} object): exit 1 when any mix present in the
// baseline regresses by more than --max-regress (default 0.30).
// --write-baseline records the current measurements in that format.
// --quick shrinks every mix for CI smoke runs; baselines should compare
// like against like.
#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "perf_adapt.hpp"
#include "perf_dataplane.hpp"
#include "perf_kernel.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kMixNames[] = {
    "schedule_heavy", "cancel_heavy", "wakeup_heavy",    "hop_forward",
    "police_qdisc",   "tcp_bulk",     "mpi_pingpong",    "adapt_controller",
    "obs_record",
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--skip-e2e] [--only MIX[,MIX...]]\n"
               "          [--trials N] [--threads N] [--json-dir DIR]\n"
               "          [--baseline FILE] [--max-regress F]\n"
               "          [--write-baseline FILE]\n"
               "mixes:",
               argv0);
  for (const char* m : kMixNames) std::fprintf(stderr, " %s", m);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgq;

  bool quick = false;
  bool skip_e2e = false;
  int trials = 3;
  int threads = 0;
  std::string json_dir = ".";
  std::string baseline;
  std::string write_baseline;
  std::string only_arg;
  double max_regress = 0.30;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--skip-e2e") {
      skip_e2e = true;
    } else if (arg == "--only") {
      only_arg = next("--only");
    } else if (arg == "--trials") {
      trials = std::atoi(next("--trials"));
      if (trials < 1) trials = 1;
    } else if (arg == "--threads") {
      threads = std::atoi(next("--threads"));
    } else if (arg == "--json-dir") {
      json_dir = next("--json-dir");
    } else if (arg == "--baseline") {
      baseline = next("--baseline");
    } else if (arg == "--max-regress") {
      max_regress = std::atof(next("--max-regress"));
    } else if (arg == "--write-baseline") {
      write_baseline = next("--write-baseline");
    } else {
      return usage(argv[0]);
    }
  }

  std::set<std::string> only;
  if (!only_arg.empty()) {
    skip_e2e = true;  // --only selects mixes; e2e probes are not mixes
    std::size_t pos = 0;
    while (pos <= only_arg.size()) {
      const auto comma = only_arg.find(',', pos);
      const auto end = comma == std::string::npos ? only_arg.size() : comma;
      const auto name = only_arg.substr(pos, end - pos);
      if (!name.empty()) {
        bool known = false;
        for (const char* m : kMixNames) known = known || name == m;
        if (!known) {
          std::fprintf(stderr, "unknown mix '%s'\n", name.c_str());
          return usage(argv[0]);
        }
        only.insert(name);
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  auto selected = [&](const char* name) {
    return only.empty() || only.count(name) > 0;
  };

  const int schedule_events = quick ? 20'000 : 100'000;
  const int schedule_repeat = quick ? 3 : 10;
  const int cancel_timers = quick ? 1'000 : 4'000;
  const int cancel_steps = quick ? 200'000 : 1'000'000;
  const int wakeup_procs = quick ? 200 : 1'000;
  const int wakeup_rounds = quick ? 200 : 500;
  const int chaos_seeds = quick ? 25 : 200;
  const int hop_packets = quick ? 20'000 : 100'000;
  const int hop_repeat = quick ? 2 : 5;
  const int police_packets = quick ? 100'000 : 500'000;
  const int police_repeat = quick ? 2 : 5;
  const std::int64_t bulk_bytes = quick ? 20'000'000 : 200'000'000;
  const int pingpong_rounds = quick ? 2'000 : 10'000;
  const std::int32_t pingpong_bytes = 16'384;
  const int adapt_tenants = 64;
  const double adapt_horizon = quick ? 30.0 : 120.0;
  const int obs_records = quick ? 200'000 : 1'000'000;

  // Best-of-N: rerun each mix and keep the fastest trial.
  auto best = [trials](auto&& run) {
    perf::MixResult r = run();
    for (int t = 1; t < trials; ++t) {
      perf::MixResult s = run();
      if (s.ops_per_sec > r.ops_per_sec) r = std::move(s);
    }
    return r;
  };

  std::vector<perf::MixResult> mixes;
  if (selected("schedule_heavy"))
    mixes.push_back(best(
        [&] { return perf::runScheduleHeavy(schedule_events, schedule_repeat); }));
  if (selected("cancel_heavy"))
    mixes.push_back(
        best([&] { return perf::runCancelHeavy(cancel_timers, cancel_steps); }));
  if (selected("wakeup_heavy"))
    mixes.push_back(
        best([&] { return perf::runWakeupHeavy(wakeup_procs, wakeup_rounds); }));
  if (selected("hop_forward"))
    mixes.push_back(
        best([&] { return perf::runHopForward(hop_packets, hop_repeat); }));
  if (selected("police_qdisc"))
    mixes.push_back(
        best([&] { return perf::runPoliceQdisc(police_packets, police_repeat); }));
  if (selected("tcp_bulk"))
    mixes.push_back(best([&] { return perf::runTcpBulk(bulk_bytes); }));
  if (selected("mpi_pingpong"))
    mixes.push_back(best(
        [&] { return perf::runMpiPingpong(pingpong_rounds, pingpong_bytes); }));
  if (selected("adapt_controller"))
    mixes.push_back(best(
        [&] { return perf::runAdaptController(adapt_tenants, adapt_horizon); }));
  if (selected("obs_record"))
    mixes.push_back(best([&] { return perf::runObsRecord(obs_records); }));

  std::vector<perf::WallResult> walls;
  if (!skip_e2e) {
    walls.push_back(perf::runScenarioWall("fig9_combined"));
    walls.push_back(perf::runChaosBatch("fig1_under", chaos_seeds, threads));
  }

  util::Table mix_table({"mix", "ops", "events", "wall_s", "ops_per_sec"});
  for (const auto& m : mixes) {
    mix_table.addRow({m.name, std::to_string(m.operations),
                      std::to_string(m.events_executed),
                      util::Table::num(m.wall_seconds, 3),
                      util::Table::num(m.ops_per_sec, 0)});
  }
  mix_table.renderAscii(std::cout);

  bool e2e_ok = true;
  if (!walls.empty()) {
    util::Table wall_table({"probe", "wall_s", "events", "ok"});
    for (const auto& w : walls) {
      wall_table.addRow({w.name, util::Table::num(w.wall_seconds, 3),
                         std::to_string(w.events_executed),
                         w.ok ? "yes" : "NO"});
      e2e_ok = e2e_ok && w.ok;
    }
    wall_table.renderAscii(std::cout);
  }

  obs::MetricsRegistry metrics;
  perf::recordResults(metrics, mixes, walls);
  if (!obs::exportBenchJson("perf", metrics, nullptr, json_dir)) return 1;

  if (!write_baseline.empty()) {
    if (!perf::writeBaseline(mixes, write_baseline)) {
      std::fprintf(stderr, "cannot write baseline %s\n",
                   write_baseline.c_str());
      return 1;
    }
    std::printf("baseline written to %s\n", write_baseline.c_str());
  }

  if (!baseline.empty()) {
    std::string error;
    const auto regressions =
        perf::checkBaseline(mixes, baseline, max_regress, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "baseline check failed: %s\n", error.c_str());
      return 1;
    }
    for (const auto& r : regressions) {
      std::fprintf(stderr, "PERF REGRESSION %s\n", r.c_str());
    }
    if (!regressions.empty()) return 1;
    std::printf("baseline check OK (max regress %.0f%%)\n",
                max_regress * 100.0);
  }

  return e2e_ok ? 0 : 1;
}

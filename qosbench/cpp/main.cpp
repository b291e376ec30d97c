// qosbench: end-to-end and per-layer benchmark of the MPICH-GQ simulator.
//
//   qosbench --workload NAME --seed N --seconds S --trace 0|1
//            --digests FILE [--out-dir DIR]
//   qosbench --pin-digests FILE
//
// One workload per invocation, on one thread. A run executes one warm-up
// unit (timed apart and reported, not counted), then units of the
// workload's seeded cycle until S seconds have passed.
//
// --trace 0 prints the end-to-end metrics: unit_s_p50 (median host seconds
// per unit, spec to teardown plus in-memory BENCH JSON), setup_s (median
// per-unit input generation + build) and peak_rss_mb; the p90 prints
// beside the medians where at least ten units lie beyond it.
//
// --trace 1 runs every unit twice, once traced and once not (alternating
// which goes first), keeps the traced units' spans, and prints the
// per-layer metrics: work counts summed over the first cycle (they repeat
// exactly for a seed), median per-unit layer times, and layer probes. It
// also prints the per-layer self-time table and the tracing overhead, and
// writes the spans as Chrome Trace Event JSON to DIR.
//
// Every execution of every unit passes the outcome gate (gate.hpp); a
// payload buffer still live at the end of a pass counts as one more
// failed unit. The last stdout line is the result JSON; the exit code is
// 0 when nothing failed, 1 when something did, 2 on a usage error.
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gate.hpp"
#include "net/buffer.hpp"
#include "probes.hpp"
#include "summary.hpp"
#include "trace.hpp"
#include "unit_runner.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace qosbench {
namespace {
constexpr int kProbeTrials = 5;

struct Options {
  Workload workload = Workload::kPremiumTcp;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string digests;
  std::string out_dir = ".";
  std::string pin_digests;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload premium_tcp|contention_mix|chaos_soak "
               "--seed N --seconds S --trace 0|1 --digests FILE "
               "[--out-dir DIR]\n"
               "       %s --pin-digests FILE\n",
               argv0, argv0);
  return 2;
}

bool parseArgs(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        const auto w = parseWorkload(value);
        if (!w) return false;
        o.workload = *w;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0 && o.seconds <= 120)) return false;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return false;
        o.trace = value == "1";
      } else if (arg == "--digests") {
        o.digests = value;
      } else if (arg == "--out-dir") {
        o.out_dir = value;
      } else if (arg == "--pin-digests") {
        o.pin_digests = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !o.pin_digests.empty() || (have_workload && !o.digests.empty());
}

bool readFile(const std::string& path, std::string& text) {
  std::ifstream in(path);
  if (!in) return false;
  text.assign(std::istreambuf_iterator<char>(in), {});
  return true;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(const std::vector<double>& v) { return summarize(v).p50; }

/// Runs units of one workload cycle through the outcome gate.
class UnitLoop {
 public:
  UnitLoop(std::vector<UnitPlan> cycle,
           std::vector<std::optional<std::uint64_t>> pinned)
      : cycle_(std::move(cycle)), gate_(std::move(pinned)) {}

  std::size_t cycleSize() const { return cycle_.size(); }

  UnitOutcome run(int unit_id) {
    const std::size_t index = unit_id % cycle_.size();
    auto out = runUnit(cycle_[index], unit_id);
    ++attempted_;
    std::string why;
    if (!gate_.judge(index, out, why)) {
      ++failed_;
      std::fprintf(stderr, "FAILED unit %d (%s): %s\n%s", unit_id,
                   cycle_[index].label.c_str(), why.c_str(),
                   out.digest_text.c_str());
    }
    return out;
  }

  /// A payload buffer live after a pass is a leak: one more failed unit.
  void checkPoolDrained(const char* where) {
    const auto live = mgq::net::BufferPool::totalLive();
    if (live != 0) {
      ++failed_;
      ++attempted_;
      std::fprintf(stderr, "FAILED: %lld payload buffers live after %s\n",
                   static_cast<long long>(live), where);
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<UnitPlan> cycle_;
  OutcomeGate gate_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void printSummary(const char* name, const std::vector<double>& v) {
  const auto s = summarize(v);
  std::printf("  %-26s p50 %.6f s", name, s.p50);
  if (s.has_p90) {
    std::printf("  p90 %.6f s", s.p90);
  } else {
    std::printf("  p90 not reported (%zu beyond it, need 10)",
                samplesBeyond(s.n, 90.0));
  }
  std::printf("  n=%zu\n", s.n);
}

void untracedPass(const Options& o, UnitLoop& loop, MetricSet& metrics) {
  const int cycle = static_cast<int>(loop.cycleSize());
  std::vector<double> unit_s, setup_s;
  const double deadline = now() + o.seconds;
  // At least one whole cycle, so every run covers the whole sweep.
  for (int i = 0; i < cycle || now() < deadline; ++i) {
    const auto out = loop.run(i);
    unit_s.push_back(out.seconds());
    setup_s.push_back(out.setupSeconds());
  }
  loop.checkPoolDrained("the pass");
  std::printf("end-to-end (%zu units in %.1f s):\n", unit_s.size(), o.seconds);
  printSummary("unit_s", unit_s);
  printSummary("setup_s", setup_s);
  metrics.add("unit_s_p50", median(unit_s), "s");
  metrics.add("setup_s", median(setup_s), "s");
  metrics.add("peak_rss_mb", peakRssMb(), "MB");
}

void tracedPass(const Options& o, UnitLoop& loop, MetricSet& metrics) {
  namespace net = mgq::net;
  std::vector<std::vector<Span>> traced;
  std::vector<double> traced_s, untraced_s;
  std::vector<double> inputs_s, build_s, run_s, teardown_s, export_s,
      ns_per_event;
  UnitCounts counts;
  std::uint64_t pool_allocs = 0, pool_fresh = 0;
  std::int64_t pool_high_water = 0;
  const int cycle = static_cast<int>(loop.cycleSize());
  const double deadline = now() + o.seconds;
  // At least one whole cycle, so the counts cover the same units every run.
  for (int i = 0; i < cycle || now() < deadline; ++i) {
    for (int half = 0; half < 2; ++half) {
      const bool traced_run = (half == 0) == (i % 2 == 0);
      if (!traced_run) {
        untraced_s.push_back(loop.run(i).seconds());
        continue;
      }
      const auto before = net::BufferPool::local().stats();
      auto out = loop.run(i);
      const auto after = net::BufferPool::local().stats();
      traced_s.push_back(out.seconds());
      inputs_s.push_back(out.layerSeconds("spec") +
                         out.layerSeconds("chaos.plan"));
      build_s.push_back(out.layerSeconds("build"));
      run_s.push_back(out.layerSeconds("sim.run"));
      teardown_s.push_back(out.layerSeconds("teardown"));
      export_s.push_back(out.layerSeconds("obs.export"));
      if (out.counts.events > 0) {
        ns_per_event.push_back(run_s.back() * 1e9 /
                               static_cast<double>(out.counts.events));
      }
      if (i < cycle) {
        counts += out.counts;
        pool_allocs += after.allocations - before.allocations;
        pool_fresh += after.fresh - before.fresh;
        pool_high_water = after.high_water_bytes;
      }
      traced.push_back(std::move(out.spans));
    }
  }
  loop.checkPoolDrained("the traced pass");

  // Per-layer self time over the traced units.
  const auto layers = layerSelfTimes(traced);
  double total = 0.0;
  for (const auto& l : layers) total += l.seconds;
  const double units = static_cast<double>(traced.size());
  std::printf("per-layer self time, %s (%zu traced units, %.3f s):\n",
              workloadName(o.workload), traced.size(), total);
  std::printf("  %-12s %12s %12s %8s\n", "layer", "total_s", "per_unit_s",
              "share");
  for (const auto& l : layers) {
    std::printf("  %-12s %12.6f %12.6f %7.2f%%\n", l.layer.c_str(), l.seconds,
                l.seconds / units, total > 0 ? 100.0 * l.seconds / total : 0);
  }
  const double bench = layers.back().seconds;
  std::printf("  span coverage of traced unit time (all but bench): %.2f%%\n",
              total > 0 ? 100.0 * (total - bench) / total : 0.0);
  const double overhead = median(traced_s) - median(untraced_s);
  std::printf("  tracing overhead: traced %.6f s - untraced %.6f s = %+.6f s "
              "per unit (%+.2f%%, %zu pairs)\n",
              median(traced_s), median(untraced_s), overhead,
              100.0 * overhead / median(untraced_s), untraced_s.size());

  const std::string trace_path = o.out_dir + "/trace_" +
                                 workloadName(o.workload) + ".json";
  std::ofstream(trace_path) << chromeTraceJson(traced);
  std::printf("  spans written to %s\n", trace_path.c_str());

  std::printf("layer probes (median of %d trials):\n", kProbeTrials);
  const auto probes = runProbes(kProbeTrials);
  for (const auto& p : probes) {
    std::printf("  %-26s %10.3f %-5s per %s, %llu ops per trial\n",
                p.metric.c_str(), p.value, p.unit.c_str(), p.operation.c_str(),
                static_cast<unsigned long long>(p.operations));
  }
  loop.checkPoolDrained("the layer probes");

  const auto probe = [&](const char* name) {
    for (const auto& p : probes) {
      if (p.metric == name) metrics.add(p.metric, p.value, p.unit);
    }
  };
  const auto count = [&](const char* name, std::uint64_t v) {
    metrics.add(name, static_cast<double>(v), "count");
  };
  const auto ratio = [](std::uint64_t part, std::uint64_t base) {
    return base == 0 ? 0.0
                     : static_cast<double>(part) / static_cast<double>(base);
  };
  count("sim.events", counts.events);
  metrics.add("sim.run_s", median(run_s), "s");
  metrics.add("sim.ns_per_event", median(ns_per_event), "ns");
  probe("sim.schedule_ns");
  probe("sim.cancel_ns");
  probe("sim.wakeup_ns");
  count("net.forwarded", counts.forwarded);
  count("net.policed_drops", counts.policed_drops);
  count("net.be_drops", counts.be_drops);
  count("net.ef_enqueued", counts.ef_enqueued);
  count("net.pool_allocs", pool_allocs);
  metrics.add("net.pool_fresh_ratio", ratio(pool_fresh, pool_allocs), "ratio");
  metrics.add("net.pool_high_water_bytes",
              static_cast<double>(pool_high_water), "bytes");
  probe("net.hop_ns");
  probe("net.police_ns");
  probe("net.checksum_ns_per_kb");
  count("tcp.segments", counts.tcp_segments);
  metrics.add("tcp.retransmit_ratio",
              ratio(counts.tcp_retransmits, counts.tcp_mpi_segments), "ratio");
  count("tcp.timeouts", counts.tcp_timeouts);
  probe("tcp.bulk_ns_per_kb");
  count("mpi.messages", counts.mpi_messages);
  probe("mpi.pingpong_ns_per_kb");
  count("gara.requested", counts.gara_requested);
  count("gara.admitted", counts.gara_admitted);
  count("gara.failed", counts.gara_failed);
  count("gq.recovery_attempts", counts.recovery_attempts);
  probe("gara.admit_ns");
  count("adapt.decisions", counts.adapt_decisions);
  count("adapt.resizes", counts.adapt_resizes);
  probe("adapt.decision_ns");
  count("resil.repairs", counts.resil_repairs);
  count("chaos.faults_fired", counts.faults_fired);
  count("chaos.faults_skipped", counts.faults_skipped);
  count("chaos.violations", counts.violations);
  metrics.add("scenario.inputs_s", median(inputs_s), "s");
  metrics.add("scenario.build_s", median(build_s), "s");
  metrics.add("scenario.teardown_s", median(teardown_s), "s");
  metrics.add("obs.export_s", median(export_s), "s");
  metrics.add("obs.export_bytes", static_cast<double>(counts.export_bytes),
              "bytes");
  std::printf("per-layer counts are sums over the first %d-unit cycle; "
              "times are medians per traced unit\n",
              cycle);
}

/// Runs every unit of every workload's default-seed cycle twice and
/// writes the digests, refusing if any unit fails or does not repeat.
int pinDigests(const std::string& path) {
  PinnedDigests digests;
  for (const auto w : {Workload::kPremiumTcp, Workload::kContentionMix,
                       Workload::kChaosSoak}) {
    UnitLoop loop(makeUnitCycle(w, kDefaultSeed), {});
    auto& list = digests[workloadName(w)];
    for (std::size_t i = 0; i < 2 * loop.cycleSize(); ++i) {
      const auto out = loop.run(static_cast<int>(i));
      if (i < loop.cycleSize()) list.push_back(out.digest);
    }
    loop.checkPoolDrained(workloadName(w));
    if (loop.failed() > 0) {
      std::fprintf(stderr, "%s: %llu failed unit(s); digests not written\n",
                   workloadName(w),
                   static_cast<unsigned long long>(loop.failed()));
      return 1;
    }
  }
  std::ofstream out(path);
  out << formatPinnedDigests(digests, kDefaultSeed);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("pinned digests written to %s\n", path.c_str());
  return 0;
}

int run(const Options& o) {
  auto cycle = makeUnitCycle(o.workload, o.seed);
  std::vector<std::optional<std::uint64_t>> pinned(cycle.size());
  if (o.seed == kDefaultSeed) {
    std::string text, error;
    if (!readFile(o.digests, text)) {
      std::fprintf(stderr, "cannot read pinned digests %s\n",
                   o.digests.c_str());
      return 2;
    }
    const auto parsed = parsePinnedDigests(text, error);
    const std::vector<std::uint64_t>* list = nullptr;
    if (parsed) {
      const auto it = parsed->find(workloadName(o.workload));
      if (it != parsed->end()) list = &it->second;
    }
    if (list == nullptr || list->size() != cycle.size()) {
      std::fprintf(stderr, "%s: no %zu pinned digests for %s %s\n",
                   o.digests.c_str(), cycle.size(), workloadName(o.workload),
                   error.c_str());
      return 2;
    }
    for (std::size_t i = 0; i < cycle.size(); ++i) pinned[i] = (*list)[i];
  }

  std::printf("qosbench %s seed %llu, %.1f s, trace %d, %zu-unit cycle%s\n",
              workloadName(o.workload),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, cycle.size(),
              o.seed == kDefaultSeed ? " (pinned digests)" : "");
  UnitLoop loop(std::move(cycle), std::move(pinned));
  // Warm-up: first-touch of the buffer pool and allocator, not counted.
  const auto warm = loop.run(0);
  std::printf("warm-up unit: %.6f s (setup %.6f s), not counted\n",
              warm.seconds(), warm.setupSeconds());

  MetricSet metrics;
  if (o.trace) {
    tracedPass(o, loop, metrics);
  } else {
    untracedPass(o, loop, metrics);
  }
  std::printf("metrics:\n");
  for (const auto& m : metrics.metrics()) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = loop.failed() == 0;
  std::printf("%llu unit executions, %llu failed\n",
              static_cast<unsigned long long>(loop.attempted()),
              static_cast<unsigned long long>(loop.failed()));
  std::printf("%s\n", resultJson(correct, loop.attempted(), loop.failed(),
                                 metrics)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace qosbench

int main(int argc, char** argv) {
  qosbench::Options options;
  if (!qosbench::parseArgs(argc, argv, options)) {
    return qosbench::usage(argv[0]);
  }
  mgq::util::setLogLevel(mgq::util::LogLevel::kOff);
  if (!options.pin_digests.empty()) {
    return qosbench::pinDigests(options.pin_digests);
  }
  return qosbench::run(options);
}

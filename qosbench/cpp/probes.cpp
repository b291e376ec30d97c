#include "probes.hpp"

#include <deque>
#include <functional>

#include "gara/slot_table.hpp"
#include "net/packet.hpp"
#include "perf_adapt.hpp"
#include "perf_dataplane.hpp"
#include "perf_kernel.hpp"
#include "sim/random.hpp"
#include "summary.hpp"
#include "unit_runner.hpp"

namespace qosbench {
namespace {

constexpr int kChecksumSegments = 100'000;
constexpr int kSlotAttempts = 200'000;
constexpr std::size_t kSegmentBytes = 1460;

/// The checksum probe's folded results land here, so the loop has an
/// observable effect and cannot be optimised away.
volatile std::uint64_t g_checksum_sink = 0;

double nsPerOp(const mgq::perf::MixResult& r) {
  return r.operations == 0 ? 0.0
                           : r.wall_seconds * 1e9 /
                                 static_cast<double>(r.operations);
}

double nsPerKb(const mgq::perf::MixResult& r) {
  return r.operations == 0 ? 0.0
                           : r.wall_seconds * 1e9 /
                                 (static_cast<double>(r.operations) / 1024.0);
}

struct Probe {
  const char* metric;
  const char* unit;
  const char* operation;
  /// One trial: returns the per-op cost and sets the operation count.
  std::function<double(std::uint64_t&)> trial;
};

Probe mix(const char* metric, const char* operation,
          std::function<mgq::perf::MixResult()> run, bool per_kb = false) {
  return {metric, per_kb ? "ns/KB" : "ns", operation,
          [run = std::move(run), per_kb](std::uint64_t& ops) {
            const auto r = run();
            ops = r.operations;
            return per_kb ? nsPerKb(r) : nsPerOp(r);
          }};
}

/// ns per KB of net::tcpWireChecksum over `segments` segments of 1460
/// payload bytes; `sink` receives the folded checksums.
double checksumNsPerKb(int segments, std::uint64_t& sink) {
  mgq::net::TcpHeader h;
  h.payload = mgq::net::BufSlice::fill(kSegmentBytes, 0x5a);
  h.window = 256 * 1024;
  h.is_ack = true;
  const double start = now();
  for (int i = 0; i < segments; ++i) {
    h.seq += kSegmentBytes;
    sink ^= mgq::net::tcpWireChecksum(h);
  }
  const double seconds = now() - start;
  return seconds * 1e9 /
         (static_cast<double>(segments) * kSegmentBytes / 1024.0);
}

/// ns per gara::SlotTable::insert attempt against a table kept at 64 live
/// slots (oldest released first).
double slotAdmitNs(int attempts) {
  using mgq::sim::TimePoint;
  mgq::gara::SlotTable table(1e9);
  mgq::sim::Rng rng(7);
  std::deque<mgq::gara::SlotId> live;
  const double start = now();
  for (int i = 0; i < attempts; ++i) {
    const double begin = rng.uniform(0.0, 100.0);
    const double length = rng.uniform(1.0, 30.0);
    const auto id =
        table.insert(TimePoint::fromSeconds(begin),
                     TimePoint::fromSeconds(begin + length),
                     rng.uniform(10e6, 60e6));
    if (id != 0) live.push_back(id);
    if (live.size() > 64) {
      table.remove(live.front());
      live.pop_front();
    }
  }
  return (now() - start) * 1e9 / attempts;
}

}  // namespace

std::vector<ProbeResult> runProbes(int trials) {
  namespace perf = mgq::perf;
  // Sizes follow mgq_perf --quick; each trial takes a few to ~100 ms.
  const std::vector<Probe> probes = {
      mix("sim.schedule_ns", "push/cancel/executed event",
          [] { return perf::runScheduleHeavy(20'000, 3); }),
      mix("sim.cancel_ns", "push/cancel/executed event",
          [] { return perf::runCancelHeavy(1'000, 200'000); }),
      mix("sim.wakeup_ns", "push/cancel/executed event",
          [] { return perf::runWakeupHeavy(200, 200); }),
      mix("net.hop_ns", "wire hop", [] { return perf::runHopForward(20'000, 2); }),
      mix("net.police_ns", "classify+police+enqueue+dequeue",
          [] { return perf::runPoliceQdisc(100'000, 2); }),
      {"net.checksum_ns_per_kb", "ns/KB", "1460 B segment checksum",
       [](std::uint64_t& ops) {
         std::uint64_t sink = 0;
         const double v = checksumNsPerKb(kChecksumSegments, sink);
         g_checksum_sink = sink;
         ops = kChecksumSegments;
         return v;
       }},
      mix("tcp.bulk_ns_per_kb", "payload byte",
          [] { return perf::runTcpBulk(20'000'000); }, /*per_kb=*/true),
      mix("mpi.pingpong_ns_per_kb", "payload byte",
          [] { return perf::runMpiPingpong(2'000, 16'384); }, /*per_kb=*/true),
      {"gara.admit_ns", "ns", "SlotTable::insert attempt",
       [](std::uint64_t& ops) {
         ops = kSlotAttempts;
         return slotAdmitNs(kSlotAttempts);
       }},
      mix("adapt.decision_ns", "tenant decision",
          [] { return perf::runAdaptController(64, 120.0); }),
  };
  std::vector<ProbeResult> results;
  for (const auto& p : probes) {
    std::vector<double> values;
    ProbeResult r{p.metric, p.unit, p.operation, 0, 0.0};
    for (int t = 0; t < trials; ++t) values.push_back(p.trial(r.operations));
    r.value = summarize(values).p50;
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace qosbench

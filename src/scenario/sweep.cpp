#include "scenario/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace mgq::scenario {

std::vector<ScenarioSpec> expandSweep(const ScenarioSpec& base,
                                      const std::vector<SweepParam>& params) {
  std::vector<ScenarioSpec> out{base};
  for (const auto& p : params) {
    std::vector<ScenarioSpec> next;
    next.reserve(out.size() * p.values.size());
    for (const auto& s : out) {
      for (double v : p.values) {
        ScenarioSpec expanded = s;
        if (!applyParam(expanded, p.key, v)) {
          throw std::invalid_argument("sweep parameter '" + p.key +
                                      "' does not apply to scenario '" +
                                      base.name + "'");
        }
        expanded.name += "/" + p.key + "=" + paramValueLabel(v);
        next.push_back(std::move(expanded));
      }
    }
    out = std::move(next);
  }
  return out;
}

SweepRunner::SweepRunner(int threads) : threads_(threads) {
  if (threads_ <= 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

void SweepRunner::forEach(std::size_t count,
                          const std::function<void(std::size_t)>& fn) const {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        next.store(count);  // stop claiming; running calls finish
      }
    }
  };
  const auto n = std::min<std::size_t>(static_cast<std::size_t>(threads_),
                                       count);
  if (n <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (std::size_t t = 0; t < n; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
}

std::vector<ScenarioResult> SweepRunner::run(
    const std::vector<ScenarioSpec>& specs) const {
  std::vector<ScenarioResult> results(specs.size());
  // No echo stream: concurrent workers must not interleave output.
  // Verdicts travel back inside each ScenarioResult.
  forEach(specs.size(), [&](std::size_t i) {
    results[i] = ScenarioRunner().run(specs[i]);
  });
  return results;
}

}  // namespace mgq::scenario

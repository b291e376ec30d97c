// Outcome gate: decides whether a unit execution failed.
//
// A unit fails on a failed catalog check, a chaos invariant violation, or
// an outcome digest that differs from the expected one. At the default
// seed the expected digests are pinned in a file the benchmark owns; at
// any other seed the first execution of each cycle unit sets them, and
// every later execution of the same unit must repeat it exactly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "unit_runner.hpp"

namespace qosbench {

class OutcomeGate {
 public:
  /// `pinned[i]` is the expected digest of cycle unit i, if known.
  explicit OutcomeGate(std::vector<std::optional<std::uint64_t>> pinned)
      : expected_(std::move(pinned)) {}

  /// Judges one execution of cycle unit `index`. Returns false for a
  /// failed unit and says why in `why`.
  bool judge(std::size_t index, const UnitOutcome& out, std::string& why);

 private:
  std::vector<std::optional<std::uint64_t>> expected_;
};

/// Pinned digests by workload name, each a list indexed by cycle unit.
/// File lines: "<workload> <unit index> <16 hex digits>"; '#' starts a
/// comment. Returns nullopt and sets `error` on a malformed line.
using PinnedDigests = std::map<std::string, std::vector<std::uint64_t>>;
std::optional<PinnedDigests> parsePinnedDigests(const std::string& text,
                                                std::string& error);
std::string formatPinnedDigests(const PinnedDigests& digests,
                                std::uint64_t seed);

}  // namespace qosbench

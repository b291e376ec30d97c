#include "gate.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace qosbench {

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace

bool OutcomeGate::judge(std::size_t index, const UnitOutcome& out,
                        std::string& why) {
  why.clear();
  if (!out.checks_passed) why += "catalog check failed; ";
  if (out.counts.violations > 0) {
    why += std::to_string(out.counts.violations) +
           " chaos invariant violation(s); ";
  }
  if (index >= expected_.size()) expected_.resize(index + 1);
  auto& expected = expected_[index];
  if (!expected) {
    expected = out.digest;
  } else if (*expected != out.digest) {
    why += "outcome digest " + hex(out.digest) + " != expected " +
           hex(*expected) + "; ";
  }
  return why.empty();
}

std::optional<PinnedDigests> parsePinnedDigests(const std::string& text,
                                                std::string& error) {
  PinnedDigests digests;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, digest, extra;
    std::size_t index = 0;
    if (!(fields >> workload >> index >> digest) || (fields >> extra) ||
        digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef") != std::string::npos) {
      error = "line " + std::to_string(line_no) + ": expected '<workload> "
              "<index> <16 hex digits>'";
      return std::nullopt;
    }
    auto& list = digests[workload];
    if (index != list.size()) {
      error = "line " + std::to_string(line_no) + ": unit indices of " +
              workload + " must count up from 0";
      return std::nullopt;
    }
    list.push_back(std::stoull(digest, nullptr, 16));
  }
  return digests;
}

std::string formatPinnedDigests(const PinnedDigests& digests,
                                std::uint64_t seed) {
  std::string out =
      "# Outcome digests (FNV-1a 64 of each unit's outcome text) of every\n"
      "# cycle unit at seed " +
      std::to_string(seed) +
      ". Regenerate with: python3 qosbench/run.py --pin-digests\n";
  for (const auto& [workload, list] : digests) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      out += workload + " " + std::to_string(i) + " " + hex(list[i]) + "\n";
    }
  }
  return out;
}

}  // namespace qosbench

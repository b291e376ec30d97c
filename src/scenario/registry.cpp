#include "scenario/registry.hpp"

#include <utility>

namespace mgq::scenario {
namespace {

template <typename Info>
std::vector<const Info*> listMatching(
    const std::map<std::string, Info>& entries, const std::string& filter) {
  std::vector<const Info*> out;
  for (const auto& [name, info] : entries) {
    if (filter.empty() || name.find(filter) != std::string::npos) {
      out.push_back(&info);
    }
  }
  return out;
}

template <typename Info>
const Info* findIn(const std::map<std::string, Info>& entries,
                   const std::string& name) {
  const auto it = entries.find(name);
  return it == entries.end() ? nullptr : &it->second;
}

}  // namespace

void ScenarioRegistry::add(ScenarioInfo info) {
  auto name = info.name;
  entries_.insert_or_assign(std::move(name), std::move(info));
}

void ScenarioRegistry::addSuite(SuiteInfo info) {
  auto name = info.name;
  suites_.insert_or_assign(std::move(name), std::move(info));
}

const ScenarioInfo* ScenarioRegistry::find(const std::string& name) const {
  return findIn(entries_, name);
}

const SuiteInfo* ScenarioRegistry::findSuite(const std::string& name) const {
  return findIn(suites_, name);
}

std::vector<const ScenarioInfo*> ScenarioRegistry::list(
    const std::string& filter) const {
  return listMatching(entries_, filter);
}

std::vector<const SuiteInfo*> ScenarioRegistry::listSuites(
    const std::string& filter) const {
  return listMatching(suites_, filter);
}

const ScenarioRegistry& ScenarioRegistry::paper() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    registerPaperScenarios(r);
    registerPaperSuites(r);
    return r;
  }();
  return registry;
}

}  // namespace mgq::scenario

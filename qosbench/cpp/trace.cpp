#include "trace.hpp"

#include <cstdio>

namespace qosbench {

std::vector<LayerSelfTime> layerSelfTimes(
    const std::vector<std::vector<Span>>& units) {
  std::vector<LayerSelfTime> layers;
  double bench = 0.0;
  const auto slot = [&](const std::string& name) -> double& {
    for (auto& l : layers) {
      if (l.layer == name) return l.seconds;
    }
    layers.push_back({name, 0.0});
    return layers.back().seconds;
  };
  for (const auto& spans : units) {
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[i] = spans[i].end - spans[i].start;
    }
    for (const auto& s : spans) {
      if (s.parent >= 0) self[s.parent] -= s.end - s.start;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const int parent = spans[i].parent;
      const bool layer = parent >= 0 && spans[parent].parent >= 0;
      if (layer) {
        slot(spans[i].name) += self[i];
      } else {
        bench += self[i];
      }
    }
  }
  layers.push_back({"bench", bench});
  return layers;
}

std::string chromeTraceJson(const std::vector<std::vector<Span>>& units) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[320];
  for (const auto& spans : units) {
    for (const auto& s : spans) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"cat\": \"qosbench\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"unit\": %d, \"parent\": %d}}",
                    first ? "" : ",\n", s.name.c_str(), s.start * 1e6,
                    (s.end - s.start) * 1e6, s.unit, s.parent);
      out += buf;
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace qosbench

// Traced-pass output: per-layer self time and Chrome Trace Event export.
//
// A span's self time is its duration minus the part its child spans
// cover. Layer spans (depth 2: unit -> scenario -> layer) are grouped by
// name; the unit and scenario spans' self time is the benchmark's own
// loop ("bench").
#pragma once

#include <string>
#include <vector>

#include "unit_runner.hpp"

namespace qosbench {

struct LayerSelfTime {
  std::string layer;
  double seconds = 0.0;  // summed over all traced units
};

/// Self time per layer over the traced units' span lists, layers in
/// first-seen order with "bench" last.
std::vector<LayerSelfTime> layerSelfTimes(
    const std::vector<std::vector<Span>>& units);

/// Chrome Trace Event JSON ("X" complete events, microseconds), one event
/// per span, with the unit id and parent span index in "args".
std::string chromeTraceJson(const std::vector<std::vector<Span>>& units);

}  // namespace qosbench

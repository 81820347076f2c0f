#include "models/baselines.hpp"

#include <algorithm>

namespace bwshare::models {

std::vector<double> LinearLogGPModel::penalties(
    const graph::CommGraph& graph) const {
  return std::vector<double>(static_cast<size_t>(graph.size()), 1.0);
}

std::vector<double> KimLeeModel::penalties(
    const graph::CommGraph& graph) const {
  std::vector<double> out(static_cast<size_t>(graph.size()), 1.0);
  for (graph::CommId i = 0; i < graph.size(); ++i) {
    if (graph.is_intra_node(i)) continue;
    const int multiplicity =
        std::max(graph.delta_o(i), graph.delta_i(i));
    out[static_cast<size_t>(i)] = std::max(1, multiplicity);
  }
  return out;
}

}  // namespace bwshare::models

#include "mcf/split.hpp"

#include <algorithm>

namespace netrec::mcf {

double max_splittable_amount(const graph::GraphView& view,
                             const std::vector<Demand>& demands,
                             int split_index, graph::NodeId via,
                             const PathLpOptions& options) {
  PathLp lp(view, demands, options);
  lp.set_max_split(split_index, via);
  const PathLpResult result = lp.solve();
  if (!result.routing.fully_routed) return 0.0;
  const double cap = demands[static_cast<std::size_t>(split_index)].amount;
  return std::clamp(result.objective, 0.0, cap);
}

double max_splittable_amount(
    PathLpSession& session, const graph::GraphView& view,
    const std::vector<PathLpSession::DemandSpec>& demands, int split_index,
    graph::NodeId via) {
  const PathLpResult result =
      session.solve_split(view, demands, split_index, via);
  if (!result.routing.fully_routed) return 0.0;
  const double cap =
      demands[static_cast<std::size_t>(split_index)].demand.amount;
  return std::clamp(result.objective, 0.0, cap);
}

}  // namespace netrec::mcf

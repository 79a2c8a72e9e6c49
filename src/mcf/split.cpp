#include "mcf/split.hpp"

#include <algorithm>

namespace netrec::mcf {

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

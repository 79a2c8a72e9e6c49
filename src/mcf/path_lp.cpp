#include "mcf/path_lp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "graph/dijkstra.hpp"
#include "graph/simple_paths.hpp"
#include "graph/view.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/log.hpp"

namespace netrec::mcf {

namespace {
constexpr double kEps = 1e-9;
}

PathLp::PathLp(const graph::GraphView& view, std::vector<Demand> demands,
               PathLpOptions options)
    : g_(view.graph()),
      view_(view),
      user_demands_(std::move(demands)),
      opt_(options) {}

void PathLp::set_max_routed() {
  mode_ = PathLpMode::kMaxRouted;
  mode_set_ = true;
}

void PathLp::set_min_cost(graph::EdgeWeight objective_edge_cost) {
  mode_ = PathLpMode::kMinCost;
  objective_edge_cost_ = std::move(objective_edge_cost);
  mode_set_ = true;
}

void PathLp::set_max_split(int split_demand_index, graph::NodeId via) {
  mode_ = PathLpMode::kMaxSplit;
  split_demand_ = split_demand_index;
  split_via_ = via;
  mode_set_ = true;
}

void PathLp::add_cost_bound(PathCostBound bound) {
  cost_bounds_.push_back(std::move(bound));
}

PathLpResult PathLp::solve() {
  if (!mode_set_) throw std::logic_error("PathLp: mode not configured");
  if (mode_ == PathLpMode::kMaxSplit &&
      (split_demand_ < 0 ||
       split_demand_ >= static_cast<int>(user_demands_.size()))) {
    throw std::invalid_argument("PathLp: split demand index out of range");
  }
  if (!cost_bounds_.empty() && mode_ != PathLpMode::kMinCost) {
    throw std::logic_error("PathLp: cost bounds require kMinCost mode");
  }

  // Internal demand list: user demands plus, for kMaxSplit, the two halves
  // (s_h*, via) and (via, t_h*) whose rows are coupled to dx.
  std::vector<Demand> demands = user_demands_;
  const int n_user = static_cast<int>(user_demands_.size());
  int half_a = -1;
  int half_b = -1;
  if (mode_ == PathLpMode::kMaxSplit) {
    const Demand& h = user_demands_[static_cast<std::size_t>(split_demand_)];
    half_a = static_cast<int>(demands.size());
    demands.push_back(Demand{h.source, split_via_, h.amount});
    half_b = static_cast<int>(demands.size());
    demands.push_back(Demand{split_via_, h.target, h.amount});
  }
  const int n_demands = static_cast<int>(demands.size());

  // Seeding and every pricing round run Dijkstra on the view's flat CSR
  // arrays.  The view's lengths are the hop metric the seeds use; pricing
  // passes its own per-round length array.  An edge is in the routable
  // network iff it is in the view and carries positive capacity (cached
  // views keep drained edges as arcs).
  const graph::GraphView& view = view_;
  auto edge_usable = [&](graph::EdgeId id) {
    return view.edge_in_view(id) && view.edge_capacity(id) > kEps;
  };

  // --- master model ------------------------------------------------------
  lp::Model model;
  model.goal = lp::Goal::kMinimize;  // all modes posed as minimisation

  // Demand rows first (fixed), capacity rows appended after.
  std::vector<int> demand_row(static_cast<std::size_t>(n_demands), -1);
  std::vector<int> shortfall_var(static_cast<std::size_t>(n_demands), -1);
  for (int h = 0; h < n_demands; ++h) {
    const Demand& d = demands[static_cast<std::size_t>(h)];
    const bool is_half = h >= n_user;
    switch (mode_) {
      case PathLpMode::kMaxRouted:
        demand_row[static_cast<std::size_t>(h)] =
            model.add_constraint(lp::Sense::kLessEqual, d.amount);
        break;
      case PathLpMode::kMinCost:
      case PathLpMode::kMaxSplit: {
        const double rhs = is_half ? 0.0 : d.amount;
        demand_row[static_cast<std::size_t>(h)] =
            model.add_constraint(lp::Sense::kEqual, rhs);
        if (!is_half) {
          // Shortfall keeps the master feasible with an empty column pool.
          const int sv = model.add_variable(0.0, d.amount, opt_.big_m);
          model.set_coefficient(demand_row[static_cast<std::size_t>(h)], sv,
                                1.0);
          shortfall_var[static_cast<std::size_t>(h)] = sv;
        }
        break;
      }
    }
  }

  int dx_var = -1;
  if (mode_ == PathLpMode::kMaxSplit) {
    const Demand& h = user_demands_[static_cast<std::size_t>(split_demand_)];
    dx_var = model.add_variable(0.0, h.amount, -1.0);  // min -dx == max dx
    model.set_coefficient(demand_row[static_cast<std::size_t>(split_demand_)],
                          dx_var, 1.0);
    model.set_coefficient(demand_row[static_cast<std::size_t>(half_a)],
                          dx_var, -1.0);
    model.set_coefficient(demand_row[static_cast<std::size_t>(half_b)],
                          dx_var, -1.0);
  }

  // Optimal-face pinning rows (kMinCost only).
  std::vector<int> bound_row(cost_bounds_.size(), -1);
  for (std::size_t b = 0; b < cost_bounds_.size(); ++b) {
    bound_row[b] =
        model.add_constraint(lp::Sense::kLessEqual, cost_bounds_[b].rhs);
  }

  // Capacity rows: eager on small graphs, lazy (violation-driven) otherwise.
  const bool eager = g_.num_edges() <= opt_.eager_capacity_threshold;
  std::vector<int> capacity_row(g_.num_edges(), -1);
  auto add_capacity_row = [&](graph::EdgeId e) {
    capacity_row[static_cast<std::size_t>(e)] =
        model.add_constraint(lp::Sense::kLessEqual, view.edge_capacity(e));
  };
  if (eager) {
    for (std::size_t e = 0; e < g_.num_edges(); ++e) {
      const auto id = static_cast<graph::EdgeId>(e);
      if (edge_usable(id)) add_capacity_row(id);
    }
  }

  std::vector<ColumnInfo> columns;
  // Column-pool sizing and duplicate detection: the seed pass and every
  // pricing round append columns, so reserve the expected seed volume up
  // front, and refuse a column whose (demand, arc set) already exists —
  // a duplicate is inert in the master (same coefficients, ties broken by
  // lower index) but bloats every subsequent simplex scan.
  const std::size_t expected_columns =
      static_cast<std::size_t>(n_demands) * opt_.seed_paths_per_demand + 16;
  columns.reserve(expected_columns);
  model.reserve(expected_columns + static_cast<std::size_t>(n_demands) + 2,
                static_cast<std::size_t>(n_demands) + cost_bounds_.size() +
                    (eager ? g_.num_edges() : 0) + 2);
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> column_keys;
  auto column_key = [](int demand_index, const graph::Path& p) {
    auto mix = [](std::uint64_t h, std::uint64_t v) {
      return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    };
    std::uint64_t h = mix(0x243f6a8885a308d3ULL,
                          static_cast<std::uint64_t>(demand_index));
    for (graph::EdgeId e : p.edges) {
      h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e)));
    }
    return h;
  };
  auto path_objective_cost = [&](const graph::Path& p) -> double {
    if (mode_ == PathLpMode::kMaxRouted) return -1.0;
    if (mode_ == PathLpMode::kMaxSplit) return 0.0;
    double c = 0.0;
    for (graph::EdgeId e : p.edges) c += objective_edge_cost_(e);
    return c;
  };
  /// Returns false when the column already exists (duplicate skipped).
  auto add_column = [&](int demand_index, graph::Path path) {
    const std::uint64_t key = column_key(demand_index, path);
    auto& bucket = column_keys[key];
    for (std::size_t c : bucket) {
      if (columns[c].demand_index == demand_index &&
          columns[c].path.edges == path.edges) {
        return false;
      }
    }
    bucket.push_back(columns.size());
    ColumnInfo info;
    info.demand_index = demand_index;
    info.var = model.add_variable(0.0, lp::kInfinity,
                                  path_objective_cost(path));
    model.set_coefficient(demand_row[static_cast<std::size_t>(demand_index)],
                          info.var, 1.0);
    for (std::size_t b = 0; b < cost_bounds_.size(); ++b) {
      double c = 0.0;
      for (graph::EdgeId e : path.edges) c += cost_bounds_[b].edge_cost(e);
      if (c != 0.0) model.set_coefficient(bound_row[b], info.var, c);
    }
    // Paths are simple, so each edge appears at most once.
    for (graph::EdgeId e : path.edges) {
      const int row = capacity_row[static_cast<std::size_t>(e)];
      if (row >= 0) model.set_coefficient(row, info.var, 1.0);
    }
    info.path = std::move(path);
    columns.push_back(std::move(info));
    return true;
  };

  // Seed columns: a few successive shortest (by hops) paths per demand.
  // (successive_shortest_paths tracks residuals from the view capacities,
  // so drained arcs are skipped from the first path.)
  for (int h = 0; h < n_demands; ++h) {
    const Demand& d = demands[static_cast<std::size_t>(h)];
    if (d.source == d.target || d.amount <= kEps) continue;
    auto seeds = graph::successive_shortest_paths(
        view, d.source, d.target, d.amount, opt_.seed_paths_per_demand);
    for (auto& p : seeds.paths) add_column(h, std::move(p));
  }

  // --- column generation loop ---------------------------------------------
  lp::Basis basis;
  lp::Solution lp_solution;
  lp::SolveOptions lp_options;
  bool converged = false;

  for (std::size_t round = 0; round < opt_.max_rounds; ++round) {
    lp_solution = lp::solve(model, lp_options, &basis);
    if (lp_solution.status != lp::SolveStatus::kOptimal) {
      NETREC_LOG(kWarn) << "PathLp master returned "
                        << lp::to_string(lp_solution.status);
      break;
    }

    // Lazy capacity rows: activate every violated edge, then re-solve.
    if (!eager) {
      std::vector<double> load(g_.num_edges(), 0.0);
      for (const ColumnInfo& col : columns) {
        const double x = lp_solution.x[static_cast<std::size_t>(col.var)];
        if (x <= kEps) continue;
        for (graph::EdgeId e : col.path.edges) {
          load[static_cast<std::size_t>(e)] += x;
        }
      }
      bool added_row = false;
      for (std::size_t e = 0; e < g_.num_edges(); ++e) {
        const auto id = static_cast<graph::EdgeId>(e);
        if (capacity_row[e] >= 0) continue;
        if (load[e] > view.edge_capacity(id) + opt_.tolerance) {
          add_capacity_row(id);
          for (const ColumnInfo& col : columns) {
            for (graph::EdgeId pe : col.path.edges) {
              if (pe == id) {
                model.set_coefficient(capacity_row[e], col.var, 1.0);
                break;
              }
            }
          }
          added_row = true;
        }
      }
      if (added_row) {
        basis = lp::Basis{};  // row structure changed; cold start
        continue;
      }
    }

    // Pricing: for each demand, shortest path under reduced-cost weights.
    // Capacity duals are <= 0 in minimisation, so -y_e >= 0; kMinCost adds
    // the (nonnegative) objective edge cost and the pinned-bound terms.
    // The weights are fixed for the round, so they are flattened into one
    // per-edge array and every demand's Dijkstra reads flat memory.
    std::vector<double> edge_weight(g_.num_edges(), 0.0);
    for (std::size_t e = 0; e < g_.num_edges(); ++e) {
      const auto id = static_cast<graph::EdgeId>(e);
      if (!edge_usable(id)) continue;
      double w = 0.0;
      const int row = capacity_row[e];
      if (row >= 0) w -= lp_solution.duals[static_cast<std::size_t>(row)];
      if (mode_ == PathLpMode::kMinCost) {
        w += objective_edge_cost_(id);
        for (std::size_t b = 0; b < cost_bounds_.size(); ++b) {
          w -= lp_solution.duals[static_cast<std::size_t>(bound_row[b])] *
               cost_bounds_[b].edge_cost(id);
        }
      }
      edge_weight[e] = std::max(w, 0.0);
    }

    bool added_column = false;
    for (int h = 0; h < n_demands; ++h) {
      const Demand& d = demands[static_cast<std::size_t>(h)];
      if (d.source == d.target || d.amount <= kEps) continue;
      const double y_h =
          lp_solution.duals[static_cast<std::size_t>(
              demand_row[static_cast<std::size_t>(h)])];
      // Improving threshold by mode (see header derivation):
      //   kMaxRouted: dist < 1 + y_h; kMinCost/kMaxSplit: dist < y_h.
      const double threshold =
          (mode_ == PathLpMode::kMaxRouted ? 1.0 + y_h : y_h) -
          opt_.tolerance * 10.0;
      if (threshold <= 0.0) continue;  // no path can improve
      // Drained arcs are skipped.
      auto tree = graph::dijkstra(view, d.source, edge_weight,
                                  view.edge_capacities());
      if (!tree.reached(d.target)) continue;
      if (tree.distance[static_cast<std::size_t>(d.target)] < threshold) {
        auto path = tree.path_to(g_, d.target);
        // A re-derived duplicate proves no new column improves this
        // demand (its reduced cost is already ~0); do not loop on it.
        if (add_column(h, std::move(*path))) added_column = true;
      }
    }
    if (!added_column) {
      converged = true;
      break;
    }
  }

  // --- result extraction ---------------------------------------------------
  PathLpResult result;
  result.converged =
      converged && lp_solution.status == lp::SolveStatus::kOptimal;
  result.shortfall.assign(static_cast<std::size_t>(n_user), 0.0);
  result.routing.routed.assign(static_cast<std::size_t>(n_user), 0.0);
  if (lp_solution.status != lp::SolveStatus::kOptimal) return result;

  // Degenerate demands (self-loops, zero amounts) are trivially satisfied.
  for (int h = 0; h < n_user; ++h) {
    const Demand& d = user_demands_[static_cast<std::size_t>(h)];
    if (d.source == d.target && d.amount > 0.0) {
      result.routing.routed[static_cast<std::size_t>(h)] = d.amount;
      result.routing.total_routed += d.amount;
    }
  }
  for (const ColumnInfo& col : columns) {
    const double x = lp_solution.x[static_cast<std::size_t>(col.var)];
    if (x <= opt_.tolerance) continue;
    if (col.demand_index < n_user) {
      result.routing.routed[static_cast<std::size_t>(col.demand_index)] += x;
      result.routing.total_routed += x;
    }
    PathFlow flow;
    flow.demand_index = col.demand_index;
    flow.path = col.path;
    flow.amount = x;
    result.routing.flows.push_back(std::move(flow));
  }
  double total_shortfall = 0.0;
  for (int h = 0; h < n_user; ++h) {
    const int sv = shortfall_var[static_cast<std::size_t>(h)];
    if (sv >= 0) {
      result.shortfall[static_cast<std::size_t>(h)] =
          lp_solution.x[static_cast<std::size_t>(sv)];
      total_shortfall += result.shortfall[static_cast<std::size_t>(h)];
    }
  }

  switch (mode_) {
    case PathLpMode::kMaxRouted: {
      result.objective = -lp_solution.objective;
      double covered = 0.0;
      for (int h = 0; h < n_user; ++h) {
        covered += std::min(
            result.routing.routed[static_cast<std::size_t>(h)],
            user_demands_[static_cast<std::size_t>(h)].amount);
      }
      result.routing.fully_routed =
          covered >= total_demand(user_demands_) - 1e-6;
      break;
    }
    case PathLpMode::kMinCost:
      result.objective = lp_solution.objective -
                         opt_.big_m * total_shortfall;
      result.routing.fully_routed = total_shortfall <= 1e-6;
      break;
    case PathLpMode::kMaxSplit:
      result.objective =
          dx_var >= 0 ? lp_solution.x[static_cast<std::size_t>(dx_var)] : 0.0;
      result.routing.fully_routed = total_shortfall <= 1e-6;
      break;
  }
  return result;
}

}  // namespace netrec::mcf

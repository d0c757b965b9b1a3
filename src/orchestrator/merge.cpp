#include "orchestrator/merge.hpp"

#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "core/experiment.hpp"

namespace adsec::orch {

namespace {

// Group index preserving first-appearance (canonical) order.
template <typename K>
std::size_t group_of(std::vector<K>& order, std::map<K, std::size_t>& index,
                     const K& key) {
  const auto it = index.find(key);
  if (it != index.end()) return it->second;
  const std::size_t g = order.size();
  order.push_back(key);
  index.emplace(key, g);
  return g;
}

// A group's episodes, concatenated in cell-list order.
using Episodes = std::vector<EpisodeMetrics>;

// The fig5 columns after the group key.
void append_fig5(std::vector<std::string>& row, const Episodes& episodes) {
  RunningStats effort, route_rmse, ref_rmse, ttc;
  int side_collisions = 0;
  for (const EpisodeMetrics& m : episodes) {
    effort.add(m.attack_effort);
    route_rmse.add(m.plan_deviation_rmse);
    if (m.deviation_rmse >= 0.0) ref_rmse.add(m.deviation_rmse);
    if (m.side_collision) {
      ++side_collisions;
      if (m.time_to_collision >= 0.0) ttc.add(m.time_to_collision);
    }
  }
  row.insert(row.end(),
             {std::to_string(episodes.size()), fmt(effort.mean(), 3),
              fmt(route_rmse.mean(), 3),
              ref_rmse.count() > 0 ? fmt(ref_rmse.mean(), 3) : "-",
              std::to_string(side_collisions),
              ttc.count() > 0 ? fmt(ttc.mean(), 2) : "-"});
}

// The fig8 columns after the group key: one per effort window.
void append_fig8(std::vector<std::string>& row, const Episodes& episodes) {
  std::vector<double> efforts;
  std::vector<bool> successes;
  for (const EpisodeMetrics& m : episodes) {
    efforts.push_back(m.attack_effort);
    successes.push_back(m.side_collision);
  }
  const EffortWindowStats s =
      success_by_effort_window(efforts, successes, 0.2, 0.8);
  for (std::size_t b = 0; b < s.window_lo.size(); ++b) {
    row.push_back(fmt_pct(s.success_rate[b], 0) + " (" +
                  std::to_string(s.episodes[b]) + ")");
  }
}

void append_box(std::vector<std::string>& row, const BoxStats& b) {
  for (const double v : {b.min, b.q1, b.median, b.q3, b.max, b.mean}) {
    row.push_back(fmt(v, 2));
  }
}

}  // namespace

MergedTables::MergedTables()
    : fig5({"agent", "scenario", "attacker", "budget", "episodes",
            "mean effort", "route RMSE", "ref-traj RMSE", "side collisions",
            "mean ttc (s)"}),
      fig8({"agent", "scenario", "[0,.2)", "[.2,.4)", "[.4,.6)", "[.6,.8)",
            ".8+"}),
      rewards({"agent", "scenario", "attacker", "budget", "episodes",
               "nominal min", "nominal q1", "nominal median", "nominal q3",
               "nominal max", "nominal mean", "adv min", "adv q1",
               "adv median", "adv q3", "adv max", "adv mean",
               "success rate"}) {}

MergedTables merge_cells(
    const std::vector<Cell>& cells,
    const std::vector<std::optional<CellResult>>& results) {
  using CellGroupKey = std::tuple<std::string, std::string, std::string, double>;
  using AgentKey = std::pair<std::string, std::string>;

  std::vector<CellGroupKey> cell_order;
  std::map<CellGroupKey, std::size_t> cell_index;
  std::vector<Episodes> cell_groups;
  std::vector<AgentKey> agent_order;
  std::map<AgentKey, std::size_t> agent_index;
  std::vector<Episodes> agent_groups;

  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    if (ci >= results.size() || !results[ci].has_value()) continue;
    const Cell& cell = cells[ci];
    const Episodes& episodes = results[ci]->episodes;

    const std::size_t g = group_of(
        cell_order, cell_index,
        CellGroupKey{cell.agent, cell.scenario, cell.attacker, cell.budget});
    if (g == cell_groups.size()) cell_groups.emplace_back();
    cell_groups[g].insert(cell_groups[g].end(), episodes.begin(), episodes.end());

    const std::size_t a =
        group_of(agent_order, agent_index, AgentKey{cell.agent, cell.scenario});
    if (a == agent_groups.size()) agent_groups.emplace_back();
    agent_groups[a].insert(agent_groups[a].end(), episodes.begin(), episodes.end());
  }

  MergedTables out;
  for (std::size_t g = 0; g < cell_order.size(); ++g) {
    const auto& [agent, scenario, attacker, budget] = cell_order[g];
    const Episodes& episodes = cell_groups[g];
    const std::vector<std::string> key{agent, scenario, attacker, fmt(budget, 2)};

    std::vector<std::string> row = key;
    append_fig5(row, episodes);
    out.fig5.add_row(std::move(row));

    const auto nominal = [](const EpisodeMetrics& m) { return m.nominal_reward; };
    const auto adversarial = [](const EpisodeMetrics& m) { return m.adv_reward; };
    const RewardRow& r = out.reward_rows.emplace_back(RewardRow{
        agent, scenario, attacker, budget, static_cast<int>(episodes.size()),
        box_stats(collect(episodes, nominal)),
        box_stats(collect(episodes, adversarial)), success_rate(episodes)});
    row = key;
    row.push_back(std::to_string(r.episodes));
    append_box(row, r.nominal);
    append_box(row, r.adversarial);
    row.push_back(fmt_pct(r.success_rate));
    out.rewards.add_row(std::move(row));
  }
  for (std::size_t a = 0; a < agent_order.size(); ++a) {
    const auto& [agent, scenario] = agent_order[a];
    std::vector<std::string> row{agent, scenario};
    append_fig8(row, agent_groups[a]);
    out.fig8.add_row(std::move(row));
  }
  return out;
}

MergedTables merge_grid(ResultStore& store, const GridSpec& grid) {
  const std::vector<Cell> cells = expand_grid(grid);
  std::vector<std::optional<CellResult>> results;
  results.reserve(cells.size());
  for (const Cell& cell : cells) results.push_back(store.lookup(cell));
  return merge_cells(cells, results);
}

}  // namespace adsec::orch

// Deterministic merger: assembles per-cell results into the fig5, fig8 and
// rewards tables.
//
// Iteration is always in the order of the cell list (canonical grid order
// for a GridSpec), never in execution or commit order, and aggregation uses
// the same accumulation sequence regardless of which cells came from cache
// — so the rendered tables are byte-identical across thread counts,
// crash/resume cycles, and cell permutations. Cells with no stored result
// (failed or skipped) are simply absent from their aggregate, which is the
// graceful-degradation contract: a permanently failing cell costs its own
// rows' coverage, not the grid.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "orchestrator/cell.hpp"
#include "orchestrator/store.hpp"

namespace adsec::orch {

// The reward distributions of one (agent, scenario, attacker, budget)
// group: the numbers behind a rewards table row, for callers that print
// them at another precision (Fig. 6).
struct RewardRow {
  std::string agent;
  std::string scenario;
  std::string attacker;
  double budget{0.0};
  int episodes{0};
  BoxStats nominal;      // cumulative nominal driving reward
  BoxStats adversarial;  // cumulative adversarial reward
  double success_rate{0.0};
};

struct MergedTables {
  Table fig5;  // per (agent, scenario, attacker, budget): effort / RMSE / collisions
  Table fig8;  // per (agent, scenario): success rate by attack-effort window
  Table rewards;  // reward_rows rendered: box stats at 2 decimals
  std::vector<RewardRow> reward_rows;
  MergedTables();
};

// Merge from explicit (cell, result) pairs; `results[i]` may be nullopt
// (cell missing/failed). Order of the input does not matter beyond pairing:
// rows are produced in first-appearance order of `cells`.
[[nodiscard]] MergedTables merge_cells(
    const std::vector<Cell>& cells,
    const std::vector<std::optional<CellResult>>& results);

// Convenience: expand the grid, look every cell up in the store, merge.
[[nodiscard]] MergedTables merge_grid(ResultStore& store, const GridSpec& grid);

}  // namespace adsec::orch

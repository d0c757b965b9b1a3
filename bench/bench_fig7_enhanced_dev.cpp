// Regenerates Fig. 7: trajectory deviation vs attack effort for the four
// enhanced driving agents under camera-based attacks (budgets 0..1.2 step
// 0.1, 10 rounds each).
//
// Paper shape targets: average tracking error ~0.038 (rho=1/11), ~0.027
// (rho=1/2), ~0.02 (sigma=0.4), ~0.017 (sigma=0.2); rho=1/11 shifts the
// successful-attack onset right but has outliers at low effort (forgetting);
// PNN agents have no successes below effort ~0.4 (sigma=0.4) / ~0.6
// (sigma=0.2).
#include <algorithm>

#include "bench_common.hpp"

using namespace adsec;
using namespace adsec::bench;

int main() {
  bench_init("fig7_enhanced_dev");
  set_log_level(LogLevel::Info);
  print_header("Deviation vs effort for the enhanced driving agents",
               "Fig. 7(a)-(d), Sec. VI");
  const int rounds = eval_episodes(10);

  const std::vector<std::string> agents{"finetune:0.0909", "finetune:0.5",
                                        "pnn:0.4", "pnn:0.2"};
  std::vector<orch::Cell> cells;
  for (const std::string& agent : agents) {
    add_effort_sweep(cells, agent, rounds, /*with_reference=*/true);
  }
  const FigureRun run = run_figure(std::move(cells));

  std::printf("-- Fig. 7: enhanced agents under camera attack "
              "(ref-traj RMSE = deviation RMSE) --\n");
  const Table table = with_agent_labels(run.tables.fig5);
  table.print();
  maybe_write_csv(table, "fig7");
  for (const std::string& agent : agents) {
    RunningStats deviation;
    double earliest_success = 1e9;
    for (const EpisodeMetrics& m : run.episodes_of(agent)) {
      deviation.add(m.deviation_rmse);
      if (m.side_collision) earliest_success = std::min(earliest_success, m.attack_effort);
    }
    std::printf("\n%s: average tracking error across all efforts: %.3f\n",
                agent_label(agent).c_str(), deviation.mean());
    if (earliest_success < 1e9) {
      std::printf("earliest successful attack at effort %.2f\n", earliest_success);
    } else {
      std::printf("no successful attacks at any effort\n");
    }
  }
  return 0;
}

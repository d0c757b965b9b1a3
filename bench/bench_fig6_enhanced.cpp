// Regenerates Fig. 6: box plots of the cumulative nominal driving reward for
// the original end-to-end agent and the four enhanced agents
// (pi_adv,rho=1/11, pi_adv,rho=1/2, pi_pnn,sigma=0.2, pi_pnn,sigma=0.4)
// under camera-based attacks with budgets {0, 0.25, 0.5, 0.75, 1}.
//
// Paper shape targets: fine-tuned agents beat pi_ori under attack but lose
// nominal performance at eps in {0, 0.25} (catastrophic forgetting); PNN
// agents keep nominal performance at small budgets and match each other at
// high budgets (same second column).
#include "bench_common.hpp"

using namespace adsec;
using namespace adsec::bench;

int main() {
  bench_init("fig6_enhanced");
  set_log_level(LogLevel::Info);
  print_header("Nominal driving reward of original vs enhanced agents under attack",
               "Fig. 6, Sec. VI");
  const int episodes = eval_episodes(30);

  // Every budget evaluates the same seeds.
  std::vector<orch::Cell> cells;
  for (const char* agent :
       {"e2e", "finetune:0.0909", "finetune:0.5", "pnn:0.2", "pnn:0.4"}) {
    for (double budget : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      cells.push_back(figure_cell(agent, "camera", budget, episodes, kEvalSeedBase));
    }
  }
  const FigureRun run = run_figure(std::move(cells));

  // One row per agent, one "mean [q1,q3]" column per budget.
  Table summary({"agent", "eps=0.00", "eps=0.25", "eps=0.50", "eps=0.75",
                 "eps=1.00"});
  std::vector<std::string> row;
  for (const orch::RewardRow& r : run.tables.reward_rows) {
    if (row.empty()) row.push_back(agent_label(r.agent));
    row.push_back(fmt(r.nominal.mean, 1) + " [" + fmt(r.nominal.q1, 0) + "," +
                  fmt(r.nominal.q3, 0) + "]");
    if (row.size() == 6) summary.add_row(std::exchange(row, {}));
  }
  std::printf("mean nominal reward [q1,q3] per attack budget:\n");
  summary.print();
  maybe_write_csv(summary, "fig6");
  return 0;
}

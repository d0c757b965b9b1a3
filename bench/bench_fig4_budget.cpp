// Regenerates Fig. 4: box plots of (a) cumulative nominal driving reward and
// (b) cumulative adversarial reward across attack budgets, for camera-based
// and IMU-based attacks on the end-to-end driving agent.
//
// Paper shape targets: both attacks strengthen with budget; camera attack
// beats IMU (higher mean adversarial reward, smaller variance); a sharp
// transition between eps = 0.25 and eps = 0.75; camera attack at eps = 1
// cuts the nominal driving reward by roughly 84%.
#include "bench_common.hpp"

using namespace adsec;
using namespace adsec::bench;

int main() {
  bench_init("fig4_budget");
  set_log_level(LogLevel::Info);
  print_header("Attack effect vs attack budget (camera vs IMU)",
               "Fig. 4(a)/(b), Sec. V-A");
  const int episodes = eval_episodes(30);

  // Every budget evaluates the same seeds; the unattacked eps = 0 cell is
  // shared by both attacks.
  std::vector<orch::Cell> cells{
      figure_cell("e2e", "none", 0.0, episodes, kEvalSeedBase)};
  for (const char* attacker : {"camera", "imu"}) {
    for (double budget : {0.25, 0.5, 0.75, 1.0}) {
      cells.push_back(figure_cell("e2e", attacker, budget, episodes, kEvalSeedBase));
    }
  }
  const FigureRun run = run_figure(std::move(cells));

  std::printf("-- Fig. 4(a)/(b) nominal and adversarial reward, e2e agent --\n");
  run.tables.rewards.print();
  maybe_write_csv(run.tables.rewards, "fig4");

  const double unattacked = run.tables.reward_rows.front().nominal.mean;
  for (const orch::RewardRow& r : run.tables.reward_rows) {
    if (r.budget != 1.0 || unattacked <= 1e-9) continue;
    std::printf("\n%s attack at eps=1.00 reduces nominal reward by %s "
                "(paper, camera: ~84%%)\n",
                r.attacker.c_str(),
                fmt_pct(1.0 - r.nominal.mean / unattacked).c_str());
  }
  return 0;
}

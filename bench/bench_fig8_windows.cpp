// Regenerates Fig. 8: attack success rate per attack-effort window (width
// 0.2, from 0.0 to 0.8+) for the nominal end-to-end agent and the four
// enhanced agents, under camera-based attacks.
//
// Paper shape targets: fine-tuned agents show nonzero success rates already
// at small efforts; PNN agents have the lowest success rates in every
// window.
#include "bench_common.hpp"

using namespace adsec;
using namespace adsec::bench;

int main() {
  bench_init("fig8_windows");
  set_log_level(LogLevel::Info);
  print_header("Attack success rate per attack-effort window",
               "Fig. 8, Sec. VI-C");
  const int rounds = eval_episodes(10);

  // Every agent faces the camera attacker trained against pi_ori.
  std::vector<orch::Cell> cells;
  for (const char* agent :
       {"e2e", "finetune:0.0909", "finetune:0.5", "pnn:0.2", "pnn:0.4"}) {
    add_effort_sweep(cells, agent, rounds, /*with_reference=*/false);
  }
  const FigureRun run = run_figure(std::move(cells));

  std::printf("success rate (episodes in window):\n");
  const Table table = with_agent_labels(run.tables.fig8);
  table.print();
  maybe_write_csv(table, "fig8");
  return 0;
}

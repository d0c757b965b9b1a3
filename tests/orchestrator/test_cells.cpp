// Cell lists on the orchestrator: run_cells refuses duplicate keys, keys
// tell apart budgets that print alike, and a figure-shaped cell list stores
// exactly what the serial episode loops compute, for any worker count.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "attack/scripted_attacker.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/zoo.hpp"
#include "episode_eq.hpp"
#include "orchestrator/dag.hpp"
#include "orchestrator/merge.hpp"

namespace adsec::orch {
namespace {

void expect_box_eq(const BoxStats& a, const BoxStats& b) {
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.q1, b.q1);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.q3, b.q3);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.n, b.n);
}

Cell modular_cell(const std::string& attacker, double budget, int episodes,
                  std::uint64_t seed, bool with_reference = false) {
  Cell c;
  c.agent = "modular";
  c.attacker = attacker;
  c.scenario = "paper";
  c.budget = budget;
  c.episodes = episodes;
  c.seed = seed;
  c.with_reference = with_reference;
  return c;
}

// What the serial loops of the figure benches computed for a cell: one
// agent and attacker built by hand, run_batch over the cell's seeds.
std::vector<EpisodeMetrics> serial_oracle(PolicyZoo& zoo, const Cell& cell) {
  const ExperimentConfig& cfg = zoo.experiment();
  auto agent = zoo.make_modular_agent();
  std::unique_ptr<Attacker> attacker;
  if (cell.attacker == "oracle") {
    attacker = std::make_unique<ScriptedAttacker>(cell.budget, cfg.adv_reward);
  } else if (cell.attacker == "noise") {
    attacker = std::make_unique<NoiseAttacker>(cell.budget);
  } else if (cell.attacker == "imu") {
    attacker = zoo.make_imu_attacker(cell.budget);
  }
  return run_batch(*agent, attacker.get(), cfg, cell.episodes, cell.seed,
                   cell.with_reference);
}

class OrchCellsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/adsec_cells_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    saved_scale_ = runtime_config().train_scale;
    runtime_config().train_scale = 0.0;
  }
  void TearDown() override {
    runtime_config().train_scale = saved_scale_;
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
  double saved_scale_{1.0};
};

TEST_F(OrchCellsTest, DuplicateCellsAreRejectedBeforeAnyWork) {
  PolicyZoo zoo(dir_ + "/zoo");
  ResultStore store(dir_ + "/store");
  const Cell cell = modular_cell("oracle", 0.5, 1, 700000);
  try {
    std::ignore = run_cells(store, zoo, {cell, modular_cell("noise", 0.5, 1, 700000), cell});
    FAIL() << "expected Error{Usage}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Usage);
  }
  // A grid that lists one budget twice expands to two equal cells.
  GridSpec grid;
  grid.attackers = {"oracle"};
  grid.budgets = {0.5, 0.5};
  try {
    std::ignore = run_grid(store, zoo, grid);
    FAIL() << "expected Error{Usage}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Usage);
  }
  EXPECT_EQ(store.finished_cells(), 0u);
}

TEST_F(OrchCellsTest, BudgetsThatPrintAlikeGetTheirOwnCells) {
  PolicyZoo zoo(dir_ + "/zoo");
  ResultStore store(dir_ + "/store");
  const Cell a = modular_cell("oracle", 0.5, 2, 4242);
  const Cell b = modular_cell("oracle", 0.5000001, 2, 4242);
  EXPECT_NE(cell_key(a).value, cell_key(b).value);

  ASSERT_TRUE(run_cells(store, zoo, {a}).complete());
  EXPECT_FALSE(store.lookup(b).has_value());
  const GridReport report = run_cells(store, zoo, {a, b});
  EXPECT_EQ(report.cells_cached, 1);
  EXPECT_EQ(report.cells_computed, 1);

  const std::vector<EpisodeMetrics> oracle_a = serial_oracle(zoo, a);
  const std::vector<EpisodeMetrics> oracle_b = serial_oracle(zoo, b);
  // The two budgets must give different episodes, or the test could not
  // tell a result served under the wrong key from the right one.
  ASSERT_NE(oracle_a[0].attack_effort, oracle_b[0].attack_effort);
  for (const auto& [cell, oracle] : {std::pair{a, oracle_a}, std::pair{b, oracle_b}}) {
    const auto stored = store.lookup(cell);
    ASSERT_TRUE(stored.has_value());
    ASSERT_EQ(stored->episodes.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      expect_episode_eq(stored->episodes[i], oracle[i]);
    }
  }
}

// The shape of the figure benches' cell lists: per-budget seeds, the
// unattacked budget 0 as attacker "none", with and without reference
// rollouts. Stored episodes and the rewards rows must equal the serial
// loops' at 1 and at 4 workers. The imu attacker's sensor noise carries
// over between episodes on one instance, so its cells match only if each
// cell runs its episodes in order on one attacker.
TEST_F(OrchCellsTest, FigureCellsMatchTheSerialOracle) {
  PolicyZoo zoo(dir_ + "/zoo");
  std::vector<Cell> cells;
  for (const bool with_reference : {false, true}) {
    cells.push_back(modular_cell("none", 0.0, 2, 700000, with_reference));
    for (const char* attacker : {"oracle", "noise", "imu"}) {
      for (int bi = 1; bi <= 3; ++bi) {
        cells.push_back(modular_cell(attacker, bi * 0.3, 2,
                                     700000 + 1000 * static_cast<std::uint64_t>(bi),
                                     with_reference));
      }
    }
  }
  std::vector<std::vector<EpisodeMetrics>> oracle;
  for (const Cell& cell : cells) oracle.push_back(serial_oracle(zoo, cell));

  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    ResultStore store(dir_ + "/store" + std::to_string(jobs));
    GridOptions options;
    options.jobs = jobs;
    ASSERT_TRUE(run_cells(store, zoo, cells, options).complete());

    std::vector<std::optional<CellResult>> results;
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      results.push_back(store.lookup(cells[ci]));
      ASSERT_TRUE(results.back().has_value()) << canonical_config(cells[ci]);
      ASSERT_EQ(results.back()->episodes.size(), oracle[ci].size());
      for (std::size_t i = 0; i < oracle[ci].size(); ++i) {
        expect_episode_eq(results.back()->episodes[i], oracle[ci][i]);
      }
    }

    // Each half of the list (without, then with reference) merges on its
    // own, so every rewards row holds exactly one cell's episodes.
    const std::size_t half = cells.size() / 2;
    for (const std::size_t begin : {std::size_t{0}, half}) {
      const std::vector<Cell> part(cells.begin() + begin, cells.begin() + begin + half);
      const std::vector<std::optional<CellResult>> part_results(
          results.begin() + begin, results.begin() + begin + half);
      const MergedTables merged = merge_cells(part, part_results);
      ASSERT_EQ(merged.reward_rows.size(), half);
      ASSERT_EQ(merged.rewards.rows(), static_cast<int>(half));
      for (std::size_t g = 0; g < half; ++g) {
        const std::vector<EpisodeMetrics>& episodes = oracle[begin + g];
        const RewardRow& row = merged.reward_rows[g];
        EXPECT_EQ(row.attacker, part[g].attacker);
        EXPECT_EQ(row.budget, part[g].budget);
        EXPECT_EQ(row.episodes, static_cast<int>(episodes.size()));
        const BoxStats nominal = box_stats(
            collect(episodes, [](const EpisodeMetrics& m) { return m.nominal_reward; }));
        const BoxStats adversarial = box_stats(
            collect(episodes, [](const EpisodeMetrics& m) { return m.adv_reward; }));
        expect_box_eq(row.nominal, nominal);
        expect_box_eq(row.adversarial, adversarial);
        EXPECT_EQ(row.success_rate, success_rate(episodes));

        const std::vector<std::string>& printed = merged.rewards.row_data()[g];
        EXPECT_EQ(printed[5], fmt(nominal.min, 2));
        EXPECT_EQ(printed[10], fmt(nominal.mean, 2));
        EXPECT_EQ(printed[11], fmt(adversarial.min, 2));
        EXPECT_EQ(printed[16], fmt(adversarial.mean, 2));
        EXPECT_EQ(printed[17], fmt_pct(success_rate(episodes)));
      }
    }
  }
}

}  // namespace
}  // namespace adsec::orch

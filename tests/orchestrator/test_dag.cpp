// Job DAG runner: grid execution against the store, the retry envelope
// (transient vs permanent classification, bounded backoff), per-job
// deadlines, and graceful degradation — a failing cell never takes the
// grid down with it.
#include "orchestrator/dag.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "core/zoo.hpp"
#include "orchestrator/merge.hpp"
#include "telemetry/metrics.hpp"

namespace adsec::orch {
namespace {

std::uint64_t counter_value(const char* name) {
  for (const auto& [n, v] : telemetry::metrics_snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

GridSpec small_grid() {
  GridSpec grid;
  grid.agents = {"modular"};
  grid.attackers = {"none", "noise"};
  grid.budgets = {0.8};
  grid.episodes = 1;
  grid.seeds = 2;
  return grid;  // 4 cells: none x 2 seeds, noise@0.8 x 2 seeds
}

class OrchDagTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/adsec_dag_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    saved_scale_ = runtime_config().train_scale;
    runtime_config().train_scale = 0.0;
    metrics_were_enabled_ = telemetry::metrics_enabled();
    telemetry::set_metrics_enabled(true);
    telemetry::reset_metrics_values();
  }
  void TearDown() override {
    fault_injector().reset();
    telemetry::set_metrics_enabled(metrics_were_enabled_);
    runtime_config().train_scale = saved_scale_;
    std::filesystem::remove_all(dir_ + "_store");
    std::filesystem::remove_all(dir_ + "_zoo");
    std::filesystem::remove_all(dir_);
  }
  ResultStore make_store() { return ResultStore(dir_ + "_store"); }
  PolicyZoo make_zoo() { return PolicyZoo(dir_ + "_zoo"); }
  std::string dir_;
  double saved_scale_{1.0};
  bool metrics_were_enabled_{false};
};

TEST_F(OrchDagTest, ComputesEveryCellAndCommitsAsItGoes) {
  ResultStore store = make_store();
  PolicyZoo zoo = make_zoo();
  GridOptions opts;
  opts.jobs = 2;
  const GridReport report = run_grid(store, zoo, small_grid(), opts);

  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.cells_total, 4);
  EXPECT_EQ(report.cells_cached, 0);
  EXPECT_EQ(report.cells_computed, 4);
  EXPECT_EQ(report.cells_failed, 0);
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(store.finished_cells(), 4u);
  EXPECT_EQ(counter_value("orch.cells_computed"), 4u);
  EXPECT_EQ(counter_value("runtime.episodes"), 4u);  // 4 cells x 1 episode
}

TEST_F(OrchDagTest, SecondRunServesEverythingFromTheStore) {
  ResultStore store = make_store();
  PolicyZoo zoo = make_zoo();
  std::ignore = run_grid(store, zoo, small_grid());
  telemetry::reset_metrics_values();

  const GridReport resumed = run_grid(store, zoo, small_grid());
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.cells_cached, 4);
  EXPECT_EQ(resumed.cells_computed, 0);
  EXPECT_EQ(counter_value("orch.cells_computed"), 0u);
  EXPECT_EQ(counter_value("orch.cells_cached"), 4u);
  EXPECT_EQ(counter_value("runtime.episodes"), 0u);
}

TEST_F(OrchDagTest, InvalidNamesFailUpfrontWithConfig) {
  ResultStore store = make_store();
  PolicyZoo zoo = make_zoo();
  GridSpec grid = small_grid();
  // An agent parameter is a finite number without padding, inf/nan or hex
  // floats.
  for (const char* agent : {"warp-drive", "pnn: 0.2", "pnn:0.2 ", "pnn:inf",
                            "pnn:nan", "pnn:0x1p-2", "pnn:", "finetune:0.5x"}) {
    grid.agents = {agent};
    try {
      std::ignore = run_grid(store, zoo, grid);
      ADD_FAILURE() << "accepted agent: " << agent;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Config) << agent;
    }
  }
  // Nothing ran, nothing committed.
  EXPECT_EQ(store.finished_cells(), 0u);
}

TEST_F(OrchDagTest, TransientFaultIsRetriedToSuccess) {
  ResultStore store = make_store();
  PolicyZoo zoo = make_zoo();
  // First job body invocation takes an injected I/O error; the retry runs
  // with the plan exhausted and succeeds. The grid must end complete.
  fault_injector().arm("orch.job", FaultKind::FailWrite, /*fire_at=*/1,
                       /*repeat=*/1);
  GridOptions opts;
  opts.jobs = 1;
  const GridReport report = run_grid(store, zoo, small_grid(), opts);

  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.cells_computed, 4);
  EXPECT_EQ(counter_value("orch.job_retries"), 1u);
}

TEST_F(OrchDagTest, ExhaustedRetriesFailTheJobWithItsErrorClass) {
  ResultStore store = make_store();
  PolicyZoo zoo = make_zoo();
  // Every body invocation fails: retries exhaust, the first job (a train
  // job) goes Failed and poisons its dependents as Skipped.
  fault_injector().arm("orch.job", FaultKind::FailWrite, /*fire_at=*/1,
                       /*repeat=*/0);
  GridOptions opts;
  opts.jobs = 1;
  const GridReport report = run_grid(store, zoo, small_grid(), opts);

  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.cells_failed, 4);
  EXPECT_EQ(report.cells_computed, 0);
  ASSERT_FALSE(report.failures.empty());
  const JobOutcome& first = report.failures.front();
  EXPECT_EQ(first.state, JobState::Failed);
  EXPECT_EQ(first.error_class, "io");
  EXPECT_EQ(first.retries, kMaxJobRetries);
  for (std::size_t i = 1; i < report.failures.size(); ++i) {
    EXPECT_EQ(report.failures[i].state, JobState::Skipped);
    EXPECT_EQ(report.failures[i].error_class, "skipped_dependency");
  }
  EXPECT_EQ(store.finished_cells(), 0u);
}

// The acceptance scenario: one permanently failing cell, everything else
// completes and commits; the report names the casualty with its error
// class and retry count.
TEST_F(OrchDagTest, OnePermanentlyFailingCellDegradesGracefully) {
  ResultStore store = make_store();
  PolicyZoo zoo = make_zoo();
  // "experiment.episode" fires inside run_episode — eval jobs only, after
  // both train jobs are done. One eval job eats the whole window
  // (kMaxJobRetries+1 attempts x 1 episode); the other three never see it.
  fault_injector().arm("experiment.episode", FaultKind::Throw, /*fire_at=*/1,
                       /*repeat=*/kMaxJobRetries + 1);
  GridOptions opts;
  opts.jobs = 1;  // serial: the armed window cannot straddle two jobs
  const GridReport report = run_grid(store, zoo, small_grid(), opts);

  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.cells_failed, 1);
  EXPECT_EQ(report.cells_computed, 3);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].state, JobState::Failed);
  EXPECT_EQ(report.failures[0].error_class, "internal");
  EXPECT_EQ(report.failures[0].retries, kMaxJobRetries);
  EXPECT_EQ(report.failures[0].name.rfind("eval:", 0), 0u) << report.failures[0].name;
  EXPECT_EQ(store.finished_cells(), 3u);

  // The merged tables cover what finished — graceful degradation, not an
  // empty report.
  const MergedTables tables = merge_grid(store, small_grid());
  EXPECT_GE(tables.fig5.rows(), 1);
}

TEST_F(OrchDagTest, WatchdogTimesOutAWedgedJob) {
  ResultStore store = make_store();
  PolicyZoo zoo = make_zoo();
  // First job body stalls well past the deadline; the watchdog marks it
  // TimedOut and skips its dependents while the grid returns.
  fault_injector().arm("orch.job", FaultKind::Delay, /*fire_at=*/1,
                       /*repeat=*/1, /*param=*/300);
  GridOptions opts;
  opts.jobs = 1;
  opts.deadline_ms = 30;
  const GridReport report = run_grid(store, zoo, small_grid(), opts);

  EXPECT_FALSE(report.complete());
  ASSERT_FALSE(report.failures.empty());
  EXPECT_EQ(report.failures.front().state, JobState::TimedOut);
  EXPECT_EQ(report.failures.front().error_class, "deadline");
  EXPECT_EQ(counter_value("orch.job_timeouts"), 1u);
}

TEST_F(OrchDagTest, ParallelAndSerialRunsCommitIdenticalTables) {
  GridSpec grid = small_grid();
  PolicyZoo zoo = make_zoo();
  ResultStore serial(dir_ + "_store");
  GridOptions one;
  one.jobs = 1;
  std::ignore = run_grid(serial, zoo, grid, one);

  ResultStore parallel(dir_ + "_zoo" + "par");  // distinct dir
  GridOptions four;
  four.jobs = 4;
  std::ignore = run_grid(parallel, zoo, grid, four);

  EXPECT_EQ(merge_grid(serial, grid).fig5.to_csv(),
            merge_grid(parallel, grid).fig5.to_csv());
  EXPECT_EQ(merge_grid(serial, grid).fig8.to_csv(),
            merge_grid(parallel, grid).fig8.to_csv());
  std::filesystem::remove_all(dir_ + "_zoo" + "par");
}

TEST(GridSpecParse, RejectsPartialOutOfRangeAndNonFiniteValues) {
  const GridSpec ok =
      parse_grid_spec("agents=modular;budgets=0.5,1;episodes=3;seed=42");
  EXPECT_EQ(ok.budgets, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(ok.episodes, 3);
  EXPECT_EQ(ok.seed_base, 42u);
  // 4294967297 used to wrap to 1 episode; "3x" read as 3.
  for (const char* bad :
       {"agents=modular;episodes=4294967297", "agents=modular;episodes=3x",
        "agents=modular;budgets=nan", "agents=modular;budgets=0.5,inf",
        "agents=modular;seed=-1"}) {
    try {
      std::ignore = parse_grid_spec(bad);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Usage) << bad;
    }
  }
}

}  // namespace
}  // namespace adsec::orch

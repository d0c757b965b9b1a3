// Content-addressed result store: durable round-trips, corrupt-entry
// detection and recovery, and manifest rebuild from self-validating cell
// files.
#include "orchestrator/store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "episode_eq.hpp"
#include "orchestrator/cell.hpp"
#include "telemetry/metrics.hpp"

namespace adsec::orch {
namespace {

std::uint64_t counter_value(const char* name) {
  for (const auto& [n, v] : telemetry::metrics_snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

// Synthetic episode with every field populated distinctively so the
// bit-exact round-trip assertions cover the whole record.
EpisodeMetrics synth_episode(int i) {
  EpisodeMetrics m;
  m.steps = 100 + i;
  m.passed_npcs = 3 + i;
  if (i % 2 == 0) {
    m.collision = CollisionEvent{CollisionType::Side, 1 + i, 50 + i};
    m.side_collision = true;
    m.time_to_collision = 1.25 + 0.5 * i;
  }
  m.nominal_reward = 3.5 * i + 0.125;
  m.adv_reward = -1.0 / (1.0 + i);
  m.attack_effort = 0.3 + 0.01 * i;
  m.total_injected = 12.0 + i;
  m.deviation_rmse = i % 3 == 0 ? -1.0 : 0.4 + 0.001 * i;
  m.plan_deviation_rmse = 0.2 + 0.002 * i;
  return m;
}

CellResult synth_result(int episodes) {
  CellResult r;
  for (int i = 0; i < episodes; ++i) r.episodes.push_back(synth_episode(i));
  return r;
}

Cell synth_cell(const std::string& attacker = "noise", double budget = 0.8) {
  Cell c;
  c.agent = "modular";
  c.attacker = attacker;
  c.scenario = "paper";
  c.budget = budget;
  c.episodes = 3;
  c.seed = 700000;
  return c;
}

class OrchStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/adsec_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    metrics_were_enabled_ = telemetry::metrics_enabled();
    telemetry::set_metrics_enabled(true);
    telemetry::reset_metrics_values();
  }
  void TearDown() override {
    fault_injector().reset();
    telemetry::set_metrics_enabled(metrics_were_enabled_);
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
  bool metrics_were_enabled_{false};
};

TEST_F(OrchStoreTest, RoundTripsACellBitExactly) {
  ResultStore store(dir_);
  const Cell cell = synth_cell();
  const CellResult written = synth_result(4);
  store.put(cell, written);
  EXPECT_EQ(store.finished_cells(), 1u);

  const auto read = store.lookup(cell);
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->episodes.size(), written.episodes.size());
  for (std::size_t i = 0; i < written.episodes.size(); ++i) {
    expect_episode_eq(written.episodes[i], read->episodes[i]);
  }
  EXPECT_EQ(counter_value("orch.store_hit"), 1u);
  EXPECT_EQ(counter_value("orch.cells_committed"), 1u);
}

TEST_F(OrchStoreTest, UnknownCellIsAMiss) {
  ResultStore store(dir_);
  store.put(synth_cell("noise"), synth_result(1));
  EXPECT_FALSE(store.lookup(synth_cell("oracle")).has_value());
  EXPECT_EQ(counter_value("orch.store_miss"), 1u);
}

TEST_F(OrchStoreTest, KeyCoversEveryResultDeterminingField) {
  const Cell base = synth_cell();
  std::vector<Cell> variants(7, base);
  variants[0].agent = "e2e";
  variants[1].attacker = "oracle";
  variants[2].scenario = "dense";
  variants[3].budget = 0.5;
  variants[4].episodes = 9;
  variants[5].seed = 701000;
  variants[6].with_reference = true;
  for (const Cell& changed : variants) {
    EXPECT_NE(cell_key(changed).value, cell_key(base).value)
        << canonical_config(changed);
  }
  // The format version is part of the preimage: bumping it invalidates
  // every existing entry by construction.
  EXPECT_NE(canonical_config(base).find(
                "format=" + std::to_string(kOrchFormatVersion)),
            std::string::npos);
}

TEST_F(OrchStoreTest, CorruptCellIsDroppedAndRecomputable) {
  const Cell cell = synth_cell();
  std::string cell_file;
  {
    ResultStore store(dir_);
    store.put(cell, synth_result(2));
  }
  for (const auto& de :
       std::filesystem::directory_iterator(dir_ + "/cells")) {
    cell_file = de.path().string();
  }
  ASSERT_FALSE(cell_file.empty());
  // Flip one payload byte behind the CRC's back.
  {
    std::fstream f(cell_file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(32);
    f.put('\x7f');
  }

  ResultStore store(dir_);
  EXPECT_FALSE(store.lookup(cell).has_value());
  EXPECT_GE(counter_value("orch.store_corrupt"), 1u);
  // The poisoned entry is gone: a fresh result commits and reads back.
  EXPECT_FALSE(std::filesystem::exists(cell_file));
  store.put(cell, synth_result(2));
  EXPECT_TRUE(store.lookup(cell).has_value());
}

TEST_F(OrchStoreTest, TruncatedCellIsDetected) {
  const Cell cell = synth_cell();
  std::string cell_file;
  {
    ResultStore store(dir_);
    store.put(cell, synth_result(3));
  }
  for (const auto& de :
       std::filesystem::directory_iterator(dir_ + "/cells")) {
    cell_file = de.path().string();
  }
  std::filesystem::resize_file(cell_file,
                               std::filesystem::file_size(cell_file) / 2);

  ResultStore store(dir_);
  EXPECT_FALSE(store.lookup(cell).has_value());
  EXPECT_GE(counter_value("orch.store_corrupt"), 1u);
}

TEST_F(OrchStoreTest, ManifestLossCostsAScanNeverARecompute) {
  const Cell a = synth_cell("noise", 0.8);
  const Cell b = synth_cell("oracle", 1.0);
  {
    ResultStore store(dir_);
    store.put(a, synth_result(2));
    store.put(b, synth_result(1));
  }
  std::filesystem::remove(dir_ + "/MANIFEST");

  ResultStore rebuilt(dir_);
  EXPECT_EQ(rebuilt.finished_cells(), 2u);
  EXPECT_TRUE(rebuilt.lookup(a).has_value());
  EXPECT_TRUE(rebuilt.lookup(b).has_value());
}

TEST_F(OrchStoreTest, CorruptManifestIsRebuiltFromCells) {
  const Cell cell = synth_cell();
  {
    ResultStore store(dir_);
    store.put(cell, synth_result(2));
  }
  {
    std::ofstream f(dir_ + "/MANIFEST", std::ios::binary | std::ios::trunc);
    f << "not a checked container";
  }

  ResultStore rebuilt(dir_);
  EXPECT_GE(counter_value("orch.manifest_rebuild"), 1u);
  EXPECT_TRUE(rebuilt.lookup(cell).has_value());
}

TEST_F(OrchStoreTest, InjectedManifestWriteFaultSurfacesAsError) {
  ResultStore store(dir_);
  fault_injector().arm("orch.manifest", FaultKind::FailWrite);
  EXPECT_THROW(store.put(synth_cell(), synth_result(1)), Error);
  fault_injector().reset();
  // The failed commit did not poison the store: a retry lands cleanly.
  store.put(synth_cell(), synth_result(1));
  EXPECT_TRUE(store.lookup(synth_cell()).has_value());
}

}  // namespace
}  // namespace adsec::orch

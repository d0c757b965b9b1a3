#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>

namespace adsec {
namespace {

// These tests mutate the process-wide singleton; restore defaults after.
class ConfigTest : public ::testing::Test {
 protected:
  void TearDown() override {
    runtime_config() = RuntimeConfig{};
  }
};

TEST_F(ConfigTest, ScaledStepsAppliesMultiplier) {
  runtime_config().train_scale = 0.5;
  EXPECT_EQ(scaled_steps(1000), 500);
  runtime_config().train_scale = 2.0;
  EXPECT_EQ(scaled_steps(1000), 2000);
  // Beyond int's range the count saturates instead of wrapping to the floor.
  runtime_config().train_scale = 1e300;
  EXPECT_EQ(scaled_steps(1000), std::numeric_limits<int>::max());
}

TEST_F(ConfigTest, ScaledStepsHonoursFloor) {
  runtime_config().train_scale = 0.001;
  EXPECT_EQ(scaled_steps(1000, 50), 50);
}

TEST_F(ConfigTest, EvalEpisodesOverride) {
  EXPECT_EQ(eval_episodes(30), 30);
  runtime_config().episodes_override = 5;
  EXPECT_EQ(eval_episodes(30), 5);
}

TEST_F(ConfigTest, FromEnvParsesValues) {
  ::setenv("ADSEC_ZOO_DIR", "/tmp/some-zoo", 1);
  ::setenv("ADSEC_TRAIN_SCALE", "0.25", 1);
  ::setenv("ADSEC_EPISODES", "12", 1);
  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.zoo_dir, "/tmp/some-zoo");
  EXPECT_DOUBLE_EQ(cfg.train_scale, 0.25);
  ASSERT_TRUE(cfg.episodes_override.has_value());
  EXPECT_EQ(*cfg.episodes_override, 12);
  ::unsetenv("ADSEC_ZOO_DIR");
  ::unsetenv("ADSEC_TRAIN_SCALE");
  ::unsetenv("ADSEC_EPISODES");
}

TEST_F(ConfigTest, FromEnvIgnoresGarbage) {
  const std::pair<const char*, const char*> cases[] = {
      {"not-a-number", "xyz"}, {"inf", "3x"}, {"0.5x", "3x"}};
  for (const auto& [scale, episodes] : cases) {
    ::setenv("ADSEC_TRAIN_SCALE", scale, 1);
    ::setenv("ADSEC_EPISODES", episodes, 1);
    const RuntimeConfig cfg = RuntimeConfig::from_env();
    EXPECT_DOUBLE_EQ(cfg.train_scale, 1.0) << scale;
    EXPECT_FALSE(cfg.episodes_override.has_value()) << episodes;
  }
  ::unsetenv("ADSEC_TRAIN_SCALE");
  ::unsetenv("ADSEC_EPISODES");
}

TEST_F(ConfigTest, NegativeScaleClampedToZeroThenFloor) {
  ::setenv("ADSEC_TRAIN_SCALE", "-3", 1);
  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_DOUBLE_EQ(cfg.train_scale, 0.0);
  ::unsetenv("ADSEC_TRAIN_SCALE");
  runtime_config().train_scale = 0.0;
  EXPECT_EQ(scaled_steps(1000, 7), 7);
}

TEST_F(ConfigTest, EmptyEnvValueIsTreatedAsUnset) {
  ::setenv("ADSEC_ZOO_DIR", "", 1);
  ::setenv("ADSEC_TRAIN_SCALE", "", 1);
  ::setenv("ADSEC_EPISODES", "", 1);
  ::setenv("ADSEC_CKPT_EVERY", "", 1);
  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.zoo_dir, "zoo");
  EXPECT_DOUBLE_EQ(cfg.train_scale, 1.0);
  EXPECT_FALSE(cfg.episodes_override.has_value());
  EXPECT_EQ(cfg.checkpoint_every, 0);
  ::unsetenv("ADSEC_ZOO_DIR");
  ::unsetenv("ADSEC_TRAIN_SCALE");
  ::unsetenv("ADSEC_EPISODES");
  ::unsetenv("ADSEC_CKPT_EVERY");
}

TEST_F(ConfigTest, OverflowingNumericValuesAreIgnoredNotCrashes) {
  // std::stoi / std::stod throw out_of_range on the first set and "inf"
  // parses to a non-finite scale; from_env must keep the defaults, same as
  // for non-numeric garbage.
  for (const char* scale : {"1e999999", "inf"}) {
    ::setenv("ADSEC_EPISODES", "99999999999999999999", 1);
    ::setenv("ADSEC_CKPT_EVERY", "99999999999999999999", 1);
    ::setenv("ADSEC_TRAIN_SCALE", scale, 1);
    const RuntimeConfig cfg = RuntimeConfig::from_env();
    EXPECT_FALSE(cfg.episodes_override.has_value());
    EXPECT_EQ(cfg.checkpoint_every, 0);
    EXPECT_DOUBLE_EQ(cfg.train_scale, 1.0) << scale;
  }
  ::unsetenv("ADSEC_EPISODES");
  ::unsetenv("ADSEC_CKPT_EVERY");
  ::unsetenv("ADSEC_TRAIN_SCALE");
}

TEST_F(ConfigTest, OverlongZooDirIsPreservedVerbatim) {
  const std::string longdir = "/tmp/" + std::string(4096, 'z');
  ::setenv("ADSEC_ZOO_DIR", longdir.c_str(), 1);
  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.zoo_dir, longdir);
  ::unsetenv("ADSEC_ZOO_DIR");
}

TEST_F(ConfigTest, NonPositiveEpisodesClampToOne) {
  ::setenv("ADSEC_EPISODES", "0", 1);
  RuntimeConfig cfg = RuntimeConfig::from_env();
  ASSERT_TRUE(cfg.episodes_override.has_value());
  EXPECT_EQ(*cfg.episodes_override, 1);
  ::setenv("ADSEC_EPISODES", "-4", 1);
  cfg = RuntimeConfig::from_env();
  ASSERT_TRUE(cfg.episodes_override.has_value());
  EXPECT_EQ(*cfg.episodes_override, 1);
  ::unsetenv("ADSEC_EPISODES");
}

TEST_F(ConfigTest, NegativeCheckpointIntervalClampsToDisabled) {
  ::setenv("ADSEC_CKPT_EVERY", "-50", 1);
  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.checkpoint_every, 0);
  ::unsetenv("ADSEC_CKPT_EVERY");
}

TEST_F(ConfigTest, NumericPrefixIsIgnored) {
  // A value must be one whole number: "12abc" is garbage, not 12.
  ::setenv("ADSEC_EPISODES", "12abc", 1);
  ::setenv("ADSEC_CKPT_EVERY", "100steps", 1);
  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_FALSE(cfg.episodes_override.has_value());
  EXPECT_EQ(cfg.checkpoint_every, 0);
  ::unsetenv("ADSEC_EPISODES");
  ::unsetenv("ADSEC_CKPT_EVERY");
}

TEST(StrictParse, AcceptsOnlyWholeFiniteInRangeNumbers) {
  double d = -1.0;
  EXPECT_TRUE(parse_double("0.25", d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  for (const char* bad : {"", " 1", "0.5x", "inf", "-inf", "nan", "1e999"}) {
    EXPECT_FALSE(parse_double(bad, d)) << bad;
  }
  EXPECT_DOUBLE_EQ(d, 0.25);  // untouched on failure

  int n = -1;
  EXPECT_TRUE(parse_int("-4", -10, n));
  EXPECT_EQ(n, -4);
  for (const char* bad : {"", " 3", "3x", "1.5", "-11", "1000000001"}) {
    EXPECT_FALSE(parse_int(bad, -10, n)) << bad;
  }
  EXPECT_EQ(n, -4);

  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "-1", " -1", "7x", "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(bad, u)) << bad;
  }
}

TEST_F(ConfigTest, ScaledStepsTruncatesTowardZero) {
  runtime_config().train_scale = 0.5;
  EXPECT_EQ(scaled_steps(999), 499);
}

}  // namespace
}  // namespace adsec

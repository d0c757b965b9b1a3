// Process-wide runtime options.
//
// The benchmark harness trains several DRL policies from scratch. To keep
// `ctest` fast while letting benches do full-fidelity runs, training sizes
// are scaled by a single `train_scale` knob. Environment variables:
//
//   ADSEC_ZOO_DIR      where trained policies are cached (default "zoo")
//   ADSEC_TRAIN_SCALE  multiplier on training steps (default 1.0)
//   ADSEC_EPISODES     override for per-configuration evaluation episodes
//   ADSEC_CKPT_EVERY   training checkpoint interval in env steps; a killed
//                      zoo training run resumes from <zoo>/<name>.ckpt on
//                      the next start (default 0 = disabled)
//   ADSEC_LOG          debug|info|warn|error|off
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace adsec {

struct RuntimeConfig {
  std::string zoo_dir = "zoo";
  double train_scale = 1.0;
  std::optional<int> episodes_override;
  int checkpoint_every = 0;  // 0 disables zoo training checkpoints

  // Read environment variables on top of the defaults.
  static RuntimeConfig from_env();
};

// Process-wide singleton (mutable for tests).
RuntimeConfig& runtime_config();

// Scale a step count by train_scale with a floor of `min_steps`; saturates
// at INT_MAX.
int scaled_steps(int nominal, int min_steps = 1);

// Evaluation episode count honouring ADSEC_EPISODES.
int eval_episodes(int nominal);

// Strict numeric parsing for flags and environment variables: the whole
// string must be one number, a double must be finite, an int must lie in
// [min_value, 1e9] and a u64 must not be negative. std::stoi/std::stod
// would read "10x" as 10 and accept "inf". On failure `out` is untouched.
bool parse_double(const std::string& s, double& out);
bool parse_int(const std::string& s, int min_value, int& out);
bool parse_u64(const std::string& s, std::uint64_t& out);

}  // namespace adsec

// The three benchmark workloads. Each runs closed loop in this process for a
// fixed wall-clock budget, checks its own outputs, and returns the metrics
// of its mode: end-to-end metrics untraced (all but setup_s, which run.py
// measures from outside the process), and traced, the per-layer metrics of
// the layers the workload runs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Scale the committed policies were trained at (ADSEC_TRAIN_SCALE); the
// training workload sizes its SAC configuration with the same scale.
inline constexpr double kTrainScale = 0.3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;       // measurement length; run.py passes run_seconds
  bool trace = false;
  bool setup_only = false;    // stop at the first timed step
  std::string zoo_dir;        // policy cache the eval workloads load from
  std::string manifest;       // "<file> <crc32 hex> <bytes>" per line
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // why `correct` is false
  std::vector<std::pair<std::string, std::string>> provenance;
  std::uint64_t first_step_ns = 0;  // steady clock when the first timed step began
};

// Names accepted by run_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

// Trains the policies the eval workloads load (pi_ori and the camera
// attacker against it) with the program's own zoo at kTrainScale, into `dir`.
void prime_policies(const std::string& dir);

// Throws std::runtime_error on a setup failure (e.g. policy cache guard).
// With options.setup_only it returns at the first timed step, with only
// first_step_ns set.
RunResult run_workload(const Options& options);

}  // namespace perfbench

// adsec_perfbench: runs one benchmark workload and prints, as the last line
// of stdout, {"correct", "attempted", "failed", "metrics"}. The line before
// it is {"provenance": {...}}. perfbench/run.py builds this binary, stages
// the policy cache and calls it; see perfbench/METRICS.md for what each
// metric means. The result line also carries "first_step_ns", the steady
// clock (CLOCK_MONOTONIC) reading when the first timed step began, from
// which run.py measures setup_s.
//
//   adsec_perfbench --workload W --seed N --seconds S --trace 0|1
//                   --zoo-dir DIR --manifest FILE
//   adsec_perfbench --workload W --seed N --setup-only --zoo-dir DIR --manifest FILE
//                   (set up, print {"first_step_ns": N} and exit)
//   adsec_perfbench --prime-dir DIR   (train the cached policies into DIR)
//
// Exit status: 0 when the run is correct, 1 when a correctness check failed
// (the result line is still printed), 2 on bad arguments or a set-up
// failure (nothing is printed on stdout).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common/logging.hpp"
#include "nn/simd.hpp"
#include "telemetry/events.hpp"
#include "workloads.hpp"

namespace {

using adsec::telemetry::json_quote;

int usage(const char* why) {
  std::fprintf(stderr,
               "adsec_perfbench: %s\n"
               "usage: adsec_perfbench --workload W --seed N (--seconds S --trace 0|1 | "
               "--setup-only) --zoo-dir DIR --manifest FILE\n",
               why);
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  std::string prime_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("--seed needs an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0.0)) {
        return usage("--seconds needs a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--zoo-dir") {
      opt.zoo_dir = value;
    } else if (flag == "--manifest") {
      opt.manifest = value;
    } else if (flag == "--prime-dir") {
      prime_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  adsec::set_log_level(adsec::LogLevel::Warn);
  if (!prime_dir.empty()) {
    perfbench::prime_policies(prime_dir);
    return 0;
  }
  if (!have_workload || opt.zoo_dir.empty() || opt.manifest.empty()) {
    return usage("--workload, --zoo-dir and --manifest are required");
  }
  if (!opt.setup_only && opt.seconds == 0.0) return usage("--seconds is required");
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known = known || w == opt.workload;
  if (!known) return usage(("unknown workload " + opt.workload).c_str());

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adsec_perfbench: set-up failed: %s\n", e.what());
    return 2;
  }
  if (opt.setup_only) {
    std::printf("{\"first_step_ns\": %llu}\n", static_cast<unsigned long long>(res.first_step_ns));
    return 0;
  }

  std::string prov = "{\"provenance\": {";
  const auto add = [&prov](const std::string& k, const std::string& v) {
    if (prov.back() != '{') prov += ", ";
    prov += json_quote(k) + ": " + json_quote(v);
  };
  add("workload", opt.workload);
  add("seed", std::to_string(opt.seed));
  add("seconds", number(opt.seconds));
  add("trace", opt.trace ? "1" : "0");
  add("build_type", PERFBENCH_BUILD_TYPE);
  add("simd_tier", adsec::simd::tier_name(adsec::simd::active_tier()));
  add("nproc", std::to_string(std::thread::hardware_concurrency()));
  char scale[32];
  std::snprintf(scale, sizeof scale, "%g", perfbench::kTrainScale);
  add("train_scale", scale);
  for (const auto& [k, v] : res.provenance) add(k, v);
  prov += "}}";
  std::printf("%s\n", prov.c_str());

  for (const auto& e : res.errors) std::fprintf(stderr, "adsec_perfbench: %s\n", e.c_str());
  const bool correct = res.correct && res.attempted > 0;

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"first_step_ns\": " + std::to_string(res.first_step_ns);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    if (i != 0) out += ", ";
    out += json_quote(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_quote(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

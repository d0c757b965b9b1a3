#include "runtime/parallel_eval.hpp"

#include <algorithm>

#include "runtime/executor.hpp"
#include "telemetry/telemetry.hpp"

namespace adsec {

std::vector<EpisodeMetrics> run_batch_parallel(const AgentFactory& make_agent,
                                               const AttackerFactory& make_attacker,
                                               const ExperimentConfig& config,
                                               int episodes, std::uint64_t seed_base,
                                               const ParallelEvalOptions& options) {
  if (episodes <= 0) return {};
  // Root span for the whole batch: episode spans parent to it (directly on
  // the calling thread, via the pool's context capture on workers), so one
  // batch is one rooted trace regardless of how work was scheduled.
  ADSEC_SPAN("runtime.batch");
  std::vector<EpisodeMetrics> out(static_cast<std::size_t>(episodes));
  std::vector<EpisodeJob> jobs(out.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    jobs[k] = {seed_base + k, options.with_reference, &out[k]};
  }
  ExecuteOptions exec;
  exec.threads = options.jobs > 0 ? options.jobs : hardware_jobs();
  exec.lanes = options.batch_lanes;
  exec.on_progress = options.on_progress;
  execute(make_agent, make_attacker, config, jobs, exec);
  telemetry::emit_event("runtime.batch", {{"episodes", episodes},
                                          {"jobs", std::min(exec.threads, episodes)},
                                          {"lanes", options.batch_lanes}});
  return out;
}

std::vector<EpisodeMetrics> run_batch_parallel(const AgentFactory& make_agent,
                                               const AttackerFactory& make_attacker,
                                               const ExperimentConfig& config,
                                               int episodes, std::uint64_t seed_base,
                                               bool with_reference, int jobs) {
  ParallelEvalOptions options;
  options.jobs = jobs;
  options.with_reference = with_reference;
  return run_batch_parallel(make_agent, make_attacker, config, episodes, seed_base,
                            options);
}

}  // namespace adsec

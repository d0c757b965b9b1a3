#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <exception>
#include <future>
#include <optional>
#include <string>

#include "agents/batch_policy.hpp"
#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "nn/matrix.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace adsec {

namespace {

telemetry::Counter& episodes_counter() {
  static telemetry::Counter c = telemetry::counter("runtime.episodes");
  return c;
}

// What every worker of one execute() call shares: the job cursor, the
// completion count, and the first-error slot.
class JobCursor {
 public:
  JobCursor(int size, const std::function<void(int, int)>& on_progress)
      : size_(size), on_progress_(on_progress) {}

  // The next job index, or -1 once the list is drained or a lower job has
  // failed. A job below a failed one was claimed before it, so the lowest
  // failing job always runs.
  int claim() {
    const int j = next_.fetch_add(1);
    if (j >= size_) return -1;
    MutexLock lock(mu_);
    return j < failed_ ? j : -1;
  }

  void complete() {
    episodes_counter().inc();
    if (on_progress_) on_progress_(done_.fetch_add(1) + 1, size_);
  }

  void fail(int job, std::exception_ptr error) {
    MutexLock lock(mu_);
    if (job < failed_) {
      failed_ = job;
      error_ = std::move(error);
    }
  }

  void rethrow_first_error() {
    std::exception_ptr error;
    {
      MutexLock lock(mu_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  const int size_;
  const std::function<void(int, int)>& on_progress_;
  std::atomic<int> next_{0};
  std::atomic<int> done_{0};
  Mutex mu_;
  int failed_ ADSEC_GUARDED_BY(mu_){INT_MAX};
  std::exception_ptr error_ ADSEC_GUARDED_BY(mu_);
};

// A lane: one fleet slot cycling through claimed jobs. For a
// with_reference job the lane rolls two episodes back to back — phase 0 is
// the nominal (attacker-less) reference, phase 1 the scored episode —
// mirroring evaluate_with_reference exactly.
struct Lane {
  std::size_t slot = 0;
  DrivingAgent* agent = nullptr;
  Attacker* attacker = nullptr;
  BatchPolicy* batch = nullptr;  // null => per-lane decide()

  std::optional<EpisodeRunner> runner;  // engaged while a job is in flight
  int job = -1;
  int phase = 1;  // 0 = reference rollout, 1 = scored rollout
  Trajectory reference;
};

// One worker's fleet, running jobs off the shared cursor.
struct FleetRun {
  const AgentFactory& make_agent;
  const AttackerFactory& make_attacker;
  const ExperimentConfig& config;
  std::span<const EpisodeJob> jobs;
  JobCursor& cursor;
  LaneFleet& fleet;

  // Fleet slot `slot`'s actors for claimed job `job`, built on first use.
  LaneActors& prepare(std::size_t slot, int job) {
    if (fault_injector().fire("runtime.worker")) {
      throw Error(ErrorCode::Internal, "injected fault in rollout worker (episode " +
                                           std::to_string(job) + ")");
    }
    while (fleet.size() <= slot) {
      LaneActors actors;
      actors.agent = make_agent();
      if (make_attacker) actors.attacker = make_attacker();
      fleet.push_back(std::move(actors));
    }
    return fleet[slot];
  }

  void run_plain() {
    for (int j = cursor.claim(); j >= 0; j = cursor.claim()) {
      const EpisodeJob& job = jobs[static_cast<std::size_t>(j)];
      try {
        LaneActors& actors = prepare(0, j);
        ADSEC_SPAN("runtime.episode");
        *job.out = evaluate_episode(*actors.agent, actors.attacker.get(), config,
                                    job.seed, job.with_reference);
      } catch (...) {
        cursor.fail(j, std::current_exception());
        return;
      }
      cursor.complete();
    }
  }

  void retire(Lane& lane) {
    cursor.fail(lane.job, std::current_exception());
    lane.runner.reset();
  }

  template <typename F>
  void guarded(Lane& lane, const F& f) {
    try {
      f();
    } catch (...) {
      retire(lane);
    }
  }

  // Claim a job for an idle lane and start its first rollout; false when
  // nothing is left to claim. EpisodeRunner's constructor resets the actors.
  bool start(Lane& lane) {
    lane.job = cursor.claim();
    if (lane.job < 0) return false;
    guarded(lane, [&] {
      LaneActors& actors = prepare(lane.slot, lane.job);
      lane.agent = actors.agent.get();
      lane.attacker = actors.attacker.get();
      lane.batch = dynamic_cast<BatchPolicy*>(lane.agent);
      const EpisodeJob& job = jobs[static_cast<std::size_t>(lane.job)];
      lane.phase = job.with_reference ? 0 : 1;
      lane.runner.emplace(*lane.agent, lane.phase == 0 ? nullptr : lane.attacker,
                          config, job.seed);
    });
    return true;
  }

  // A lane's episode ended: advance the phase or publish the job's
  // metrics, then refill from the cursor.
  void harvest(Lane& lane) {
    while (lane.runner && !lane.runner->running()) {
      const EpisodeJob& job = jobs[static_cast<std::size_t>(lane.job)];
      bool finished = false;
      guarded(lane, [&] {
        if (lane.phase == 0) {
          lane.runner->finish(&lane.reference);  // metrics discarded, as in
                                                 // evaluate_with_reference
          lane.phase = 1;
          lane.runner.emplace(*lane.agent, lane.attacker, config, job.seed);
          return;
        }
        if (job.with_reference) {
          Trajectory attacked;
          *job.out = lane.runner->finish(&attacked);
          job.out->deviation_rmse =
              deviation_rmse(attacked, lane.reference, config.scenario.lane_width);
        } else {
          *job.out = lane.runner->finish();
        }
        finished = true;
      });
      if (finished) {
        cursor.complete();
        lane.runner.reset();
        start(lane);
      }
    }
  }

  void run_lanes(int capacity) {
    ADSEC_SPAN("runtime.lanes");
    std::vector<Lane> lanes(static_cast<std::size_t>(capacity));
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes[i].slot = i;
      if (!start(lanes[i])) break;
    }
    // A freshly started episode can in principle already be done; drain
    // that before entering the step loop.
    for (Lane& lane : lanes) harvest(lane);

    Matrix obs, act;
    std::vector<Lane*> live;
    live.reserve(lanes.size());
    for (;;) {
      live.clear();
      for (Lane& lane : lanes) {
        if (lane.runner) live.push_back(&lane);
      }
      if (live.empty()) break;

      // The batched forward runs on one lane's policy for every row; this
      // is sound because the factories build identical actors. Mixed
      // batchability would break that premise, so it disables batching.
      const bool batched = std::all_of(live.begin(), live.end(),
                                       [](const Lane* l) { return l->batch != nullptr; });
      if (batched) {
        // Gather -> one forward -> scatter, all in lane order. Staging
        // advances each lane's sensor state exactly as its own decide()
        // would; the shared forward is bit-identical per row to the 1-row
        // forward (nn/matrix.hpp per-tier contract).
        const int b = static_cast<int>(live.size());
        obs.resize(b, live[0]->batch->policy_obs_dim());
        for (int r = 0; r < b; ++r) {
          Lane& lane = *live[static_cast<std::size_t>(r)];
          guarded(lane, [&] { lane.batch->stage_observation(lane.runner->world(), obs.row(r)); });
        }
        try {
          live[0]->batch->policy_forward(obs, act);
        } catch (...) {
          for (Lane* lane : live) retire(*lane);
          continue;
        }
        for (int r = 0; r < b; ++r) {
          Lane& lane = *live[static_cast<std::size_t>(r)];
          if (!lane.runner) continue;
          guarded(lane, [&] { lane.runner->step(lane.batch->action_from_row(act.row(r))); });
        }
      } else {
        for (Lane* lane : live) {
          guarded(*lane, [&] { lane->runner->step(lane->agent->decide(lane->runner->world())); });
        }
      }
      for (Lane* lane : live) harvest(*lane);
    }
  }
};

}  // namespace

void execute(const AgentFactory& make_agent, const AttackerFactory& make_attacker,
             const ExperimentConfig& config, std::span<const EpisodeJob> jobs,
             const ExecuteOptions& options) {
  if (jobs.empty()) return;
  const int n = static_cast<int>(jobs.size());
  const int workers = pool_size_for(std::max(options.threads, 1), jobs.size());
  const int capacity = std::clamp(options.lanes, 1, n);
  JobCursor cursor(n, options.on_progress);
  const auto run_fleet = [&](LaneFleet& fleet) {
    FleetRun run{make_agent, make_attacker, config, jobs, cursor, fleet};
    if (capacity == 1) {
      run.run_plain();
    } else {
      run.run_lanes(capacity);
    }
  };

  if (workers == 1) {
    LaneFleet local;
    run_fleet(options.fleet != nullptr ? *options.fleet : local);
  } else {
    std::vector<LaneFleet> fleets(static_cast<std::size_t>(workers));
    ThreadPool pool(workers);
    std::vector<std::future<void>> pending;
    pending.reserve(fleets.size());
    for (LaneFleet& fleet : fleets) {
      pending.push_back(pool.submit([&run_fleet, &fleet] { run_fleet(fleet); }));
    }
    for (auto& f : pending) f.get();
  }
  cursor.rethrow_first_error();
}

}  // namespace adsec

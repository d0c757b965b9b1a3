#include "rl/trainer.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "nn/io.hpp"
#include "rl/checkpoint.hpp"
#include "telemetry/telemetry.hpp"

namespace adsec {

namespace {

// Trainer-side instruments; registered once, no-ops while telemetry is off.
struct TrainerMetrics {
  telemetry::Counter env_steps = telemetry::counter("trainer.env_steps");
  telemetry::Counter updates = telemetry::counter("trainer.updates");
  telemetry::Counter episodes = telemetry::counter("trainer.episodes");
  telemetry::Counter evals = telemetry::counter("trainer.evals");
  telemetry::Counter recoveries = telemetry::counter("trainer.recoveries");
  telemetry::Gauge replay_occupancy = telemetry::gauge("trainer.replay_occupancy");
};

TrainerMetrics& trainer_metrics() {
  static TrainerMetrics m;
  return m;
}

}  // namespace

namespace {

// One deterministic episode on the given env. Shared by the serial and
// parallel evaluators so both run exactly the same code per episode.
double rollout_deterministic(const Sac& sac, Env& env, std::uint64_t seed) {
  Rng rng(seed);  // deterministic actions never consume this
  std::vector<double> obs = env.reset(seed);
  bool done = false;
  double ret = 0.0;
  while (!done) {
    const auto act = sac.act(obs, rng, /*deterministic=*/true);
    EnvStep s = env.step(act);
    ret += s.reward;
    done = s.done;
    obs = std::move(s.obs);
  }
  return ret;
}

}  // namespace

void TrainConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw Error(ErrorCode::Config, "TrainConfig: " + msg);
  };
  if (total_steps < 1) {
    fail("total_steps must be >= 1 (got " + std::to_string(total_steps) + ")");
  }
  if (start_steps < 0) {
    fail("start_steps must be >= 0 (got " + std::to_string(start_steps) + ")");
  }
  if (update_every < 1) {
    fail("update_every must be >= 1 (got " + std::to_string(update_every) + ")");
  }
  if (updates_per_burst < 1) {
    fail("updates_per_burst must be >= 1 (got " + std::to_string(updates_per_burst) + ")");
  }
  if (replay_capacity < 1) {
    fail("replay_capacity must be >= 1 (got " + std::to_string(replay_capacity) + ")");
  }
  if (update_after < 0) {
    fail("update_after must be >= 0 (got " + std::to_string(update_after) + ")");
  }
  if (update_after > replay_capacity) {
    fail("update_after (" + std::to_string(update_after) + ") exceeds replay_capacity (" +
         std::to_string(replay_capacity) +
         "): the buffer would evict transitions before the first gradient update; "
         "raise replay_capacity or lower update_after");
  }
  if (eval_every < 0) {
    fail("eval_every must be >= 0 (got " + std::to_string(eval_every) + "); 0 disables "
         "evaluation");
  }
  if (eval_every > 0) {
    if (eval_episodes < 1) {
      fail("eval_episodes must be >= 1 when eval_every > 0 (got " +
           std::to_string(eval_episodes) + ")");
    }
    if (plateau_patience < 1) {
      fail("plateau stopping is enabled (eval_every > 0) but plateau_patience is " +
           std::to_string(plateau_patience) + "; it must be >= 1 to ever accumulate");
    }
    if (std::isnan(plateau_eps)) fail("plateau_eps must not be NaN");
  }
  if (checkpoint_every < 0) {
    fail("checkpoint_every must be >= 0 (got " + std::to_string(checkpoint_every) +
         "); 0 disables checkpointing");
  }
  if (checkpoint_every == 0 && !checkpoint_path.empty()) {
    fail("checkpoint_path is set but checkpoint_every is 0, so no checkpoint would "
         "ever be written; set a positive checkpoint_every");
  }
  if (max_recoveries < 0) {
    fail("max_recoveries must be >= 0 (got " + std::to_string(max_recoveries) + ")");
  }
  if (!(lr_backoff > 0.0) || lr_backoff > 1.0) {
    fail("lr_backoff must be in (0, 1] (got " + std::to_string(lr_backoff) + ")");
  }
}

double evaluate_policy(const Sac& sac, Env& env, int episodes,
                       std::uint64_t seed_base) {
  double total = 0.0;
  for (int k = 0; k < episodes; ++k) {
    total += rollout_deterministic(sac, env, seed_base + static_cast<std::uint64_t>(k));
  }
  return total / episodes;
}

TrainResult train_sac(Sac& sac, Env& env, const TrainConfig& config,
                      const EvalCallback& on_eval) {
  config.validate();
  Rng rng(config.seed);
  ReplayBuffer buffer(config.replay_capacity, env.obs_dim(), env.act_dim());
  TrainLoopState st;

  // ---- Resume: restore trainer state, then rebuild the env by replaying
  // the unfinished episode's logged actions (episodes are deterministic
  // given seed + actions, so this reconstructs the exact mid-episode
  // state the checkpoint was taken in).
  bool resumed = false;
  if (!config.resume_from.empty() && file_exists(config.resume_from)) {
    bool container_ok = true;
    std::uint32_t stored_version = 0;
    BinaryReader reader({});
    try {
      reader = BinaryReader::load_checked(config.resume_from, kCheckpointFormatVersion,
                                          &stored_version);
    } catch (const Error& e) {
      // An unreadable or torn checkpoint means the previous run died
      // mid-write before the atomic rename, or the file rotted on disk.
      // Either way the correct durable artifact is "no checkpoint":
      // start fresh rather than die.
      log_warn("train_sac: cannot resume from %s (%s); starting fresh",
               config.resume_from.c_str(), e.what());
      container_ok = false;
    }
    if (container_ok && stored_version != kCheckpointFormatVersion) {
      // Older containers frame a different payload layout; running them
      // through today's readers would misparse, not fail cleanly. A
      // pre-upgrade checkpoint is a resume miss, same as a corrupt file.
      log_warn(
          "train_sac: checkpoint %s has old format version %u (current %u); "
          "starting fresh",
          config.resume_from.c_str(), static_cast<unsigned>(stored_version),
          static_cast<unsigned>(kCheckpointFormatVersion));
      container_ok = false;
    }
    if (container_ok) {
      // Past CRC validation, failures are config/architecture mismatches —
      // a real caller bug that must NOT be papered over; let them throw.
      read_checkpoint(reader, sac, buffer, config, st);
      resumed = true;
      log_info("train_sac: resumed from %s at step %d (episode %llu)",
               config.resume_from.c_str(), st.step,
               static_cast<unsigned long long>(st.episode));
      telemetry::emit_event("trainer.resume",
                            {{"step", st.step},
                             {"episode", st.episode},
                             {"path", config.resume_from}});
    }
  }

  std::vector<double> obs = env.reset(config.seed + st.episode);
  if (resumed) {
    rng.set_state(st.rng);
    for (const auto& a : st.ep_actions) obs = env.step(a).obs;
  }

  // ---- In-memory last-good snapshot: the divergence guard's rollback
  // target. Serialized through the same code as the on-disk checkpoint so
  // rollback and resume are the identical operation.
  std::vector<std::uint8_t> good_snapshot;
  int backoffs_since_snapshot = 0;
  auto take_snapshot = [&](int step) {
    ADSEC_SPAN("trainer.snapshot");
    st.step = step;
    st.rng = rng.get_state();
    BinaryWriter w;
    write_checkpoint(w, sac, buffer, config, st);
    good_snapshot = w.bytes();
    backoffs_since_snapshot = 0;
  };
  auto write_checkpoint_file = [&] {
    if (config.checkpoint_path.empty()) return;
    try {
      save_checkpoint_file(config.checkpoint_path, sac, buffer, config, st);
    } catch (const Error& e) {
      // A failed checkpoint write must not kill a healthy run; the atomic
      // rename guarantees the previous checkpoint file is still intact.
      log_warn("train_sac: checkpoint write to %s failed (%s); training continues",
               config.checkpoint_path.c_str(), e.what());
    }
  };

  // Roll the whole trainer (networks, optimizers, buffer, RNG, loop
  // position, env-by-replay) back to the last good snapshot and back off
  // the learning rates. Returns the step to continue from.
  auto rollback = [&](int step) -> int {
    // Divergence is a flight-recorder trip: the ring holds the span/note
    // history leading up to the NaN, which the post-rollback state erases.
    telemetry::flight_note("trainer.divergence",
                           static_cast<std::uint64_t>(step));
    if (telemetry::flight_enabled()) {
      telemetry::dump_flight_recorder("trainer.divergence");
    }
    if (good_snapshot.empty()) {
      throw Error(ErrorCode::Diverged,
                  "training diverged (NaN/Inf) at step " + std::to_string(step) +
                      " with no checkpoint to roll back to; enable checkpoint_every");
    }
    if (st.recoveries >= config.max_recoveries) {
      throw Error(ErrorCode::Diverged,
                  "training diverged at step " + std::to_string(step) + " after " +
                      std::to_string(st.recoveries) +
                      " recoveries (max_recoveries reached)");
    }
    const int prior_recoveries = st.recoveries;
    BinaryReader r(good_snapshot);
    read_checkpoint(r, sac, buffer, config, st);
    st.recoveries = prior_recoveries + 1;
    rng.set_state(st.rng);
    obs = env.reset(config.seed + st.episode);
    for (const auto& a : st.ep_actions) obs = env.step(a).obs;
    // Compound the backoff when the same snapshot keeps diverging; a fresh
    // snapshot already carries previous backoffs in its Adam state.
    ++backoffs_since_snapshot;
    const double scale = std::pow(config.lr_backoff, backoffs_since_snapshot);
    sac.scale_lr(scale);
    trainer_metrics().recoveries.inc();
    telemetry::emit_event("trainer.recovery",
                          {{"step", step},
                           {"rolled_back_to", st.step},
                           {"recovery", st.recoveries},
                           {"lr_scale", scale}});
    log_warn(
        "train_sac: non-finite training state at step %d; rolled back to step %d "
        "(recovery %d/%d, lr x%.3g)",
        step, st.step, st.recoveries, config.max_recoveries, scale);
    return st.step;
  };

  for (int step = st.step + 1; step <= config.total_steps; ++step) {
    if (fault_injector().fire("trainer.abort")) {
      throw Error(ErrorCode::Internal,
                  "injected abort at step " + std::to_string(step));
    }

    std::vector<double> action(static_cast<std::size_t>(env.act_dim()));
    if (step <= config.start_steps) {
      for (auto& a : action) a = rng.uniform(-1.0, 1.0);
    } else {
      action = sac.act(obs, rng, /*deterministic=*/false);
    }

    EnvStep s = env.step(action);
    buffer.add(obs, action, s.reward, s.obs, s.done);
    st.ep_return += s.reward;
    st.ep_actions.push_back(action);
    obs = std::move(s.obs);
    trainer_metrics().env_steps.inc();

    if (s.done) {
      st.result.episode_returns.push_back(st.ep_return);
      trainer_metrics().episodes.inc();
      telemetry::emit_event("trainer.episode",
                            {{"episode", st.episode},
                             {"steps", static_cast<int>(st.ep_actions.size())},
                             {"ep_return", st.ep_return}});
      st.ep_return = 0.0;
      st.ep_actions.clear();
      ++st.episode;
      obs = env.reset(config.seed + st.episode);
    }

    if (step > config.update_after && step % config.update_every == 0) {
      {
        ADSEC_SPAN("trainer.update_burst");
        for (int u = 0; u < config.updates_per_burst; ++u) sac.update(buffer, rng);
      }
      st.result.update_history.push_back(
          {step, sac.last_critic_loss(), sac.last_actor_loss(), sac.alpha(),
           sac.last_critic_grad_norm(), sac.last_actor_grad_norm()});
      trainer_metrics().updates.inc(
          static_cast<std::uint64_t>(config.updates_per_burst));
      trainer_metrics().replay_occupancy.set(static_cast<double>(buffer.size()));
      telemetry::emit_event("trainer.update",
                            {{"step", step},
                             {"critic_loss", sac.last_critic_loss()},
                             {"actor_loss", sac.last_actor_loss()},
                             {"alpha", sac.alpha()},
                             {"critic_grad_norm", sac.last_critic_grad_norm()},
                             {"actor_grad_norm", sac.last_actor_grad_norm()},
                             {"replay_size", buffer.size()}});
      if (fault_injector().fire("trainer.nan")) {
        auto params = sac.actor().params();
        if (!params.empty() && params[0]->size() > 0) {
          params[0]->data()[0] = std::numeric_limits<double>::quiet_NaN();
        }
      }
      if (!sac.state_finite()) {
        step = rollback(step);
        continue;
      }
    }

    if (config.eval_every > 0 && step % config.eval_every == 0) {
      double eval_ret;
      {
        ADSEC_SPAN("trainer.eval");
        eval_ret = evaluate_policy(sac, env, config.eval_episodes,
                                   config.eval_seed_base);
      }
      st.result.eval_returns.push_back(eval_ret);
      trainer_metrics().evals.inc();
      telemetry::emit_event("trainer.eval", {{"step", step},
                                             {"eval_return", eval_ret},
                                             {"alpha", sac.alpha()},
                                             {"episodes", config.eval_episodes}});
      log_info("train_sac: step %d eval return %.2f (alpha %.3f)", step, eval_ret,
               sac.alpha());
      if (on_eval) on_eval(step, eval_ret);

      if (eval_ret > st.result.best_eval_return) {
        st.result.best_eval_return = eval_ret;
        st.result.best_actor = sac.actor();  // deep copy snapshot
      }
      if (eval_ret > st.plateau_best + config.plateau_eps) {
        st.plateau_best = eval_ret;
        st.evals_since_improvement = 0;
      } else {
        ++st.evals_since_improvement;
        if (st.evals_since_improvement >= config.plateau_patience) {
          log_info("train_sac: reward plateau after %d steps; stopping early", step);
          st.result.steps_done = step;
          st.result.stopped_on_plateau = true;
          st.result.recoveries = st.recoveries;
          // Leave the in-progress episode unfinished; callers only use the
          // trained actor.
          return st.result;
        }
      }
      // Evaluation rolled fresh episodes through the shared env; restart the
      // training episode so transitions stay consistent.
      ++st.episode;
      obs = env.reset(config.seed + st.episode);
      st.ep_return = 0.0;
      st.ep_actions.clear();
    }

    st.result.steps_done = step;
    st.step = step;

    // Snapshot on the checkpoint cadence, plus once right before gradient
    // updates begin so even an immediately-diverging run has a rollback
    // target. Only ever snapshot a verified-finite state.
    const bool at_checkpoint =
        config.checkpoint_every > 0 &&
        (step % config.checkpoint_every == 0 || step == config.update_after);
    if (at_checkpoint && sac.state_finite()) {
      take_snapshot(step);
      if (step % config.checkpoint_every == 0) write_checkpoint_file();
    }
  }
  st.result.recoveries = st.recoveries;
  return st.result;
}

}  // namespace adsec

// Timing decorators the benchmark wraps around the program's public
// interfaces (DrivingAgent, BatchPolicy, Attacker, Env). Nothing inside src/
// is instrumented: every per-layer number comes from clock reads taken here,
// around the calls into each layer.
//
// Two modes, switched between batches (never while workers run):
//   * untraced: a decorator forwards the call, counts steps, and reads the
//     wall clock, thread-CPU clock and block count only at episode start
//     and end;
//   * traced: every decorated call is bracketed by two clock reads and
//     charged to a slot of the calling thread's ledger. The time between
//     two decorated calls on one thread (a "gap") is charged to the slot the
//     previous call hands over to: the body of EpisodeRunner::step after a
//     decision, episode turnover after the episode's last world step, the
//     lane scheduler's gather/scatter after a stage or forward.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "agents/agent.hpp"
#include "agents/batch_policy.hpp"
#include "agents/driving_env.hpp"
#include "attack/attacker.hpp"
#include "rl/env.hpp"
#include "sim/world.hpp"

namespace perfbench {

std::uint64_t now_ns();

// CPU time of the calling thread, and how often it has blocked (voluntary
// context switches: waiting on a lock, a condition variable, I/O or sleep).
// While a thread that does not block is off its CPU, it waits involuntarily:
// in the kernel's run queue behind another process, or for the hypervisor to
// run its vCPU (steal). End-to-end times leave out only that wait (see
// METRICS.md): a span in which the thread never blocked is timed by its CPU
// time, any other span by its wall time.
struct ThreadTimes {
  std::uint64_t cpu_ns = 0;
  long blocks = 0;
};
ThreadTimes thread_times();

enum Slot : int {
  kVictimStage,    // BatchPolicy::stage_observation (camera render + stack)
  kVictimForward,  // BatchPolicy::policy_forward
  kVictimDecode,   // BatchPolicy::action_from_row
  kVictimDecide,   // DrivingAgent::decide (modular planner + PID)
  kVictimReset,    // DrivingAgent::reset
  kAttack,         // Attacker::decide + Attacker::post_step
  kAttackReset,    // Attacker::reset
  kCoreStep,       // gaps inside EpisodeRunner::step (minus attacker calls)
  kTurnover,       // gaps between episodes: finish, dispatch, next scenario
  kScheduler,      // gaps after a stage/forward: lane gather and scatter
  kEnvStep,        // Env::step and Env::reset
  kSampling,       // the benchmark copying a world for the sim probes
  kSlotCount
};

// One episode (or training segment) on one thread: wall clock at its start
// and end, the thread's CPU time in between, and whether it blocked.
struct EpisodeSpan {
  std::uint64_t start = 0, end = 0;
  std::uint64_t cpu_ns = 0;
  bool blocked = false;

  std::uint64_t wall_ns() const { return end - start; }
  // Wall time less involuntary waits: the CPU time unless the thread blocked.
  std::uint64_t time_ns() const { return blocked ? wall_ns() : std::min(cpu_ns, wall_ns()); }
  std::uint64_t preempted_ns() const { return wall_ns() - time_ns(); }
};

// One thread's accounting for one measurement generation. Owned by the
// registry, so it outlives the pool thread that filled it.
struct Ledger {
  std::array<std::uint64_t, kSlotCount> ns{};
  std::array<std::uint64_t, kSlotCount> calls{};
  std::uint64_t cursor = 0;  // exit time of the last decorated call
  Slot gap_owner = kTurnover;
  std::uint64_t first = 0;   // entry time of the first decorated call
  std::uint64_t last = 0;    // exit time of the last decorated call

  // Always on (traced or not).
  std::uint64_t steps = 0;
  std::vector<EpisodeSpan> episodes;
  // Preempted time while at least one episode was open on this thread. Lanes
  // overlap their episodes on one thread, so summing per-episode preempted
  // time would count one wait once per lane.
  std::uint64_t preempted_ns = 0;
  int open_episodes = 0;
  std::uint64_t stretch_start = 0;  // when open_episodes last rose from 0
  ThreadTimes stretch_times;
  std::vector<adsec::World> sampled_worlds;  // traced only
};

// Registry of per-thread ledgers. begin() opens a new generation: threads
// that touch their ledger afterwards get a fresh one. take() hands the
// finished generation to the caller (call only while no worker runs).
void ledgers_begin(bool traced);
std::deque<Ledger> ledgers_take();
bool tracing();
Ledger& my_ledger();

// Scoped charge of one decorated call; a no-op when tracing is off.
class Charge {
 public:
  explicit Charge(Slot slot);
  ~Charge();
  Charge(const Charge&) = delete;
  Charge& operator=(const Charge&) = delete;
  void hand_over(Slot next) { next_ = next; }

 private:
  Ledger* ledger_ = nullptr;
  Slot slot_;
  Slot next_ = kCoreStep;
  std::uint64_t t0_ = 0;
};

// Episode boundaries, shared by the agent and attacker decorators of one
// lane (or one worker): the episode opens at the victim's first reset (the
// reference rollout's, when there is one) and closes at the world step that
// ends the attacked rollout.
struct EpisodeClock {
  std::uint64_t start = 0;
  ThreadTimes at_start;
  bool open = false;
};

class TimedAgent : public adsec::DrivingAgent {
 public:
  TimedAgent(std::unique_ptr<adsec::DrivingAgent> inner,
             std::shared_ptr<EpisodeClock> clock);
  void reset(const adsec::World& world) override;
  adsec::Action decide(const adsec::World& world) override;
  std::string name() const override { return inner_->name(); }

 protected:
  std::unique_ptr<adsec::DrivingAgent> inner_;
  std::shared_ptr<EpisodeClock> clock_;
};

// Forwards BatchPolicy too, so the lane scheduler takes the same batched
// path it takes for the undecorated agent.
class TimedBatchAgent : public TimedAgent, public adsec::BatchPolicy {
 public:
  TimedBatchAgent(std::unique_ptr<adsec::DrivingAgent> inner,
                  std::shared_ptr<EpisodeClock> clock);
  int policy_obs_dim() const override { return batch_->policy_obs_dim(); }
  int policy_act_dim() const override { return batch_->policy_act_dim(); }
  void stage_observation(const adsec::World& world, std::span<double> row) override;
  void policy_forward(const adsec::Matrix& obs, adsec::Matrix& act) const override;
  adsec::Action action_from_row(std::span<const double> row) const override;

 private:
  adsec::BatchPolicy* batch_;
};

// Wraps `inner` in TimedBatchAgent when it implements BatchPolicy, else in
// TimedAgent, and remembers `clock` for the next wrap_attacker() call on
// this thread (factories build an agent, then its attacker, on one thread).
std::unique_ptr<adsec::DrivingAgent> wrap_agent(std::unique_ptr<adsec::DrivingAgent> inner);

class TimedAttacker : public adsec::Attacker {
 public:
  TimedAttacker(std::unique_ptr<adsec::Attacker> inner,
                std::shared_ptr<EpisodeClock> clock);
  void reset(const adsec::World& world) override;
  double decide(const adsec::World& world) override;
  double decide_thrust(const adsec::World& world) override {
    return inner_->decide_thrust(world);
  }
  void post_step(const adsec::World& world) override;
  std::string name() const override { return inner_->name(); }
  double budget() const override { return inner_->budget(); }

 private:
  std::unique_ptr<adsec::Attacker> inner_;
  std::shared_ptr<EpisodeClock> clock_;
  std::uint64_t decides_ = 0;
};

std::unique_ptr<adsec::Attacker> wrap_attacker(std::unique_ptr<adsec::Attacker> inner);

// Env decorator for training. Episodes whose reset seed is at or above
// `eval_seed_base` are the trainer's periodic evaluations: their steps are
// charged to the env but not counted as training steps. The training
// workload's unit of work is a segment of `segment_steps` consecutive
// training steps (env step, replay insert and SAC update each), timed from
// the end of the previous segment, so evaluations and episode resets land
// in the segment they interrupt; the first segment starts at the first
// training reset.
class TimedEnv : public adsec::Env {
 public:
  TimedEnv(adsec::DrivingEnv& inner, std::uint64_t eval_seed_base, int segment_steps);
  std::vector<double> reset(std::uint64_t seed) override;
  adsec::EnvStep step(std::span<const double> action) override;
  int obs_dim() const override { return inner_.obs_dim(); }
  int act_dim() const override { return inner_.act_dim(); }

 private:
  adsec::DrivingEnv& inner_;
  std::uint64_t eval_seed_base_;
  int segment_steps_;
  bool eval_episode_ = false;
  std::uint64_t segment_start_ = 0;
  ThreadTimes segment_times_;
  int segment_done_ = 0;
};

}  // namespace perfbench

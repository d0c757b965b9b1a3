#include "probes.hpp"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <mutex>

namespace perfbench {

namespace {

std::mutex g_mu;
std::deque<Ledger> g_ledgers;  // guarded by g_mu; deque keeps addresses stable
std::atomic<std::uint64_t> g_generation{1};
std::atomic<bool> g_traced{false};

thread_local std::uint64_t tl_generation = 0;
thread_local Ledger* tl_ledger = nullptr;
// The clock of the agent this thread built last; its attacker shares it.
thread_local std::shared_ptr<EpisodeClock> tl_pending_clock;

// Keep one in this many attacker decisions' worlds for the sim probes, and
// at most this many per thread.
constexpr std::uint64_t kWorldSampleEvery = 97;
constexpr std::size_t kMaxWorldsPerThread = 24;

EpisodeSpan span(std::uint64_t start, const ThreadTimes& at_start, std::uint64_t end,
                 const ThreadTimes& at_end) {
  return {start, end, at_end.cpu_ns - at_start.cpu_ns, at_end.blocks != at_start.blocks};
}

void close_episode(EpisodeClock& clock) {
  if (!clock.open) return;
  const ThreadTimes times = thread_times();
  const std::uint64_t end = now_ns();
  Ledger& l = my_ledger();
  l.episodes.push_back(span(clock.start, clock.at_start, end, times));
  if (--l.open_episodes == 0) {
    l.preempted_ns += span(l.stretch_start, l.stretch_times, end, times).preempted_ns();
  }
  clock.open = false;
}

void open_episode(EpisodeClock& clock) {
  if (clock.open) return;
  clock.at_start = thread_times();
  clock.start = now_ns();
  clock.open = true;
  Ledger& l = my_ledger();
  if (l.open_episodes++ == 0) {
    l.stretch_start = clock.start;
    l.stretch_times = clock.at_start;
  }
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ThreadTimes thread_times() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return {static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
              static_cast<std::uint64_t>(ts.tv_nsec),
          ru.ru_nvcsw};
}

void ledgers_begin(bool traced) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_ledgers.clear();
  g_generation.fetch_add(1);
  g_traced.store(traced);
}

std::deque<Ledger> ledgers_take() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::deque<Ledger> out;
  out.swap(g_ledgers);
  g_generation.fetch_add(1);
  return out;
}

bool tracing() { return g_traced.load(std::memory_order_relaxed); }

Ledger& my_ledger() {
  const std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
  if (tl_ledger == nullptr || tl_generation != gen) {
    std::lock_guard<std::mutex> lock(g_mu);
    tl_ledger = &g_ledgers.emplace_back();
    tl_generation = gen;
  }
  return *tl_ledger;
}

Charge::Charge(Slot slot) : slot_(slot) {
  if (!tracing()) return;
  ledger_ = &my_ledger();
  t0_ = now_ns();
  if (ledger_->cursor != 0) {
    ledger_->ns[ledger_->gap_owner] += t0_ - ledger_->cursor;
  } else {
    ledger_->first = t0_;
  }
}

Charge::~Charge() {
  if (ledger_ == nullptr) return;
  const std::uint64_t t1 = now_ns();
  ledger_->ns[slot_] += t1 - t0_;
  ledger_->calls[slot_] += 1;
  ledger_->cursor = t1;
  ledger_->last = t1;
  ledger_->gap_owner = next_;
}

// ---------------------------------------------------------------- agents

TimedAgent::TimedAgent(std::unique_ptr<adsec::DrivingAgent> inner,
                       std::shared_ptr<EpisodeClock> clock)
    : inner_(std::move(inner)), clock_(std::move(clock)) {}

void TimedAgent::reset(const adsec::World& world) {
  open_episode(*clock_);
  // A reset follows an episode's end or a new dispatch, so the gap before
  // it is turnover. This matters after a reference rollout, whose last
  // world step has no attacker post_step to hand the gap over.
  if (tracing()) my_ledger().gap_owner = kTurnover;
  Charge c(kVictimReset);
  c.hand_over(kTurnover);
  inner_->reset(world);
}

adsec::Action TimedAgent::decide(const adsec::World& world) {
  ++my_ledger().steps;
  Charge c(kVictimDecide);
  return inner_->decide(world);
}

TimedBatchAgent::TimedBatchAgent(std::unique_ptr<adsec::DrivingAgent> inner,
                                 std::shared_ptr<EpisodeClock> clock)
    : TimedAgent(std::move(inner), std::move(clock)),
      batch_(dynamic_cast<adsec::BatchPolicy*>(inner_.get())) {}

void TimedBatchAgent::stage_observation(const adsec::World& world,
                                        std::span<double> row) {
  ++my_ledger().steps;
  Charge c(kVictimStage);
  c.hand_over(kScheduler);
  batch_->stage_observation(world, row);
}

void TimedBatchAgent::policy_forward(const adsec::Matrix& obs,
                                     adsec::Matrix& act) const {
  Charge c(kVictimForward);
  c.hand_over(kScheduler);
  batch_->policy_forward(obs, act);
}

adsec::Action TimedBatchAgent::action_from_row(std::span<const double> row) const {
  Charge c(kVictimDecode);
  return batch_->action_from_row(row);
}

std::unique_ptr<adsec::DrivingAgent> wrap_agent(
    std::unique_ptr<adsec::DrivingAgent> inner) {
  auto clock = std::make_shared<EpisodeClock>();
  tl_pending_clock = clock;
  if (dynamic_cast<adsec::BatchPolicy*>(inner.get()) != nullptr) {
    return std::make_unique<TimedBatchAgent>(std::move(inner), std::move(clock));
  }
  return std::make_unique<TimedAgent>(std::move(inner), std::move(clock));
}

// ---------------------------------------------------------------- attackers

TimedAttacker::TimedAttacker(std::unique_ptr<adsec::Attacker> inner,
                             std::shared_ptr<EpisodeClock> clock)
    : inner_(std::move(inner)), clock_(std::move(clock)) {}

void TimedAttacker::reset(const adsec::World& world) {
  Charge c(kAttackReset);
  c.hand_over(kTurnover);
  inner_->reset(world);
}

double TimedAttacker::decide(const adsec::World& world) {
  if (tracing() && ++decides_ % kWorldSampleEvery == 0) {
    Ledger& l = my_ledger();
    if (l.sampled_worlds.size() < kMaxWorldsPerThread) {
      Charge c(kSampling);
      l.sampled_worlds.push_back(world);
    }
  }
  Charge c(kAttack);
  return inner_->decide(world);
}

void TimedAttacker::post_step(const adsec::World& world) {
  {
    Charge c(kAttack);
    if (world.done()) c.hand_over(kTurnover);
    inner_->post_step(world);
  }
  if (world.done()) close_episode(*clock_);
}

std::unique_ptr<adsec::Attacker> wrap_attacker(std::unique_ptr<adsec::Attacker> inner) {
  // A victim built on this thread just before owns the episode clock; an
  // attacker without one (never the case in these workloads) gets its own.
  std::shared_ptr<EpisodeClock> clock = std::move(tl_pending_clock);
  if (!clock) clock = std::make_shared<EpisodeClock>();
  return std::make_unique<TimedAttacker>(std::move(inner), std::move(clock));
}

// ---------------------------------------------------------------- env

TimedEnv::TimedEnv(adsec::DrivingEnv& inner, std::uint64_t eval_seed_base,
                   int segment_steps)
    : inner_(inner), eval_seed_base_(eval_seed_base), segment_steps_(segment_steps) {}

std::vector<double> TimedEnv::reset(std::uint64_t seed) {
  eval_episode_ = seed >= eval_seed_base_;
  if (!eval_episode_ && segment_start_ == 0) {
    segment_times_ = thread_times();
    segment_start_ = now_ns();
  }
  Charge c(kEnvStep);
  return inner_.reset(seed);
}

adsec::EnvStep TimedEnv::step(std::span<const double> action) {
  Ledger& l = my_ledger();
  adsec::EnvStep s;
  {
    Charge c(kEnvStep);
    s = inner_.step(action);
  }
  if (eval_episode_) return s;
  ++l.steps;
  if (tracing() && l.steps % kWorldSampleEvery == 0 &&
      l.sampled_worlds.size() < kMaxWorldsPerThread && !s.done) {
    Charge c(kSampling);
    l.sampled_worlds.push_back(inner_.world());
  }
  if (++segment_done_ == segment_steps_) {
    const ThreadTimes times = thread_times();
    const EpisodeSpan segment = span(segment_start_, segment_times_, now_ns(), times);
    l.episodes.push_back(segment);
    l.preempted_ns += segment.preempted_ns();
    segment_start_ = segment.end;
    segment_times_ = times;
    segment_done_ = 0;
  }
  return s;
}

}  // namespace perfbench

#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "agents/driving_env.hpp"
#include "agents/e2e_agent.hpp"
#include "agents/modular_agent.hpp"
#include "attack/scripted_attacker.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "core/zoo.hpp"
#include "probes.hpp"
#include "rl/sac.hpp"
#include "rl/trainer.hpp"
#include "runtime/parallel_eval.hpp"
#include "sim/scenario.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

using namespace adsec;

namespace {

// ------------------------------------------------------------------ helpers

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// splitmix64: derives independent streams (episode seeds, budget order,
// training seeds) from the one workload seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

// ------------------------------------------------------------ policy cache

struct CachedPolicy {
  std::string file;
  std::string crc;
};

std::vector<CachedPolicy> read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read policy manifest " + path);
  std::vector<CachedPolicy> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    CachedPolicy p;
    std::size_t bytes = 0;
    if (!(fields >> p.file >> p.crc >> bytes)) {
      throw std::runtime_error("malformed policy manifest line: " + line);
    }
    out.push_back(p);
  }
  if (out.empty()) throw std::runtime_error("empty policy manifest " + path);
  return out;
}

std::string file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("policy cache file missing: " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return hex32(crc32(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

// Every cached policy must be present with its recorded checksum before
// the zoo is asked for it: a miss would train inside set-up. Returns the
// checksums as provenance entries.
std::vector<std::pair<std::string, std::string>> verify_cache(const Options& opt) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const CachedPolicy& p : read_manifest(opt.manifest)) {
    const std::string got = file_crc(opt.zoo_dir + "/" + p.file);
    if (got != p.crc) {
      throw std::runtime_error("policy cache checksum mismatch for " + p.file +
                               ": have " + got + ", manifest " + p.crc);
    }
    out.emplace_back("crc32:" + p.file, got);
  }
  return out;
}

std::uint64_t counter_value(const telemetry::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

// Loads policies through the zoo with its counters on, and refuses a run
// in which the zoo had to train or retrain anything.
struct ZooGuard {
  ZooGuard() {
    telemetry::reset_metrics_values();
    telemetry::set_metrics_enabled(true);
  }
  void check() const {
    const auto snap = telemetry::metrics_snapshot();
    telemetry::set_metrics_enabled(false);
    const std::uint64_t miss = counter_value(snap, "zoo.cache_miss");
    const std::uint64_t retrain = counter_value(snap, "zoo.retrain");
    if (miss > 0 || retrain > 0) {
      throw std::runtime_error("policy zoo missed its cache (cache_miss=" +
                               std::to_string(miss) + ", retrain=" +
                               std::to_string(retrain) + ")");
    }
  }
};

// ------------------------------------------------------------ accounting

// Sum of one generation's ledgers, plus the wall time and worker count of
// the batches that produced them.
struct Tally {
  std::uint64_t wall_ns = 0;    // sum of batch wall times
  // Sum of batch wall times, each less its workers' mean preempted time.
  std::uint64_t time_ns = 0;
  std::uint64_t thread_ns = 0;  // sum over batches of workers x batch wall
  std::uint64_t steps = 0;
  std::uint64_t busy_ns = 0;       // per-thread union of episode intervals
  std::uint64_t preempted_ns = 0;  // the part of busy_ns threads were preempted
  std::uint64_t tail_ns = 0;    // per thread: last decorated call to batch end
  // Over all episodes: wall time, and wall time minus thread-CPU time (the
  // time a thread was held off its CPU or blocked inside an episode).
  std::uint64_t episode_ns = 0;
  std::uint64_t stalled_ns = 0;
  std::array<std::uint64_t, kSlotCount> ns{};
  std::array<std::uint64_t, kSlotCount> calls{};
  std::vector<double> episode_ms;
  std::vector<World> worlds;
  std::uint64_t worlds_seen = 0;
  Rng reservoir{0x5eed};
  static constexpr std::size_t kProbeWorlds = 64;

  // [t0, t1] is the batch's wall-clock interval.
  void absorb(std::deque<Ledger>& ledgers, std::uint64_t t0, std::uint64_t t1, int workers) {
    wall_ns += t1 - t0;
    thread_ns += (t1 - t0) * static_cast<std::uint64_t>(workers);
    std::uint64_t batch_preempted = 0;
    for (Ledger& l : ledgers) {
      if (l.last != 0) tail_ns += t1 - l.last;
      steps += l.steps;
      batch_preempted += l.preempted_ns;
      for (int s = 0; s < kSlotCount; ++s) {
        ns[static_cast<std::size_t>(s)] += l.ns[static_cast<std::size_t>(s)];
        calls[static_cast<std::size_t>(s)] += l.calls[static_cast<std::size_t>(s)];
      }
      if (l.episodes.empty()) continue;
      auto spans = l.episodes;
      std::sort(spans.begin(), spans.end(),
                [](const EpisodeSpan& a, const EpisodeSpan& b) { return a.start < b.start; });
      std::uint64_t cur_lo = 0, cur_hi = 0;
      for (const EpisodeSpan& e : spans) {
        const std::uint64_t wall = e.wall_ns();
        episode_ms.push_back(static_cast<double>(e.time_ns()) * 1e-6);
        episode_ns += wall;
        if (wall > e.cpu_ns) stalled_ns += wall - e.cpu_ns;
        if (cur_hi == 0 || e.start > cur_hi) {
          busy_ns += cur_hi - cur_lo;
          cur_lo = e.start;
          cur_hi = e.end;
        } else {
          cur_hi = std::max(cur_hi, e.end);
        }
      }
      busy_ns += cur_hi - cur_lo;
      for (World& w : l.sampled_worlds) keep_world(std::move(w));
    }
    preempted_ns += batch_preempted;
    const std::uint64_t mean_preempted = batch_preempted / static_cast<std::uint64_t>(workers);
    time_ns += (t1 - t0) - std::min(mean_preempted, t1 - t0);
  }

  // Reservoir sample of the worlds the decorators offered, so the sim
  // probes see every budget of the run rather than its first batches.
  void keep_world(World&& w) {
    ++worlds_seen;
    if (worlds.size() < kProbeWorlds) {
      worlds.push_back(std::move(w));
    } else if (const std::uint64_t j = reservoir.uniform_int(
                   static_cast<std::uint32_t>(std::min<std::uint64_t>(worlds_seen, 0xffffffffu)));
               j < kProbeWorlds) {
      worlds[j] = std::move(w);
    }
  }

  void absorb_tally(Tally& other) {
    wall_ns += other.wall_ns;
    time_ns += other.time_ns;
    thread_ns += other.thread_ns;
    steps += other.steps;
    busy_ns += other.busy_ns;
    tail_ns += other.tail_ns;
    episode_ns += other.episode_ns;
    stalled_ns += other.stalled_ns;
    preempted_ns += other.preempted_ns;
    for (std::size_t s = 0; s < ns.size(); ++s) {
      ns[s] += other.ns[s];
      calls[s] += other.calls[s];
    }
    episode_ms.insert(episode_ms.end(), other.episode_ms.begin(), other.episode_ms.end());
    for (World& w : other.worlds) keep_world(std::move(w));
  }

  double share(std::initializer_list<Slot> slots) const {
    std::uint64_t sum = 0;
    for (Slot s : slots) sum += ns[s];
    return thread_ns == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(thread_ns);
  }
  double busy_frac() const {
    return thread_ns == 0 ? 0.0 : static_cast<double>(busy_ns) / static_cast<double>(thread_ns);
  }
  double stalled_frac() const {
    return episode_ns == 0 ? 0.0 : static_cast<double>(stalled_ns) / static_cast<double>(episode_ns);
  }
  double preempted_frac() const {
    return busy_ns == 0 ? 0.0 : static_cast<double>(preempted_ns) / static_cast<double>(busy_ns);
  }
  double per_call_us(Slot s) const {
    return calls[s] == 0 ? 0.0 : static_cast<double>(ns[s]) * 1e-3 / static_cast<double>(calls[s]);
  }
  double per_step_us(std::initializer_list<Slot> slots) const {
    std::uint64_t sum = 0;
    for (Slot s : slots) sum += ns[s];
    return steps == 0 ? 0.0 : static_cast<double>(sum) * 1e-3 / static_cast<double>(steps);
  }
};

// Isolated probes of World::step (on copies) and Road::project over worlds
// sampled from the workload's own episodes. Returns {world step us, project ns}.
std::pair<double, double> sim_probes(const std::vector<World>& worlds) {
  std::vector<double> step_us, project_ns;
  constexpr int kRepeats = 15;
  constexpr int kProjectLoops = 64;
  const Action hold{};
  for (const World& w : worlds) {
    if (w.done()) continue;
    std::vector<double> reps;
    for (int r = 0; r < kRepeats; ++r) {
      World copy = w;
      const std::uint64_t t0 = now_ns();
      copy.step(hold);
      reps.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    step_us.push_back(median(reps));

    std::vector<Vec2> points{w.ego().state().position};
    for (const Npc& npc : w.npcs()) points.push_back(npc.vehicle().state().position);
    double sink = 0.0;
    const std::uint64_t t0 = now_ns();
    for (int r = 0; r < kProjectLoops; ++r) {
      for (const Vec2& p : points) sink += w.road().project(p).s;
    }
    const double dt = static_cast<double>(now_ns() - t0);
    if (!std::isfinite(sink)) throw std::runtime_error("Road::project returned a non-finite s");
    project_ns.push_back(dt / static_cast<double>(kProjectLoops * points.size()));
  }
  return {median(step_us), median(project_ns)};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_metrics(const EpisodeMetrics& a, const EpisodeMetrics& b) {
  const bool same_collision =
      a.collision.has_value() == b.collision.has_value() &&
      (!a.collision || (a.collision->type == b.collision->type &&
                        a.collision->npc_index == b.collision->npc_index &&
                        a.collision->step == b.collision->step));
  return same_collision && a.steps == b.steps && a.passed_npcs == b.passed_npcs &&
         a.side_collision == b.side_collision &&
         same_bits(a.nominal_reward, b.nominal_reward) &&
         same_bits(a.adv_reward, b.adv_reward) &&
         same_bits(a.attack_effort, b.attack_effort) &&
         same_bits(a.total_injected, b.total_injected) &&
         same_bits(a.time_to_collision, b.time_to_collision) &&
         same_bits(a.deviation_rmse, b.deviation_rmse) &&
         same_bits(a.plan_deviation_rmse, b.plan_deviation_rmse);
}

// Set-up warms the actors on one episode; its seed (and attacker, see
// kWarmupCell) is fixed so that set-up does the same work whatever the
// workload seed.
constexpr std::uint64_t kWarmupSeed = 9'999'999;

constexpr int kBudgetSteps = 12;  // attack budgets 0.1 .. 1.2, as in Fig. 4/5

// Mean over sweep cells of each cell's q-quantile of episode time.
// Cells differ in episode length (a strong attack ends episodes early), so
// a quantile of all cells pooled falls between their clusters and jumps with
// the seed's mix; a per-cell quantile does not.
double cell_quantile(const std::vector<std::vector<double>>& cell_ms, double q) {
  double sum = 0.0;
  int cells = 0;
  for (const auto& ms : cell_ms) {
    if (ms.empty()) continue;
    sum += quantile(ms, q);
    ++cells;
  }
  return cells == 0 ? 0.0 : sum / cells;
}

// End-to-end metrics, the same for every workload (see METRICS.md). run.py
// adds setup_s, which it measures from outside the process.
std::vector<Metric> end_to_end_metrics(const std::vector<double>& step_rates,
                                       const std::vector<double>& episode_rates,
                                       const std::vector<std::vector<double>>& cell_ms) {
  return {
      {"steps_per_s", median(step_rates), "1/s"},
      {"episodes_per_s", median(episode_rates), "1/s"},
      {"episode_ms_p50", cell_quantile(cell_ms, 0.50), "ms"},
      {"episode_ms_p90", cell_quantile(cell_ms, 0.90), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// ------------------------------------------------------------ eval workloads

struct Cell {
  int kind = 0;  // attacker kind index
  double budget = 0.0;
};

// Fixed like kWarmupSeed: the attacker the warm-up episode runs against.
constexpr Cell kWarmupCell{0, 0.6};

struct EvalPlan {
  bool victim_is_e2e = false;
  AgentFactory make_victim;
  std::function<std::unique_ptr<Attacker>(const Cell&)> make_attacker;
  std::vector<Cell> cells;  // one round = one batch per cell, in this order
  int episodes = 0;         // per batch
  int jobs = 2;
  int lanes = 1;
  bool with_reference = false;
  std::uint64_t seed_base = 0;
};

std::vector<Cell> seeded_cells(std::uint64_t seed, int kinds) {
  std::vector<Cell> cells;
  for (int k = 0; k < kinds; ++k) {
    for (int b = 1; b <= kBudgetSteps; ++b) cells.push_back({k, 0.1 * b});
  }
  Rng rng(mix(seed ^ 0xb0d6e7ULL));
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.uniform_int(static_cast<std::uint32_t>(i))]);
  }
  return cells;
}

// Episode seeds stay clear of the zoo's training (<1e5), held-out
// (555000), evaluation (700000) and trainer-eval (900000) seed ranges.
std::uint64_t eval_seed_base(std::uint64_t seed) {
  return 10'000'000ULL + (mix(seed) % 1'000'000ULL) * 100'000ULL;
}

struct BatchRun {
  std::vector<EpisodeMetrics> results;
  bool failed = false;
  std::string error;
};

BatchRun run_cell(const EvalPlan& plan, const ExperimentConfig& cfg, const Cell& cell,
                  std::uint64_t seed_base, bool traced, Tally& tally) {
  BatchRun out;
  const AgentFactory victim = [&plan] { return wrap_agent(plan.make_victim()); };
  const AttackerFactory attacker = [&plan, &cell] {
    return wrap_attacker(plan.make_attacker(cell));
  };
  ParallelEvalOptions o;
  o.jobs = plan.jobs;
  o.batch_lanes = plan.lanes;
  o.with_reference = plan.with_reference;
  ledgers_begin(traced);
  const std::uint64_t t0 = now_ns();
  try {
    out.results = run_batch_parallel(victim, attacker, cfg, plan.episodes, seed_base, o);
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
  const std::uint64_t t1 = now_ns();
  auto ledgers = ledgers_take();
  tally.absorb(ledgers, t0, t1, std::min(plan.jobs, plan.episodes));
  return out;
}

RunResult run_eval(const Options& opt, const ExperimentConfig& cfg, const EvalPlan& plan) {
  RunResult res;
  res.provenance.emplace_back("jobs", std::to_string(plan.jobs));
  res.provenance.emplace_back("lanes", std::to_string(plan.lanes));
  res.provenance.emplace_back("episodes_per_batch", std::to_string(plan.episodes));
  res.provenance.emplace_back("cells_per_round", std::to_string(plan.cells.size()));

  constexpr std::uint64_t kRoundStride = 10'000;
  constexpr std::uint64_t kCellStride = 200;
  constexpr int kChecked = 4;  // episodes re-run serially per checked cell

  Tally plain, traced;
  std::vector<double> plain_rates, traced_rates, episode_rates;
  std::vector<std::pair<Cell, std::uint64_t>> checked_cells;
  std::vector<std::vector<EpisodeMetrics>> checked_results;
  std::vector<std::vector<double>> cell_ms(plan.cells.size());  // untraced rounds
  std::uint64_t flops_traced = 0;

  const std::uint64_t t_start = now_ns();
  res.first_step_ns = t_start;
  for (int round = 0;; ++round) {
    const bool traced_round = opt.trace && round % 2 == 1;
    if (traced_round) {
      telemetry::reset_metrics_values();
      telemetry::set_metrics_enabled(true);
    }
    Tally rt;
    for (std::size_t c = 0; c < plan.cells.size(); ++c) {
      const std::uint64_t base = plan.seed_base + kRoundStride * static_cast<std::uint64_t>(round) +
                                 kCellStride * static_cast<std::uint64_t>(c);
      const std::size_t timed_before = rt.episode_ms.size();
      BatchRun b = run_cell(plan, cfg, plan.cells[c], base, traced_round, rt);
      if (!traced_round) {
        cell_ms[c].insert(cell_ms[c].end(), rt.episode_ms.begin() + timed_before,
                          rt.episode_ms.end());
      }
      res.attempted += plan.episodes;
      if (b.failed) {
        res.failed += plan.episodes;
        res.errors.push_back("batch failed: " + b.error);
        continue;
      }
      if (round == 0 && c < 2) {
        checked_cells.emplace_back(plan.cells[c], base);
        checked_results.emplace_back(b.results.begin(), b.results.begin() + kChecked);
      }
    }
    if (traced_round) {
      flops_traced += counter_value(telemetry::metrics_snapshot(), "nn.gemm.flops");
      telemetry::set_metrics_enabled(false);
    }
    const double round_s = static_cast<double>(rt.time_ns) * 1e-9;
    const double rate = static_cast<double>(rt.steps) / round_s;
    if (traced_round) {
      traced_rates.push_back(rate);
      traced.absorb_tally(rt);
    } else {
      plain_rates.push_back(rate);
      episode_rates.push_back(static_cast<double>(rt.episode_ms.size()) / round_s);
      plain.absorb_tally(rt);
    }
    if (seconds_since(t_start) >= opt.seconds && (!opt.trace || round >= 1)) break;
  }

  // Correctness: the parallel (lane-batched) results of a fixed subset of
  // seeds must be bit-identical to serial run_batch on undecorated actors.
  for (std::size_t i = 0; i < checked_cells.size(); ++i) {
    const auto& [cell, base] = checked_cells[i];
    auto victim = plan.make_victim();
    auto attacker = plan.make_attacker(cell);
    const auto serial =
        run_batch(*victim, attacker.get(), cfg, kChecked, base, plan.with_reference);
    for (int k = 0; k < kChecked; ++k) {
      if (!same_metrics(serial[static_cast<std::size_t>(k)],
                        checked_results[i][static_cast<std::size_t>(k)])) {
        res.correct = false;
        res.errors.push_back("episode seed " + std::to_string(base + static_cast<std::uint64_t>(k)) +
                             " differs from serial run_batch");
      }
    }
  }
  if (checked_cells.empty()) {
    res.correct = false;
    res.errors.push_back("no batch completed; nothing checked");
  }

  if (!opt.trace) {
    res.metrics = end_to_end_metrics(plain_rates, episode_rates, cell_ms);
    res.provenance.emplace_back("episodes_timed", std::to_string(plain.episode_ms.size()));
    return res;
  }

  // Only the layers this workload runs; run.py reports the others as 0.
  const Tally& t = traced;
  const auto [world_us, project_ns] = sim_probes(t.worlds);
  const std::uint64_t attributed = [&] {
    std::uint64_t s = 0;
    for (std::uint64_t v : t.ns) s += v;
    return s;
  }();
  const double attack_steps = static_cast<double>(t.calls[kAttack]) / 2.0;
  const double thread_ns = static_cast<double>(t.thread_ns);
  res.metrics = {
      {"attack.decide_us",
       attack_steps == 0 ? 0.0 : static_cast<double>(t.ns[kAttack]) * 1e-3 / attack_steps, "us"},
      {"attack.decide_share", t.share({kAttack, kAttackReset}), "fraction"},
      {"core.step_self_us", t.per_step_us({kCoreStep}), "us"},
      {"core.step_self_share", t.share({kCoreStep}), "fraction"},
      {"core.turnover_share", t.share({kTurnover}), "fraction"},
      {"sim.world_step_us", world_us, "us"},
      {"sim.road_project_ns", project_ns, "ns"},
      {"runtime.busy_frac", plain.busy_frac(), "fraction"},
      {"runtime.stalled_frac", plain.stalled_frac(), "fraction"},
      {"runtime.preempted_frac", plain.preempted_frac(), "fraction"},
      {"runtime.tail_share", static_cast<double>(t.tail_ns) / thread_ns, "fraction"},
      {"core.unattributed_share",
       1.0 - static_cast<double>(attributed + t.tail_ns) / thread_ns, "fraction"},
      {"tracing_overhead", median(plain_rates) / median(traced_rates) - 1.0, "fraction"},
  };
  if (plan.victim_is_e2e) {
    const double nn_s = static_cast<double>(t.ns[kVictimForward] + t.ns[kAttack]) * 1e-9;
    res.metrics.insert(res.metrics.end(), {
        {"sensors.victim_stage_us", t.per_call_us(kVictimStage), "us"},
        {"sensors.victim_stage_share", t.share({kVictimStage, kVictimReset}), "fraction"},
        {"nn.victim_forward_us", t.per_step_us({kVictimForward}), "us"},
        {"nn.victim_forward_share", t.share({kVictimForward, kVictimDecode}), "fraction"},
        {"runtime.scheduler_share", t.share({kScheduler}), "fraction"},
        {"nn.gemm_gflops", static_cast<double>(flops_traced) * 1e-9 / nn_s, "GFLOP/s"},
    });
  } else {
    res.metrics.insert(res.metrics.end(), {
        {"agents.modular_decide_us", t.per_call_us(kVictimDecide), "us"},
        {"agents.modular_decide_share", t.share({kVictimDecide, kVictimReset}), "fraction"},
    });
  }
  return res;
}

// ------------------------------------------------------------ train workload

RunResult run_train(const Options& opt) {
  RunResult res;
  // Fixed step count per training run; the plateau rule is disarmed so no
  // run stops early. Everything else is the zoo's pi_ori SAC configuration.
  const int kStepsPerRun = scaled_steps(6000, 200);
  // Training episodes of a fresh actor are mostly a dozen steps long, and
  // their lengths follow the learning trajectory, so the per-"episode"
  // metrics of this workload time fixed segments of training steps instead.
  constexpr int kSegmentSteps = 50;
  PolicyZoo zoo(opt.zoo_dir);
  const ExperimentConfig& exp = zoo.experiment();

  SacConfig sac_cfg;
  sac_cfg.batch_size = 32;
  sac_cfg.actor_lr = 1e-4;
  sac_cfg.critic_lr = 1e-3;
  sac_cfg.init_alpha = 0.01;
  sac_cfg.auto_alpha = false;
  sac_cfg.actor_delay_updates = scaled_steps(1500, 50);
  TrainConfig tc;
  tc.total_steps = kStepsPerRun;
  tc.start_steps = 0;
  tc.update_after = scaled_steps(300, 20);
  tc.eval_every = scaled_steps(3000, 100);
  tc.eval_episodes = 3;
  tc.plateau_eps = 3.0;
  tc.plateau_patience = kStepsPerRun;  // more evaluations than a run holds

  const std::uint64_t seed_base = 1000 + (mix(opt.seed) % 400'000ULL);
  auto make_env = [&] {
    return std::make_unique<DrivingEnv>(exp.scenario, zoo.camera(), exp.driving_reward,
                                        exp.reference_planner, zoo.frame_stack());
  };
  res.provenance.emplace_back("jobs", "1");
  res.provenance.emplace_back("lanes", "0");
  res.provenance.emplace_back("steps_per_run", std::to_string(kStepsPerRun));

  Tally plain, traced;
  std::vector<double> plain_rates, traced_rates, episode_rates;
  std::uint64_t train_ns_traced = 0, flops_traced = 0, updates_traced = 0;
  std::uint64_t train_ns_all = 0;  // inside train_sac, traced or not
  const std::uint64_t t_start = now_ns();
  for (int run = 0;; ++run) {
    const bool traced_run = opt.trace && run % 2 == 1;
    auto env = make_env();
    const std::uint64_t train_seed = seed_base + 1000ULL * static_cast<std::uint64_t>(run);
    Rng rng(train_seed);
    Sac sac(GaussianPolicy::make_mlp(env->obs_dim(), {64, 64}, 2, rng), sac_cfg, rng);
    TimedEnv timed_env(*env, tc.eval_seed_base, kSegmentSteps);
    tc.seed = train_seed;

    if (traced_run) {
      telemetry::reset_metrics_values();
      telemetry::set_metrics_enabled(true);
    }
    ledgers_begin(traced_run);
    const std::uint64_t t0 = now_ns();
    if (run == 0) {
      res.first_step_ns = t0;
      if (opt.setup_only) return res;
    }
    ++res.attempted;
    TrainResult tr;
    bool ok = true;
    try {
      tr = train_sac(sac, timed_env, tc);
    } catch (const std::exception& e) {
      ok = false;
      ++res.failed;
      res.errors.push_back(std::string("training run failed: ") + e.what());
    }
    const std::uint64_t t1 = now_ns();
    const std::uint64_t wall = t1 - t0;
    train_ns_all += wall;
    auto ledgers = ledgers_take();
    if (traced_run) {
      flops_traced += counter_value(telemetry::metrics_snapshot(), "nn.gemm.flops");
      telemetry::set_metrics_enabled(false);
    }
    Tally rt;
    rt.absorb(ledgers, t0, t1, 1);

    if (ok) {
      // Correctness: the full step count ran, nothing diverged, and the last
      // update's losses are finite.
      const bool losses_finite =
          !tr.update_history.empty() && std::isfinite(tr.update_history.back().critic_loss) &&
          std::isfinite(tr.update_history.back().actor_loss);
      if (tr.steps_done != kStepsPerRun || tr.recoveries != 0 || tr.stopped_on_plateau ||
          !losses_finite || rt.steps != static_cast<std::uint64_t>(kStepsPerRun)) {
        res.correct = false;
        res.errors.push_back("training run " + std::to_string(run) + ": steps_done=" +
                             std::to_string(tr.steps_done) + " recoveries=" +
                             std::to_string(tr.recoveries) +
                             (losses_finite ? "" : " non-finite losses"));
      }
    }
    const double run_s = static_cast<double>(rt.time_ns) * 1e-9;
    if (traced_run) {
      traced_rates.push_back(static_cast<double>(rt.steps) / run_s);
      train_ns_traced += wall;
      updates_traced += tr.update_history.size() * static_cast<std::uint64_t>(tc.updates_per_burst);
      traced.absorb_tally(rt);
    } else {
      plain_rates.push_back(static_cast<double>(rt.steps) / run_s);
      episode_rates.push_back(static_cast<double>(rt.episode_ms.size()) / run_s);
      plain.absorb_tally(rt);
    }
    if (seconds_since(t_start) >= opt.seconds && (!opt.trace || run >= 1)) break;
  }
  const double window_ns = static_cast<double>(now_ns() - t_start);

  if (!opt.trace) {
    // Training segments are one cell: they all do the same kind of work.
    res.metrics = end_to_end_metrics(plain_rates, episode_rates, {plain.episode_ms});
    res.provenance.emplace_back("episodes_timed", std::to_string(plain.episode_ms.size()));
    return res;
  }

  // Isolated Sac::update probe at the zoo shape (batch 32, obs 267, 64-wide).
  double sac_update_ms = 0.0;
  {
    Rng rng(opt.seed);
    auto env = make_env();
    const int obs_dim = env->obs_dim();
    Sac sac(obs_dim, 2, sac_cfg, rng);
    ReplayBuffer buf(4096, obs_dim, 2);
    std::vector<double> obs(static_cast<std::size_t>(obs_dim));
    for (int i = 0; i < 512; ++i) {
      for (auto& v : obs) v = rng.uniform(-1.0, 1.0);
      const double act[2] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      buf.add(obs, act, rng.uniform(), obs, false);
    }
    for (int i = 0; i < 10; ++i) sac.update(buf, rng);
    std::vector<double> chunks;
    for (int c = 0; c < 7; ++c) {
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < 20; ++i) sac.update(buf, rng);
      chunks.push_back(static_cast<double>(now_ns() - t0) * 1e-6 / 20.0);
    }
    sac_update_ms = median(chunks);
  }

  const Tally& t = traced;
  const auto [world_us, project_ns] = sim_probes(t.worlds);
  const double env_ns = static_cast<double>(t.ns[kEnvStep]);
  const double learner_ns =
      static_cast<double>(train_ns_traced) - env_ns - static_cast<double>(t.ns[kSampling]);
  const double train_ns = static_cast<double>(train_ns_traced);
  // Only the layers this workload runs; run.py reports the others as 0.
  res.metrics = {
      {"sim.world_step_us", world_us, "us"},
      {"sim.road_project_ns", project_ns, "ns"},
      {"runtime.stalled_frac", plain.stalled_frac(), "fraction"},
      {"runtime.preempted_frac", plain.preempted_frac(), "fraction"},
      {"rl.env_step_us", t.per_call_us(kEnvStep), "us"},
      {"rl.env_share", env_ns / train_ns, "fraction"},
      {"rl.learner_ms_per_update",
       updates_traced == 0 ? 0.0 : learner_ns * 1e-6 / static_cast<double>(updates_traced), "ms"},
      {"rl.learner_share", learner_ns / train_ns, "fraction"},
      {"nn.sac_update_ms", sac_update_ms, "ms"},
      {"nn.gemm_gflops",
       learner_ns <= 0.0 ? 0.0 : static_cast<double>(flops_traced) / learner_ns, "GFLOP/s"},
      {"core.unattributed_share", 1.0 - static_cast<double>(train_ns_all) / window_ns, "fraction"},
      {"tracing_overhead", median(plain_rates) / median(traced_rates) - 1.0, "fraction"},
  };
  return res;
}

// Everything an eval workload needs before its first timed step.
struct EvalContext {
  std::unique_ptr<PolicyZoo> zoo;
  std::optional<GaussianPolicy> pi_ori, pi_adv;
  EvalPlan plan;
};

// Fig. 5 e2e half: pi_ori under the learned camera attacker, with reference
// rollouts, on bench_fig5_agents' default lane count.
std::unique_ptr<EvalContext> setup_camera(const Options& opt) {
  auto ctx = std::make_unique<EvalContext>();
  EvalContext* c = ctx.get();
  ctx->zoo = std::make_unique<PolicyZoo>(opt.zoo_dir);
  ZooGuard guard;
  ctx->pi_ori = ctx->zoo->driving_policy();
  ctx->pi_adv = ctx->zoo->camera_attacker_vs_e2e();
  guard.check();
  EvalPlan& plan = ctx->plan;
  plan.victim_is_e2e = true;
  plan.make_victim = [c] {
    return std::make_unique<E2EAgent>(*c->pi_ori, c->zoo->camera(), c->zoo->frame_stack());
  };
  plan.make_attacker = [c](const Cell& cell) -> std::unique_ptr<Attacker> {
    return std::make_unique<LearnedCameraAttacker>(*c->pi_adv, cell.budget, c->zoo->camera(),
                                                   c->zoo->frame_stack());
  };
  plan.cells = seeded_cells(opt.seed, 1);
  plan.episodes = 16;
  plan.jobs = 2;
  plan.lanes = 8;
  plan.with_reference = true;
  plan.seed_base = eval_seed_base(opt.seed);
  // Warm the actors once (lazy weight packing, first allocations).
  auto victim = plan.make_victim();
  auto attacker = plan.make_attacker(kWarmupCell);
  run_episode(*victim, attacker.get(), ctx->zoo->experiment(), kWarmupSeed);
  return ctx;
}

// Modular victim under the scripted oracle and uniform noise: no camera and
// no network, so sim geometry and per-episode dispatch dominate.
std::unique_ptr<EvalContext> setup_modular(const Options& opt) {
  auto ctx = std::make_unique<EvalContext>();
  EvalContext* c = ctx.get();
  ctx->zoo = std::make_unique<PolicyZoo>(opt.zoo_dir);
  EvalPlan& plan = ctx->plan;
  plan.victim_is_e2e = false;
  plan.make_victim = [c] { return c->zoo->make_modular_agent(); };
  plan.make_attacker = [c](const Cell& cell) -> std::unique_ptr<Attacker> {
    if (cell.kind == 0) {
      return std::make_unique<ScriptedAttacker>(cell.budget, c->zoo->experiment().adv_reward);
    }
    return std::make_unique<NoiseAttacker>(cell.budget);
  };
  plan.cells = seeded_cells(opt.seed, 2);
  plan.episodes = 32;
  plan.jobs = 2;
  plan.lanes = 1;
  plan.with_reference = false;
  plan.seed_base = eval_seed_base(opt.seed);
  auto victim = plan.make_victim();
  auto attacker = plan.make_attacker(kWarmupCell);
  run_episode(*victim, attacker.get(), ctx->zoo->experiment(), kWarmupSeed);
  return ctx;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"eval_camera_attack", "eval_modular_scripted",
                                              "train_driving_sac"};
  return names;
}

void prime_policies(const std::string& dir) {
  runtime_config().train_scale = kTrainScale;
  PolicyZoo zoo(dir);
  zoo.driving_policy();
  zoo.camera_attacker_vs_e2e();
}

RunResult run_workload(const Options& opt) {
  runtime_config().train_scale = kTrainScale;
  runtime_config().zoo_dir = opt.zoo_dir;
  const auto checksums = verify_cache(opt);

  RunResult res;
  if (opt.workload == "train_driving_sac") {
    res = run_train(opt);
  } else {
    const auto setup = opt.workload == "eval_camera_attack" ? setup_camera : setup_modular;
    const std::unique_ptr<EvalContext> ctx = setup(opt);
    if (opt.setup_only) {
      res.first_step_ns = now_ns();
      return res;
    }
    res = run_eval(opt, ctx->zoo->experiment(), ctx->plan);
  }
  res.provenance.insert(res.provenance.begin(), checksums.begin(), checksums.end());
  return res;
}

}  // namespace perfbench

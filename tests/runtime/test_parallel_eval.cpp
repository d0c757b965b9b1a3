// The determinism contract of the parallel rollout runtime: for a fixed
// seed base, run_batch_parallel returns EpisodeMetrics element-wise
// BIT-IDENTICAL to the serial run_batch, for any jobs and lanes count —
// for both agent architectures, with and without an attacker, with and
// without reference rollouts — and raises the error serial run_batch
// would raise first. EXPECT_EQ on doubles below is deliberate: the
// contract is exact equality, not tolerance.
#include "runtime/parallel_eval.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <stdexcept>

#include "telemetry/trace.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "agents/e2e_agent.hpp"
#include "agents/modular_agent.hpp"
#include "attack/scripted_attacker.hpp"
#include "sensors/camera.hpp"
#include "sim/scenario.hpp"

namespace adsec {
namespace {

void expect_identical(const EpisodeMetrics& a, const EpisodeMetrics& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.passed_npcs, b.passed_npcs);
  EXPECT_EQ(a.collision.has_value(), b.collision.has_value());
  if (a.collision.has_value() && b.collision.has_value()) {
    EXPECT_EQ(a.collision->type, b.collision->type);
    EXPECT_EQ(a.collision->step, b.collision->step);
  }
  EXPECT_EQ(a.side_collision, b.side_collision);
  EXPECT_EQ(a.nominal_reward, b.nominal_reward);
  EXPECT_EQ(a.adv_reward, b.adv_reward);
  EXPECT_EQ(a.attack_effort, b.attack_effort);
  EXPECT_EQ(a.total_injected, b.total_injected);
  EXPECT_EQ(a.time_to_collision, b.time_to_collision);
  EXPECT_EQ(a.deviation_rmse, b.deviation_rmse);
  EXPECT_EQ(a.plan_deviation_rmse, b.plan_deviation_rmse);
}

void expect_parity(const AgentFactory& make_agent, const AttackerFactory& make_attacker,
                   bool with_reference, int episodes, std::uint64_t seed_base) {
  ExperimentConfig cfg;
  auto agent = make_agent();
  std::unique_ptr<Attacker> attacker;
  if (make_attacker) attacker = make_attacker();
  const auto serial =
      run_batch(*agent, attacker.get(), cfg, episodes, seed_base, with_reference);

  for (const int jobs : {1, 2, 3, 4, 7}) {
    for (const int lanes : {1, 4}) {
      ParallelEvalOptions opt;
      opt.jobs = jobs;
      opt.batch_lanes = lanes;
      opt.with_reference = with_reference;
      const auto parallel =
          run_batch_parallel(make_agent, make_attacker, cfg, episodes, seed_base, opt);
      ASSERT_EQ(parallel.size(), serial.size()) << "jobs=" << jobs << " lanes=" << lanes;
      for (std::size_t k = 0; k < serial.size(); ++k) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs) + " lanes=" + std::to_string(lanes) +
                     " episode=" + std::to_string(k));
        expect_identical(parallel[k], serial[k]);
      }
    }
  }
}

AgentFactory modular_factory() {
  return [] { return std::make_unique<ModularAgent>(); };
}

// An untrained (random-weight) policy exercises exactly the same decide()
// path as a zoo-trained one without minutes of SAC — the parity contract
// does not care how good the driving is.
AgentFactory e2e_factory() {
  return [] {
    Rng rng(42);
    const int obs_dim = StackedCameraObserver({}, 3).dim();
    GaussianPolicy policy = GaussianPolicy::make_mlp(obs_dim, {32, 32}, 2, rng);
    return std::make_unique<E2EAgent>(policy, CameraConfig{}, 3);
  };
}

// The initial NPC layout of a seed's world: EpisodeRunner builds the world
// from the seed alone, so this tells the seeds of one batch apart.
std::vector<double> npc_layout(const World& world) {
  std::vector<double> layout;
  for (const Npc& npc : world.npcs()) {
    layout.push_back(npc.frenet().s);
    layout.push_back(npc.frenet().d);
  }
  return layout;
}

// A modular agent whose reset() throws on the worlds of chosen seeds,
// naming the seed — the reference and the scored rollout of a seed both
// reset on its world, so either trips it.
class SeedRefusingAgent : public ModularAgent {
 public:
  explicit SeedRefusingAgent(std::vector<std::uint64_t> seeds) {
    ExperimentConfig cfg;
    for (const std::uint64_t seed : seeds) {
      Rng rng(seed);
      refused_.emplace_back(seed, npc_layout(make_scenario(cfg.scenario, rng)));
    }
  }
  void reset(const World& world) override {
    const std::vector<double> layout = npc_layout(world);
    for (const auto& [seed, refused] : refused_) {
      if (layout == refused) throw std::runtime_error("refused seed " + std::to_string(seed));
    }
    ModularAgent::reset(world);
  }

 private:
  std::vector<std::pair<std::uint64_t, std::vector<double>>> refused_;
};

TEST(ParallelEval, ParityModularNominal) {
  expect_parity(modular_factory(), {}, /*with_reference=*/false, 10, 500);
}

TEST(ParallelEval, ParityModularAttacked) {
  AttackerFactory attacker = [] { return std::make_unique<ScriptedAttacker>(0.8); };
  expect_parity(modular_factory(), attacker, /*with_reference=*/false, 10, 500);
}

TEST(ParallelEval, ParityModularAttackedWithReference) {
  AttackerFactory attacker = [] { return std::make_unique<ScriptedAttacker>(1.0); };
  expect_parity(modular_factory(), attacker, /*with_reference=*/true, 8, 700000);
}

TEST(ParallelEval, ParityE2ENominal) {
  expect_parity(e2e_factory(), {}, /*with_reference=*/false, 8, 500);
}

TEST(ParallelEval, ParityE2EAttacked) {
  AttackerFactory attacker = [] { return std::make_unique<ScriptedAttacker>(0.8); };
  expect_parity(e2e_factory(), attacker, /*with_reference=*/false, 8, 500);
}

TEST(ParallelEval, ParityNoiseAttackerReseedsPerEpisode) {
  // The stochastic baseline attacker reseeds in reset(), so even it must
  // hold the bit-identity contract across worker-private instances.
  AttackerFactory attacker = [] { return std::make_unique<NoiseAttacker>(0.6); };
  expect_parity(modular_factory(), attacker, /*with_reference=*/false, 10, 123);
}

TEST(ParallelEval, EmptyAndSingleBatches) {
  ExperimentConfig cfg;
  EXPECT_TRUE(run_batch_parallel(modular_factory(), {}, cfg, 0, 1).empty());
  const auto one = run_batch_parallel(modular_factory(), {}, cfg, 1, 9, false, 8);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].steps, 180);
}

TEST(ParallelEval, MoreJobsThanEpisodes) {
  expect_parity(modular_factory(), {}, /*with_reference=*/false, 3, 77);
}

TEST(ParallelEval, ProgressCallbackCountsEveryEpisode) {
  ExperimentConfig cfg;
  std::atomic<int> ticks{0};
  std::atomic<int> last_total{0};  // callback contract: thread-safe state only
  ParallelEvalOptions opt;
  opt.jobs = 4;
  opt.on_progress = [&](int, int total) {
    ++ticks;
    last_total = total;
  };
  run_batch_parallel(modular_factory(), {}, cfg, 12, 300, opt);
  EXPECT_EQ(ticks.load(), 12);
  EXPECT_EQ(last_total.load(), 12);
}

TEST(ParallelEval, BatchFormsOneRootedSpanTree) {
  // Acceptance criterion for the tracing tentpole: a parallel batch is ONE
  // rooted trace — runtime.batch on the submitting thread, every
  // runtime.episode parenting to it from the worker threads.
  telemetry::clear_trace();
  telemetry::set_tracing_enabled(true);
  ExperimentConfig cfg;
  run_batch_parallel(modular_factory(), {}, cfg, 6, 11, false, 4);

  std::uint64_t trace_id = 0;
  for (const telemetry::SpanRecord& s : telemetry::collect_spans()) {
    if (s.name == std::string("runtime.batch")) trace_id = s.trace_id;
  }
  ASSERT_NE(trace_id, 0u) << "batch root span missing";
  const std::vector<telemetry::SpanRecord> spans =
      telemetry::collect_trace(trace_id);
  telemetry::set_tracing_enabled(false);
  telemetry::clear_trace();

  std::map<std::uint64_t, const telemetry::SpanRecord*> by_id;
  std::set<int> tids;
  for (const telemetry::SpanRecord& s : spans) {
    by_id[s.span_id] = &s;
    tids.insert(s.tid);
  }
  EXPECT_GE(tids.size(), 2u) << "episodes must have run off the main thread";
  int roots = 0;
  int episodes = 0;
  std::uint64_t batch_span_id = 0;
  for (const telemetry::SpanRecord& s : spans) {
    if (s.parent_span_id == 0) {
      ++roots;
      EXPECT_EQ(s.name, std::string("runtime.batch"));
      batch_span_id = s.span_id;
    } else {
      EXPECT_TRUE(by_id.count(s.parent_span_id))
          << s.name << " has a dangling parent link";
    }
  }
  EXPECT_EQ(roots, 1);
  for (const telemetry::SpanRecord& s : spans) {
    if (s.name == std::string("runtime.episode")) {
      ++episodes;
      EXPECT_EQ(s.parent_span_id, batch_span_id);
    }
  }
  EXPECT_EQ(episodes, 6);
}

TEST(ParallelEval, FirstEpisodeExceptionPropagates) {
  ExperimentConfig cfg;
  AgentFactory throwing = [] {
    throw std::runtime_error("factory exploded");
    return std::unique_ptr<DrivingAgent>();
  };
  EXPECT_THROW(run_batch_parallel(throwing, {}, cfg, 4, 1, false, 2),
               std::runtime_error);
  EXPECT_THROW(run_batch_parallel(throwing, {}, cfg, 4, 1, false, 1),
               std::runtime_error);

  // Two failing episodes: whatever order the workers hit them in, the
  // error raised is the lower seed's — the one serial run_batch raises.
  constexpr std::uint64_t kBase = 500;
  const std::vector<std::uint64_t> refused = {kBase + 2, kBase + 3};
  std::set<std::vector<double>> layouts;
  for (std::uint64_t seed = kBase; seed < kBase + 10; ++seed) {
    Rng rng(seed);
    layouts.insert(npc_layout(make_scenario(cfg.scenario, rng)));
  }
  ASSERT_EQ(layouts.size(), 10u) << "seeds of the batch must build distinct worlds";
  const AgentFactory refusing = [&refused] {
    return std::make_unique<SeedRefusingAgent>(refused);
  };
  const AttackerFactory attacker = [] { return std::make_unique<ScriptedAttacker>(0.8); };
  for (const bool with_reference : {false, true}) {
    SeedRefusingAgent serial_agent(refused);
    ScriptedAttacker serial_attacker(0.8);
    try {
      run_batch(serial_agent, &serial_attacker, cfg, 10, kBase, with_reference);
      FAIL() << "serial run_batch must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "refused seed 502");
    }
    for (const int jobs : {1, 3}) {
      for (const int lanes : {1, 4}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs) + " lanes=" + std::to_string(lanes) +
                     " with_reference=" + std::to_string(with_reference));
        ParallelEvalOptions opt;
        opt.jobs = jobs;
        opt.batch_lanes = lanes;
        opt.with_reference = with_reference;
        try {
          run_batch_parallel(refusing, attacker, cfg, 10, kBase, opt);
          ADD_FAILURE() << "expected the refused seed's error";
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()), "refused seed 502");
        }
      }
    }
  }
}

TEST(ParallelEval, InjectedWorkerFaultSurfacesAsStructuredError) {
  // A worker dying mid-batch must surface as adsec::Error after all other
  // workers drained — not hang, not crash — and the pool must be reusable
  // for a clean batch immediately afterwards.
  ExperimentConfig cfg;
  fault_injector().arm("runtime.worker", FaultKind::Throw, /*fire_at=*/3);
  try {
    run_batch_parallel(modular_factory(), {}, cfg, 8, 500, false, 4);
    FAIL() << "expected Error{Internal}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Internal);
  }
  fault_injector().reset();

  const auto serial = [&] {
    ModularAgent agent;
    return run_batch(agent, nullptr, cfg, 4, 500, false);
  }();
  const auto clean = run_batch_parallel(modular_factory(), {}, cfg, 4, 500, false, 4);
  ASSERT_EQ(clean.size(), serial.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    expect_identical(clean[k], serial[k]);
  }
}

}  // namespace
}  // namespace adsec

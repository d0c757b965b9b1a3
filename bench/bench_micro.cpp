// Micro-benchmarks (google-benchmark): throughput of the building blocks —
// simulator stepping, Frenet projection, sensor rendering, policy inference,
// SAC gradient updates, and the telemetry hot paths. Not a paper figure;
// used to size training runs and to enforce the telemetry overhead budget
// (disabled-path instrumentation must stay ≤ 5 ns/op — see the
// telemetry_overhead table this binary writes into BENCH_micro.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "agents/e2e_agent.hpp"
#include "agents/modular_agent.hpp"
#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "nn/gaussian_policy.hpp"
#include "nn/simd.hpp"
#include "rl/sac.hpp"
#include "runtime/parallel_eval.hpp"
#include "sensors/camera.hpp"
#include "sensors/imu.hpp"
#include "sim/scenario.hpp"
#include "telemetry/telemetry.hpp"

namespace adsec {
namespace {

World fresh_world(std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  Rng rng(seed);
  return make_scenario(cfg, rng);
}

void BM_WorldStep(benchmark::State& state) {
  World w = fresh_world();
  for (auto _ : state) {
    if (w.done()) {
      state.PauseTiming();
      w = fresh_world();
      state.ResumeTiming();
    }
    w.step({0.05, 0.3});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorldStep);

void BM_RoadProject(benchmark::State& state) {
  const Road road = Road::freeway();
  Rng rng(2);
  std::vector<Vec2> points;
  for (int i = 0; i < 256; ++i) {
    points.push_back(road.world_at(rng.uniform(0.0, road.length()),
                                   rng.uniform(-5.0, 5.0)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(road.project(points[i++ & 255]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoadProject);

void BM_CameraObserve(benchmark::State& state) {
  World w = fresh_world();
  CameraSensor cam;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cam.observe(w));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CameraObserve);

// An s_curve world with the ego mid-sweeper, offset so that the centre of
// grid cell (row 9, col 1) lies on the road's right edge: times the arc
// estimate plus the exact projection that cells inside the margin take.
World curve_edge_world() {
  const auto road = std::make_shared<const Road>(Road::s_curve());
  const CameraConfig cfg;
  const double s = 200.0;
  const double lon = 9.5 * cfg.cell_length - cfg.rear_range;
  const double lat = 1.5 * cfg.cell_width - 0.5 * cfg.cols * cfg.cell_width;
  VehicleState ego;
  ego.heading = road->heading_at(s);
  ego.speed = 10.0;
  double d = 0.0;
  for (int it = 0; it < 6; ++it) {
    ego.position = road->world_at(s, d);
    d -= road->half_width() + road->project(ego.position + Vec2{lon, lat}.rotated(ego.heading)).d;
  }
  ego.position = road->world_at(s, d);
  return World(road, default_vehicle_params(), ego, {});
}

void BM_CameraObserveCurveEdge(benchmark::State& state) {
  const World w = curve_edge_world();
  CameraSensor cam;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cam.observe(w));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CameraObserveCurveEdge);

void BM_ImuObserve(benchmark::State& state) {
  World w = fresh_world();
  ImuSensor imu;
  imu.reset(w);
  imu.update(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(imu.observation());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImuObserve);

void BM_PolicyInference(benchmark::State& state) {
  Rng rng(3);
  const int obs_dim = StackedCameraObserver({}, 3).dim();
  GaussianPolicy pi = GaussianPolicy::make_mlp(obs_dim, {64, 64}, 2, rng);
  Matrix obs = Matrix::randn(1, obs_dim, rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pi.mean_action(obs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyInference);

void BM_ModularDecide(benchmark::State& state) {
  World w = fresh_world();
  ModularAgent agent;
  agent.reset(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.decide(w));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModularDecide);

// Episode throughput of the parallel rollout runtime vs the serial batch
// loop, on the same 64-episode modular-agent workload. Arg is the worker
// count (0 = the serial run_batch baseline); items/sec == episodes/sec, so
// the per-thread-count speedup reads directly off the report.
void BM_EpisodeBatch(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  constexpr int kEpisodes = 64;
  const ExperimentConfig cfg;
  const AgentFactory make_agent = [] { return std::make_unique<ModularAgent>(); };
  for (auto _ : state) {
    if (jobs == 0) {
      ModularAgent agent;
      benchmark::DoNotOptimize(run_batch(agent, nullptr, cfg, kEpisodes, 1));
    } else {
      benchmark::DoNotOptimize(run_batch_parallel(make_agent, AttackerFactory{}, cfg,
                                                  kEpisodes, 1,
                                                  /*with_reference=*/false, jobs));
    }
  }
  state.SetItemsProcessed(state.iterations() * kEpisodes);
}
BENCHMARK(BM_EpisodeBatch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The e2e workload lane batching was built for: a fleet of identical
// policy agents whose per-step GEMV collapses into one batched GEMM across
// in-flight episodes. Arg is the lane count (1 = the serial per-episode
// decide() loop); items/sec == episodes/sec. Results are bit-identical at
// every lane count — this measures throughput only. The policy is wider
// than the zoo's e2e nets so the workload is inference-bound: per-row GEMV
// streams the full 512-wide weight panels from memory every step, which is
// exactly the traffic the batched GEMM amortizes across lanes.
const GaussianPolicy& bench_e2e_policy() {
  static const GaussianPolicy policy = [] {
    Rng rng(25);
    const int obs_dim = StackedCameraObserver({}, 3).dim();
    return GaussianPolicy::make_mlp(obs_dim, {512, 512}, 2, rng);
  }();
  return policy;
}

AgentFactory bench_e2e_factory() {
  return [] {
    return std::make_unique<E2EAgent>(bench_e2e_policy(), CameraConfig{}, 3);
  };
}

void BM_BatchedDecide(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  // Enough episodes that per-lane fleet construction (each agent clones the
  // policy) amortizes away and the steady-state batched forward dominates.
  constexpr int kEpisodes = 128;
  const ExperimentConfig cfg;
  const AgentFactory make_agent = bench_e2e_factory();
  ParallelEvalOptions opts;
  opts.jobs = 1;
  opts.batch_lanes = lanes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_batch_parallel(make_agent, AttackerFactory{}, cfg, kEpisodes, 1, opts));
  }
  state.SetItemsProcessed(state.iterations() * kEpisodes);
}
BENCHMARK(BM_BatchedDecide)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- NN compute kernels --------------------------------------------------
// Blocked GEMM vs the reference:: triple loops, the shapes the training
// loops actually hit. The old-vs-new ratio table in BENCH_micro.json comes
// from write_gemm_kernels_table below; these google-benchmark entries give
// the same numbers in the standard reporter.

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  const Matrix a = Matrix::randn(n, n, rng, 1.0);
  const Matrix b = Matrix::randn(n, n, rng, 1.0);
  Matrix c;
  for (auto _ : state) {
    matmul_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // FLOPs
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256);

void BM_GemmReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  const Matrix a = Matrix::randn(n, n, rng, 1.0);
  const Matrix b = Matrix::randn(n, n, rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmReference)->Arg(64)->Arg(256);

void BM_Gemv(benchmark::State& state) {
  // The rollout-stepping shape: one observation row through a 256-wide layer.
  Rng rng(6);
  const Matrix x = Matrix::randn(1, 256, rng, 1.0);
  const Matrix w = Matrix::randn(256, 256, rng, 0.1);
  const Matrix b = Matrix::randn(1, 256, rng, 0.1);
  Matrix y;
  for (auto _ : state) {
    linear_forward_into(y, x, w, b, Activation::ReLU);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Gemv);

void BM_MlpForwardBackward(benchmark::State& state) {
  // The acceptance shape: batch 256 through 64 -> 256 -> 256 -> 1.
  Rng rng(7);
  Mlp net({64, 256, 256, 1}, Activation::ReLU, rng);
  const Matrix x = Matrix::randn(256, 64, rng, 1.0);
  Matrix g(256, 1);
  g.fill(1.0 / 256.0);
  for (auto _ : state) {
    net.forward(x);
    net.backward(g);
    net.zero_grad();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpForwardBackward)->Unit(benchmark::kMillisecond);

void BM_SacUpdate(benchmark::State& state) {
  const int obs_dim = static_cast<int>(state.range(0));
  SacConfig cfg;
  cfg.batch_size = 32;
  Rng rng(4);
  Sac sac(obs_dim, 2, cfg, rng);
  ReplayBuffer buf(4096, obs_dim, 2);
  std::vector<double> obs(static_cast<std::size_t>(obs_dim));
  for (int i = 0; i < 512; ++i) {
    for (auto& v : obs) v = rng.uniform(-1.0, 1.0);
    const double act[2] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    buf.add(obs, act, rng.uniform(), obs, false);
  }
  for (auto _ : state) {
    sac.update(buf, rng);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SacUpdate)->Arg(64)->Arg(267);

// The actor-delay phase of a training run (~26 % of perfbench's
// train_driving_sac updates): target forward, critic step and Adam only.
void BM_SacCriticUpdate(benchmark::State& state) {
  const int obs_dim = static_cast<int>(state.range(0));
  SacConfig cfg;
  cfg.batch_size = 32;
  cfg.actor_delay_updates = std::numeric_limits<int>::max();
  Rng rng(4);
  Sac sac(obs_dim, 2, cfg, rng);
  ReplayBuffer buf(4096, obs_dim, 2);
  std::vector<double> obs(static_cast<std::size_t>(obs_dim));
  for (int i = 0; i < 512; ++i) {
    for (auto& v : obs) v = rng.uniform(-1.0, 1.0);
    const double act[2] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    buf.add(obs, act, rng.uniform(), obs, false);
  }
  for (auto _ : state) {
    sac.update(buf, rng);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SacCriticUpdate)->Arg(267);

// One Adam step over a zoo critic's 21,505 parameters (269 -> 64 -> 64 -> 1)
// on the tier named by the argument (0 scalar, 1 avx2). Grads are refilled
// outside the timed region each iteration: Adam zeroes them, and zero grads
// would decay the moments into denormals.
void BM_AdamStep(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (!simd::tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  simd::force_tier(tier);
  Rng rng(8);
  Mlp critic({269, 64, 64, 1}, Activation::ReLU, rng);
  Adam opt(critic.params(), critic.grads(), {});
  const std::vector<Matrix*> grads = critic.grads();
  std::vector<Matrix> fresh;
  for (const Matrix* g : grads) fresh.push_back(Matrix::randn(g->rows(), g->cols(), rng, 0.1));
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t k = 0; k < grads.size(); ++k) grads[k]->copy_from(fresh[k]);
    state.ResumeTiming();
    opt.step();
  }
  simd::reset_tier();
  state.SetLabel(simd::tier_name(tier));
  state.SetItemsProcessed(state.iterations() * 21505);
}
BENCHMARK(BM_AdamStep)->Arg(0)->Arg(1);

// ---- telemetry hot paths -------------------------------------------------
// The enabled/disabled pairs bound what instrumenting a call site costs. The
// disabled variants are the budget that matters: instrumentation stays
// compiled in everywhere, so its off-state cost is paid by every
// un-instrumented run.

void BM_TelemetryCounterEnabled(benchmark::State& state) {
  telemetry::set_metrics_enabled(true);
  telemetry::Counter c = telemetry::counter("bench.counter");
  for (auto _ : state) c.inc();
  telemetry::set_metrics_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterEnabled);

void BM_TelemetryCounterDisabled(benchmark::State& state) {
  telemetry::set_metrics_enabled(false);
  telemetry::Counter c = telemetry::counter("bench.counter");
  for (auto _ : state) c.inc();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterDisabled);

void BM_TelemetrySpanEnabled(benchmark::State& state) {
  telemetry::set_tracing_enabled(true);
  for (auto _ : state) {
    ADSEC_SPAN("bench.span");
  }
  telemetry::set_tracing_enabled(false);
  telemetry::clear_trace();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetrySpanDisabled(benchmark::State& state) {
  telemetry::set_tracing_enabled(false);
  for (auto _ : state) {
    ADSEC_SPAN("bench.span");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpanDisabled);

// Manual ns/op measurement for the BENCH_micro.json artifact: a tight loop
// long enough to amortize the clock reads, reported per operation. Simpler
// and more portable than scraping google-benchmark's own reporter.
double measure_ns_per_op(const std::function<void()>& op) {
  constexpr int kWarmup = 1 << 16;
  constexpr int kIters = 1 << 22;  // ~4M ops per timed block
  for (int i = 0; i < kWarmup; ++i) op();
  double best = 1e300;  // best-of-3 filters scheduler noise
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = telemetry::monotonic_ns();
    for (int i = 0; i < kIters; ++i) op();
    const std::uint64_t t1 = telemetry::monotonic_ns();
    best = std::min(best, static_cast<double>(t1 - t0) / kIters);
  }
  return best;
}

// Like measure_ns_per_op but for expensive ops: caller picks the iteration
// count (the 4M-iteration default would take hours on a 256^3 GEMM).
double measure_ns_scaled(const std::function<void()>& op, int iters) {
  const int warmup = std::max(1, iters / 4);
  for (int i = 0; i < warmup; ++i) op();
  double best = 1e300;  // best-of-3 filters scheduler noise
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = telemetry::monotonic_ns();
    for (int i = 0; i < iters; ++i) op();
    const std::uint64_t t1 = telemetry::monotonic_ns();
    best = std::min(best, static_cast<double>(t1 - t0) / iters);
  }
  return best;
}

// The pre-PR compute path, reconstructed from the reference:: kernels: an
// allocating forward (linear_forward + activation per layer) and an
// allocating backward (matmul_tn / column_sum / matmul_nt with add_inplace).
// This is the baseline the "speedup" column — and the >= 2x acceptance bar
// on the MLP row — is measured against.
struct RefMlp {
  std::vector<Matrix> w, b, wg, bg;
  Activation act{Activation::ReLU};
  std::vector<Matrix> inputs;  // cached activations, like the old Mlp

  RefMlp(const std::vector<int>& dims, Rng& rng) {
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
      const double scale = 1.0 / std::sqrt(static_cast<double>(dims[l]));
      w.push_back(Matrix::randn(dims[l], dims[l + 1], rng, scale));
      b.push_back(Matrix(1, dims[l + 1]));
      wg.push_back(Matrix(dims[l], dims[l + 1]));
      bg.push_back(Matrix(1, dims[l + 1]));
    }
  }

  Matrix forward(const Matrix& x) {
    inputs.clear();
    inputs.push_back(x);
    Matrix h = x;
    for (std::size_t l = 0; l < w.size(); ++l) {
      h = reference::linear_forward(h, w[l], b[l]);
      if (l + 1 < w.size()) apply_activation(act, h);
      if (l + 1 < w.size()) inputs.push_back(h);
    }
    return h;
  }

  void backward(const Matrix& grad_out) {
    Matrix cur = grad_out;
    for (std::size_t i = w.size(); i-- > 0;) {
      if (i + 1 < w.size()) apply_activation_grad(act, inputs[i + 1], cur);
      wg[i].add_inplace(reference::matmul_tn(inputs[i], cur));
      bg[i].add_inplace(reference::column_sum(cur));
      cur = reference::matmul_nt(cur, w[i]);
    }
  }

  void zero_grad() {
    for (auto& m : wg) m.set_zero();
    for (auto& m : bg) m.set_zero();
  }
};

// Old-vs-new kernel table for BENCH_micro.json: blocked/fused path against
// the pre-PR reference kernels at the shapes that matter. Measured with the
// dispatch tier FORCED to scalar so the gated speedup column compares the
// blocking/fusion work alone and reads the same on any host; the SIMD gain
// on top is the separate simd_kernels table below.
void write_gemm_kernels_table() {
  simd::force_tier(simd::Tier::Scalar);
  Rng rng(21);
  Table t({"op", "new_ns", "ref_ns", "speedup"});
  auto row = [&t](const char* op, double new_ns, double ref_ns) {
    t.add_row({op, fmt(new_ns, 0), fmt(ref_ns, 0), fmt(ref_ns / new_ns, 2)});
    std::printf("kernels: %-18s new %10.0f ns  ref %10.0f ns  speedup %5.2fx\n", op,
                new_ns, ref_ns, ref_ns / new_ns);
  };

  for (const int n : {64, 256}) {
    const Matrix a = Matrix::randn(n, n, rng, 1.0);
    const Matrix b = Matrix::randn(n, n, rng, 1.0);
    Matrix c;
    const int iters = n == 64 ? 256 : 16;
    const double new_ns = measure_ns_scaled([&] { matmul_into(c, a, b); }, iters);
    const double ref_ns =
        measure_ns_scaled([&] { benchmark::DoNotOptimize(reference::matmul(a, b)); },
                          iters);
    row(n == 64 ? "gemm_64" : "gemm_256", new_ns, ref_ns);
  }

  {
    const Matrix x = Matrix::randn(1, 256, rng, 1.0);
    const Matrix w = Matrix::randn(256, 256, rng, 0.1);
    const Matrix bias = Matrix::randn(1, 256, rng, 0.1);
    Matrix y;
    const double new_ns = measure_ns_scaled(
        [&] { linear_forward_into(y, x, w, bias, Activation::ReLU); }, 2048);
    const double ref_ns = measure_ns_scaled(
        [&] {
          Matrix h = reference::linear_forward(x, w, bias);
          apply_activation(Activation::ReLU, h);
          benchmark::DoNotOptimize(h.data());
        },
        2048);
    row("gemv_1x256", new_ns, ref_ns);
  }

  {
    const std::vector<int> dims = {64, 256, 256, 1};
    Rng r1(22), r2(22);
    Mlp net(dims, Activation::ReLU, r1);
    RefMlp ref(dims, r2);
    const Matrix x = Matrix::randn(256, 64, rng, 1.0);
    Matrix g(256, 1);
    g.fill(1.0 / 256.0);
    const double new_ns = measure_ns_scaled(
        [&] {
          net.forward(x);
          net.backward(g);
          net.zero_grad();
        },
        8);
    const double ref_ns = measure_ns_scaled(
        [&] {
          ref.forward(x);
          ref.backward(g);
          ref.zero_grad();
        },
        8);
    row("mlp_fb_256x64-256-256-1", new_ns, ref_ns);
  }

  bench::maybe_write_csv(t, "gemm_kernels");
  simd::reset_tier();
}

// SIMD-vs-scalar ratio table: the same kernel shapes timed under both
// dispatch tiers in one process via force_tier. Only written when the host
// can execute the AVX2 tier — bench_compare.py skips its gates when the
// recorded simd_tier differs from the baseline's, so a scalar-only host
// neither fakes nor fails this table. Acceptance floor: >= 1.8x on
// gemm_256.
void write_simd_kernels_table() {
  const std::vector<simd::Tier> tiers = simd::available_tiers();
  if (std::find(tiers.begin(), tiers.end(), simd::Tier::Avx2) == tiers.end()) {
    std::printf(
        "simd kernels: AVX2 tier unavailable on this host — "
        "simd_kernels table skipped\n");
    return;
  }

  Rng rng(26);
  Table t({"op", "scalar_ns", "avx2_ns", "speedup"});
  auto row = [&t](const char* op, double scalar_ns, double avx2_ns) {
    t.add_row({op, fmt(scalar_ns, 0), fmt(avx2_ns, 0),
               fmt(scalar_ns / avx2_ns, 2)});
    std::printf("simd kernels: %-14s scalar %10.0f ns  avx2 %10.0f ns  "
                "speedup %5.2fx\n",
                op, scalar_ns, avx2_ns, scalar_ns / avx2_ns);
  };
  auto timed = [](simd::Tier tier, const std::function<void()>& op, int iters) {
    simd::force_tier(tier);
    const double ns = measure_ns_scaled(op, iters);
    simd::reset_tier();
    return ns;
  };

  for (const int n : {64, 256}) {
    const Matrix a = Matrix::randn(n, n, rng, 1.0);
    const Matrix b = Matrix::randn(n, n, rng, 1.0);
    Matrix c;
    const int iters = n == 64 ? 256 : 16;
    const auto op = [&] { matmul_into(c, a, b); };
    row(n == 64 ? "gemm_64" : "gemm_256", timed(simd::Tier::Scalar, op, iters),
        timed(simd::Tier::Avx2, op, iters));
  }

  {
    const Matrix x = Matrix::randn(1, 256, rng, 1.0);
    const Matrix w = Matrix::randn(256, 256, rng, 0.1);
    const Matrix bias = Matrix::randn(1, 256, rng, 0.1);
    Matrix y;
    const auto op = [&] { linear_forward_into(y, x, w, bias, Activation::ReLU); };
    row("gemv_1x256", timed(simd::Tier::Scalar, op, 2048),
        timed(simd::Tier::Avx2, op, 2048));
  }

  bench::maybe_write_csv(t, "simd_kernels");
}

// Serial-vs-batched episode throughput on the active tier: the BM_BatchedDecide
// workload (128 e2e episodes, one process) executed with batch_lanes=1 and
// with the executor's lane loop gathering 8/16 in-flight episodes into one policy
// forward. Acceptance floor: >= 1.5x at 8 lanes on an AVX2 host.
void write_batched_decide_table() {
  const ExperimentConfig cfg;
  const AgentFactory make_agent = bench_e2e_factory();
  const auto run_ns = [&](int lanes) {
    ParallelEvalOptions opts;
    opts.jobs = 1;
    opts.batch_lanes = lanes;
    return measure_ns_scaled(
        [&] {
          benchmark::DoNotOptimize(run_batch_parallel(
              make_agent, AttackerFactory{}, cfg, 128, 1, opts));
        },
        2);
  };

  Table t({"op", "serial_ns", "batched_ns", "speedup"});
  const double serial_ns = run_ns(1);
  for (const int lanes : {8, 16}) {
    const double batched_ns = run_ns(lanes);
    const std::string op = "e2e_128ep_lanes" + std::to_string(lanes);
    t.add_row({op, fmt(serial_ns, 0), fmt(batched_ns, 0),
               fmt(serial_ns / batched_ns, 2)});
    std::printf("batched decide: %-18s serial %12.0f ns  batched %12.0f ns  "
                "speedup %5.2fx\n",
                op.c_str(), serial_ns, batched_ns, serial_ns / batched_ns);
  }
  bench::maybe_write_csv(t, "batched_decide");
}

// Kernel telemetry for one representative gradient step: gemm/gemv call and
// FLOP tallies plus the workspace pool footprint, mirrored into
// BENCH_micro.json so perf regressions show up as count changes too.
void write_nn_counter_table() {
  telemetry::reset_metrics_values();
  telemetry::set_metrics_enabled(true);

  Rng rng(23);
  SacConfig cfg;
  cfg.batch_size = 64;
  Sac sac(64, 2, cfg, rng);
  ReplayBuffer buf(1024, 64, 2);
  std::vector<double> obs(64);
  for (int i = 0; i < 128; ++i) {
    for (auto& v : obs) v = rng.uniform(-1.0, 1.0);
    const double act[2] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    buf.add(obs, act, rng.uniform(), obs, false);
  }
  sac.update(buf, rng);  // warm (pool growth happens here)
  telemetry::reset_metrics_values();
  sac.update(buf, rng);  // measured update

  const telemetry::MetricsSnapshot snap = telemetry::metrics_snapshot();
  telemetry::set_metrics_enabled(false);

  Table t({"counter", "value"});
  for (const char* name : {"nn.gemm.calls", "nn.gemm.flops", "nn.gemv.calls",
                           "nn.workspace.bytes", "nn.workspace.buffers"}) {
    std::uint64_t value = 0;
    for (const auto& [n, v] : snap.counters) {
      if (n == name) value = v;
    }
    t.add_row({name, std::to_string(value)});
    std::printf("sac update counters: %-22s %llu\n", name,
                static_cast<unsigned long long>(value));
  }
  bench::maybe_write_csv(t, "nn_kernel_counters");
}

void write_overhead_table() {
  telemetry::Counter c = telemetry::counter("bench.overhead_counter");
  telemetry::Histogram h = telemetry::histogram(
      "bench.overhead_hist", {1, 2, 4, 8, 16, 32, 64});

  Table t({"op", "state", "ns_per_op"});
  auto row = [&t](const char* op, const char* on, double ns) {
    t.add_row({op, on, fmt(ns, 2)});
    std::printf("telemetry overhead: %-16s %-8s %6.2f ns/op\n", op, on, ns);
  };

  telemetry::set_metrics_enabled(false);
  telemetry::set_tracing_enabled(false);
  telemetry::set_flight_enabled(false);
  row("counter.inc", "disabled", measure_ns_per_op([&] { c.inc(); }));
  row("histogram.observe", "disabled", measure_ns_per_op([&] { h.observe(7.0); }));
  row("span", "disabled", measure_ns_per_op([] { ADSEC_SPAN("bench.overhead"); }));
  row("flight.note", "disabled",
      measure_ns_per_op([] { telemetry::flight_note("bench.overhead"); }));

  telemetry::set_metrics_enabled(true);
  row("counter.inc", "enabled", measure_ns_per_op([&] { c.inc(); }));
  row("histogram.observe", "enabled", measure_ns_per_op([&] { h.observe(7.0); }));
  telemetry::set_metrics_enabled(false);

  telemetry::set_tracing_enabled(true);
  row("span", "enabled", measure_ns_per_op([] { ADSEC_SPAN("bench.overhead"); }));
  telemetry::set_tracing_enabled(false);
  telemetry::clear_trace();

  telemetry::set_flight_enabled(true);
  row("flight.note", "enabled",
      measure_ns_per_op([] { telemetry::flight_note("bench.overhead"); }));
  telemetry::set_flight_enabled(false);
  telemetry::clear_flight();

  bench::maybe_write_csv(t, "telemetry_overhead");
}

}  // namespace
}  // namespace adsec

// Custom main instead of BENCHMARK_MAIN(): same google-benchmark run, plus
// the telemetry-overhead table and the BENCH_micro.json summary.
int main(int argc, char** argv) {
  adsec::bench::bench_init("micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  adsec::write_gemm_kernels_table();
  adsec::write_simd_kernels_table();
  adsec::write_batched_decide_table();
  adsec::write_nn_counter_table();
  adsec::write_overhead_table();
  return 0;
}

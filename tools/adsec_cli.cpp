// Command-line experiment driver: run any (agent, attacker, scenario)
// combination without writing code.
//
//   adsec_cli [--agent modular|e2e|finetune:<rho>|pnn:<sigma>|pnn-detector:<sigma>]
//             [--attacker none|oracle|noise|full|camera|imu|td3]
//             [--budget <eps>] [--episodes <n>] [--scenario <preset>]
//             [--seed <base>] [--jobs <n>] [--checkpoint-every <n>]
//             [--with-reference] [--csv <path>] [--list]
//             [--metrics-out <path>] [--chrome-trace <path>]
//             [--trace-jsonl <path>] [--log-json <path>]
//             [--metrics-every-ms <n>]
//
// Learned agents/attackers come from the policy zoo (training on first use).
// --checkpoint-every N makes that training crash-safe: progress is saved to
// <zoo>/<name>.ckpt every N steps and a rerun resumes from it bit-exactly.
// Episodes run on the parallel rollout runtime (--jobs worker threads,
// default hardware_concurrency); results are bit-identical to --jobs 1.
//
// Telemetry (src/telemetry): --metrics-out dumps the final metrics registry
// snapshot as JSON, --chrome-trace writes profiling spans in Chrome
// trace-event format (open in Perfetto / chrome://tracing), --trace-jsonl
// writes the same spans as one causally-linked JSON object per line
// (trace_id/span_id/parent_span_id), --log-json streams structured run
// events as JSON Lines while the run executes. All are independent;
// omitting them keeps telemetry disabled (~1 branch per instrumentation
// site). --metrics-every-ms N additionally rewrites the --metrics-out file
// every N ms while the run executes (tear-free via rename), so adsec_top
// --json can watch a long grid live.
//
// Grid mode runs a whole victim x attacker x scenario x seed cross-product
// through the fault-tolerant orchestrator (src/orchestrator) instead of a
// single spec:
//
//   adsec_cli --grid "agents=modular,e2e;attackers=none,camera;budgets=1.0"
//             --store-dir DIR [--resume] [--jobs N] [--csv PREFIX]
//
// Finished cells commit to the content-addressed store in DIR as they
// complete; a killed run restarted with --resume recomputes only what never
// committed and renders byte-identical tables. Without --resume a non-empty
// store is refused (exit 2) so stale results are never silently mixed in.
// A grid whose every cell finished exits 0; permanently failed cells are
// listed with their error class and retry count and exit with status 3.
//
// Malformed flags (unknown names, non-numeric or out-of-range values) exit
// with status 2 and usage on stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/zoo.hpp"
#include "orchestrator/dag.hpp"
#include "orchestrator/merge.hpp"
#include "runtime/aggregate.hpp"
#include "runtime/parallel_eval.hpp"
#include "serve/spec.hpp"
#include "telemetry/telemetry.hpp"

using namespace adsec;

namespace {

struct Options {
  std::string agent = "modular";
  std::string attacker = "none";
  double budget = 1.0;
  int episodes = 10;
  std::string scenario = "paper";
  std::uint64_t seed = 700000;
  int jobs = 0;  // 0 => hardware_concurrency
  int batch_lanes = 1;  // > 1 => cross-episode batched inference per worker
  int checkpoint_every = -1;  // -1 => leave ADSEC_CKPT_EVERY as-is
  bool with_reference = false;
  std::string csv;
  std::string grid;       // grid-spec string; non-empty selects grid mode
  std::string store_dir;  // result store directory (grid mode)
  bool resume = false;    // accept a non-empty store and reuse its cells
  int deadline_ms = 0;    // per-job deadline (grid mode); 0 disables
  int metrics_every_ms = 0;  // live --metrics-out rewrite cadence; 0 off
  telemetry::TelemetryOptions telemetry;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
      "usage: %s [--agent A] [--attacker T] [--budget E] [--episodes N]\n"
      "          [--scenario P] [--seed S] [--jobs N] [--batch-lanes N]\n"
      "          [--checkpoint-every N] [--with-reference] [--csv PATH] [--list]\n"
      "          [--grid SPEC --store-dir DIR [--resume] [--deadline-ms N]]\n"
      "          [--metrics-out PATH] [--chrome-trace PATH] [--trace-jsonl PATH]\n"
      "          [--log-json PATH] [--metrics-every-ms N]\n"
      "grid:      SPEC like \"agents=modular,e2e;attackers=none,camera;\n"
      "           budgets=0.5,1.0;scenarios=paper;episodes=3;seeds=2\";\n"
      "           finished cells commit to --store-dir and --resume reuses\n"
      "           them (exit 3 when any cell permanently failed)\n"
      "agents:    modular | e2e | finetune:<rho> | pnn:<sigma> | pnn-detector:<sigma>\n"
      "attackers: none | oracle | noise | full | camera | imu | td3\n"
      "scenarios: paper dense sparse two-lane s-curve fast-npc\n"
      "telemetry: --metrics-out  final counters/gauges/histograms (JSON)\n"
      "           --chrome-trace profiling spans (Chrome trace-event JSON;\n"
      "                          open at https://ui.perfetto.dev)\n"
      "           --trace-jsonl  causal spans, one JSON object per line\n"
      "           --log-json     structured run events (JSON Lines)\n"
      "           --metrics-every-ms N  rewrite --metrics-out every N ms\n"
      "                          during the run (watch with adsec_top --json)\n",
      argv0);
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        usage(argv[0], 2);
      }
      return argv[++i];
    };
    auto bad_value = [&](const std::string& v) {
      std::fprintf(stderr, "invalid value '%s' for %s\n", v.c_str(), arg.c_str());
      usage(argv[0], 2);
    };
    if (arg == "--agent") opt.agent = value();
    else if (arg == "--attacker") opt.attacker = value();
    else if (arg == "--budget") {
      const std::string v = value();
      if (!parse_double(v, opt.budget) || opt.budget < 0.0) bad_value(v);
    } else if (arg == "--episodes") {
      const std::string v = value();
      if (!parse_int(v, 1, opt.episodes)) bad_value(v);
    } else if (arg == "--scenario") opt.scenario = value();
    else if (arg == "--seed") {
      const std::string v = value();
      if (!parse_u64(v, opt.seed)) bad_value(v);
    } else if (arg == "--jobs") {
      const std::string v = value();
      if (!parse_int(v, 0, opt.jobs)) bad_value(v);
    } else if (arg == "--batch-lanes") {
      const std::string v = value();
      if (!parse_int(v, 1, opt.batch_lanes)) bad_value(v);
    } else if (arg == "--checkpoint-every") {
      const std::string v = value();
      if (!parse_int(v, 0, opt.checkpoint_every)) bad_value(v);
    } else if (arg == "--with-reference") opt.with_reference = true;
    else if (arg == "--csv") opt.csv = value();
    else if (arg == "--grid") opt.grid = value();
    else if (arg == "--store-dir") opt.store_dir = value();
    else if (arg == "--resume") opt.resume = true;
    else if (arg == "--deadline-ms") {
      const std::string v = value();
      if (!parse_int(v, 0, opt.deadline_ms)) bad_value(v);
    }
    else if (arg == "--metrics-out") opt.telemetry.metrics_out = value();
    else if (arg == "--chrome-trace") opt.telemetry.chrome_trace = value();
    else if (arg == "--trace-jsonl") opt.telemetry.trace_jsonl = value();
    else if (arg == "--log-json") opt.telemetry.events_jsonl = value();
    else if (arg == "--metrics-every-ms") {
      const std::string v = value();
      if (!parse_int(v, 1, opt.metrics_every_ms)) bad_value(v);
    }
    else if (arg == "--list") {
      std::printf("scenario presets:");
      for (const auto& n : scenario_preset_names()) std::printf(" %s", n.c_str());
      std::printf("\n");
      std::exit(0);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  if (opt.metrics_every_ms > 0 && opt.telemetry.metrics_out.empty()) {
    std::fprintf(stderr, "--metrics-every-ms requires --metrics-out\n");
    usage(argv[0], 2);
  }
  return opt;
}

// Shared tail for both modes: flush telemetry sinks and report what landed.
// Returns 0, or 2 when a requested sink could not be written.
int finalize_telemetry(const Options& opt) {
  if (!opt.telemetry.any()) return 0;
  const telemetry::FinalizeResult fin = telemetry::finalize();
  bool write_failed = false;
  const auto report = [&write_failed](const std::string& path, bool written) {
    if (path.empty()) return;
    if (written) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      write_failed = true;
    }
  };
  report(opt.telemetry.metrics_out, fin.metrics_written);
  report(opt.telemetry.chrome_trace, fin.trace_written);
  report(opt.telemetry.trace_jsonl, fin.trace_jsonl_written);
  // The JSONL sink streamed while the run executed; configure() already
  // failed hard if it could not be opened.
  if (!opt.telemetry.events_jsonl.empty())
    std::printf("wrote %s\n", opt.telemetry.events_jsonl.c_str());
  return write_failed ? 2 : 0;
}

// Grid mode: expand the spec, run it through the orchestrator against the
// content-addressed store, and render the merged fig5/fig8/rewards tables.
// Exit codes: 0 complete, 2 bad spec / store refusal, 3 when one or more
// cells permanently failed (the rest still completed and committed).
int run_grid_mode(const Options& opt) {
  orch::GridSpec grid;
  try {
    grid = orch::parse_grid_spec(opt.grid);
  } catch (const Error& e) {
    std::fprintf(stderr, "bad --grid spec: %s\n", e.what());
    return 2;
  }

  // Grid runs are the long-lived, crash-prone mode: arm the flight
  // recorder so failed cells and fatal signals leave a black box next to
  // the result store, where --resume debugging already looks.
  telemetry::set_flight_enabled(true);
  telemetry::set_flight_dir(opt.store_dir);
  telemetry::install_flight_signal_handlers();

  orch::ResultStore store(opt.store_dir);
  if (store.finished_cells() > 0 && !opt.resume) {
    std::fprintf(stderr,
                 "store %s already holds %zu finished cell(s); pass --resume "
                 "to reuse them or point --store-dir at a fresh directory\n",
                 opt.store_dir.c_str(), store.finished_cells());
    return 2;
  }

  telemetry::emit_event("cli.grid",
                        {{"spec", opt.grid},
                         {"store", opt.store_dir},
                         {"resume", opt.resume ? 1 : 0},
                         {"jobs", opt.jobs > 0 ? opt.jobs : hardware_jobs()}});

  PolicyZoo zoo;
  orch::GridOptions grid_opts;
  grid_opts.jobs = opt.jobs;
  grid_opts.deadline_ms = opt.deadline_ms;
  grid_opts.on_progress = [](int done, int total) {
    if (total >= 20 && done % std::max(1, total / 10) == 0) {
      std::printf("grid: %d/%d jobs\n", done, total);
      std::fflush(stdout);
    }
  };

  // Keep --metrics-out fresh while the grid runs so a separate terminal can
  // `adsec_top --json <path>` the live counters; the final authoritative
  // write still happens in finalize_telemetry().
  telemetry::PeriodicSnapshotWriter snapshots;
  if (opt.metrics_every_ms > 0) {
    snapshots.start(opt.telemetry.metrics_out, opt.metrics_every_ms);
  }

  orch::GridReport report;
  try {
    report = orch::run_grid(store, zoo, grid, grid_opts);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  snapshots.stop();

  Table summary({"cells", "count"});
  summary.add_row({"total", std::to_string(report.cells_total)});
  summary.add_row({"cached (resumed)", std::to_string(report.cells_cached)});
  summary.add_row({"computed", std::to_string(report.cells_computed)});
  summary.add_row({"failed", std::to_string(report.cells_failed)});
  summary.print();

  if (!report.failures.empty()) {
    Table failures({"job", "state", "class", "retries", "message"});
    for (const auto& f : report.failures) {
      failures.add_row({f.name, orch::to_string(f.state), f.error_class,
                        std::to_string(f.retries), f.message});
    }
    failures.print();
  }

  const orch::MergedTables tables = orch::merge_grid(store, grid);
  tables.fig5.print();
  tables.fig8.print();
  tables.rewards.print();
  if (!opt.csv.empty()) {
    // --csv is a prefix in grid mode: one file per table.
    tables.fig5.write_csv(opt.csv + ".fig5.csv");
    tables.fig8.write_csv(opt.csv + ".fig8.csv");
    tables.rewards.write_csv(opt.csv + ".rewards.csv");
    std::printf("wrote %s.{fig5,fig8,rewards}.csv\n", opt.csv.c_str());
  }
  return report.complete() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  set_log_level(LogLevel::Warn);
  telemetry::set_thread_name("main");
  if (opt.checkpoint_every >= 0) {
    runtime_config().checkpoint_every = opt.checkpoint_every;
  }
  if (opt.telemetry.any() && !telemetry::configure(opt.telemetry)) {
    std::fprintf(stderr, "cannot open --log-json file '%s' for writing\n",
                 opt.telemetry.events_jsonl.c_str());
    return 2;
  }

  // --- grid mode ---
  if (!opt.grid.empty() || !opt.store_dir.empty() || opt.resume) {
    if (opt.grid.empty() || opt.store_dir.empty()) {
      std::fprintf(stderr, "--grid and --store-dir must be given together\n");
      usage(argv[0], 2);
    }
    const int code = run_grid_mode(opt);
    const int telemetry_code = finalize_telemetry(opt);
    return code != 0 ? code : telemetry_code;
  }

  telemetry::emit_event("cli.run",
                        {{"agent", opt.agent},
                         {"attacker", opt.attacker},
                         {"scenario", opt.scenario},
                         {"episodes", opt.episodes},
                         {"jobs", opt.jobs > 0 ? opt.jobs : hardware_jobs()},
                         {"lanes", opt.batch_lanes}});

  // --- spec resolution ---
  // The CLI and the evaluation server (src/serve) share one spec resolver,
  // so `--agent X --attacker Y` means exactly the same experiment as a
  // served request naming X and Y. resolve_spec returns factories rather
  // than instances: the parallel runtime builds one agent/attacker pair per
  // worker. A warm-up call below resolves any zoo training serially;
  // concurrent factory calls then only load the disk-cached policies.
  PolicyZoo zoo;
  serve::EvalRequest request;
  request.id = "cli";
  request.agent = opt.agent;
  request.attacker = opt.attacker;
  request.budget = opt.budget;
  request.scenario = opt.scenario;
  request.seed = opt.seed;
  request.episodes = opt.episodes;
  request.with_reference = opt.with_reference;
  serve::ResolvedSpec spec;
  try {
    spec = serve::resolve_spec(zoo, request);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const AgentFactory& agent_factory = spec.agent;
  const AttackerFactory& attacker_factory = spec.attacker;
  const ExperimentConfig& cfg = spec.config;

  // Warm the zoo cache serially (trains on first use) before workers fork.
  { auto warm = agent_factory(); }
  if (attacker_factory) { auto warm = attacker_factory(); }

  // --- run ---
  ParallelEvalOptions run_opts;
  run_opts.jobs = opt.jobs;
  run_opts.batch_lanes = opt.batch_lanes;
  run_opts.with_reference = opt.with_reference;
  ProgressMeter progress(opt.episodes, "episodes",
                         opt.episodes >= 20 ? std::max(1, opt.episodes / 10) : 0);
  run_opts.on_progress = [&progress](int, int) { progress.tick(); };
  telemetry::PeriodicSnapshotWriter snapshots;
  if (opt.metrics_every_ms > 0) {
    snapshots.start(opt.telemetry.metrics_out, opt.metrics_every_ms);
  }
  const auto ms = run_batch_parallel(agent_factory, attacker_factory, cfg,
                                     opt.episodes, opt.seed, run_opts);
  snapshots.stop();

  // Aggregate the ordered batch (deterministic regardless of --jobs).
  EpisodeAggregator agg;
  for (const auto& m : ms) agg.add(m);
  const RunningStats reward = agg.nominal_reward();
  const RunningStats adv = agg.adv_reward();
  const RunningStats passed = agg.passed_npcs();
  const RunningStats effort = agg.attack_effort();
  const RunningStats dev = agg.deviation_rmse();

  Table t({"metric", "value"});
  t.add_row({"agent", opt.agent});
  t.add_row({"attacker", opt.attacker + " @ " + fmt(opt.budget, 2)});
  t.add_row({"scenario", opt.scenario});
  t.add_row({"episodes", std::to_string(opt.episodes)});
  t.add_row({"jobs", std::to_string(opt.jobs > 0 ? opt.jobs : hardware_jobs())});
  if (opt.batch_lanes > 1) {
    t.add_row({"batch lanes", std::to_string(opt.batch_lanes)});
  }
  t.add_row({"mean nominal reward", fmt(reward.mean(), 1) + " ± " + fmt(reward.stdev(), 1)});
  t.add_row({"mean adversarial reward", fmt(adv.mean(), 2)});
  t.add_row({"mean passed NPCs", fmt(passed.mean(), 2)});
  t.add_row({"collisions (any)", std::to_string(agg.collisions())});
  t.add_row({"side collisions", std::to_string(agg.side_collisions())});
  t.add_row({"attack success rate", fmt_pct(success_rate(ms))});
  t.add_row({"mean attack effort", fmt(effort.mean(), 3)});
  if (dev.count() > 0) t.add_row({"mean deviation RMSE", fmt(dev.mean(), 3)});
  t.print();
  if (!opt.csv.empty()) {
    t.write_csv(opt.csv);
    std::printf("wrote %s\n", opt.csv.c_str());
  }
  return finalize_telemetry(opt);
}

// Shared scaffolding for the figure-regeneration benches.
#pragma once

#include <stdlib.h>  // mkdtemp

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/zoo.hpp"
#include "nn/simd.hpp"
#include "orchestrator/dag.hpp"
#include "orchestrator/merge.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/events.hpp"

namespace adsec::bench {

// Every bench shares one zoo: policies train on first use (minutes on one
// core at full scale) and load from the cache afterwards.
inline PolicyZoo& zoo() {
  static PolicyZoo z;
  return z;
}

// Evaluation episode seeds are disjoint from training seeds.
inline constexpr std::uint64_t kEvalSeedBase = 700000;

// Worker count for a figure's cells: ADSEC_JOBS overrides, default
// hardware_concurrency. Cells are bit-identical for any worker count, so
// this only changes wall-clock time. A value that is not a positive
// integer is reported and ignored.
inline int bench_jobs() {
  const char* env = std::getenv("ADSEC_JOBS");
  if (env == nullptr || *env == '\0') return hardware_jobs();
  int n = 0;
  if (parse_int(env, 1, n)) return n;
  log_warn("ADSEC_JOBS='%s' is not a positive integer; ignored", env);
  return hardware_jobs();
}

// The paper's name for an agent spec (serve/spec.hpp); other specs print
// as themselves. The zoo holds one fine-tuned policy per published rho: any
// rho below 0.2 selects rho = 1/11.
inline std::string agent_label(const std::string& spec) {
  static const std::map<std::string, std::string> labels = {
      {"e2e", "pi_ori"},
      {"finetune:0.0909", "pi_adv,rho=1/11"},
      {"finetune:0.5", "pi_adv,rho=1/2"},
      {"pnn:0.2", "pi_pnn,sigma=0.2"},
      {"pnn:0.4", "pi_pnn,sigma=0.4"}};
  const auto it = labels.find(spec);
  return it == labels.end() ? spec : it->second;
}

// A merged table with its first (agent) column in the paper's names.
inline Table with_agent_labels(const Table& merged) {
  Table out(merged.headers());
  for (std::vector<std::string> row : merged.row_data()) {
    row.front() = agent_label(row.front());
    out.add_row(std::move(row));
  }
  return out;
}

// One figure cell on the paper scenario. Budget 0 is the unattacked run:
// attacker "none", for which resolve_spec gives the PNN switcher an attack
// estimate of 0.
inline orch::Cell figure_cell(const std::string& agent, const std::string& attacker,
                              double budget, int episodes, std::uint64_t seed,
                              bool with_reference = false) {
  orch::Cell c;
  c.agent = agent;
  c.attacker = budget > 0.0 ? attacker : "none";
  c.scenario = "paper";
  c.budget = budget;
  c.episodes = episodes;
  c.seed = seed;
  c.with_reference = with_reference;
  return c;
}

// Figs. 5, 7 and 8 sweep the camera attack over eps = 0, 0.1, ..., 1.2;
// budget index bi evaluates seeds kEvalSeedBase + 1000*bi onwards.
inline void add_effort_sweep(std::vector<orch::Cell>& cells, const std::string& agent,
                             int episodes, bool with_reference) {
  for (int bi = 0; bi <= 12; ++bi) {
    cells.push_back(figure_cell(agent, "camera", bi * 0.1, episodes,
                                kEvalSeedBase + 1000 * static_cast<std::uint64_t>(bi),
                                with_reference));
  }
}

// A figure's cells after run_figure: the merged tables, and each cell's
// stored episodes for the headline lines the tables do not carry.
struct FigureRun {
  std::vector<orch::Cell> cells;
  std::vector<std::vector<EpisodeMetrics>> episodes;  // per cell
  orch::MergedTables tables;

  // Every episode of `agent`'s cells, in cell order.
  std::vector<EpisodeMetrics> episodes_of(const std::string& agent) const {
    std::vector<EpisodeMetrics> out;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].agent != agent) continue;
      out.insert(out.end(), episodes[i].begin(), episodes[i].end());
    }
    return out;
  }
};

// Runs a figure's cells on the orchestrator with bench_jobs() workers: the
// DAG trains independent zoo policies concurrently and evaluates cells in
// parallel. The store is a fresh temporary directory, removed afterwards,
// because a cell key covers only the cell config and kOrchFormatVersion —
// not the code or the zoo contents — so a persistent store would serve
// stale figures after a code change. Exits with status 1 if a cell fails.
inline FigureRun run_figure(std::vector<orch::Cell> cells) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "adsec_bench_XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) {
    std::fprintf(stderr, "bench: cannot create a store under %s\n", dir.c_str());
    std::exit(1);
  }
  FigureRun run;
  run.cells = std::move(cells);
  orch::GridReport report;
  try {
    orch::ResultStore store(dir);
    orch::GridOptions options;
    options.jobs = bench_jobs();
    report = orch::run_cells(store, zoo(), run.cells, options);
    std::vector<std::optional<orch::CellResult>> results;
    for (const orch::Cell& cell : run.cells) results.push_back(store.lookup(cell));
    run.tables = orch::merge_cells(run.cells, results);
    for (auto& r : results) {
      run.episodes.push_back(r ? std::move(r->episodes) : std::vector<EpisodeMetrics>{});
    }
  } catch (...) {
    std::filesystem::remove_all(dir);
    throw;
  }
  std::filesystem::remove_all(dir);
  if (!report.complete()) {
    std::fprintf(stderr, "bench: %d of %d cells failed\n", report.cells_failed,
                 report.cells_total);
    std::exit(1);
  }
  return run;
}

// Machine-readable mirror of everything a bench binary prints. Each bench
// calls bench_init("<name>") once at the top of main; every table that goes
// through maybe_write_csv is also recorded here, and at process exit (or an
// explicit write()) the collected tables land in BENCH_<name>.json — in
// $ADSEC_BENCH_JSON_DIR when set, else the working directory. Format:
//   {"bench": "...", "tables": [{"name", "headers": [...], "rows": [[...]]}]}
class BenchSummary {
 public:
  ~BenchSummary() { write(); }

  void set_name(std::string name) {
    std::lock_guard<std::mutex> lock(mutex_);
    name_ = std::move(name);
  }

  void add_table(const Table& table, const std::string& table_name) {
    std::lock_guard<std::mutex> lock(mutex_);
    tables_.push_back({table_name, table.headers(), table.row_data()});
  }

  // Write BENCH_<name>.json (idempotent: the recorded tables are consumed).
  // A bench that never called bench_init writes nothing.
  void write() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (name_.empty() || tables_.empty()) return;
    std::string json = "{\n  \"bench\": ";
    json += telemetry::json_quote(name_);
    // The active SIMD dispatch tier, so bench_compare.py can refuse to
    // diff timings taken on different kernel tiers (scalar vs avx2).
    json += ",\n  \"simd_tier\": ";
    json += telemetry::json_quote(simd::tier_name(simd::active_tier()));
    json += ",\n  \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const Entry& e = tables_[t];
      json += t == 0 ? "\n" : ",\n";
      json += "    {\"name\": " + telemetry::json_quote(e.name);
      json += ", \"headers\": [";
      for (std::size_t i = 0; i < e.headers.size(); ++i) {
        if (i != 0) json += ", ";
        json += telemetry::json_quote(e.headers[i]);
      }
      json += "], \"rows\": [";
      for (std::size_t r = 0; r < e.rows.size(); ++r) {
        json += r == 0 ? "\n      [" : ",\n      [";
        for (std::size_t c = 0; c < e.rows[r].size(); ++c) {
          if (c != 0) json += ", ";
          json += telemetry::json_quote(e.rows[r][c]);
        }
        json += "]";
      }
      json += "]}";
    }
    json += "\n  ]\n}\n";

    const char* dir = std::getenv("ADSEC_BENCH_JSON_DIR");
    const std::string path = (dir != nullptr && *dir != '\0')
                                 ? std::string(dir) + "/BENCH_" + name_ + ".json"
                                 : "BENCH_" + name_ + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    }
    tables_.clear();
  }

 private:
  struct Entry {
    std::string name;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  std::mutex mutex_;
  std::string name_;
  std::vector<Entry> tables_;
};

inline BenchSummary& summary() {
  static BenchSummary s;
  return s;
}

// First line of every bench main: names the BENCH_<name>.json artifact.
inline void bench_init(const std::string& name) { summary().set_name(name); }

// Mirror of each printed table: always recorded into the BENCH_<name>.json
// summary; additionally written as CSV when ADSEC_CSV_DIR is set.
inline void maybe_write_csv(const Table& table, const std::string& name) {
  summary().add_table(table, name);
  const char* dir = std::getenv("ADSEC_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  table.write_csv(std::string(dir) + "/" + name + ".csv");
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n(paper: %s)\n\n", title.c_str(), paper_ref.c_str());
}

}  // namespace adsec::bench

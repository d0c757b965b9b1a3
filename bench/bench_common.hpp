// Shared scaffolding for the figure-regeneration benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/zoo.hpp"
#include "nn/simd.hpp"
#include "runtime/parallel_eval.hpp"
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

// Worker count for parallel episode batches: ADSEC_JOBS overrides, default
// hardware_concurrency. Parallel batches are bit-identical to serial ones
// (see runtime/parallel_eval.hpp), so this only changes wall-clock time.
inline int bench_jobs() {
  const char* env = std::getenv("ADSEC_JOBS");
  if (env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return hardware_jobs();
}

// Episode lanes per worker for cross-episode batched inference:
// ADSEC_LANES overrides, default 8. Lane-batched runs are bit-identical to
// serial ones for any lane count (see runtime/executor.hpp), so like
// ADSEC_JOBS this only changes wall-clock time.
inline int bench_lanes() {
  const char* env = std::getenv("ADSEC_LANES");
  if (env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 8;
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

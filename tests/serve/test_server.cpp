#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../telemetry/json_check.hpp"
#include "common/config.hpp"
#include "common/fault_injection.hpp"
#include "runtime/aggregate.hpp"
#include "serve/spec.hpp"
#include "telemetry/events.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace adsec::serve {
namespace {

// Collects every record per request id. Sinks run under the server's sink
// lock, so the map mutation is serialized; the extra mutex makes concurrent
// test-side reads (polling for a record) safe too.
struct Recorder {
  mutable std::mutex mu;
  std::map<std::string, std::vector<ResultRecord>> by_id;

  ResultCallback sink() {
    return [this](const ResultRecord& r) {
      std::lock_guard<std::mutex> lock(mu);
      by_id[r.id].push_back(r);
    };
  }

  std::vector<ResultRecord> records(const std::string& id) const {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_id.find(id);
    return it == by_id.end() ? std::vector<ResultRecord>{} : it->second;
  }

  int terminal_count(const std::string& id) const {
    int n = 0;
    for (const auto& r : records(id)) {
      if (r.status == "done" || r.status == "failed" || r.status == "rejected") ++n;
    }
    return n;
  }

  ResultRecord terminal(const std::string& id) const {
    for (const auto& r : records(id)) {
      if (r.status == "done" || r.status == "failed" || r.status == "rejected") {
        return r;
      }
    }
    return ResultRecord{};
  }

  bool saw_status(const std::string& id, const std::string& status) const {
    for (const auto& r : records(id)) {
      if (r.status == status) return true;
    }
    return false;
  }

  void wait_for_status(const std::string& id, const std::string& status) const {
    while (!saw_status(id, status)) std::this_thread::yield();
  }
};

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/adsec_serve_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    saved_scale_ = runtime_config().train_scale;
    runtime_config().train_scale = 0.0;
    // Counter assertions below read absolute values; zero the registry so
    // the suite also holds when several tests share one process (ctest runs
    // each TEST in its own process, the raw binary does not).
    telemetry::reset_metrics_values();
  }
  void TearDown() override {
    fault_injector().reset();
    runtime_config().train_scale = saved_scale_;
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
  double saved_scale_{1.0};
};

std::uint64_t counter_value(const char* name) {
  for (const auto& [n, v] : telemetry::metrics_snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

EvalRequest grid_request(const std::string& id, const std::string& attacker,
                         std::uint64_t seed, int episodes, bool with_reference) {
  EvalRequest req;
  req.id = id;
  req.agent = "modular";
  req.attacker = attacker;
  req.budget = 0.8;
  req.seed = seed;
  req.episodes = episodes;
  req.with_reference = with_reference;
  return req;
}

// The issue's acceptance scenario: a >= 50 request mixed grid through a
// bounded queue. Every admitted request answers exactly once, per-seed
// results are bit-identical to the equivalent serial run (adsec_cli and the
// server both go through resolve_spec + the episode executor), every
// episode is counted in runtime.episodes, repeated classes hit the
// per-worker actor cache, and the final report carries p50/p90/p95/p99 for
// every request class.
TEST_F(ServeServerTest, MixedGridMatchesSerialRunsExactlyOnce) {
  PolicyZoo zoo(dir_);
  Recorder rec;
  const std::vector<std::string> attackers = {"none", "noise", "oracle", "full"};
  std::vector<EvalRequest> grid;
  int n = 0;
  for (int round = 0; round < 13; ++round) {
    for (const auto& attacker : attackers) {
      grid.push_back(grid_request("g" + std::to_string(n++), attacker,
                                  9000 + static_cast<std::uint64_t>(round),
                                  1 + round % 2, round % 4 == 0));
    }
  }
  ASSERT_GE(grid.size(), 50u);

  {
    ServerOptions opts;
    opts.workers = 4;
    opts.queue_depth = grid.size();  // bounded, but sized to admit the grid
    opts.zoo = &zoo;
    EvalServer server(opts, rec.sink());
    for (const auto& req : grid) server.submit(req);
    server.drain();
  }
  std::uint64_t grid_episodes = 0;
  for (const auto& req : grid) grid_episodes += static_cast<std::uint64_t>(req.episodes);
  EXPECT_EQ(counter_value("runtime.episodes"), grid_episodes);

  // Exactly one terminal record per request, in queued -> running -> done
  // order, every one admitted (the queue was sized for the grid).
  for (const auto& req : grid) {
    const auto records = rec.records(req.id);
    ASSERT_EQ(rec.terminal_count(req.id), 1) << req.id;
    ASSERT_EQ(records.size(), 3u) << req.id;
    EXPECT_EQ(records[0].status, "queued");
    EXPECT_EQ(records[1].status, "running");
    EXPECT_EQ(records[2].status, "done");
    EXPECT_EQ(records[2].request_class, "modular|" + req.attacker);
    EXPECT_GT(records[2].run_ns, 0u);
  }

  // Determinism: the served result equals the serial run of the same spec
  // (one seed-class reference per attacker x seed suffices — the rest share
  // the exact same code path).
  for (std::size_t i = 0; i < grid.size(); i += 7) {
    const EvalRequest& req = grid[i];
    const ResolvedSpec spec = resolve_spec(zoo, req);
    auto agent = spec.agent();
    auto attacker = spec.attacker ? spec.attacker() : nullptr;
    const auto ms = run_batch(*agent, attacker.get(), spec.config, req.episodes,
                              req.seed, req.with_reference);
    EpisodeAggregator agg;
    for (const auto& m : ms) agg.add(m);
    const ResultRecord served = rec.terminal(req.id);
    EXPECT_EQ(served.episodes, static_cast<int>(ms.size()));
    EXPECT_DOUBLE_EQ(served.mean_nominal_reward, agg.nominal_reward().mean());
    EXPECT_DOUBLE_EQ(served.mean_adv_reward, agg.adv_reward().mean());
    EXPECT_DOUBLE_EQ(served.mean_passed_npcs, agg.passed_npcs().mean());
    EXPECT_DOUBLE_EQ(served.mean_attack_effort, agg.attack_effort().mean());
    EXPECT_DOUBLE_EQ(served.success_rate, success_rate(ms));
    EXPECT_EQ(served.collisions, agg.collisions());
    EXPECT_EQ(served.side_collisions, agg.side_collisions());
    if (req.with_reference) {
      EXPECT_DOUBLE_EQ(served.mean_deviation_rmse, agg.deviation_rmse().mean());
    } else {
      EXPECT_DOUBLE_EQ(served.mean_deviation_rmse, -1.0);
    }
  }

  // Tail-latency report: one row per request class with ordered quantiles,
  // and the actor cache absorbed the repeated classes (4 workers x 4 classes
  // bounds the misses).
  const LatencyReport report = build_latency_report();
  ASSERT_EQ(report.classes.size(), attackers.size());
  std::uint64_t counted = 0;
  for (const auto& row : report.classes) {
    EXPECT_EQ(row.count, grid.size() / attackers.size()) << row.request_class;
    EXPECT_GT(row.p50_ms, 0.0);
    EXPECT_LE(row.p50_ms, row.p90_ms);
    EXPECT_LE(row.p90_ms, row.p95_ms);
    EXPECT_LE(row.p95_ms, row.p99_ms);
    counted += row.count;
  }
  EXPECT_EQ(counted, grid.size());
  EXPECT_EQ(report.completed, grid.size());
  EXPECT_EQ(report.admitted, grid.size());
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_LE(report.actor_cache_misses, 16u);
  EXPECT_GE(report.actor_cache_hits, grid.size() - 16u);
}

TEST_F(ServeServerTest, BackpressureRejectsWhenQueueFull) {
  PolicyZoo zoo(dir_);
  Recorder rec;
  std::mutex hold_mu;
  std::condition_variable hold_cv;
  bool hold = true;

  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 2;
  opts.zoo = &zoo;
  opts.on_request_start = [&](const EvalRequest&) {
    std::unique_lock<std::mutex> lock(hold_mu);
    hold_cv.wait(lock, [&] { return !hold; });
  };
  EvalServer server(opts, rec.sink());

  // r1 occupies the single worker (held in the hook)...
  server.submit(grid_request("r1", "none", 1, 1, false));
  rec.wait_for_status("r1", "running");
  // ...r2 is popped by the dispatcher, which then blocks waiting for a
  // worker slot. Wait until it leaves the queue so the depth bound below is
  // deterministic.
  server.submit(grid_request("r2", "none", 2, 1, false));
  while (build_latency_report().queue_depth != 0.0) std::this_thread::yield();
  // ...r3 and r4 fill the bounded queue...
  server.submit(grid_request("r3", "none", 3, 1, false));
  server.submit(grid_request("r4", "none", 4, 1, false));
  // ...so r5 must be rejected immediately, with the backpressure reason.
  server.submit(grid_request("r5", "none", 5, 1, false));
  const ResultRecord rejected = rec.terminal("r5");
  EXPECT_EQ(rejected.status, "rejected");
  EXPECT_EQ(rejected.error_code, "rejected");
  EXPECT_NE(rejected.error.find("queue_full"), std::string::npos) << rejected.error;

  {
    std::lock_guard<std::mutex> lock(hold_mu);
    hold = false;
  }
  hold_cv.notify_all();
  server.drain();

  for (const char* id : {"r1", "r2", "r3", "r4"}) {
    EXPECT_EQ(rec.terminal_count(id), 1) << id;
    EXPECT_EQ(rec.terminal(id).status, "done") << id;
  }
  EXPECT_EQ(rec.terminal_count("r5"), 1);
  EXPECT_EQ(server.answered(), 5u);
}

TEST_F(ServeServerTest, DrainMidFlightAnswersEverythingExactlyOnce) {
  PolicyZoo zoo(dir_);
  Recorder rec;
  std::mutex hold_mu;
  std::condition_variable hold_cv;
  bool hold = true;

  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 64;
  opts.zoo = &zoo;
  opts.on_request_start = [&](const EvalRequest& req) {
    if (req.id != "r1") return;
    std::unique_lock<std::mutex> lock(hold_mu);
    hold_cv.wait(lock, [&] { return !hold; });
  };
  EvalServer server(opts, rec.sink());

  server.submit(grid_request("r1", "none", 1, 1, false));
  rec.wait_for_status("r1", "running");
  for (int i = 2; i <= 4; ++i) {
    server.submit(grid_request("r" + std::to_string(i), "noise", 100, 1, false));
  }

  // SIGTERM path: drain() while r1 is mid-flight and r2..r4 are admitted.
  std::thread drainer([&] { server.drain(); });

  // Probe until a submission observes the closed queue; every probe gets a
  // terminal record either way (done later, or rejected now).
  int probes = 0;
  bool saw_shutdown_reject = false;
  while (!saw_shutdown_reject) {
    // Nothing leaves the queue while r1 is held, so once the probes have
    // filled it, a probe racing the drainer thread's close() would be
    // rejected as queue_full. Give the close time to land first.
    if (build_latency_report().queue_depth >= static_cast<double>(opts.queue_depth)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    const std::string id = "p" + std::to_string(probes++);
    server.submit(grid_request(id, "noise", 200, 1, false));
    const ResultRecord t = rec.terminal(id);
    if (t.status == "rejected") {
      EXPECT_NE(t.error.find("shutting_down"), std::string::npos) << t.error;
      saw_shutdown_reject = true;
    }
    std::this_thread::yield();
  }

  {
    std::lock_guard<std::mutex> lock(hold_mu);
    hold = false;
  }
  hold_cv.notify_all();
  drainer.join();

  // Every admitted request completed; every probe answered exactly once.
  for (const char* id : {"r1", "r2", "r3", "r4"}) {
    EXPECT_EQ(rec.terminal_count(id), 1) << id;
    EXPECT_EQ(rec.terminal(id).status, "done") << id;
  }
  std::uint64_t expected = 4;
  for (int i = 0; i < probes; ++i) {
    const std::string id = "p" + std::to_string(i);
    EXPECT_EQ(rec.terminal_count(id), 1) << id;
    ++expected;
  }
  EXPECT_EQ(server.answered(), expected);

  // drain() is idempotent and the server stays answerable-after-close.
  server.drain();
  server.submit(grid_request("late", "none", 9, 1, false));
  EXPECT_EQ(rec.terminal("late").status, "rejected");
}

TEST_F(ServeServerTest, InjectedWorkerFaultAnswersFailedExactlyOnce) {
  PolicyZoo zoo(dir_);
  Recorder rec;
  ServerOptions opts;
  opts.workers = 1;  // FIFO execution makes the 3rd request the victim
  opts.queue_depth = 16;
  opts.zoo = &zoo;
  fault_injector().arm("serve.worker", FaultKind::Throw, /*fire_at=*/3);
  {
    EvalServer server(opts, rec.sink());
    for (int i = 1; i <= 5; ++i) {
      server.submit(grid_request("f" + std::to_string(i), "none",
                                 static_cast<std::uint64_t>(i), 1, false));
    }
    server.drain();
  }

  for (int i = 1; i <= 5; ++i) {
    const std::string id = "f" + std::to_string(i);
    ASSERT_EQ(rec.terminal_count(id), 1) << id;
    const ResultRecord t = rec.terminal(id);
    if (i == 3) {
      EXPECT_EQ(t.status, "failed");
      EXPECT_EQ(t.error_code, "internal");
      EXPECT_NE(t.error.find("injected fault"), std::string::npos) << t.error;
      EXPECT_GT(t.run_ns, 0u);  // timing still recorded for failed requests
    } else {
      EXPECT_EQ(t.status, "done") << id;
    }
  }
  const LatencyReport report = build_latency_report();
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.failed, 1u);
  // The killed request still lands in its class's latency histogram.
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_EQ(report.classes[0].count, 5u);
}

TEST_F(ServeServerTest, InvalidRequestsFailStructurallyWithoutQueueing) {
  PolicyZoo zoo(dir_);
  Recorder rec;
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 4;
  opts.zoo = &zoo;
  {
    EvalServer server(opts, rec.sink());
    // Bad name: caught by validation, answered as failed, no queue slot.
    EvalRequest bad = grid_request("bad-agent", "none", 1, 1, false);
    bad.agent = "warp-drive";
    server.submit(bad);
    // Malformed JSON line: answered under id "?" with a corrupt error.
    server.submit_line("{\"id\":\"x\", nope}");
    // Unknown field: structured config error.
    server.submit_line(R"({"id":"unknown-field","frobnicate":1})");
    // Valid line still sails through afterwards.
    server.submit_line(R"({"id":"ok","agent":"modular","attacker":"none"})");
    server.drain();
  }

  const ResultRecord bad = rec.terminal("bad-agent");
  EXPECT_EQ(bad.status, "failed");
  EXPECT_EQ(bad.error_code, "config");
  EXPECT_NE(bad.error.find("unknown agent"), std::string::npos);
  EXPECT_FALSE(rec.saw_status("bad-agent", "queued"));

  const ResultRecord garbled = rec.terminal("?");
  EXPECT_EQ(garbled.status, "failed");
  EXPECT_EQ(garbled.error_code, "corrupt");

  const ResultRecord unknown = rec.terminal("unknown-field");
  EXPECT_EQ(unknown.status, "failed");
  EXPECT_EQ(unknown.error_code, "config");
  EXPECT_NE(unknown.error.find("frobnicate"), std::string::npos);

  EXPECT_EQ(rec.terminal("ok").status, "done");
  const LatencyReport report = build_latency_report();
  EXPECT_EQ(report.submitted, 3u);  // submit_line calls only
  EXPECT_EQ(report.admitted, 1u);
  EXPECT_EQ(report.completed, 1u);
}

// --workers is bounded: one above the limit is refused while the server is
// being constructed, before its pool starts a single thread.
TEST_F(ServeServerTest, WorkersAboveLimitAreRefusedBeforeAnyThreadStarts) {
  PolicyZoo zoo(dir_);
  ServerOptions opts;
  opts.workers = kMaxWorkers + 1;
  opts.zoo = &zoo;
  EXPECT_THROW(EvalServer(opts, {}), std::invalid_argument);
  opts.workers = 2;
  EvalServer ok(opts, {});
  EXPECT_EQ(ok.workers(), 2);
}

// Regression: the daemon answers SIGUSR1 by snapshotting the report from
// whatever thread notices the flag, including while a graceful drain is in
// progress. Hammer report() concurrently with drain() while a request is
// held mid-flight: neither side may crash or stall, every snapshot must be
// internally consistent, and the drain must still complete.
TEST_F(ServeServerTest, ReportDuringGracefulDrainNeitherCrashesNorStalls) {
  PolicyZoo zoo(dir_);
  Recorder rec;
  std::mutex hold_mu;
  std::condition_variable hold_cv;
  bool hold = true;

  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 16;
  opts.zoo = &zoo;
  opts.on_request_start = [&](const EvalRequest& req) {
    if (req.id != "r1") return;
    std::unique_lock<std::mutex> lock(hold_mu);
    hold_cv.wait(lock, [&] { return !hold; });
  };
  EvalServer server(opts, rec.sink());

  server.submit(grid_request("r1", "none", 1, 1, false));
  rec.wait_for_status("r1", "running");
  for (int i = 2; i <= 4; ++i) {
    server.submit(grid_request("r" + std::to_string(i), "noise", 77, 1, false));
  }

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    server.drain();
    drained.store(true, std::memory_order_relaxed);
  });

  // The SIGUSR1 path, repeatedly, while the drain is blocked on r1. Each
  // snapshot renders to JSON too (the daemon serializes it for --report).
  int reports_during_drain = 0;
  while (!drained.load(std::memory_order_relaxed)) {
    const LatencyReport report = server.report();
    EXPECT_LE(report.completed + report.failed, report.admitted);
    EXPECT_FALSE(report.to_json().empty());
    ++reports_during_drain;
    if (reports_during_drain == 64) {
      // Enough concurrent snapshots observed: release the held request so
      // the drain can finish. Keep reporting until it does.
      std::lock_guard<std::mutex> lock(hold_mu);
      hold = false;
      hold_cv.notify_all();
    }
    std::this_thread::yield();
  }
  drainer.join();
  EXPECT_GE(reports_during_drain, 64);

  for (const char* id : {"r1", "r2", "r3", "r4"}) {
    EXPECT_EQ(rec.terminal_count(id), 1) << id;
    EXPECT_EQ(rec.terminal(id).status, "done") << id;
  }

  // Post-drain reports still work (the daemon prints one final table).
  const LatencyReport final_report = server.report();
  EXPECT_EQ(final_report.completed, 4u);
}

TEST_F(ServeServerTest, ServedRequestFormsOneRootedSpanTree) {
  // Acceptance criterion for the tracing tentpole: one served request is
  // ONE rooted trace. serve.admit records on the submitting thread, the
  // worker-side serve.request adopts its context, and the rollout spans
  // hang below that — parent links resolve across >= 2 threads.
  telemetry::clear_trace();
  telemetry::set_tracing_enabled(true);
  PolicyZoo zoo(dir_);
  Recorder rec;
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_depth = 4;
  opts.zoo = &zoo;
  {
    EvalServer server(opts, rec.sink());
    server.submit(grid_request("traced", "none", 1, 2, false));
    server.drain();
  }
  EXPECT_EQ(rec.terminal("traced").status, "done");

  std::uint64_t trace_id = 0;
  for (const telemetry::SpanRecord& s : telemetry::collect_spans()) {
    if (s.name == std::string("serve.admit")) trace_id = s.trace_id;
  }
  ASSERT_NE(trace_id, 0u) << "admit-side root span missing";
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
  EXPECT_GE(spans.size(), 2u);
  EXPECT_GE(tids.size(), 2u) << "request must have crossed threads";
  int roots = 0;
  std::uint64_t admit_id = 0;
  for (const telemetry::SpanRecord& s : spans) {
    if (s.parent_span_id == 0) {
      ++roots;
      EXPECT_EQ(s.name, std::string("serve.admit"));
      admit_id = s.span_id;
    } else {
      EXPECT_TRUE(by_id.count(s.parent_span_id))
          << s.name << " has a dangling parent link";
    }
  }
  EXPECT_EQ(roots, 1);
  bool saw_request_span = false;
  for (const telemetry::SpanRecord& s : spans) {
    if (s.name == std::string("serve.request")) {
      saw_request_span = true;
      EXPECT_EQ(s.parent_span_id, admit_id);
    }
  }
  EXPECT_TRUE(saw_request_span);
}

TEST_F(ServeServerTest, RejectionStormDumpsFlightRecorderExactlyOnce) {
  PolicyZoo zoo(dir_);
  Recorder rec;
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 4;
  opts.zoo = &zoo;
  opts.rejection_storm_threshold = 3;
  std::filesystem::create_directories(dir_);
  telemetry::set_flight_dir(dir_);
  const std::uint64_t dumps_before = telemetry::flight_dump_count();
  {
    EvalServer server(opts, rec.sink());
    server.drain();  // every later submit is a deterministic rejection
    for (int i = 0; i < 6; ++i) {
      server.submit(grid_request("s" + std::to_string(i), "none", 1, 1, false));
      EXPECT_EQ(rec.terminal("s" + std::to_string(i)).status, "rejected");
    }
  }
  telemetry::set_flight_dir(".");
  // One dump at the threshold crossing, not one per rejection past it.
  EXPECT_EQ(telemetry::flight_dump_count(), dumps_before + 1);

  std::string dump_path;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("flight_", 0) == 0) dump_path = e.path().string();
  }
  ASSERT_FALSE(dump_path.empty()) << "no flight_*.json in " << dir_;
  std::ifstream in(dump_path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_TRUE(testjson::valid_json(doc));
  EXPECT_NE(doc.find("serve.rejection_storm"), std::string::npos);
  EXPECT_NE(doc.find("serve.rejected"), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
}

TEST_F(ServeServerTest, RepeatedPolicyRequestsHitZooCache) {
  // Learned-policy path: the first e2e request trains pi_ori (at scale 0);
  // later constructions load it from the zoo's disk cache, observable via
  // the zoo.cache_* counters surfaced in the latency report.
  PolicyZoo zoo(dir_);
  Recorder rec;
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_depth = 16;
  opts.zoo = &zoo;
  {
    EvalServer server(opts, rec.sink());
    for (int i = 0; i < 4; ++i) {
      EvalRequest req;
      req.id = "e" + std::to_string(i);
      req.agent = "e2e";
      req.attacker = "none";
      req.seed = 5000 + static_cast<std::uint64_t>(i);
      req.episodes = 1;
      server.submit(req);
    }
    server.drain();
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.terminal("e" + std::to_string(i)).status, "done");
  }
  const LatencyReport report = build_latency_report();
  // Exactly one training run (single-flight + disk cache)...
  EXPECT_EQ(report.zoo_cache_misses, 1u);
  // ...and the per-worker actor caches mean at most one zoo load per worker;
  // repeated requests on a warm worker skip the zoo entirely.
  EXPECT_LE(report.actor_cache_misses, 2u);
  EXPECT_GE(report.actor_cache_hits, 2u);
}

// Same-spec request coalescing under batch_lanes: queued requests that
// resolve to the same experiment share one lane-batched dispatch, and every
// request's terminal record stays bit-identical to its solo serial run —
// coalescing is a throughput optimization, never a semantics change.
TEST_F(ServeServerTest, BatchLanesCoalescesSameSpecRequestsBitIdentical) {
  PolicyZoo zoo(dir_);
  Recorder rec;
  std::filesystem::create_directories(dir_);
  const std::string events_path = dir_ + "/events.jsonl";
  ASSERT_TRUE(telemetry::open_event_log(events_path));

  std::mutex mu;
  std::condition_variable cv;
  bool release1 = false;
  bool release2 = false;

  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 16;
  opts.batch_lanes = 4;
  opts.zoo = &zoo;
  // blk1 occupies the single worker; blk2 then occupies the dispatcher
  // (popped, non-matching, waiting for a slot); the four "c*" requests pile
  // up in the queue behind it, so when the dispatcher finally pops c0 the
  // other three are guaranteed present to coalesce with.
  opts.on_request_start = [&](const EvalRequest& r) {
    std::unique_lock<std::mutex> lock(mu);
    if (r.id == "blk1") cv.wait(lock, [&] { return release1; });
    if (r.id == "blk2") cv.wait(lock, [&] { return release2; });
  };

  std::vector<EvalRequest> coalesced;
  for (int i = 0; i < 4; ++i) {
    coalesced.push_back(grid_request("c" + std::to_string(i), "noise",
                                     9100 + static_cast<std::uint64_t>(i),
                                     1 + i % 3, /*with_reference=*/false));
  }

  {
    EvalServer server(opts, rec.sink());
    server.submit(grid_request("blk1", "none", 100, 1, false));
    rec.wait_for_status("blk1", "running");
    server.submit(grid_request("blk2", "oracle", 101, 1, false));
    for (const auto& req : coalesced) server.submit(req);
    {
      std::lock_guard<std::mutex> lock(mu);
      release1 = true;
    }
    cv.notify_all();
    rec.wait_for_status("blk2", "running");
    {
      std::lock_guard<std::mutex> lock(mu);
      release2 = true;
    }
    cv.notify_all();
    server.drain();
  }
  telemetry::close_event_log();
  // blk1 + blk2 + the coalesced group's 1 + 2 + 3 + 1 episodes.
  EXPECT_EQ(counter_value("runtime.episodes"), 9u);

  EXPECT_EQ(rec.terminal("blk1").status, "done");
  EXPECT_EQ(rec.terminal("blk2").status, "done");
  for (const auto& req : coalesced) {
    const auto records = rec.records(req.id);
    ASSERT_EQ(rec.terminal_count(req.id), 1) << req.id;
    ASSERT_EQ(records.size(), 3u) << req.id;
    EXPECT_EQ(records[0].status, "queued");
    EXPECT_EQ(records[1].status, "running");
    EXPECT_EQ(records[2].status, "done");

    // Bit-identical to the solo serial run of the same request.
    const ResolvedSpec spec = resolve_spec(zoo, req);
    auto agent = spec.agent();
    auto attacker = spec.attacker ? spec.attacker() : nullptr;
    const auto ms = run_batch(*agent, attacker.get(), spec.config, req.episodes,
                              req.seed, req.with_reference);
    EpisodeAggregator agg;
    for (const auto& m : ms) agg.add(m);
    const ResultRecord& served = records[2];
    EXPECT_EQ(served.episodes, static_cast<int>(ms.size()));
    EXPECT_DOUBLE_EQ(served.mean_nominal_reward, agg.nominal_reward().mean());
    EXPECT_DOUBLE_EQ(served.mean_adv_reward, agg.adv_reward().mean());
    EXPECT_DOUBLE_EQ(served.mean_passed_npcs, agg.passed_npcs().mean());
    EXPECT_DOUBLE_EQ(served.mean_attack_effort, agg.attack_effort().mean());
    EXPECT_DOUBLE_EQ(served.success_rate, success_rate(ms));
    EXPECT_EQ(served.collisions, agg.collisions());
    EXPECT_EQ(served.side_collisions, agg.side_collisions());
  }

  // The dispatcher recorded the coalesced group of 4.
  std::ifstream events(events_path);
  std::string line;
  bool saw_coalesce = false;
  while (std::getline(events, line)) {
    if (line.find("serve.coalesce") != std::string::npos &&
        line.find("\"requests\":4") != std::string::npos) {
      saw_coalesce = true;
    }
  }
  EXPECT_TRUE(saw_coalesce) << "expected a serve.coalesce event for 4 requests";
}

// Budgets that print alike at 6 decimals are still different experiments:
// on one worker, a request at 0.5000001 after one at 0.5 must not reuse the
// cached 0.5 attacker. The fleet cache and the coalescing key use the
// budget's exact bits.
TEST_F(ServeServerTest, BudgetsThatPrintAlikeGetTheirOwnActors) {
  PolicyZoo zoo(dir_);
  Recorder rec;
  std::vector<EvalRequest> reqs = {grid_request("b0", "oracle", 4242, 2, false),
                                   grid_request("b1", "oracle", 4242, 2, false)};
  reqs[0].budget = 0.5;
  reqs[1].budget = 0.5000001;

  std::vector<EpisodeAggregator> solo(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ResolvedSpec spec = resolve_spec(zoo, reqs[i]);
    auto agent = spec.agent();
    auto attacker = spec.attacker ? spec.attacker() : nullptr;
    for (const auto& m : run_batch(*agent, attacker.get(), spec.config, reqs[i].episodes,
                                   reqs[i].seed, reqs[i].with_reference)) {
      solo[i].add(m);
    }
  }
  // The two solo runs must differ in what a record reports, or the test
  // could not tell a stale cached attacker from the right one.
  ASSERT_NE(solo[0].attack_effort().mean(), solo[1].attack_effort().mean());

  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 4;
  opts.zoo = &zoo;
  {
    EvalServer server(opts, rec.sink());
    for (const auto& req : reqs) server.submit(req);
    server.drain();
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const EpisodeAggregator& agg = solo[i];
    const ResultRecord served = rec.terminal(reqs[i].id);
    ASSERT_EQ(served.status, "done") << reqs[i].id;
    EXPECT_EQ(served.mean_attack_effort, agg.attack_effort().mean()) << reqs[i].id;
    EXPECT_EQ(served.mean_adv_reward, agg.adv_reward().mean()) << reqs[i].id;
    EXPECT_EQ(served.mean_nominal_reward, agg.nominal_reward().mean()) << reqs[i].id;
    EXPECT_EQ(served.collisions, agg.collisions()) << reqs[i].id;
  }
}

}  // namespace
}  // namespace adsec::serve

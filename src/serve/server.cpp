#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "runtime/aggregate.hpp"
#include "runtime/executor.hpp"
#include "serve/json.hpp"
#include "serve/spec.hpp"
#include "telemetry/telemetry.hpp"

namespace adsec::serve {

namespace {

struct ServerMetrics {
  telemetry::Counter submitted = telemetry::counter("serve.submitted");
  telemetry::Counter completed = telemetry::counter("serve.completed");
  telemetry::Counter failed = telemetry::counter("serve.failed");
  telemetry::Counter cache_hit = telemetry::counter("serve.actor_cache_hit");
  telemetry::Counter cache_miss = telemetry::counter("serve.actor_cache_miss");
  telemetry::Histogram queue_ms = telemetry::histogram(
      "serve.queue_ms", {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 33.0, 66.0, 125.0,
                         250.0, 500.0, 1000.0, 4000.0});
};

ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}

telemetry::Histogram class_latency_histogram(const std::string& request_class) {
  // Registering an existing name returns the same instrument, so per-request
  // lookup is a registry probe, not a new registration.
  return telemetry::histogram("serve.latency_ms." + request_class,
                              latency_bounds_ms());
}

ResultRecord status_record(const EvalRequest& request, const char* status) {
  ResultRecord rec;
  rec.id = request.id;
  rec.status = status;
  rec.request_class = request_class(request);
  return rec;
}

// The axes that change the constructed agent/attacker pair: the key of the
// per-worker fleet cache. The budget is keyed on its exact bits — budgets
// that print alike at any precision are still different attackers.
std::string actor_key(const EvalRequest& r) {
  char budget[32];
  std::snprintf(budget, sizeof budget, "%a", r.budget);
  return r.agent + "|" + r.attacker + "|" + budget;
}

// Every axis that changes the resolved experiment. Two requests with the
// same key run the exact same spec (only id, seed, and episode count may
// differ), which is what makes coalescing them into one executor run safe.
std::string spec_key(const EvalRequest& r) {
  return actor_key(r) + "|" + r.scenario + (r.with_reference ? "|ref" : "|noref");
}

// Coalescing bound: keeps one giant burst of identical requests from
// monopolizing a worker slot forever and bounds the jobs vector.
constexpr std::size_t kMaxCoalesce = 8;

// Aggregate one request's ordered episode metrics into its terminal
// record — per request, so coalescing cannot change what a "done" record
// reports.
ResultRecord summarize(const EvalRequest& req,
                       const std::vector<EpisodeMetrics>& ms) {
  EpisodeAggregator agg;
  for (const auto& m : ms) agg.add(m);
  ResultRecord rec = status_record(req, "done");
  rec.episodes = static_cast<int>(ms.size());
  rec.mean_nominal_reward = agg.nominal_reward().mean();
  rec.mean_adv_reward = agg.adv_reward().mean();
  rec.mean_passed_npcs = agg.passed_npcs().mean();
  rec.mean_attack_effort = agg.attack_effort().mean();
  rec.mean_deviation_rmse =
      agg.deviation_rmse().count() > 0 ? agg.deviation_rmse().mean() : -1.0;
  rec.success_rate = success_rate(ms);
  rec.collisions = agg.collisions();
  rec.side_collisions = agg.side_collisions();
  return rec;
}

}  // namespace

// Per-pool-worker actor caches: one lane fleet per actor_key. Slot w is
// only ever touched by worker thread w (the dispatcher hands a group to
// exactly one worker), so the per-slot maps need no locks.
struct EvalServer::WorkerCaches {
  std::vector<std::map<std::string, LaneFleet>> per_worker;
};

namespace {

int resolve_workers(int workers) {
  if (workers > kMaxWorkers) {
    throw std::invalid_argument("EvalServer: workers " + std::to_string(workers) +
                                " exceeds the limit of " + std::to_string(kMaxWorkers));
  }
  return workers > 0 ? workers : std::min(hardware_jobs(), kMaxWorkers);
}

}  // namespace

EvalServer::EvalServer(const ServerOptions& options, ResultCallback default_sink)
    : options_(options),
      workers_(resolve_workers(options.workers)),
      default_sink_(std::move(default_sink)),
      queue_(options.queue_depth) {
  if (options_.zoo != nullptr) {
    zoo_ = options_.zoo;
  } else {
    owned_zoo_ = std::make_unique<PolicyZoo>();
    zoo_ = owned_zoo_.get();
  }
  // The server is its own metrics consumer: the latency report reads the
  // registry, so collection is always on while a server exists — and so is
  // the flight recorder, whose whole point is to already be running when a
  // long-lived server finally hits something fatal.
  telemetry::set_metrics_enabled(true);
  telemetry::set_flight_enabled(true);
  pool_ = std::make_unique<ThreadPool>(workers_);
  caches_ = std::make_unique<WorkerCaches>();
  caches_->per_worker.resize(static_cast<std::size_t>(pool_->size()));
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  telemetry::emit_event("serve.start", {{"workers", workers_},
                                        {"queue_depth",
                                         static_cast<std::uint64_t>(queue_.depth())}});
}

EvalServer::~EvalServer() { drain(); }

void EvalServer::emit(const ResultCallback& sink, const ResultRecord& record) {
  const ResultCallback& target = sink ? sink : default_sink_;
  const bool terminal = record.status == "done" || record.status == "failed" ||
                        record.status == "rejected";
  {
    MutexLock lock(sink_mu_);
    if (target) target(record);
  }
  if (terminal) {
    MutexLock lock(mu_);
    ++answered_;
  }
}

std::uint64_t EvalServer::answered() const {
  MutexLock lock(mu_);
  return answered_;
}

void EvalServer::submit_line(const std::string& line, ResultCallback sink) {
  server_metrics().submitted.inc();
  EvalRequest request;
  try {
    ParsedLine parsed = parse_line(line);
    if (parsed.kind != LineKind::Request) {
      throw Error(ErrorCode::Config,
                  "control lines are handled by the transport, not submit_line");
    }
    request = std::move(parsed.request);
  } catch (const Error& e) {
    ResultRecord rec;
    // Best-effort id salvage: a shape-invalid line may still be valid JSON
    // carrying an id, and answering under that id lets the client correlate
    // the failure. Truly garbled lines fall back to "?".
    rec.id = "?";
    try {
      const JsonValue doc = JsonValue::parse(line);
      const JsonValue* id = doc.find("id");
      if (id != nullptr && id->is_string() && !id->as_string().empty()) {
        rec.id = id->as_string();
      }
    } catch (const Error&) {
    }
    rec.status = "failed";
    rec.error_code = error_code_name(e.code());
    rec.error = e.what();
    server_metrics().failed.inc();
    emit(sink, rec);
    return;
  }
  submit(std::move(request), std::move(sink));
}

void EvalServer::submit(EvalRequest request, ResultCallback sink) {
  // The admit span records on the submitting thread; its context travels
  // with the request so the worker-side serve.request span parents to it —
  // one rooted trace per request even though it crosses threads.
  telemetry::SpanGuard admit_span("serve.admit");
  // Name validation up front: a bad request must never occupy a queue slot
  // or reach a worker.
  try {
    validate_request(request);
  } catch (const Error& e) {
    ResultRecord rec = status_record(request, "failed");
    rec.error_code = error_code_name(e.code());
    rec.error = e.what();
    server_metrics().failed.inc();
    emit(sink, rec);
    return;
  }

  PendingRequest pending;
  pending.request = std::move(request);
  pending.sink = std::move(sink);
  pending.trace = telemetry::current_trace_context();
  const ResultRecord queued = status_record(pending.request, "queued");
  const ResultCallback sink_copy = pending.sink;
  // The queued record is emitted under the queue lock, before any worker
  // can pop the request, so clients always observe queued before running.
  const AdmitDecision decision = queue_.try_push(
      std::move(pending), [&] { emit(sink_copy, queued); });
  if (!decision.admitted) {
    ResultRecord rec = queued;
    rec.status = "rejected";
    rec.error_code = error_code_name(ErrorCode::Rejected);
    rec.error = "admission rejected: " + decision.reason;
    telemetry::flight_note("serve.rejected");
    const int storm = consecutive_rejections_.fetch_add(1) + 1;
    if (options_.rejection_storm_threshold > 0 &&
        storm == options_.rejection_storm_threshold &&
        telemetry::flight_enabled()) {
      telemetry::dump_flight_recorder("serve.rejection_storm");
    }
    emit(sink_copy, rec);
  } else {
    consecutive_rejections_.store(0);
  }
}

void EvalServer::dispatcher_loop() {
  telemetry::set_thread_name("serve.dispatcher");
  while (auto pending = queue_.pop()) {
    auto group = std::make_shared<std::vector<PendingRequest>>();
    group->push_back(std::move(*pending));
    if (options_.batch_lanes > 1) {
      // Same-spec coalescing: queued requests that resolve to the exact
      // same experiment ride along in this dispatch and share one lane
      // fleet (one batched forward per step across ALL their episodes),
      // occupying a single worker slot. Non-matching requests keep their
      // queue position.
      const std::string key = spec_key(group->front().request);
      auto extra = queue_.pop_matching(
          [&key](const PendingRequest& p) { return spec_key(p.request) == key; },
          kMaxCoalesce - 1);
      for (auto& p : extra) group->push_back(std::move(p));
      if (group->size() > 1) {
        telemetry::emit_event(
            "serve.coalesce",
            {{"class", request_class(group->front().request)},
             {"requests", static_cast<std::uint64_t>(group->size())}});
      }
    }
    {
      // Hold dispatch until a worker slot frees: the admission queue, not
      // the pool's queue, is the server's only backlog.
      UniqueLock lock(mu_);
      while (in_flight_ >= workers_) slots_cv_.wait(lock);
      ++in_flight_;
    }
    pool_->submit([this, group] {
      run_group(*group);
      // Notify under the lock: the destructor may destroy slots_cv_ as soon
      // as the dispatcher observes in_flight_ == 0, and holding mu_ through
      // the notify orders this call before that observation.
      MutexLock lock(mu_);
      --in_flight_;
      slots_cv_.notify_all();
    });
  }
  // Queue closed and drained; wait for in-flight work, then mark drained.
  UniqueLock lock(mu_);
  while (in_flight_ != 0) slots_cv_.wait(lock);
  drained_ = true;
  slots_cv_.notify_all();
}

void EvalServer::run_group(std::vector<PendingRequest>& group) {
  // One rooted trace per dispatch, adopting the first request's submit-side
  // context (per-request spans cannot interleave on one thread; the
  // per-request records and events below still carry each request's
  // identity and timing).
  telemetry::SpanGuard span("serve.request", group.front().trace);
  const std::uint64_t start_ns = telemetry::monotonic_ns();
  for (auto& p : group) emit(p.sink, status_record(p.request, "running"));

  std::vector<ResultRecord> recs(group.size());
  try {
    for (auto& p : group) {
      if (options_.on_request_start) options_.on_request_start(p.request);
    }
    if (fault_injector().fire("serve.worker")) {
      throw Error(ErrorCode::Internal, "injected fault in serve worker (request " +
                                           group.front().request.id + ")");
    }
    // All requests share one resolved spec (the coalescing key) and this
    // worker's cached fleet for it; request r's episode k keeps its serial
    // seed (r.seed + k) and result slot, so each terminal record is
    // bit-identical to a solo run. Reused actors cannot leak state across
    // requests: every episode resets them.
    const ResolvedSpec spec = resolve_spec(*zoo_, group.front().request);
    auto& cache =
        caches_->per_worker[static_cast<std::size_t>(ThreadPool::current_worker_index())];
    const auto [fleet, miss] = cache.try_emplace(actor_key(group.front().request));
    (miss ? server_metrics().cache_miss : server_metrics().cache_hit).inc();

    std::vector<std::vector<EpisodeMetrics>> per_request(group.size());
    std::vector<EpisodeJob> jobs;
    for (std::size_t r = 0; r < group.size(); ++r) {
      const EvalRequest& req = group[r].request;
      per_request[r].resize(static_cast<std::size_t>(req.episodes));
      for (std::size_t k = 0; k < per_request[r].size(); ++k) {
        jobs.push_back({req.seed + k, req.with_reference, &per_request[r][k]});
      }
    }
    ExecuteOptions exec;
    exec.lanes = options_.batch_lanes;
    exec.fleet = &fleet->second;
    execute(spec.agent, spec.attacker, spec.config, jobs, exec);
    for (std::size_t r = 0; r < group.size(); ++r) {
      recs[r] = summarize(group[r].request, per_request[r]);
    }
  } catch (const Error& e) {
    for (std::size_t r = 0; r < group.size(); ++r) {
      recs[r] = status_record(group[r].request, "failed");
      recs[r].error_code = error_code_name(e.code());
      recs[r].error = e.what();
    }
  } catch (const std::exception& e) {
    for (std::size_t r = 0; r < group.size(); ++r) {
      recs[r] = status_record(group[r].request, "failed");
      recs[r].error_code = error_code_name(ErrorCode::Internal);
      recs[r].error = e.what();
    }
  }

  const std::uint64_t end_ns = telemetry::monotonic_ns();
  for (std::size_t r = 0; r < group.size(); ++r) {
    const EvalRequest& req = group[r].request;
    ResultRecord& rec = recs[r];
    rec.queue_ns = start_ns - group[r].enqueue_ns;
    rec.run_ns = end_ns - start_ns;
    const double total_ms =
        static_cast<double>(end_ns - group[r].enqueue_ns) / 1e6;
    class_latency_histogram(rec.request_class.empty() ? request_class(req)
                                                      : rec.request_class)
        .observe(total_ms);
    server_metrics().queue_ms.observe(static_cast<double>(rec.queue_ns) / 1e6);
    if (rec.status == "done") {
      server_metrics().completed.inc();
    } else {
      server_metrics().failed.inc();
      telemetry::flight_note("serve.request_failed");
    }
    telemetry::emit_event("serve.request",
                          {{"id", req.id},
                           {"class", request_class(req)},
                           {"status", rec.status},
                           {"latency_ms", total_ms},
                           {"coalesced", static_cast<std::uint64_t>(group.size())}});
    emit(group[r].sink, rec);
  }
}

void EvalServer::drain() {
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  // After the dispatcher exits, drained_ is set and in_flight_ is 0; the
  // join itself is the barrier, but keep the flag for idempotent re-entry.
  MutexLock lock(mu_);
  drained_ = true;
}

}  // namespace adsec::serve

// The long-running evaluation server: admission control in front of the
// runtime's thread pool, with per-worker actor caches and full telemetry.
//
// Request life cycle (every submitted line produces exactly one terminal
// record — done, failed, or rejected — plus non-terminal status records):
//
//   submit_line ─ parse/validate ──invalid──▶ failed   (structured error)
//        │
//        ▼
//   AdmissionQueue.try_push ──full/closed──▶ rejected  (backpressure reason)
//        │ admitted ("queued" record)
//        ▼
//   dispatcher thread ── waits for a free worker slot, then hands the
//        │               request to the ThreadPool
//        ▼
//   pool worker ("running" record) ── resolves the spec against the shared
//        PolicyZoo (single-flight on first train/load), reuses its own
//        cached lane fleet for repeated (agent, attacker, budget) keys,
//        rolls the episodes through the episode executor on this thread
//        (seed base + k, bit-identical to adsec_cli), and emits the
//        terminal record with metrics + timing.
//
// Shutdown: drain() closes the queue (new submissions reject with
// "shutting_down"), waits until every admitted request has answered, and
// leaves the latency report available. The destructor drains implicitly.
//
// Fault injection: the "serve.worker" point fires inside the worker body so
// tests can kill a request mid-flight and assert it still answers exactly
// once (as a structured `failed` record), the same way the checkpoint
// suites prove crash-safety.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "core/zoo.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/report.hpp"

namespace adsec::serve {

// Upper bound on ServerOptions::workers: each worker is an OS thread with
// its own actor cache.
inline constexpr int kMaxWorkers = kMaxPoolThreads;

struct ServerOptions {
  // Concurrent requests; <= 0 => min(hardware_jobs(), kMaxWorkers). Above
  // kMaxWorkers the EvalServer constructor throws std::invalid_argument.
  int workers{0};
  std::size_t queue_depth{64};  // admitted-but-not-started bound

  // Episode lanes for cross-episode batched inference (see
  // runtime/executor.hpp). > 1 additionally lets the dispatcher coalesce
  // queued same-spec requests into one group occupying a single worker
  // slot; every request keeps its own seeds, aggregation, and terminal
  // record, bit-identical to a solo run.
  int batch_lanes{1};

  // After this many consecutive admission rejections the server dumps the
  // flight recorder once (the storm is exactly the moment the recent-past
  // evidence matters); the counter re-arms after an admit. <= 0 disables.
  int rejection_storm_threshold{32};

  // Share an external zoo (tests point it at a temp dir); nullptr => the
  // server owns a PolicyZoo on the default directory.
  PolicyZoo* zoo{nullptr};

  // Test hook, called on the worker thread after the "running" record and
  // before any work. Lets tests hold workers to force backpressure and
  // drain-mid-flight windows deterministically.
  std::function<void(const EvalRequest&)> on_request_start;
};

class EvalServer {
 public:
  // `default_sink` receives records for requests submitted without their
  // own sink. Sinks are invoked under one lock, from worker and submitter
  // threads — records never interleave but sinks must not call back into
  // the server.
  EvalServer(const ServerOptions& options, ResultCallback default_sink);
  ~EvalServer();

  EvalServer(const EvalServer&) = delete;
  EvalServer& operator=(const EvalServer&) = delete;

  // Parse + validate + admit one JSONL line. Never throws: malformed or
  // invalid lines answer with a terminal `failed` record (id "?" when the
  // line was too broken to carry one).
  void submit_line(const std::string& line, ResultCallback sink = {});

  // Admit an already-parsed request (same terminal guarantees).
  void submit(EvalRequest request, ResultCallback sink = {});

  // Stop admitting and wait until every admitted request has answered.
  // Idempotent; called by the destructor.
  void drain();

  // Snapshot the telemetry registry into the tail-latency report.
  [[nodiscard]] LatencyReport report() const { return build_latency_report(); }

  int workers() const { return workers_; }
  std::size_t queue_depth() const { return queue_.depth(); }

  // Terminal records emitted so far (done + failed + rejected).
  std::uint64_t answered() const;

 private:
  struct WorkerCaches;

  void emit(const ResultCallback& sink, const ResultRecord& record);
  void dispatcher_loop();
  // Same-spec requests (one unless batch_lanes > 1 coalesced more): one
  // executor run over all their episodes, one terminal record per request.
  void run_group(std::vector<PendingRequest>& group);

  ServerOptions options_;
  int workers_{1};
  std::unique_ptr<PolicyZoo> owned_zoo_;  // when options.zoo == nullptr
  PolicyZoo* zoo_{nullptr};
  ResultCallback default_sink_;

  AdmissionQueue queue_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<WorkerCaches> caches_;

  mutable Mutex mu_;  // guards in_flight_, answered_, drained_
  std::condition_variable_any slots_cv_;
  std::atomic<int> consecutive_rejections_{0};
  int in_flight_ ADSEC_GUARDED_BY(mu_){0};
  std::uint64_t answered_ ADSEC_GUARDED_BY(mu_){0};
  bool drained_ ADSEC_GUARDED_BY(mu_){false};

  // Serializes record emission; protects an ordering invariant (records
  // never interleave), not a field. adsec-lint: allow(unguarded-mutex)
  mutable Mutex sink_mu_;
  std::thread dispatcher_;
};

}  // namespace adsec::serve

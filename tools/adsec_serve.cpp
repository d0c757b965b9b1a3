// Long-running evaluation daemon: adsec_cli's experiment grid as a service.
//
//   adsec_serve --socket PATH | --watch REQ --out RES
//               [--workers N] [--queue-depth N] [--poll-ms N] [--once]
//               [--zoo DIR] [--report PATH] [--metrics-socket PATH]
//               [--flight-dir DIR] [--metrics-out PATH] [--chrome-trace PATH]
//               [--trace-jsonl PATH] [--log-json PATH]
//
// Clients stream JSONL requests (see src/serve/protocol.hpp):
//
//   {"id":"r1","agent":"e2e","attacker":"camera","budget":1.0,
//    "scenario":"paper","seed":700000,"episodes":3}
//
// and read back one record per status transition (queued, running, then a
// terminal done/failed/rejected). Two transports:
//
//   --socket PATH   Unix-domain stream socket; each connection gets exactly
//                   its own requests' records back.
//   --watch REQ     poll REQ for appended request lines and append records
//   --out RES       to RES ("mailbox" mode — any tool that can append a
//                   line is a client). --once processes the lines already
//                   in REQ, drains, reports, and exits (CI smoke mode).
//
// Control: {"op":"report"} answers with the tail-latency report plus the
// full metrics-registry snapshot in-band; {"op":"metrics"} answers with the
// Prometheus text rendering; {"op":"shutdown"} (or SIGTERM/SIGINT) drains
// admitted work, prints the per-request-class latency table, and exits.
// SIGUSR1 emits an on-demand report (latency classes + metrics snapshot)
// without stopping; the daemon exits non-zero if any report write failed.
// --report PATH also writes the final report JSON. --workers is at most
// 256 (0, the default, means one per core up to that limit).
//
// Live exposition: --metrics-socket PATH opens a connection-per-scrape UDS
// listener answering every connection with the Prometheus text (`nc -U` or
// tools/adsec_top is a client). The flight recorder is always on; fatal
// signals and admission-rejection storms dump flight_<n>_<ts>.json into
// --flight-dir (default: the working directory).
//
// Admission is bounded (--queue-depth): when the queue is full, a request
// is answered immediately with status "rejected" and the backpressure
// reason instead of growing an invisible backlog.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/metrics_endpoint.hpp"
#include "serve/report.hpp"
#include "serve/server.hpp"
#include "serve/spec.hpp"
#include "serve/transport.hpp"
#include "telemetry/telemetry.hpp"

using namespace adsec;

namespace {

std::atomic<bool> g_stop{false};    // SIGTERM/SIGINT: drain and exit
std::atomic<bool> g_report{false};  // SIGUSR1: emit an on-demand report

void handle_stop(int) { g_stop.store(true, std::memory_order_relaxed); }
void handle_report(int) { g_report.store(true, std::memory_order_relaxed); }

struct Options {
  std::string socket;
  std::string watch;
  std::string out;
  int workers = 0;        // 0 => hardware_jobs(); at most serve::kMaxWorkers
  int queue_depth = 64;
  int poll_ms = 20;
  bool once = false;
  std::string zoo;
  std::string report;
  std::string metrics_socket;
  std::string flight_dir;
  telemetry::TelemetryOptions telemetry;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
      "usage: %s --socket PATH | --watch REQ --out RES\n"
      "          [--workers N] [--queue-depth N] [--poll-ms N] [--once]\n"
      "          [--zoo DIR] [--report PATH] [--metrics-socket PATH]\n"
      "          [--flight-dir DIR] [--metrics-out PATH] [--chrome-trace PATH]\n"
      "          [--trace-jsonl PATH] [--log-json PATH]\n"
      "requests:  one JSON object per line, e.g.\n"
      "           {\"id\":\"r1\",\"agent\":\"e2e\",\"attacker\":\"camera\","
      "\"episodes\":3,\"seed\":700000}\n"
      "agents:    modular | e2e | finetune:<rho> | pnn:<sigma> | pnn-detector:<sigma>\n"
      "attackers: none | oracle | noise | full | camera | imu | td3\n"
      "control:   {\"op\":\"report\"} in-band report+metrics, {\"op\":\"metrics\"}\n"
      "           prometheus text, {\"op\":\"shutdown\"} drain+exit\n"
      "signals:   SIGTERM/SIGINT graceful drain, SIGUSR1 on-demand report\n"
      "workers:   0 (default) = one per core; at most %d\n",
      argv0, serve::kMaxWorkers);
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
    if (arg == "--socket") opt.socket = value();
    else if (arg == "--watch") opt.watch = value();
    else if (arg == "--out") opt.out = value();
    else if (arg == "--workers") {
      const std::string v = value();
      if (!parse_int(v, 0, opt.workers) || opt.workers > serve::kMaxWorkers) bad_value(v);
    } else if (arg == "--queue-depth") {
      const std::string v = value();
      if (!parse_int(v, 0, opt.queue_depth)) bad_value(v);
    } else if (arg == "--poll-ms") {
      const std::string v = value();
      if (!parse_int(v, 1, opt.poll_ms)) bad_value(v);
    } else if (arg == "--once") opt.once = true;
    else if (arg == "--zoo") opt.zoo = value();
    else if (arg == "--report") opt.report = value();
    else if (arg == "--metrics-socket") opt.metrics_socket = value();
    else if (arg == "--flight-dir") opt.flight_dir = value();
    else if (arg == "--metrics-out") opt.telemetry.metrics_out = value();
    else if (arg == "--chrome-trace") opt.telemetry.chrome_trace = value();
    else if (arg == "--trace-jsonl") opt.telemetry.trace_jsonl = value();
    else if (arg == "--log-json") opt.telemetry.events_jsonl = value();
    else if (arg == "--help" || arg == "-h") usage(argv[0], 0);
    else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  const bool file_mode = !opt.watch.empty() || !opt.out.empty();
  if (opt.socket.empty() == !file_mode) {
    std::fprintf(stderr, "exactly one of --socket or --watch/--out is required\n");
    usage(argv[0], 2);
  }
  if (file_mode && (opt.watch.empty() || opt.out.empty())) {
    std::fprintf(stderr, "--watch and --out must be given together\n");
    usage(argv[0], 2);
  }
  if (opt.once && file_mode == false) {
    std::fprintf(stderr, "--once requires --watch/--out mode\n");
    usage(argv[0], 2);
  }
  return opt;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  return n == text.size() && closed;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  set_log_level(LogLevel::Warn);
  telemetry::set_thread_name("main");
  if (!opt.zoo.empty()) runtime_config().zoo_dir = opt.zoo;
  if (opt.telemetry.any() && !telemetry::configure(opt.telemetry)) {
    std::fprintf(stderr, "cannot open --log-json file '%s' for writing\n",
                 opt.telemetry.events_jsonl.c_str());
    return 2;
  }
  telemetry::set_flight_enabled(true);
  if (!opt.flight_dir.empty()) telemetry::set_flight_dir(opt.flight_dir);
  telemetry::install_flight_signal_handlers();

  std::signal(SIGTERM, handle_stop);
  std::signal(SIGINT, handle_stop);
#ifdef SIGUSR1
  std::signal(SIGUSR1, handle_report);
#endif

  serve::ServerOptions server_opts;
  server_opts.workers = opt.workers;
  server_opts.queue_depth = static_cast<std::size_t>(opt.queue_depth);

  int exit_code = 0;
  try {
    serve::EvalServer server(server_opts, {});
    std::unique_ptr<serve::MetricsEndpoint> scrape;
    if (!opt.metrics_socket.empty()) {
      scrape = std::make_unique<serve::MetricsEndpoint>(opt.metrics_socket);
    }
    std::printf("adsec_serve: %d workers, queue depth %zu, %s\n",
                server.workers(), server.queue_depth(),
                opt.socket.empty()
                    ? ("watching " + opt.watch + " -> " + opt.out).c_str()
                    : ("listening on " + opt.socket).c_str());
    std::fflush(stdout);

    // The SIGUSR1 on-demand report: the human-readable latency table plus
    // the full metrics-registry snapshot as one JSON line (same payload as
    // the in-band {"op":"report"} answer).
    const auto print_report = [&server] {
      server.report().to_table().print();
      std::printf("%s\n", serve::full_report_json().c_str());
      std::fflush(stdout);
    };

    if (!opt.socket.empty()) {
      serve::UdsTransport transport(server, opt.socket);
      transport.run(g_stop, [&print_report] {
        if (g_report.exchange(false, std::memory_order_relaxed)) {
          print_report();
        }
      });
    } else {
      serve::FileWatchTransport transport(server, opt.watch, opt.out);
      if (opt.once) {
        transport.poll_once();
      } else {
        transport.run(g_stop, opt.poll_ms, [&transport] {
          if (g_report.exchange(false, std::memory_order_relaxed)) {
            transport.write_report();
          }
        });
      }
      server.drain();  // answer everything before the final report line
      transport.write_report();
      if (transport.report_write_failed()) {
        std::fprintf(stderr, "adsec_serve: report write to %s failed\n",
                     opt.out.c_str());
        exit_code = 2;
      }
    }
    server.drain();
    // A SIGUSR1 that landed during the drain window was not serviced by the
    // transport tick (it had already exited); honor it now rather than
    // dropping the request on the floor.
    if (g_report.exchange(false, std::memory_order_relaxed)) {
      print_report();
    }

    // Shutdown banner: the tail-latency table plus the optional JSON dump.
    const serve::LatencyReport report = server.report();
    report.to_table().print();
    if (!opt.report.empty()) {
      if (write_text_file(opt.report, report.to_json() + "\n")) {
        std::printf("wrote %s\n", opt.report.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", opt.report.c_str());
        exit_code = 2;
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "adsec_serve: %s\n", e.what());
    return 2;
  }

  if (opt.telemetry.any()) {
    const telemetry::FinalizeResult fin = telemetry::finalize();
    const auto report_file = [&exit_code](const std::string& path, bool written) {
      if (path.empty()) return;
      if (written) {
        std::printf("wrote %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        exit_code = 2;
      }
    };
    report_file(opt.telemetry.metrics_out, fin.metrics_written);
    report_file(opt.telemetry.chrome_trace, fin.trace_written);
    report_file(opt.telemetry.trace_jsonl, fin.trace_jsonl_written);
    if (!opt.telemetry.events_jsonl.empty())
      std::printf("wrote %s\n", opt.telemetry.events_jsonl.c_str());
  }
  return exit_code;
}

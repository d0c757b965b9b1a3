// Live metrics viewer: `top` for an adsec process.
//
//   adsec_top --socket PATH | --json PATH [--interval-ms N] [--watch]
//
// Two sources, one rendering:
//
//   --socket PATH   scrape the Prometheus-text exposition socket opened by
//                   `adsec_serve --metrics-socket PATH` (one connection per
//                   refresh; the daemon answers and closes).
//   --json PATH     read a metrics JSON snapshot file — either a final
//                   --metrics-out dump or the live file a grid run keeps
//                   fresh with `adsec_cli --grid ... --metrics-out PATH
//                   --metrics-every-ms N`.
//
// Default is one render and exit (scriptable; the output is plain tables).
// --watch redraws every --interval-ms (default 1000) until SIGINT. Exit
// status 2 on an unreadable source or malformed document.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "serve/json.hpp"
#include "telemetry/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ADSEC_TOP_HAVE_UDS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#else
#define ADSEC_TOP_HAVE_UDS 0
#endif

using namespace adsec;

namespace {

std::atomic<bool> g_stop{false};
void handle_stop(int) { g_stop.store(true, std::memory_order_relaxed); }

struct Options {
  std::string socket;
  std::string json;
  int interval_ms = 1000;
  bool watch = false;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
      "usage: %s --socket PATH | --json PATH [--interval-ms N] [--watch]\n"
      "sources:   --socket  prometheus text from adsec_serve --metrics-socket\n"
      "           --json    metrics JSON file (--metrics-out; pair with\n"
      "                     --metrics-every-ms for a live view of a grid run)\n"
      "mode:      one render by default; --watch redraws every --interval-ms\n"
      "           (default 1000) until interrupted\n",
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
    if (arg == "--socket") opt.socket = value();
    else if (arg == "--json") opt.json = value();
    else if (arg == "--interval-ms") {
      const std::string v = value();
      if (!parse_int(v, 1, opt.interval_ms)) {
        std::fprintf(stderr, "invalid value '%s' for %s\n", v.c_str(), arg.c_str());
        usage(argv[0], 2);
      }
    } else if (arg == "--watch") opt.watch = true;
    else if (arg == "--once") opt.watch = false;
    else if (arg == "--help" || arg == "-h") usage(argv[0], 0);
    else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  if (opt.socket.empty() == opt.json.empty()) {
    std::fprintf(stderr, "exactly one of --socket or --json is required\n");
    usage(argv[0], 2);
  }
  return opt;
}

// Both sources normalize into a MetricsSnapshot so the renderer (and the
// quantile math — telemetry::HistogramSnapshot::quantile) is shared.

// ---- source: metrics JSON file (MetricsSnapshot::to_json shape) ----

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  out.clear();
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    out.append(buf, n);
    if (n < sizeof buf) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

telemetry::MetricsSnapshot from_json(const std::string& text) {
  telemetry::MetricsSnapshot snap;
  const serve::JsonValue doc = serve::JsonValue::parse(text);
  if (const serve::JsonValue* counters = doc.find("counters")) {
    for (const auto& [name, v] : counters->members()) {
      snap.counters.emplace_back(name,
                                 static_cast<std::uint64_t>(v.as_number()));
    }
  }
  if (const serve::JsonValue* gauges = doc.find("gauges")) {
    for (const auto& [name, v] : gauges->members()) {
      snap.gauges.emplace_back(name, v.as_number());
    }
  }
  if (const serve::JsonValue* hists = doc.find("histograms")) {
    for (const auto& [name, v] : hists->members()) {
      telemetry::HistogramSnapshot h;
      h.name = name;
      if (const serve::JsonValue* c = v.find("count")) {
        h.count = static_cast<std::uint64_t>(c->as_number());
      }
      if (const serve::JsonValue* s = v.find("sum")) h.sum = s->as_number();
      if (const serve::JsonValue* b = v.find("bounds")) {
        for (const auto& x : b->items()) h.bounds.push_back(x.as_number());
      }
      if (const serve::JsonValue* c = v.find("counts")) {
        for (const auto& x : c->items()) {
          h.counts.push_back(static_cast<std::uint64_t>(x.as_number()));
        }
      }
      if (h.counts.size() != h.bounds.size() + 1) {
        throw Error(ErrorCode::Corrupt,
                    "histogram '" + name + "': counts/bounds size mismatch");
      }
      snap.histograms.push_back(std::move(h));
    }
  }
  return snap;
}

// ---- source: Prometheus exposition text (the --metrics-socket scrape) ----

// Parses exactly what telemetry::metrics_prometheus_text() emits: # TYPE
// comments select the metric kind; histogram buckets arrive cumulative and
// are differenced back so HistogramSnapshot::quantile applies unchanged.
telemetry::MetricsSnapshot from_prometheus(const std::string& text) {
  telemetry::MetricsSnapshot snap;
  std::string cur_hist;          // name of the histogram being assembled
  telemetry::HistogramSnapshot hist;
  std::uint64_t prev_cumulative = 0;

  auto flush_hist = [&] {
    if (cur_hist.empty()) return;
    // The +Inf bucket became the overflow slot; counts currently holds one
    // entry per bound plus overflow, still cumulative-differenced.
    snap.histograms.push_back(std::move(hist));
    hist = telemetry::HistogramSnapshot{};
    cur_hist.clear();
    prev_cumulative = 0;
  };

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') continue;  // TYPE comments carry no values

    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) {
      throw Error(ErrorCode::Corrupt, "prometheus line without value: " + line);
    }
    const std::string key = line.substr(0, sp);
    const double value = std::strtod(line.c_str() + sp + 1, nullptr);

    const std::size_t brace = key.find('{');
    if (brace != std::string::npos) {  // histogram bucket sample
      const std::string base = key.substr(0, brace);
      if (base.size() < 7 || base.substr(base.size() - 7) != "_bucket") {
        throw Error(ErrorCode::Corrupt, "unexpected labeled sample: " + line);
      }
      const std::string name = base.substr(0, base.size() - 7);
      if (name != cur_hist) {
        flush_hist();
        cur_hist = name;
        hist.name = name;
      }
      const std::size_t le = key.find("le=\"", brace);
      if (le == std::string::npos) {
        throw Error(ErrorCode::Corrupt, "bucket without le label: " + line);
      }
      const std::string bound = key.substr(le + 4, key.find('"', le + 4) - (le + 4));
      const auto cumulative = static_cast<std::uint64_t>(value);
      hist.counts.push_back(cumulative - prev_cumulative);
      prev_cumulative = cumulative;
      if (bound != "+Inf") hist.bounds.push_back(std::strtod(bound.c_str(), nullptr));
      continue;
    }

    if (!cur_hist.empty() && key == cur_hist + "_sum") {
      hist.sum = value;
      continue;
    }
    if (!cur_hist.empty() && key == cur_hist + "_count") {
      hist.count = static_cast<std::uint64_t>(value);
      flush_hist();
      continue;
    }
    // Plain sample: counter or gauge. The text does not distinguish them
    // per-sample, so integral values render as counters and the rest as
    // gauges — a display decision, not a registry round-trip.
    if (value == static_cast<double>(static_cast<std::uint64_t>(value))) {
      snap.counters.emplace_back(key, static_cast<std::uint64_t>(value));
    } else {
      snap.gauges.emplace_back(key, value);
    }
  }
  flush_hist();
  return snap;
}

#if ADSEC_TOP_HAVE_UDS
bool scrape_socket(const std::string& path, std::string& out) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  out.clear();
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}
#else
bool scrape_socket(const std::string&, std::string&) { return false; }
#endif

void render(const telemetry::MetricsSnapshot& snap) {
  if (!snap.counters.empty()) {
    Table t({"counter", "value"});
    for (const auto& [name, value] : snap.counters) {
      t.add_row({name, std::to_string(value)});
    }
    t.print();
  }
  if (!snap.gauges.empty()) {
    Table t({"gauge", "value"});
    for (const auto& [name, value] : snap.gauges) {
      t.add_row({name, fmt(value, 3)});
    }
    t.print();
  }
  if (!snap.histograms.empty()) {
    Table t({"histogram", "count", "mean", "p50", "p90", "p99"});
    for (const auto& h : snap.histograms) {
      const double mean = h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
      t.add_row({h.name, std::to_string(h.count), fmt(mean, 3),
                 fmt(h.quantile(0.5), 3), fmt(h.quantile(0.9), 3),
                 fmt(h.quantile(0.99), 3)});
    }
    t.print();
  }
  if (snap.counters.empty() && snap.gauges.empty() && snap.histograms.empty()) {
    std::printf("(no metrics)\n");
  }
}

int render_once(const Options& opt, bool clear) {
  std::string raw;
  telemetry::MetricsSnapshot snap;
  try {
    if (!opt.socket.empty()) {
      if (!scrape_socket(opt.socket, raw)) {
        std::fprintf(stderr, "adsec_top: cannot scrape %s\n", opt.socket.c_str());
        return 2;
      }
      snap = from_prometheus(raw);
    } else {
      if (!read_file(opt.json, raw)) {
        std::fprintf(stderr, "adsec_top: cannot read %s\n", opt.json.c_str());
        return 2;
      }
      snap = from_json(raw);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "adsec_top: %s\n", e.what());
    return 2;
  }
  if (clear) std::printf("\x1b[H\x1b[2J");
  render(snap);
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.watch) return render_once(opt, false);

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  int code = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    code = render_once(opt, true);
    if (code != 0) break;  // a vanished source ends the watch, not the shell
    // Sleep in small slices so Ctrl-C lands promptly even at long intervals.
    for (int waited = 0;
         waited < opt.interval_ms && !g_stop.load(std::memory_order_relaxed);
         waited += 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return code;
}

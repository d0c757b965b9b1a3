#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/logging.hpp"

namespace adsec {

namespace {
std::optional<std::string> get_env(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

// std::sto* skip leading whitespace; a whole-string number may not have any.
bool empty_or_padded(const std::string& s) {
  return s.empty() || std::isspace(static_cast<unsigned char>(s[0])) != 0;
}
}  // namespace

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig cfg;
  if (auto v = get_env("ADSEC_ZOO_DIR")) cfg.zoo_dir = *v;
  if (auto v = get_env("ADSEC_TRAIN_SCALE")) {
    if (double scale = 0.0; parse_double(*v, scale)) {
      cfg.train_scale = std::max(0.0, scale);
    } else {
      log_warn("ADSEC_TRAIN_SCALE='%s' is not a finite number; ignored",
               v->c_str());
    }
  }
  if (auto v = get_env("ADSEC_EPISODES")) {
    if (int n = 0; parse_int(*v, std::numeric_limits<int>::min(), n)) {
      cfg.episodes_override = std::max(1, n);
    } else {
      log_warn("ADSEC_EPISODES='%s' is not a number; ignored", v->c_str());
    }
  }
  if (auto v = get_env("ADSEC_CKPT_EVERY")) {
    if (int n = 0; parse_int(*v, std::numeric_limits<int>::min(), n)) {
      cfg.checkpoint_every = std::max(0, n);
    } else {
      log_warn("ADSEC_CKPT_EVERY='%s' is not a number; ignored", v->c_str());
    }
  }
  if (auto v = get_env("ADSEC_LOG")) {
    if (*v == "debug") set_log_level(LogLevel::Debug);
    else if (*v == "info") set_log_level(LogLevel::Info);
    else if (*v == "warn") set_log_level(LogLevel::Warn);
    else if (*v == "error") set_log_level(LogLevel::Error);
    else if (*v == "off") set_log_level(LogLevel::Off);
    else log_warn("ADSEC_LOG='%s' unknown; ignored", v->c_str());
  }
  return cfg;
}

RuntimeConfig& runtime_config() {
  static RuntimeConfig cfg = RuntimeConfig::from_env();
  return cfg;
}

int scaled_steps(int nominal, int min_steps) {
  const double scaled = nominal * runtime_config().train_scale;
  // Casting a double beyond int's range is undefined; saturate instead.
  constexpr double kMax = std::numeric_limits<int>::max();
  return std::max(min_steps, scaled >= kMax ? std::numeric_limits<int>::max()
                                            : static_cast<int>(scaled));
}

int eval_episodes(int nominal) {
  const auto& cfg = runtime_config();
  return cfg.episodes_override.value_or(nominal);
}

bool parse_double(const std::string& s, double& out) {
  if (empty_or_padded(s)) return false;
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size() || !std::isfinite(v)) return false;
    out = v;
    return true;
  } catch (...) {
    return false;
  }
}

bool parse_int(const std::string& s, int min_value, int& out) {
  if (empty_or_padded(s)) return false;
  try {
    std::size_t used = 0;
    const long v = std::stol(s, &used);
    if (used != s.size() || v < min_value || v > 1000000000L) return false;
    out = static_cast<int>(v);
    return true;
  } catch (...) {
    return false;
  }
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (empty_or_padded(s) || s[0] == '-') return false;
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(s, &used);
    if (used != s.size()) return false;
    out = v;
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace adsec

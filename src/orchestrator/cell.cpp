#include "orchestrator/cell.hpp"

#include <cstdio>
#include <limits>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"

namespace adsec::orch {

namespace {

std::string fmt_budget(double budget) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", budget);
  return buf;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Grid values go through the same strict parsers as CLI flags.
int parse_int_strict(const std::string& key, const std::string& v) {
  int n = 0;
  if (!parse_int(v, std::numeric_limits<int>::min(), n)) {
    throw Error(ErrorCode::Usage, "grid: bad integer for '" + key + "': " + v);
  }
  return n;
}

std::uint64_t parse_u64_strict(const std::string& key, const std::string& v) {
  std::uint64_t n = 0;
  if (!parse_u64(v, n)) {
    throw Error(ErrorCode::Usage, "grid: bad integer for '" + key + "': " + v);
  }
  return n;
}

double parse_double_strict(const std::string& key, const std::string& v) {
  double d = 0.0;
  if (!parse_double(v, d)) {
    throw Error(ErrorCode::Usage, "grid: bad number for '" + key + "': " + v);
  }
  return d;
}

std::vector<std::string> parse_names(const std::string& key,
                                     const std::string& v) {
  std::vector<std::string> names = split(v, ',');
  for (const auto& n : names) {
    if (n.empty()) {
      throw Error(ErrorCode::Usage, "grid: empty name in '" + key + "'");
    }
  }
  return names;
}

}  // namespace

std::vector<Cell> expand_grid(const GridSpec& grid) {
  std::vector<Cell> cells;
  for (const auto& agent : grid.agents) {
    for (const auto& scenario : grid.scenarios) {
      for (const auto& attacker : grid.attackers) {
        const bool unattacked = attacker == "none";
        const std::size_t budget_count = unattacked ? 1 : grid.budgets.size();
        for (std::size_t bi = 0; bi < budget_count; ++bi) {
          for (int r = 0; r < grid.seeds; ++r) {
            Cell c;
            c.agent = agent;
            c.attacker = attacker;
            c.scenario = scenario;
            c.budget = unattacked ? 0.0 : grid.budgets[bi];
            c.episodes = grid.episodes;
            c.seed = grid.seed_base + 1000 * static_cast<std::uint64_t>(r);
            c.with_reference = grid.with_reference;
            cells.push_back(c);
          }
        }
      }
    }
  }
  return cells;
}

std::string canonical_config(const Cell& cell) {
  std::string s;
  s.reserve(128);
  s += "agent=" + cell.agent;
  s += ";attacker=" + cell.attacker;
  s += ";budget=" + fmt_budget(cell.budget);
  s += ";scenario=" + cell.scenario;
  s += ";episodes=" + std::to_string(cell.episodes);
  s += ";seed=" + std::to_string(cell.seed);
  s += ";ref=";
  s += cell.with_reference ? '1' : '0';
  s += ";format=" + std::to_string(kOrchFormatVersion);
  return s;
}

std::string CellKey::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

CellKey cell_key(const Cell& cell) {
  const std::string canon = canonical_config(cell);
  const std::string salted = canon + "#adsec-cell-key";
  const auto hi =
      crc32(reinterpret_cast<const std::uint8_t*>(canon.data()), canon.size());
  const auto lo = crc32(reinterpret_cast<const std::uint8_t*>(salted.data()),
                        salted.size());
  return CellKey{(static_cast<std::uint64_t>(hi) << 32) | lo};
}

serve::EvalRequest to_request(const Cell& cell) {
  serve::EvalRequest req;
  req.id = cell_key(cell).hex();
  req.agent = cell.agent;
  req.attacker = cell.attacker;
  req.budget = cell.attacker == "none" ? 1.0 : cell.budget;
  req.scenario = cell.scenario;
  req.seed = cell.seed;
  req.episodes = cell.episodes;
  req.with_reference = cell.with_reference;
  return req;
}

GridSpec parse_grid_spec(const std::string& spec) {
  GridSpec grid;
  bool saw_agents = false;
  for (const std::string& field : split(spec, ';')) {
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw Error(ErrorCode::Usage,
                  "grid: expected key=value, got '" + field + "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "agents") {
      grid.agents = parse_names(key, value);
      saw_agents = true;
    } else if (key == "attackers") {
      grid.attackers = parse_names(key, value);
    } else if (key == "budgets") {
      grid.budgets.clear();
      for (const auto& b : parse_names(key, value)) {
        grid.budgets.push_back(parse_double_strict(key, b));
      }
    } else if (key == "scenarios") {
      grid.scenarios = parse_names(key, value);
    } else if (key == "episodes") {
      grid.episodes = parse_int_strict(key, value);
    } else if (key == "seeds") {
      grid.seeds = parse_int_strict(key, value);
    } else if (key == "seed") {
      grid.seed_base = parse_u64_strict(key, value);
    } else if (key == "ref") {
      grid.with_reference = parse_int_strict(key, value) != 0;
    } else {
      throw Error(ErrorCode::Usage,
                  "grid: unknown key '" + key +
                      "' (expected agents/attackers/budgets/scenarios/"
                      "episodes/seeds/seed/ref)");
    }
  }
  if (!saw_agents) {
    throw Error(ErrorCode::Usage, "grid: 'agents=' is required");
  }
  if (grid.episodes < 1) {
    throw Error(ErrorCode::Usage, "grid: episodes must be >= 1");
  }
  if (grid.seeds < 1) {
    throw Error(ErrorCode::Usage, "grid: seeds must be >= 1");
  }
  if (grid.budgets.empty()) {
    throw Error(ErrorCode::Usage, "grid: budgets list must not be empty");
  }
  return grid;
}

}  // namespace adsec::orch

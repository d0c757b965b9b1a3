// Grid cells: the unit of work and of caching for the experiment
// orchestrator.
//
// A GridSpec names the axes of a (victim x attacker x budget x scenario x
// seed) cross-product; expand_grid() flattens it into Cells in a canonical
// order that every consumer (scheduler, store, merger) shares, so results
// assemble identically no matter how execution interleaved. An experiment
// that is not a cross-product (a figure with a seed per budget) passes its
// own cell list to run_cells and merge_cells instead. Each cell
// serializes to a canonical config string which — together with the
// orchestrator format version — hashes into the content-addressed key the
// result store files it under: change the config or the code version and
// the cell recomputes; change nothing and it never does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace adsec::orch {

// Bump when the meaning of a stored result changes (episode semantics,
// metric definitions, serialization layout): every existing store entry
// becomes a miss instead of a silently wrong hit.
inline constexpr std::uint32_t kOrchFormatVersion = 2;

struct GridSpec {
  std::vector<std::string> agents{"modular"};
  std::vector<std::string> attackers{"none"};
  std::vector<double> budgets{1.0};
  std::vector<std::string> scenarios{"paper"};
  int episodes{1};
  int seeds{1};  // seed replicates: replicate r evaluates at seed_base + 1000*r
  std::uint64_t seed_base{700000};
  bool with_reference{false};
};

struct Cell {
  std::string agent;
  std::string attacker;
  std::string scenario;
  double budget{1.0};
  int episodes{1};
  std::uint64_t seed{700000};
  bool with_reference{false};
};

// Flatten the grid in canonical order: agent-major, then scenario, attacker,
// budget, seed replicate. The "none" attacker ignores its budget, so it
// expands once (budget 0) instead of once per budget — duplicate cells
// differing only in an irrelevant axis would poison the store with
// distinct keys for identical work.
[[nodiscard]] std::vector<Cell> expand_grid(const GridSpec& grid);

// Stable, human-readable serialization of everything that determines the
// cell's result, including the orchestrator format version. The budget is
// printed exactly (%a), so budgets that differ in any bit get distinct
// keys. This string is the store key's preimage and is embedded in each
// store entry for audit.
[[nodiscard]] std::string canonical_config(const Cell& cell);

// 64-bit content hash of canonical_config(), built from two independent
// CRC32 passes (plain + salted) over the canonical string.
struct CellKey {
  std::uint64_t value{0};
  [[nodiscard]] std::string hex() const;  // 16 lowercase hex digits
};

[[nodiscard]] CellKey cell_key(const Cell& cell);

// The serve-layer request equivalent to this cell, for validate_request()
// and resolve_spec() — one mapping from names to factories for CLI, server,
// and orchestrator alike.
[[nodiscard]] serve::EvalRequest to_request(const Cell& cell);

// Parse a grid spec string of the form
//   "agents=modular,e2e;attackers=none,camera;budgets=0.5,1.0;
//    scenarios=paper;episodes=3;seeds=2;seed=700000;ref=0"
// Unknown keys, empty lists, and malformed numbers throw Error{Usage}.
[[nodiscard]] GridSpec parse_grid_spec(const std::string& spec);

}  // namespace adsec::orch

#include "semantic.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>

namespace adsec::lint {
namespace {

// ---------------------------------------------------------------- helpers

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::Punct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::Identifier && t.text == text;
}

const Token* prev_tok(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 ? &toks[i - 1] : nullptr;
}

const Token* next_tok(const std::vector<Token>& toks, std::size_t i) {
  return i + 1 < toks.size() ? &toks[i + 1] : nullptr;
}

// `x.f` / `p->f` member access, or `lib::f` where lib is neither std nor
// this_thread (foreign qualifier): the name does not mean what the rule
// thinks it means.
bool member_or_foreign_qualified(const std::vector<Token>& toks,
                                 std::size_t i) {
  const Token* p = prev_tok(toks, i);
  if (p == nullptr) return false;
  if (is_punct(*p, ".") || is_punct(*p, "->")) return true;
  if (is_punct(*p, "::")) {
    const Token* q = i >= 2 ? &toks[i - 2] : nullptr;
    return q != nullptr && !is_ident(*q, "std") && !is_ident(*q, "chrono") &&
           !is_ident(*q, "this_thread") && !is_ident(*q, "adsec");
  }
  return false;
}

bool called(const std::vector<Token>& toks, std::size_t i) {
  const Token* n = next_tok(toks, i);
  return n != nullptr && is_punct(*n, "(");
}

void add(std::vector<Finding>& out, const std::string& path, const Token& t,
         const char* rule, std::string message) {
  out.push_back(Finding{path, t.line, t.col, rule, std::move(message)});
}

bool fixture_file(const std::string& path) {
  return path.find("tests/lint/fixtures") != std::string::npos;
}

// The concurrency rules police the library; tools/bench/tests own their
// threading (and mostly have none). The fixture corpus opts in so the
// rules stay provable in both directions, and the annotation wrapper
// itself is the one sanctioned home of a raw std::mutex.
bool concurrency_scope(const std::string& path) {
  if (path == "src/common/annotations.hpp") return false;
  return starts_with(path, "src/") || fixture_file(path);
}

// Lexically normalize "a/b/../c" and "./c" path segments.
std::string normalize_path(const std::string& raw) {
  std::vector<std::string> parts;
  std::string seg;
  const auto flush = [&] {
    if (seg.empty() || seg == ".") {
    } else if (seg == "..") {
      if (!parts.empty()) parts.pop_back();
    } else {
      parts.push_back(seg);
    }
    seg.clear();
  };
  for (const char c : raw) {
    if (c == '/') {
      flush();
    } else {
      seg += c;
    }
  }
  flush();
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// ------------------------------------------------------- brace classifier
//
// Every `{` is classified once so the walkers can keep a scope stack:
// Namespace braces are transparent, Class braces name a member scope,
// Func braces open an analyzable body (with the owning class recovered
// from a qualified `Owner::method(` head), everything else is Other
// (control blocks, lambdas, initializers, enums).

enum class BraceKind { Other, Namespace, Class, Func };

struct BraceInfo {
  BraceKind kind = BraceKind::Other;
  std::string name;  // class name / owning class of a qualified definition
};

// Skip a balanced <...> starting at toks[j] == "<"; returns the index one
// past the closing ">", or `j` unchanged if it does not close locally.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t j) {
  int depth = 0;
  for (std::size_t k = j; k < toks.size() && k < j + 256; ++k) {
    if (is_punct(toks[k], "<")) ++depth;
    if (is_punct(toks[k], ">")) {
      if (--depth == 0) return k + 1;
    }
    // A statement boundary inside the scan means this `<` was a comparison.
    if (is_punct(toks[k], ";") || is_punct(toks[k], "{")) break;
  }
  return j;
}

// Find the `(` matching a `)` at toks[j], scanning backward.
std::size_t matching_open_paren(const std::vector<Token>& toks,
                                std::size_t j) {
  int depth = 0;
  for (std::size_t k = j + 1; k-- > 0;) {
    if (is_punct(toks[k], ")")) ++depth;
    if (is_punct(toks[k], "(")) {
      if (--depth == 0) return k;
    }
  }
  return j;  // unmatched: caller treats as Other
}

std::map<std::size_t, BraceInfo> classify_braces(
    const std::vector<Token>& toks) {
  std::map<std::size_t, BraceInfo> out;

  // Forward marks: namespace / class / struct heads.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    if (t.text == "namespace") {
      for (std::size_t j = i + 1; j < toks.size() && j < i + 16; ++j) {
        if (toks[j].kind == TokKind::Identifier || is_punct(toks[j], "::")) {
          continue;
        }
        if (is_punct(toks[j], "{")) out[j] = {BraceKind::Namespace, ""};
        break;
      }
    } else if (t.text == "class" || t.text == "struct") {
      const Token* p = prev_tok(toks, i);
      if (p != nullptr && is_ident(*p, "enum")) continue;
      std::string name;
      bool frozen = false;  // stop collecting once the base-clause starts
      for (std::size_t j = i + 1; j < toks.size();) {
        const Token& u = toks[j];
        if (u.kind == TokKind::Identifier) {
          // Attribute macros between the keyword and the name
          // (class ADSEC_CAPABILITY("mutex") Mutex) are skipped whole.
          if (starts_with(u.text, "ADSEC_") && called(toks, j)) {
            int depth = 0;
            for (++j; j < toks.size(); ++j) {
              if (is_punct(toks[j], "(")) ++depth;
              if (is_punct(toks[j], ")") && --depth == 0) {
                ++j;
                break;
              }
            }
            continue;
          }
          if (!frozen && u.text != "final") name = u.text;
          ++j;
          continue;
        }
        if (is_punct(u, "<")) {
          const std::size_t adv = skip_angles(toks, j);
          if (adv == j) break;
          j = adv;
          continue;
        }
        if (is_punct(u, "::")) {
          ++j;
          continue;
        }
        if (is_punct(u, ":")) {
          frozen = true;
          ++j;
          continue;
        }
        if (is_punct(u, "{")) {
          if (!name.empty()) out[j] = {BraceKind::Class, name};
          break;
        }
        break;  // ';', '(', ',', '=', ... — forward decl or expression
      }
    }
  }

  // Backward classification of the remaining braces: function body or not.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_punct(toks[i], "{") || out.count(i) != 0) continue;
    for (std::size_t j = i; j-- > 0;) {
      const Token& t = toks[j];
      if (t.kind == TokKind::Identifier) {
        if (t.text == "const" || t.text == "override" || t.text == "final" ||
            t.text == "mutable" || t.text == "noexcept" || t.text == "try") {
          continue;
        }
        break;  // `else {`, enum bodies, trailing return types, ...
      }
      if (is_punct(t, ")")) {
        const std::size_t open = matching_open_paren(toks, j);
        if (open == j || open == 0) break;
        const Token& head = toks[open - 1];
        if (head.kind != TokKind::Identifier) break;  // lambda `](...)`, cast
        // Annotation macros and noexcept(...) sit between the parameter
        // list and the body; skip the group and keep scanning left.
        if (starts_with(head.text, "ADSEC_") || head.text == "noexcept") {
          j = open - 1;  // loop's j-- steps past the macro name next
          continue;
        }
        if (head.text == "if" || head.text == "while" || head.text == "for" ||
            head.text == "switch" || head.text == "catch") {
          break;
        }
        BraceInfo info{BraceKind::Func, ""};
        if (open >= 3 && is_punct(toks[open - 2], "::") &&
            toks[open - 3].kind == TokKind::Identifier) {
          info.name = toks[open - 3].text;  // Owner::method( ... ) {
        }
        out[i] = info;
        break;
      }
      break;  // '=', ',', '[', ';', '{', '}' — initializer / lambda / block
    }
  }
  return out;
}

// ------------------------------------------------------------ file models

struct MutexDecl {
  std::string cls;  // enclosing class; "" = file scope
  std::string name;
  int line;
  int col;
};

struct FileModel {
  std::vector<MutexDecl> mutexes;
  // (enclosing class or "", referenced name) for every identifier inside
  // an ADSEC_* contract annotation's argument list.
  std::set<std::pair<std::string, std::string>> refs;
  std::map<std::size_t, BraceInfo> braces;
};

const std::set<std::string>& contract_macros() {
  static const std::set<std::string> kMacros = {
      "ADSEC_GUARDED_BY",  "ADSEC_PT_GUARDED_BY", "ADSEC_REQUIRES",
      "ADSEC_ACQUIRE",     "ADSEC_RELEASE",       "ADSEC_TRY_ACQUIRE",
      "ADSEC_EXCLUDES",    "ADSEC_ACQUIRE_SHARED", "ADSEC_RELEASE_SHARED",
      "ADSEC_RETURN_CAPABILITY"};
  return kMacros;
}

// Innermost non-namespace scope, or nullptr at file scope.
const BraceInfo* innermost(const std::vector<BraceInfo>& stack) {
  for (std::size_t k = stack.size(); k-- > 0;) {
    if (stack[k].kind != BraceKind::Namespace) return &stack[k];
  }
  return nullptr;
}

// Phase A: collect mutex declarations, contract references, and the
// per-file findings of the unguarded-mutex rule that need no global index
// (raw std::mutex use).
void scan_decls(const std::string& path, const std::vector<Token>& toks,
                FileModel& model, std::vector<Finding>& out) {
  std::vector<BraceInfo> stack;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "{")) {
      const auto it = model.braces.find(i);
      stack.push_back(it == model.braces.end() ? BraceInfo{} : it->second);
      continue;
    }
    if (is_punct(t, "}")) {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    if (t.kind != TokKind::Identifier) continue;

    if ((t.text == "mutex" || t.text == "shared_mutex") && i >= 2 &&
        is_punct(toks[i - 1], "::") && is_ident(toks[i - 2], "std")) {
      add(out, path, t, "unguarded-mutex",
          "raw std::" + t.text +
              " cannot carry thread-safety annotations; use adsec::Mutex "
              "from common/annotations.hpp");
      continue;
    }

    if (t.text == "Mutex") {
      const Token* p = prev_tok(toks, i);
      if (p != nullptr &&
          (is_punct(*p, ".") || is_punct(*p, "->") || is_ident(*p, "class") ||
           is_ident(*p, "struct"))) {
        continue;
      }
      if (p != nullptr && is_punct(*p, "::") &&
          !(i >= 2 && is_ident(toks[i - 2], "adsec"))) {
        continue;
      }
      const BraceInfo* scope = innermost(stack);
      if (scope != nullptr && scope->kind != BraceKind::Class) {
        continue;  // function-local: out of the rule's scope
      }
      const Token* n = next_tok(toks, i);
      const Token* nn = i + 2 < toks.size() ? &toks[i + 2] : nullptr;
      if (n == nullptr || n->kind != TokKind::Identifier || nn == nullptr ||
          !(is_punct(*nn, ";") || is_punct(*nn, "{"))) {
        continue;  // reference/pointer/parameter shapes
      }
      model.mutexes.push_back(MutexDecl{
          scope == nullptr ? std::string() : scope->name, n->text, n->line,
          n->col});
      continue;
    }

    if (contract_macros().count(t.text) != 0 && called(toks, i)) {
      const BraceInfo* scope = innermost(stack);
      const std::string cls =
          scope != nullptr && scope->kind == BraceKind::Class ? scope->name
                                                              : std::string();
      int depth = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (is_punct(toks[j], "(")) ++depth;
        if (is_punct(toks[j], ")") && --depth == 0) break;
        if (toks[j].kind == TokKind::Identifier) {
          model.refs.insert({cls, toks[j].text});
        }
      }
    }
  }
}

// ------------------------------------------------------------ mutex index

struct MutexIndex {
  // member name -> set of classes declaring an adsec::Mutex of that name
  std::map<std::string, std::set<std::string>> member_classes;
  // file -> names of its file-scope adsec::Mutex globals
  std::map<std::string, std::set<std::string>> globals_by_file;
};

// Resolve a mutex's short name to a stable node: the innermost enclosing
// class (or the owner of a qualified method definition) that declares it,
// else a same-file global, else — if the name is unique across every
// scanned class — that class. Ambiguous names resolve to "" and produce
// no edges.
std::string resolve_node(const MutexIndex& index, const std::string& path,
                         const std::vector<BraceInfo>& stack,
                         const std::string& name) {
  if (name.empty()) return {};
  const auto classes = index.member_classes.find(name);
  for (std::size_t k = stack.size(); k-- > 0;) {
    const BraceInfo& s = stack[k];
    const bool owner = (s.kind == BraceKind::Class ||
                        (s.kind == BraceKind::Func && !s.name.empty()));
    if (owner && classes != index.member_classes.end() &&
        classes->second.count(s.name) != 0) {
      return s.name + "::" + name;
    }
  }
  const auto globals = index.globals_by_file.find(path);
  if (globals != index.globals_by_file.end() &&
      globals->second.count(name) != 0) {
    return path + "::" + name;
  }
  if (classes != index.member_classes.end() && classes->second.size() == 1) {
    return *classes->second.begin() + "::" + name;
  }
  return {};
}

// ---------------------------------------------------------- cycle machine

struct GraphEdge {
  std::string from;
  std::string to;
  std::string file;
  int line;
  int col;
};

using Adjacency = std::map<std::string, std::set<std::string>>;

// Path b ~> a (zero-length allowed, so a self-loop edge is a cycle).
bool reachable(const Adjacency& adj, const std::string& from,
               const std::string& to) {
  if (from == to) return true;
  std::set<std::string> seen{from};
  std::deque<std::string> frontier{from};
  while (!frontier.empty()) {
    const std::string n = frontier.front();
    frontier.pop_front();
    const auto it = adj.find(n);
    if (it == adj.end()) continue;
    for (const std::string& m : it->second) {
      if (m == to) return true;
      if (seen.insert(m).second) frontier.push_back(m);
    }
  }
  return false;
}

// Shortest path from -> to as "from -> x -> to"; both endpoints included.
std::string path_string(const Adjacency& adj, const std::string& from,
                        const std::string& to) {
  std::map<std::string, std::string> parent;
  std::deque<std::string> frontier{from};
  parent[from] = from;
  while (!frontier.empty() && parent.count(to) == 0) {
    const std::string n = frontier.front();
    frontier.pop_front();
    const auto it = adj.find(n);
    if (it == adj.end()) continue;
    for (const std::string& m : it->second) {
      if (parent.emplace(m, n).second) frontier.push_back(m);
    }
  }
  std::vector<std::string> nodes;
  for (std::string n = to; ; n = parent[n]) {
    nodes.push_back(n);
    if (n == from) break;
    if (parent.count(n) == 0) return from + " -> " + to;  // degenerate
  }
  std::reverse(nodes.begin(), nodes.end());
  std::string out;
  for (const std::string& n : nodes) {
    if (!out.empty()) out += " -> ";
    out += n;
  }
  return out;
}

// Report one finding per strongly connected component, at the earliest
// (file, line, col) edge inside it, so the output is byte-stable no
// matter how many edges participate.
void report_cycles(std::vector<GraphEdge> edges, const char* rule,
                   const std::string& noun, const std::string& consequence,
                   std::vector<Finding>& out) {
  Adjacency adj;
  for (const GraphEdge& e : edges) adj[e.from].insert(e.to);
  std::sort(edges.begin(), edges.end(),
            [](const GraphEdge& a, const GraphEdge& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  std::set<std::string> reported;
  for (const GraphEdge& e : edges) {
    if (!reachable(adj, e.to, e.from)) continue;  // edge closes no cycle
    // Canonical SCC key: every node mutually reachable with e.from.
    std::string key;
    for (const auto& [node, unused] : adj) {
      (void)unused;
      if (reachable(adj, e.from, node) && reachable(adj, node, e.from)) {
        key += node + "|";
      }
    }
    if (!reported.insert(key).second) continue;
    const std::string cycle =
        e.from == e.to ? e.from + " -> " + e.from
                       : e.from + " -> " + path_string(adj, e.to, e.from);
    out.push_back(Finding{e.file, e.line, e.col, rule,
                          noun + " cycle: " + cycle + " (" + consequence +
                              ")"});
  }
}

// --------------------------------------------------- guards and blocking

struct Guard {
  std::string var;   // "" for an ADSEC_REQUIRES entry capability
  std::string node;  // resolved mutex node; "" if unresolvable
  int depth;
  bool active;
};

const std::set<std::string>& guard_types() {
  static const std::set<std::string> kGuards = {
      "MutexLock",   "UniqueLock",  "lock_guard",
      "unique_lock", "scoped_lock", "shared_lock"};
  return kGuards;
}

std::string held_description(const std::vector<Guard>& guards) {
  std::string out;
  for (const Guard& g : guards) {
    if (!g.active) continue;
    if (!out.empty()) out += ", ";
    out += g.node.empty() ? (g.var.empty() ? "?" : "'" + g.var + "'") : g.node;
  }
  return out;
}

bool any_active(const std::vector<Guard>& guards) {
  for (const Guard& g : guards) {
    if (g.active) return true;
  }
  return false;
}

// Phase B: walk one file tracking lexical guard scopes; emit lock-order
// edges and lock-held-blocking findings.
void scan_bodies(const std::string& path, const std::vector<Token>& toks,
                 const FileModel& model, const MutexIndex& index,
                 std::vector<GraphEdge>& edges, std::vector<Finding>& out) {
  std::vector<BraceInfo> stack;
  std::vector<Guard> guards;
  std::vector<std::string> pending_requires;
  int depth = 0;
  int paren_depth = 0;

  const auto resolve = [&](const std::string& name) {
    return resolve_node(index, path, stack, name);
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::Punct) {
      if (t.text == "(") ++paren_depth;
      if (t.text == ")" && paren_depth > 0) --paren_depth;
      if (t.text == ";" && paren_depth == 0) pending_requires.clear();
      if (t.text == "{") {
        const auto it = model.braces.find(i);
        const BraceInfo info =
            it == model.braces.end() ? BraceInfo{} : it->second;
        stack.push_back(info);
        ++depth;
        if (info.kind == BraceKind::Func) {
          for (const std::string& name : pending_requires) {
            guards.push_back(Guard{"", resolve(name), depth, true});
          }
          pending_requires.clear();
        }
        continue;
      }
      if (t.text == "}") {
        while (!guards.empty() && guards.back().depth == depth) {
          guards.pop_back();
        }
        if (!stack.empty()) stack.pop_back();
        if (depth > 0) --depth;
        continue;
      }
      continue;
    }
    if (t.kind != TokKind::Identifier) continue;

    // Entry capabilities: ADSEC_REQUIRES(m) on a declarator means the
    // body that follows runs with m held.
    if (t.text == "ADSEC_REQUIRES" && called(toks, i)) {
      int d = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (is_punct(toks[j], "(")) ++d;
        if (is_punct(toks[j], ")") && --d == 0) break;
        if (toks[j].kind == TokKind::Identifier) {
          pending_requires.push_back(toks[j].text);
        }
      }
      continue;
    }

    // Guard construction: Type[<...>] var ( mutex-expr ) — the lexical
    // start of a critical section, released at the enclosing `}`.
    if (guard_types().count(t.text) != 0) {
      std::size_t j = i + 1;
      if (j < toks.size() && is_punct(toks[j], "<")) j = skip_angles(toks, j);
      if (j >= toks.size() || toks[j].kind != TokKind::Identifier) continue;
      const std::string var = toks[j].text;
      ++j;
      if (j >= toks.size() ||
          !(is_punct(toks[j], "(") || is_punct(toks[j], "{"))) {
        continue;
      }
      const bool brace_init = toks[j].text == "{";
      int d = 0;
      std::vector<std::string> args(1);
      std::string last_ident;
      for (; j < toks.size(); ++j) {
        const Token& u = toks[j];
        if (is_punct(u, brace_init ? "{" : "(")) {
          if (d++ == 0) continue;
        }
        if (is_punct(u, brace_init ? "}" : ")") && --d == 0) break;
        if (is_punct(u, ",") && d == 1) {
          args.back() = last_ident;
          args.emplace_back();
          last_ident.clear();
          continue;
        }
        if (u.kind == TokKind::Identifier) last_ident = u.text;
      }
      args.back() = last_ident;
      for (const std::string& name : args) {
        const std::string node = resolve(name);
        for (const Guard& g : guards) {
          if (g.active && !g.node.empty() && !node.empty() &&
              g.node != node) {
            edges.push_back(GraphEdge{g.node, node, path, t.line, t.col});
          }
        }
        guards.push_back(Guard{var, node, depth, true});
      }
      continue;
    }

    // UniqueLock unlock-work-relock: `var.unlock()` / `var.lock()` toggle
    // the tracked guard instead of ending its scope.
    if ((t.text == "unlock" || t.text == "lock") && i >= 2 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
        toks[i - 2].kind == TokKind::Identifier && called(toks, i)) {
      const std::string& var = toks[i - 2].text;
      for (std::size_t k = guards.size(); k-- > 0;) {
        if (guards[k].var == var) {
          guards[k].active = (t.text == "lock");
          break;
        }
      }
      continue;
    }

    // Condition-variable waits: waiting releases exactly one lock; any
    // OTHER lock still held sleeps with the system wedged behind it.
    if ((t.text == "wait" || t.text == "wait_for" ||
         t.text == "wait_until") &&
        i >= 1 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
        called(toks, i) && any_active(guards)) {
      std::string arg;
      for (std::size_t j = i + 2; j < toks.size(); ++j) {
        if (is_punct(toks[j], ",") || is_punct(toks[j], ")")) break;
        if (toks[j].kind == TokKind::Identifier) {
          arg = toks[j].text;
          break;
        }
      }
      const Guard* waited = nullptr;
      for (std::size_t k = guards.size(); k-- > 0;) {
        if (guards[k].active && guards[k].var == arg && !arg.empty()) {
          waited = &guards[k];
          break;
        }
      }
      if (waited == nullptr) {
        add(out, path, t, "lock-held-blocking",
            t.text + "() under " + held_description(guards) +
                " waits on a lock this scope does not visibly hold; waiting "
                "must release the held mutex");
      } else {
        for (const Guard& g : guards) {
          if (!g.active || &g == waited) continue;
          if (g.node.empty() || waited->node.empty() ||
              g.node != waited->node) {
            add(out, path, t, "lock-held-blocking",
                t.text + "('" + arg + "') releases only '" + arg +
                    "' while " +
                    (g.node.empty() ? "another lock" : g.node) +
                    " stays held through the sleep");
            break;
          }
        }
      }
      continue;
    }

    if (!any_active(guards)) continue;

    // Blocking calls under a lock. fclose/fflush are deliberately absent:
    // closing a handle the critical section owns is the cheap tail of the
    // suppressed open/write, not a new wait.
    const bool is_stdio = (t.text == "fopen" || t.text == "fwrite" ||
                           t.text == "fprintf" || t.text == "fputs") &&
                          called(toks, i) &&
                          !member_or_foreign_qualified(toks, i);
    const bool is_stream = (t.text == "ofstream" || t.text == "ifstream" ||
                            t.text == "fstream") &&
                           !member_or_foreign_qualified(toks, i);
    const bool is_sleep =
        (t.text == "sleep_for" || t.text == "sleep_until") &&
        called(toks, i) && !member_or_foreign_qualified(toks, i);
    const Token* p = prev_tok(toks, i);
    const bool is_submit = t.text == "submit" && called(toks, i) &&
                           p != nullptr && p->kind == TokKind::Punct &&
                           p->text != "::";
    if (is_stdio || is_stream || is_sleep || is_submit) {
      const char* what = is_sleep ? "sleeps"
                         : is_submit ? "submits pool work"
                                     : "does file I/O";
      add(out, path, t, "lock-held-blocking",
          t.text + " " + what + " while holding " + held_description(guards) +
              "; move the blocking call outside the critical section or "
              "suppress a serialized-write-is-the-point site");
    }
  }
}

// ---------------------------------------------------------- include graph

void check_includes(const std::vector<SemanticUnit>& units,
                    std::vector<Finding>& out) {
  std::set<std::string> paths;
  for (const SemanticUnit& u : units) paths.insert(u.path);
  std::vector<GraphEdge> edges;
  for (const SemanticUnit& u : units) {
    const std::string dir = dirname_of(u.path);
    for (const Token& t : u.lexed->tokens) {
      if (t.kind != TokKind::PpInclude || t.text.size() < 2 ||
          t.text.front() != '"') {
        continue;
      }
      const std::string target = t.text.substr(1, t.text.size() - 2);
      // Same-directory first (tools/, tests/), then the repo convention
      // of src/-relative spellings; unresolved targets are system or
      // generated headers and produce no edge.
      for (const std::string& candidate :
           {normalize_path(dir.empty() ? target : dir + "/" + target),
            normalize_path("src/" + target), normalize_path(target)}) {
        if (paths.count(candidate) != 0) {
          edges.push_back(GraphEdge{u.path, candidate, u.path, t.line, t.col});
          break;
        }
      }
    }
  }
  report_cycles(std::move(edges), "include-cycle", "include",
                "headers must layer acyclically", out);
}

}  // namespace

void check_semantic(const std::vector<SemanticUnit>& units,
                    std::vector<Finding>& out) {
  check_includes(units, out);

  // Phase A: per-file declarations, refs, raw-mutex findings.
  std::map<std::string, FileModel> models;
  for (const SemanticUnit& u : units) {
    if (!concurrency_scope(u.path)) continue;
    FileModel& model = models[u.path];
    model.braces = classify_braces(u.lexed->tokens);
    scan_decls(u.path, u.lexed->tokens, model, out);
  }

  // Global mutex index + the annotated-but-unreferenced check.
  MutexIndex index;
  for (const auto& [path, model] : models) {
    for (const MutexDecl& m : model.mutexes) {
      if (m.cls.empty()) {
        index.globals_by_file[path].insert(m.name);
      } else {
        index.member_classes[m.name].insert(m.cls);
      }
      if (model.refs.count({m.cls, m.name}) == 0) {
        out.push_back(Finding{
            path, m.line, m.col, "unguarded-mutex",
            "adsec::Mutex '" + m.name +
                "' has no ADSEC_GUARDED_BY/ADSEC_REQUIRES contract "
                "referencing it; annotate what it protects or suppress a "
                "critical-section-only mutex"});
      }
    }
  }

  // Phase B: guard scopes -> lock-order edges + blocking findings.
  std::vector<GraphEdge> edges;
  for (const SemanticUnit& u : units) {
    const auto it = models.find(u.path);
    if (it == models.end()) continue;
    scan_bodies(u.path, u.lexed->tokens, it->second, index, edges, out);
  }
  report_cycles(std::move(edges), "lock-order", "lock acquisition order",
                "two threads taking these locks in opposite orders deadlock",
                out);
}

}  // namespace adsec::lint

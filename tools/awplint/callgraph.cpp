#include "callgraph.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace awplint {

const std::vector<std::string>& semanticRankReturnSeeds() {
  // These return per-rank VERDICTS computed from field data — divergence
  // the token engine cannot see (no rank identifier appears in their
  // bodies; the values themselves differ across ranks). Reviewed set.
  static const std::vector<std::string> kSeeds = {
      "scan", "runPreflight", "runRupturePreflight", "allFinite"};
  return kSeeds;
}

namespace {

// Name-level view of the call graph: per bare name, the union of callee
// names across every summary sharing that name.
struct NameGraph {
  std::map<std::string, std::set<std::string>> callees;
  std::map<std::string, std::set<std::string>> returnCallees;
  std::size_t edges = 0;
};

NameGraph buildNameGraph(const SymbolIndex& index) {
  NameGraph g;
  for (const FunctionSummary& f : index.functions) {
    g.callees[f.name].insert(f.callees.begin(), f.callees.end());
    g.returnCallees[f.name].insert(f.returnCallees.begin(),
                                   f.returnCallees.end());
  }
  for (const auto& [name, cs] : g.callees) g.edges += cs.size();
  return g;
}

// Generic monotone fixpoint: grow `members` until no rule fires. The
// predicate receives a candidate name and the current member set; the
// iteration count is the number of whole-graph sweeps.
template <typename Rule>
std::size_t fixpoint(const NameGraph& g, std::set<std::string>& members,
                     Rule rule) {
  std::size_t sweeps = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++sweeps;
    for (const auto& [name, _] : g.callees) {
      if (members.count(name)) continue;
      if (rule(name, members)) {
        members.insert(name);
        changed = true;
      }
    }
  }
  return sweeps;
}

}  // namespace

PropagateStats propagate(SymbolIndex& index) {
  PropagateStats stats;
  stats.functionsIndexed = index.functions.size();

  qualifyIndexLocks(index);

  const NameGraph g = buildNameGraph(index);
  stats.callEdges = g.edges;

  // ---- collective reachability ------------------------------------------
  index.collectiveNames.clear();
  for (const FunctionSummary& f : index.functions)
    if (f.callsCollectivePrimitive) index.collectiveNames.insert(f.name);
  stats.fixpointIterations += fixpoint(
      g, index.collectiveNames,
      [&](const std::string& name, const std::set<std::string>& members) {
        const auto it = g.callees.find(name);
        for (const std::string& c : it->second)
          if (members.count(c)) return true;
        return false;
      });
  stats.collectiveFunctions = index.collectiveNames.size();

  // ---- rank-tainted returns ---------------------------------------------
  // Flows only through RETURN-position calls: `return helper();` taints
  // the caller's return; a helper called mid-body does not.
  index.rankReturnNames.clear();
  for (const std::string& s : semanticRankReturnSeeds())
    index.rankReturnNames.insert(s);
  for (const FunctionSummary& f : index.functions)
    if (f.localRankReturn) index.rankReturnNames.insert(f.name);
  stats.fixpointIterations += fixpoint(
      g, index.rankReturnNames,
      [&](const std::string& name, const std::set<std::string>& members) {
        const auto it = g.returnCallees.find(name);
        for (const std::string& c : it->second)
          if (members.count(c)) return true;
        return false;
      });
  stats.rankReturnFunctions = index.rankReturnNames.size();

  // ---- transitive lock acquisition sets ---------------------------------
  index.acquiresByName.clear();
  for (const FunctionSummary& f : index.functions) {
    auto& s = index.acquiresByName[f.name];
    s.insert(f.acquiredLocks.begin(), f.acquiredLocks.end());
  }
  bool changed = true;
  while (changed) {
    changed = false;
    ++stats.fixpointIterations;
    for (const auto& [name, cs] : g.callees) {
      auto& mine = index.acquiresByName[name];
      const std::size_t before = mine.size();
      for (const std::string& c : cs) {
        const auto it = index.acquiresByName.find(c);
        if (it != index.acquiresByName.end())
          mine.insert(it->second.begin(), it->second.end());
      }
      if (mine.size() != before) changed = true;
    }
  }

  // ---- AWP_REQUIRES lookup table ----------------------------------------
  index.requiresByKey.clear();
  for (const FunctionSummary& f : index.functions) {
    if (f.requiredLocks.empty()) continue;
    index.requiresByKey[f.name].insert(f.requiredLocks.begin(),
                                       f.requiredLocks.end());
    if (!f.qualifier.empty())
      index.requiresByKey[f.qualifier + "::" + f.name].insert(
          f.requiredLocks.begin(), f.requiredLocks.end());
  }

  for (const auto& [name, c] : index.classes)
    stats.guardedFields += c.guardedFields.size();
  for (const FunctionSummary& f : index.functions)
    stats.lockEdges += f.lockEdges.size();
  return stats;
}

std::vector<LockOrderFinding> lockOrderInversions(const SymbolIndex& index) {
  // Edge set: (held, acquired) pairs with a representative site. Local
  // edges come straight from summaries; interprocedural edges arise when
  // a function calls `g` while holding L and `g` may transitively acquire
  // M — that is an L-before-M ordering even though no single function
  // shows both acquisitions.
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  auto record = [&](const LockEdge& e) {
    if (e.held == e.acquired) return;  // same-name self edges are noise
    edges.emplace(std::make_pair(e.held, e.acquired), e);
  };
  // Direct acquisitions per bare name (no transitive closure: the
  // name-folded closure turns `run`/`pump`-style names into "acquires
  // everything", and crossing that with held sets manufactures edge
  // pairs no execution can realize).
  std::map<std::string, std::set<std::string>> directAcquires;
  for (const FunctionSummary& f : index.functions)
    directAcquires[f.name].insert(f.acquiredLocks.begin(),
                                  f.acquiredLocks.end());
  const auto qualified = [](const std::string& lock) {
    return lock.find("::") != std::string::npos;
  };
  for (const FunctionSummary& f : index.functions) {
    for (const LockEdge& e : f.lockEdges) record(e);
    // Interprocedural: a call made while a lock is actually held (the
    // scanner's per-scope tracking, via calleeHeld) orders that lock
    // before everything the callee's own body acquires. Restricted to
    // class-qualified locks on both sides — textual paths such as
    // `it.second.mu` name different objects at different sites, and
    // bare-name callee folding makes unqualified matches meaningless
    // across classes. Inversions only fire when BOTH directions are
    // observed, so this stays conservative.
    for (const auto& [callee, heldSet] : f.calleeHeld) {
      const auto it = directAcquires.find(callee);
      if (it == directAcquires.end()) continue;
      for (const std::string& acq : it->second) {
        if (!qualified(acq)) continue;
        for (const std::string& held : heldSet)
          if (qualified(held)) record({held, acq, f.file, f.line});
      }
    }
  }

  std::vector<LockOrderFinding> findings;
  std::set<std::pair<std::string, std::string>> reported;
  for (const auto& [pair, edge] : edges) {
    const auto inverse = edges.find({pair.second, pair.first});
    if (inverse == edges.end()) continue;
    // Report each unordered pair once, at the lexicographically first
    // direction's site.
    auto key = std::minmax(pair.first, pair.second);
    if (!reported.insert({key.first, key.second}).second) continue;
    LockOrderFinding f;
    f.file = edge.file;
    f.line = edge.line;
    f.message = "lock-order inversion: `" + pair.first + "` -> `" +
                pair.second + "` here, but `" + inverse->second.held +
                "` -> `" + inverse->second.acquired + "` at " +
                inverse->second.file + ":" +
                std::to_string(inverse->second.line) +
                "; pick one global order or annotate with `// awplint: "
                "lock-ok(<why these cannot deadlock>)`";
    findings.push_back(std::move(f));
  }
  return findings;
}

}  // namespace awplint

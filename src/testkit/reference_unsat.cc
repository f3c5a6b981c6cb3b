#include "testkit/reference_unsat.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

namespace olite::testkit {

namespace {

// Sorted predecessor set of `n` under `reverse`, made reflexive
// (pred*(n) always contains n itself since T ⊨ S ⊑ S).
std::vector<graph::NodeId> ReflexivePredecessors(
    const graph::TransitiveClosure& reverse, graph::NodeId n) {
  std::vector<graph::NodeId> preds = reverse.ReachableFrom(n);
  auto it = std::lower_bound(preds.begin(), preds.end(), n);
  if (it == preds.end() || *it != n) preds.insert(it, n);
  return preds;
}

}  // namespace

std::vector<bool> ReferenceUnsat(const core::TBoxGraph& g,
                                 const graph::TransitiveClosure& forward,
                                 const graph::TransitiveClosure& reverse) {
  const graph::NodeId n = g.nodes.NumNodes();
  std::vector<bool> unsat(n, false);
  std::vector<graph::NodeId> worklist;

  auto mark = [&](graph::NodeId x) {
    if (!unsat[x]) {
      unsat[x] = true;
      worklist.push_back(x);
    }
  };

  // Seeds: for each negative inclusion S1 ⊑ ¬S2, every predicate that is
  // (transitively, reflexively) subsumed by both sides is unsatisfiable.
  for (const auto& ni : g.negative_inclusions) {
    std::vector<graph::NodeId> p1 = ReflexivePredecessors(reverse, ni.lhs);
    std::vector<graph::NodeId> p2 = ReflexivePredecessors(reverse, ni.rhs);
    std::vector<graph::NodeId> both;
    std::set_intersection(p1.begin(), p1.end(), p2.begin(), p2.end(),
                          std::back_inserter(both));
    for (graph::NodeId x : both) mark(x);
  }

  // Qualified-existential successor rule (the paper's "remaining
  // challenge"): the anonymous successor forced by B ⊑ ∃Q.A belongs to
  // the upward closure of {A} ∪ {∃r⁻ : Q ⊑* r}; if a negative inclusion
  // has both sides inside that closure, the successor is contradictory
  // and B is unsatisfiable. (An *unsatisfiable* member of the closure is
  // handled by the fixpoint rules below.)
  for (const auto& qe : g.qualified_existentials) {
    std::unordered_set<graph::NodeId> memberships;
    auto add_up = [&](graph::NodeId m) {
      memberships.insert(m);
      for (graph::NodeId v : forward.ReachableFrom(m)) memberships.insert(v);
    };
    add_up(g.nodes.OfConcept(qe.filler));
    add_up(g.nodes.OfExists(qe.role.Inverted()));
    for (graph::NodeId v :
         forward.ReachableFrom(g.nodes.OfRole(qe.role))) {
      if (g.nodes.KindOf(v) == core::NodeKind::kRole) {
        add_up(g.nodes.OfExists(g.nodes.RoleOf(v).Inverted()));
      }
    }
    for (const auto& ni : g.negative_inclusions) {
      if (memberships.count(ni.lhs) > 0 && memberships.count(ni.rhs) > 0) {
        mark(qe.lhs);
        break;
      }
    }
  }

  // Index: filler concept -> LHS nodes of qualified existentials, for the
  // rule "B ⊑ ∃Q.A and A unsatisfiable ⇒ B unsatisfiable".
  std::unordered_map<graph::NodeId, std::vector<graph::NodeId>> qe_by_filler;
  for (const auto& qe : g.qualified_existentials) {
    qe_by_filler[g.nodes.OfConcept(qe.filler)].push_back(qe.lhs);
  }

  // Fixpoint propagation.
  while (!worklist.empty()) {
    graph::NodeId x = worklist.back();
    worklist.pop_back();

    // Everything subsumed by an unsatisfiable predicate is unsatisfiable.
    for (graph::NodeId u : reverse.ReachableFrom(x)) mark(u);

    switch (g.nodes.KindOf(x)) {
      case core::NodeKind::kRole: {
        // An empty role has an empty inverse and empty domain/range.
        dllite::BasicRole q = g.nodes.RoleOf(x);
        mark(g.nodes.OfRole(q.Inverted()));
        mark(g.nodes.OfExists(q));
        mark(g.nodes.OfExists(q.Inverted()));
        break;
      }
      case core::NodeKind::kExists: {
        // An empty domain (or range) forces the role itself to be empty;
        // the kRole rule then empties the remaining components.
        mark(g.nodes.OfRole(g.nodes.RoleOf(x)));
        break;
      }
      case core::NodeKind::kAttribute:
        mark(g.nodes.OfAttrDomain(g.nodes.AttributeOf(x)));
        break;
      case core::NodeKind::kAttrDomain:
        mark(g.nodes.OfAttribute(g.nodes.AttributeOf(x)));
        break;
      case core::NodeKind::kConcept: {
        // B ⊑ ∃Q.A with unsatisfiable filler A empties B. (An
        // unsatisfiable *role* in the same axiom is covered by the
        // (B, ∃Q) arc plus the predecessor rule above.)
        auto it = qe_by_filler.find(x);
        if (it != qe_by_filler.end()) {
          for (graph::NodeId b : it->second) mark(b);
        }
        break;
      }
    }
  }
  return unsat;
}

}  // namespace olite::testkit

#include "core/classifier.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "graph/dynamic_closure.h"

namespace olite::core {

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

std::vector<bool> ComputeUnsat(const TBoxGraph& g,
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
      if (g.nodes.KindOf(v) == NodeKind::kRole) {
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
      case NodeKind::kRole: {
        // An empty role has an empty inverse and empty domain/range.
        dllite::BasicRole q = g.nodes.RoleOf(x);
        mark(g.nodes.OfRole(q.Inverted()));
        mark(g.nodes.OfExists(q));
        mark(g.nodes.OfExists(q.Inverted()));
        break;
      }
      case NodeKind::kExists: {
        // An empty domain (or range) forces the role itself to be empty;
        // the kRole rule then empties the remaining components.
        mark(g.nodes.OfRole(g.nodes.RoleOf(x)));
        break;
      }
      case NodeKind::kAttribute:
        mark(g.nodes.OfAttrDomain(g.nodes.AttributeOf(x)));
        break;
      case NodeKind::kAttrDomain:
        mark(g.nodes.OfAttribute(g.nodes.AttributeOf(x)));
        break;
      case NodeKind::kConcept: {
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

Classification Classify(const dllite::TBox& tbox,
                        const dllite::Vocabulary& vocab,
                        const ClassificationOptions& options) {
  ClassificationStats stats;
  Stopwatch sw;

  TBoxGraph g = BuildTBoxGraph(tbox, vocab);
  stats.build_graph_ms = sw.ElapsedMillis();
  stats.num_nodes = g.nodes.NumNodes();
  stats.num_graph_arcs = g.digraph.NumArcs();

  sw.Reset();
  std::unique_ptr<graph::TransitiveClosure> forward;
  std::unique_ptr<graph::TransitiveClosure> reverse;
  if (ThreadPool::ResolveThreads(options.threads) > 1) {
    // The two closures are independent: build the reverse one on a second
    // thread while this thread builds the forward one.
    graph::Digraph reversed = g.digraph.Reversed();
    std::jthread reverse_builder([&] {
      reverse = graph::ComputeClosure(reversed, options.engine);
    });
    forward = graph::ComputeClosure(g.digraph, options.engine);
    reverse_builder.join();
  } else {
    forward = graph::ComputeClosure(g.digraph, options.engine);
    reverse = graph::ComputeClosure(g.digraph.Reversed(), options.engine);
  }
  stats.closure_ms = sw.ElapsedMillis();
  stats.num_closure_arcs = forward->NumClosureArcs();

  sw.Reset();
  std::vector<bool> unsat = options.compute_unsat
                                ? ComputeUnsat(g, *forward, *reverse)
                                : std::vector<bool>(g.nodes.NumNodes(), false);
  stats.unsat_ms = sw.ElapsedMillis();
  stats.num_unsat_nodes =
      static_cast<uint64_t>(std::count(unsat.begin(), unsat.end(), true));

  return Classification(std::move(g), std::move(forward), std::move(reverse),
                        std::move(unsat), stats);
}

Classification RefreshClassification(
    const Classification& base, const dllite::TBox& tbox,
    const dllite::Vocabulary& vocab,
    const graph::DynamicClosure::PatchOptions& options, RefreshStats* stats) {
  ClassificationStats cstats;
  Stopwatch sw;
  TBoxGraph g = BuildTBoxGraph(tbox, vocab);
  cstats.build_graph_ms = sw.ElapsedMillis();
  cstats.num_nodes = g.nodes.NumNodes();
  cstats.num_graph_arcs = g.digraph.NumArcs();

  const NodeTable& bn = base.tbox_graph().nodes;
  const auto* base_fwd =
      dynamic_cast<const graph::DynamicClosure*>(&base.closure());
  const auto* base_rev =
      dynamic_cast<const graph::DynamicClosure*>(&base.reverse_closure());
  // Node ids are pure arithmetic over (|concepts|, |roles|, |attributes|):
  // adding a concept shifts every role block, so the layout must match
  // exactly for the patch to be meaningful.
  const bool layout_stable = bn.num_concepts() == g.nodes.num_concepts() &&
                             bn.num_roles() == g.nodes.num_roles() &&
                             bn.num_attributes() == g.nodes.num_attributes();

  auto scratch = [&]() {
    if (stats != nullptr) stats->fell_back_scratch = true;
    return Classify(tbox, vocab);
  };
  if (base_fwd == nullptr || base_rev == nullptr || !layout_stable) {
    return scratch();
  }

  sw.Reset();
  const graph::Digraph& base_graph = base.tbox_graph().digraph;
  graph::DynamicClosure::PatchStats fs, rs;
  std::unique_ptr<graph::DynamicClosure> forward =
      base_fwd->Patched(base_graph, g.digraph, options, &fs);
  std::unique_ptr<graph::DynamicClosure> reverse = base_rev->Patched(
      base_graph.Reversed(), g.digraph.Reversed(), options, &rs);
  if (stats != nullptr) {
    stats->fell_back_scratch = fs.fell_back || rs.fell_back;
    stats->patched_nodes = fs.patched_nodes + rs.patched_nodes;
    stats->reused_components = fs.reused_components + rs.reused_components;
  }
  cstats.closure_ms = sw.ElapsedMillis();
  cstats.num_closure_arcs = forward->NumClosureArcs();

  sw.Reset();
  std::vector<bool> unsat = ComputeUnsat(g, *forward, *reverse);
  cstats.unsat_ms = sw.ElapsedMillis();
  cstats.num_unsat_nodes =
      static_cast<uint64_t>(std::count(unsat.begin(), unsat.end(), true));

  return Classification(std::move(g), std::move(forward), std::move(reverse),
                        std::move(unsat), cstats);
}

std::vector<dllite::ConceptId> Classification::SuperConcepts(
    dllite::ConceptId a) const {
  const NodeTable& nt = graph_.nodes;
  std::vector<dllite::ConceptId> out;
  if (unsat_[nt.OfConcept(a)]) {
    // Ω_T: an unsatisfiable concept is subsumed by every named concept.
    out.reserve(nt.num_concepts() - 1);
    for (uint32_t c = 0; c < nt.num_concepts(); ++c) {
      if (c != a) out.push_back(c);
    }
    return out;
  }
  for (graph::NodeId v : forward_->ReachableFrom(nt.OfConcept(a))) {
    if (nt.KindOf(v) == NodeKind::kConcept && nt.ConceptOf(v) != a) {
      out.push_back(nt.ConceptOf(v));
    }
  }
  return out;
}

std::vector<dllite::ConceptId> Classification::SubConcepts(
    dllite::ConceptId a) const {
  const NodeTable& nt = graph_.nodes;
  std::vector<dllite::ConceptId> out;
  for (graph::NodeId v : reverse_->ReachableFrom(nt.OfConcept(a))) {
    if (nt.KindOf(v) == NodeKind::kConcept && nt.ConceptOf(v) != a) {
      out.push_back(nt.ConceptOf(v));
    }
  }
  // Ω_T: every unsatisfiable concept is a subclass of a.
  for (uint32_t c = 0; c < nt.num_concepts(); ++c) {
    if (c != a && unsat_[nt.OfConcept(c)]) out.push_back(c);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<dllite::RoleId> Classification::SuperRoles(
    dllite::RoleId p) const {
  const NodeTable& nt = graph_.nodes;
  graph::NodeId node = nt.OfRole(dllite::BasicRole::Direct(p));
  std::vector<dllite::RoleId> out;
  if (unsat_[node]) {
    for (uint32_t r = 0; r < nt.num_roles(); ++r) {
      if (r != p) out.push_back(r);
    }
    return out;
  }
  for (graph::NodeId v : forward_->ReachableFrom(node)) {
    if (nt.KindOf(v) == NodeKind::kRole) {
      dllite::BasicRole q = nt.RoleOf(v);
      // Only direct (non-inverse) super-roles name a predicate in Σ.
      if (!q.inverse && q.role != p) out.push_back(q.role);
    }
  }
  return out;
}

std::vector<dllite::AttributeId> Classification::SuperAttributes(
    dllite::AttributeId u) const {
  const NodeTable& nt = graph_.nodes;
  graph::NodeId node = nt.OfAttribute(u);
  std::vector<dllite::AttributeId> out;
  if (unsat_[node]) {
    for (uint32_t w = 0; w < nt.num_attributes(); ++w) {
      if (w != u) out.push_back(w);
    }
    return out;
  }
  for (graph::NodeId v : forward_->ReachableFrom(node)) {
    if (nt.KindOf(v) == NodeKind::kAttribute && nt.AttributeOf(v) != u) {
      out.push_back(nt.AttributeOf(v));
    }
  }
  return out;
}

std::vector<dllite::ConceptId> Classification::UnsatisfiableConcepts() const {
  std::vector<dllite::ConceptId> out;
  for (uint32_t c = 0; c < graph_.nodes.num_concepts(); ++c) {
    if (unsat_[graph_.nodes.OfConcept(c)]) out.push_back(c);
  }
  return out;
}

std::vector<dllite::RoleId> Classification::UnsatisfiableRoles() const {
  std::vector<dllite::RoleId> out;
  for (uint32_t p = 0; p < graph_.nodes.num_roles(); ++p) {
    if (unsat_[graph_.nodes.OfRole(dllite::BasicRole::Direct(p))]) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<dllite::AttributeId> Classification::UnsatisfiableAttributes()
    const {
  std::vector<dllite::AttributeId> out;
  for (uint32_t u = 0; u < graph_.nodes.num_attributes(); ++u) {
    if (unsat_[graph_.nodes.OfAttribute(u)]) out.push_back(u);
  }
  return out;
}

uint64_t Classification::CountNamedSubsumptions() const {
  const NodeTable& nt = graph_.nodes;
  uint64_t total = 0;
  for (uint32_t c = 0; c < nt.num_concepts(); ++c) {
    total += SuperConcepts(c).size();
  }
  for (uint32_t r = 0; r < nt.num_roles(); ++r) total += SuperRoles(r).size();
  for (uint32_t u = 0; u < nt.num_attributes(); ++u) {
    total += SuperAttributes(u).size();
  }
  return total;
}

}  // namespace olite::core

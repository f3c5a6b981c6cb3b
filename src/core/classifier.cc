#include "core/classifier.h"

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "graph/dynamic_closure.h"
#include "graph/scc.h"

namespace olite::core {

namespace {

// Negative inclusions per bitset pass: the bitsets cost O(components ×
// kNiBlockWords) words, whatever the number of NIs.
constexpr size_t kNiBlockWords = 4;
constexpr size_t kNiBlockBits = 64 * kNiBlockWords;

// Marks, through `mark`, every node below both sides of a negative
// inclusion (the seed rule) and the lhs of every qualified existential
// whose forced successor falls below both sides of one (the QE rule).
template <typename Mark>
void SeedUnsat(const TBoxGraph& g, Mark mark) {
  const NodeTable& nt = g.nodes;
  const std::vector<NegativeInclusion>& nis = g.negative_inclusions;
  // Per component c of the digraph and per NI i of the current block:
  // bit i of L_c is set iff lhs_i ∈ up*(c), bit i of R_c iff rhs_i ∈ up*(c)
  // (up* = reflexive-transitive successors). Component ids are reverse
  // topological, so ascending ids see every successor component complete.
  const graph::SccResult scc = graph::ComputeScc(g.digraph);
  const size_t num_components = scc.NumComponents();
  std::vector<uint64_t> lhs_bits;
  std::vector<uint64_t> rhs_bits;
  for (size_t first = 0; first < nis.size(); first += kNiBlockBits) {
    const size_t count = std::min(nis.size() - first, kNiBlockBits);
    const size_t words = (count + 63) / 64;
    lhs_bits.assign(num_components * words, 0);
    rhs_bits.assign(num_components * words, 0);
    for (size_t i = 0; i < count; ++i) {
      const uint64_t bit = uint64_t{1} << (i % 64);
      lhs_bits[scc.component_of[nis[first + i].lhs] * words + i / 64] |= bit;
      rhs_bits[scc.component_of[nis[first + i].rhs] * words + i / 64] |= bit;
    }
    auto meet = [&](const uint64_t* l, const uint64_t* r) {
      for (size_t k = 0; k < words; ++k) {
        if ((l[k] & r[k]) != 0) return true;
      }
      return false;
    };
    for (graph::NodeId c = 0; c < num_components; ++c) {
      uint64_t* l = &lhs_bits[c * words];
      uint64_t* r = &rhs_bits[c * words];
      for (graph::NodeId v : scc.members[c]) {
        for (graph::NodeId w : g.digraph.Successors(v)) {
          const graph::NodeId d = scc.component_of[w];
          if (d == c) continue;
          for (size_t k = 0; k < words; ++k) {
            l[k] |= lhs_bits[d * words + k];
            r[k] |= rhs_bits[d * words + k];
          }
        }
      }
      // Seed rule: a predicate subsumed by both sides of an NI is empty.
      if (meet(l, r)) {
        for (graph::NodeId v : scc.members[c]) mark(v);
      }
    }

    // Qualified-existential successor rule (the paper's "remaining
    // challenge"): the successor forced by B ⊑ ∃Q.A lies in
    // up*(A) ∪ up*(∃Q⁻), which already holds ∃r⁻ for every super-role r of
    // Q (Definition 1 adds (∃Q1⁻, ∃Q2⁻) for each Q1 ⊑ Q2). If both sides of
    // an NI fall in that union the successor is contradictory and B is
    // unsatisfiable. (An *unsatisfiable* member of the union is handled by
    // the fixpoint rules in ComputeUnsat.)
    std::vector<uint64_t> l(words), r(words);
    for (const auto& qe : g.qualified_existentials) {
      const size_t a = scc.component_of[nt.OfConcept(qe.filler)] * words;
      const size_t e =
          scc.component_of[nt.OfExists(qe.role.Inverted())] * words;
      for (size_t k = 0; k < words; ++k) {
        l[k] = lhs_bits[a + k] | lhs_bits[e + k];
        r[k] = rhs_bits[a + k] | rhs_bits[e + k];
      }
      if (meet(l.data(), r.data())) mark(qe.lhs);
    }
  }
}

}  // namespace

std::vector<bool> ComputeUnsat(const TBoxGraph& g) {
  const NodeTable& nt = g.nodes;
  std::vector<bool> unsat(nt.NumNodes(), false);
  // Without a negative inclusion every predicate is satisfiable.
  if (g.negative_inclusions.empty()) return unsat;

  std::vector<graph::NodeId> worklist;
  auto mark = [&](graph::NodeId x) {
    if (!unsat[x]) {
      unsat[x] = true;
      worklist.push_back(x);
    }
  };

  // The SCCs and bitsets are released before the fixpoint allocates.
  SeedUnsat(g, mark);
  if (worklist.empty()) return unsat;

  // Index: filler concept -> LHS nodes of qualified existentials, for the
  // rule "B ⊑ ∃Q.A and A unsatisfiable ⇒ B unsatisfiable".
  std::unordered_map<graph::NodeId, std::vector<graph::NodeId>> qe_by_filler;
  for (const auto& qe : g.qualified_existentials) {
    qe_by_filler[nt.OfConcept(qe.filler)].push_back(qe.lhs);
  }

  // Fixpoint propagation.
  const graph::Digraph reversed = g.digraph.Reversed();
  while (!worklist.empty()) {
    graph::NodeId x = worklist.back();
    worklist.pop_back();

    // Everything subsumed by an unsatisfiable predicate is unsatisfiable;
    // following raw in-arcs from every marked node reaches all of it.
    for (graph::NodeId u : reversed.Successors(x)) mark(u);

    switch (nt.KindOf(x)) {
      case NodeKind::kRole: {
        // An empty role has an empty inverse and empty domain/range.
        dllite::BasicRole q = nt.RoleOf(x);
        mark(nt.OfRole(q.Inverted()));
        mark(nt.OfExists(q));
        mark(nt.OfExists(q.Inverted()));
        break;
      }
      case NodeKind::kExists: {
        // An empty domain (or range) forces the role itself to be empty;
        // the kRole rule then empties the remaining components.
        mark(nt.OfRole(nt.RoleOf(x)));
        break;
      }
      case NodeKind::kAttribute:
        mark(nt.OfAttrDomain(nt.AttributeOf(x)));
        break;
      case NodeKind::kAttrDomain:
        mark(nt.OfAttribute(nt.AttributeOf(x)));
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

std::vector<bool> ComputeUnsat(const TBoxGraph& g,
                               const graph::TransitiveClosure& /*forward*/,
                               const graph::TransitiveClosure& /*reverse*/) {
  return ComputeUnsat(g);
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
                                ? ComputeUnsat(g)
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
  std::vector<bool> unsat = ComputeUnsat(g);
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

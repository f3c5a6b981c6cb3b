#include "reasoner/tableau_classifier.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/stopwatch.h"
#include "graph/closure.h"
#include "graph/digraph.h"

namespace olite::reasoner {

namespace {

using dllite::ConceptId;
using dllite::RoleId;
using owl::AxiomKind;
using owl::ClassExprPtr;
using owl::ExprKind;

// Collects the atomic top-level conjuncts of a class expression
// (an atomic expression is its own conjunct).
void AtomicConjuncts(ClassExprPtr e, std::vector<ConceptId>* out) {
  if (e->kind() == ExprKind::kAtomic) {
    out->push_back(e->atomic());
  } else if (e->kind() == ExprKind::kIntersection) {
    for (ClassExprPtr op : e->operands()) AtomicConjuncts(op, out);
  }
}

// Marks every atomic concept occurring anywhere under `e`.
void MarkAllAtomics(ClassExprPtr e, std::vector<bool>* mark) {
  if (e->kind() == ExprKind::kAtomic) {
    (*mark)[e->atomic()] = true;
    return;
  }
  for (ClassExprPtr op : e->operands()) MarkAllAtomics(op, mark);
}

// Marks atomics occurring under a union or complement anywhere in `e`.
void MarkAtomicsUnderNonHorn(ClassExprPtr e, bool inside,
                             std::vector<bool>* mark) {
  bool next = inside || e->kind() == ExprKind::kUnion ||
              e->kind() == ExprKind::kComplement;
  if (e->kind() == ExprKind::kAtomic) {
    if (inside) (*mark)[e->atomic()] = true;
    return;
  }
  for (ClassExprPtr op : e->operands()) {
    MarkAtomicsUnderNonHorn(op, next, mark);
  }
}

// The classification driver shared by all strategies.
class Driver {
 public:
  // A single sat test must never outlive the classification budget: cap
  // its wall-clock deadline by the overall time budget.
  static TableauOptions BoundedTableau(const TableauClassifierOptions& o) {
    TableauOptions t = o.tableau;
    if (std::isfinite(o.time_budget_ms) &&
        (t.deadline_ms == 0 || t.deadline_ms > o.time_budget_ms)) {
      t.deadline_ms = o.time_budget_ms;
    }
    return t;
  }

  Driver(const owl::OwlOntology& onto, const TableauClassifierOptions& options)
      : onto_(onto),
        options_(options),
        reasoner_(onto, BoundedTableau(options)),
        num_concepts_(static_cast<uint32_t>(onto.vocab().NumConcepts())) {
    BuildToldHierarchy();
    ComputePrimitivity();
  }

  TableauClassification Run() {
    TableauClassification out;
    out.concept_subsumers.resize(num_concepts_);
    out.role_subsumers.resize(onto_.vocab().NumRoles());

    bool ok = true;
    switch (options_.strategy) {
      case ClassifyStrategy::kNaivePairwise:
        ok = RunPairwise(&out, /*use_told=*/false);
        break;
      case ClassifyStrategy::kToldPruned:
        ok = RunPairwise(&out, /*use_told=*/true);
        break;
      case ClassifyStrategy::kEnhancedTraversal:
        ok = RunEnhanced(&out);
        break;
    }
    ClassifyRoles(&out);
    std::sort(out.unsatisfiable.begin(), out.unsatisfiable.end());
    out.completed = ok;
    out.sat_tests = reasoner_.num_sat_tests();
    out.elapsed_ms = watch_.ElapsedMillis();
    return out;
  }

 private:
  // -- shared infrastructure ------------------------------------------------

  bool TimedOut() { return watch_.ElapsedMillis() > options_.time_budget_ms; }

  ClassExprPtr Atom(ConceptId a) const {
    return const_cast<owl::OwlOntology&>(onto_).factory().Atomic(a);
  }

  void BuildToldHierarchy() {
    graph::Digraph g(num_concepts_);
    for (const auto& ax : onto_.axioms()) {
      if (ax.kind == AxiomKind::kSubClassOf &&
          ax.classes[0]->kind() == ExprKind::kAtomic) {
        std::vector<ConceptId> sups;
        AtomicConjuncts(ax.classes[1], &sups);
        for (ConceptId b : sups) {
          g.AddArc(ax.classes[0]->atomic(), b);
          told_arcs_.emplace_back(ax.classes[0]->atomic(), b);
        }
      } else if (ax.kind == AxiomKind::kEquivalentClasses) {
        // Atomic members of an equivalence are told-equivalent; atomic
        // conjuncts of complex members are told supers of the atomics.
        std::vector<ConceptId> atoms;
        for (ClassExprPtr c : ax.classes) {
          if (c->kind() == ExprKind::kAtomic) atoms.push_back(c->atomic());
        }
        for (size_t i = 0; i + 1 < atoms.size(); ++i) {
          g.AddArc(atoms[i], atoms[i + 1]);
          g.AddArc(atoms[i + 1], atoms[i]);
          told_arcs_.emplace_back(atoms[i], atoms[i + 1]);
          told_arcs_.emplace_back(atoms[i + 1], atoms[i]);
        }
        for (ClassExprPtr c : ax.classes) {
          if (c->kind() == ExprKind::kAtomic) continue;
          std::vector<ConceptId> sups;
          AtomicConjuncts(c, &sups);
          for (ConceptId a : atoms) {
            for (ConceptId b : sups) {
              g.AddArc(a, b);
              told_arcs_.emplace_back(a, b);
            }
          }
        }
      }
    }
    g.Finalize();
    told_ = graph::ComputeClosure(g, graph::ClosureEngine::kSccMerge);
  }

  // A concept is "primitive" when no non-told subsumee can exist: it never
  // appears in an equivalence, under union/complement, or on the superclass
  // side of an axiom whose subclass side is complex (incl. domain/range).
  // Primitive concepts skip the bottom-search phase — the standard
  // completely-defined-concept optimisation.
  void ComputePrimitivity() {
    non_primitive_.assign(num_concepts_, false);
    for (const auto& ax : onto_.axioms()) {
      switch (ax.kind) {
        case AxiomKind::kEquivalentClasses:
          for (ClassExprPtr c : ax.classes) {
            MarkAllAtomics(c, &non_primitive_);
          }
          break;
        case AxiomKind::kSubClassOf:
          if (ax.classes[0]->kind() != ExprKind::kAtomic) {
            MarkAllAtomics(ax.classes[1], &non_primitive_);
          }
          MarkAtomicsUnderNonHorn(ax.classes[1], false, &non_primitive_);
          MarkAtomicsUnderNonHorn(ax.classes[0], false, &non_primitive_);
          break;
        case AxiomKind::kObjectPropertyDomain:
        case AxiomKind::kObjectPropertyRange:
          MarkAllAtomics(ax.classes[0], &non_primitive_);
          break;
        default:
          break;
      }
    }
  }

  // Told + cached tableau subsumption: does `sup` subsume `sub`?
  // Returns false and sets fail_ on budget exhaustion.
  bool Subsumes(ConceptId sup, ConceptId sub, bool use_told) {
    if (sup == sub) return true;
    if (use_told && told_->Reaches(sub, sup)) return true;
    uint64_t key = static_cast<uint64_t>(sub) * num_concepts_ + sup;
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    auto r = reasoner_.IsSubsumedBy(Atom(sub), Atom(sup));
    if (!r.ok()) {
      fail_ = true;
      return false;
    }
    cache_.emplace(key, *r);
    return *r;
  }

  bool IsUnsat(ConceptId a) {
    auto r = reasoner_.IsSatisfiable(Atom(a));
    if (!r.ok()) {
      fail_ = true;
      return false;
    }
    return !*r;
  }

  void FillUnsatSubsumers(ConceptId a, TableauClassification* out) {
    out->unsatisfiable.push_back(a);
    auto& subs = out->concept_subsumers[a];
    subs.clear();
    for (ConceptId b = 0; b < num_concepts_; ++b) {
      if (b != a) subs.push_back(b);
    }
  }

  // -- pairwise strategies ----------------------------------------------------

  bool RunPairwise(TableauClassification* out, bool use_told) {
    std::vector<bool> unsat(num_concepts_, false);
    for (ConceptId a = 0; a < num_concepts_; ++a) {
      if (TimedOut() || fail_) return false;
      unsat[a] = IsUnsat(a);
      if (unsat[a]) FillUnsatSubsumers(a, out);
    }
    for (ConceptId a = 0; a < num_concepts_; ++a) {
      if (unsat[a]) continue;
      for (ConceptId b = 0; b < num_concepts_; ++b) {
        if (a == b) continue;
        if (TimedOut() || fail_) return false;
        if (Subsumes(b, a, use_told)) {
          out->concept_subsumers[a].push_back(b);
        }
      }
    }
    return !fail_;
  }

  // -- enhanced traversal -----------------------------------------------------

  struct HNode {
    std::vector<uint32_t> parents;
    std::vector<uint32_t> children;
    std::vector<ConceptId> members;  // equivalent concepts in this node
  };

  static constexpr uint32_t kTop = 0;

  ConceptId Canon(uint32_t node) const { return nodes_[node].members[0]; }

  // Does DAG node `v` subsume concept `a`?
  bool NodeSubsumes(uint32_t v, ConceptId a) {
    if (v == kTop) return true;
    return Subsumes(Canon(v), a, /*use_told=*/true);
  }

  // Is DAG node `v` subsumed by concept `a`?
  bool NodeSubsumedBy(uint32_t v, ConceptId a) {
    if (v == kTop) return false;
    return Subsumes(a, Canon(v), /*use_told=*/true);
  }

  void TopSearchVisit(ConceptId a, uint32_t v,
                      std::unordered_set<uint32_t>* visited,
                      std::vector<uint32_t>* result) {
    if (!visited->insert(v).second) return;
    std::vector<uint32_t> pos;
    for (uint32_t w : nodes_[v].children) {
      if (fail_) return;
      if (NodeSubsumes(w, a)) pos.push_back(w);
    }
    if (pos.empty()) {
      result->push_back(v);
      return;
    }
    for (uint32_t w : pos) TopSearchVisit(a, w, visited, result);
  }

  void BottomSearchVisit(ConceptId a, uint32_t v,
                         std::unordered_set<uint32_t>* visited,
                         std::vector<uint32_t>* result) {
    if (!visited->insert(v).second) return;
    std::vector<uint32_t> pos;
    for (uint32_t w : nodes_[v].parents) {
      if (fail_) return;
      if (w != kTop && NodeSubsumedBy(w, a)) pos.push_back(w);
    }
    if (pos.empty()) {
      result->push_back(v);
      return;
    }
    for (uint32_t w : pos) BottomSearchVisit(a, w, visited, result);
  }

  bool RunEnhanced(TableauClassification* out) {
    nodes_.clear();
    nodes_.push_back(HNode{});  // ⊤
    node_of_.assign(num_concepts_, 0);
    inserted_.assign(num_concepts_, false);

    // Insert in told-topological-ish order: parents tend to come first.
    std::vector<ConceptId> order = ToldInsertionOrder();

    std::vector<bool> unsat(num_concepts_, false);
    for (ConceptId a : order) {
      if (TimedOut() || fail_) break;
      if (IsUnsat(a)) {
        unsat[a] = true;
        FillUnsatSubsumers(a, out);
        inserted_[a] = true;  // classified (at ⊥)
        continue;
      }
      InsertConcept(a);
    }
    bool ok = !fail_ && !TimedOut();

    // Derive subsumer sets from the DAG (partial if interrupted).
    for (ConceptId a = 0; a < num_concepts_; ++a) {
      if (unsat[a]) continue;
      if (!inserted_[a]) {
        // Not reached before interruption: fall back to told subsumers.
        for (graph::NodeId b : told_->ReachableFrom(a)) {
          if (static_cast<ConceptId>(b) != a) {
            out->concept_subsumers[a].push_back(static_cast<ConceptId>(b));
          }
        }
        continue;
      }
      std::unordered_set<uint32_t> seen;
      std::vector<uint32_t> stack = {node_of_[a]};
      std::vector<ConceptId>& subs = out->concept_subsumers[a];
      while (!stack.empty()) {
        uint32_t v = stack.back();
        stack.pop_back();
        if (!seen.insert(v).second) continue;
        for (ConceptId m : nodes_[v].members) {
          if (m != a) subs.push_back(m);
        }
        for (uint32_t p : nodes_[v].parents) stack.push_back(p);
      }
      std::sort(subs.begin(), subs.end());
    }
    return ok;
  }

  std::vector<ConceptId> ToldInsertionOrder() {
    // Kahn's algorithm over told arcs child→parent: emit parents first so
    // that top search can find every told ancestor already in the DAG.
    std::vector<uint32_t> pending(num_concepts_, 0);
    std::vector<std::vector<ConceptId>> dependents(num_concepts_);
    for (const auto& [child, parent] : told_arcs_) {
      if (child == parent) continue;
      ++pending[child];
      dependents[parent].push_back(child);
    }
    std::vector<ConceptId> order;
    order.reserve(num_concepts_);
    for (ConceptId a = 0; a < num_concepts_; ++a) {
      if (pending[a] == 0) order.push_back(a);
    }
    for (size_t head = 0; head < order.size(); ++head) {
      for (ConceptId d : dependents[order[head]]) {
        if (--pending[d] == 0) order.push_back(d);
      }
    }
    // Told cycles (equivalences) leave leftovers; append them.
    std::vector<bool> emitted(num_concepts_, false);
    for (ConceptId a : order) emitted[a] = true;
    for (ConceptId a = 0; a < num_concepts_; ++a) {
      if (!emitted[a]) order.push_back(a);
    }
    return order;
  }

  void InsertConcept(ConceptId a) {
    std::vector<uint32_t> parents;
    std::unordered_set<uint32_t> visited;
    TopSearchVisit(a, kTop, &visited, &parents);
    if (fail_) return;
    std::sort(parents.begin(), parents.end());
    parents.erase(std::unique(parents.begin(), parents.end()), parents.end());

    // Equivalence: a parent that is also subsumed by `a` (then all other
    // parents are its strict ancestors).
    for (uint32_t p : parents) {
      if (p != kTop && NodeSubsumedBy(p, a)) {
        nodes_[p].members.push_back(a);
        node_of_[a] = p;
        inserted_[a] = true;
        return;
      }
      if (fail_) return;
    }

    std::vector<uint32_t> children;
    if (non_primitive_[a]) {
      // Bottom search from a virtual ⊥ whose parents are the current
      // leaves.
      std::unordered_set<uint32_t> bvisited;
      std::vector<uint32_t> starts;
      for (uint32_t v = 1; v < nodes_.size(); ++v) {
        if (nodes_[v].children.empty() && NodeSubsumedBy(v, a)) {
          starts.push_back(v);
        }
        if (fail_) return;
      }
      for (uint32_t v : starts) {
        BottomSearchVisit(a, v, &bvisited, &children);
      }
      if (fail_) return;
      std::sort(children.begin(), children.end());
      children.erase(std::unique(children.begin(), children.end()),
                     children.end());
    }

    uint32_t id = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(HNode{});
    nodes_[id].members.push_back(a);
    for (uint32_t p : parents) {
      nodes_[id].parents.push_back(p);
      nodes_[p].children.push_back(id);
    }
    for (uint32_t c : children) {
      // Re-wire: c moves below the new node; drop direct p→c edges.
      for (uint32_t p : parents) {
        auto& pc = nodes_[p].children;
        pc.erase(std::remove(pc.begin(), pc.end(), c), pc.end());
        auto& cp = nodes_[c].parents;
        cp.erase(std::remove(cp.begin(), cp.end(), p), cp.end());
      }
      nodes_[id].children.push_back(c);
      nodes_[c].parents.push_back(id);
    }
    node_of_[a] = id;
    inserted_[a] = true;
  }

  // -- roles ------------------------------------------------------------------

  void ClassifyRoles(TableauClassification* out) {
    const size_t nr = onto_.vocab().NumRoles();
    for (RoleId p = 0; p < nr; ++p) {
      for (RoleId q = 0; q < nr; ++q) {
        if (p == q) continue;
        if (reasoner_.RoleSubsumedSyntactically(dllite::BasicRole::Direct(p),
                                                dllite::BasicRole::Direct(q))) {
          out->role_subsumers[p].push_back(q);
        }
      }
    }
  }

  const owl::OwlOntology& onto_;
  TableauClassifierOptions options_;
  TableauReasoner reasoner_;
  uint32_t num_concepts_;
  Stopwatch watch_;
  std::unique_ptr<graph::TransitiveClosure> told_;
  std::vector<std::pair<ConceptId, ConceptId>> told_arcs_;
  std::vector<bool> non_primitive_;
  std::unordered_map<uint64_t, bool> cache_;
  bool fail_ = false;

  std::vector<HNode> nodes_;
  std::vector<uint32_t> node_of_;
  std::vector<bool> inserted_;
};

}  // namespace

const char* ClassifyStrategyName(ClassifyStrategy s) {
  switch (s) {
    case ClassifyStrategy::kNaivePairwise: return "naive";
    case ClassifyStrategy::kToldPruned: return "told";
    case ClassifyStrategy::kEnhancedTraversal: return "enhanced";
  }
  return "unknown";
}

TableauClassification ClassifyWithTableau(
    const owl::OwlOntology& onto, const TableauClassifierOptions& options) {
  Driver driver(onto, options);
  return driver.Run();
}

}  // namespace olite::reasoner

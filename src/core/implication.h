#ifndef OLITE_CORE_IMPLICATION_H_
#define OLITE_CORE_IMPLICATION_H_

#include <memory>
#include <vector>

#include "core/tbox_graph.h"
#include "dllite/tbox.h"
#include "graph/closure.h"

namespace olite::core {

/// How `ImplicationChecker` answers reachability queries over the TBox
/// digraph (paper §5, "logical implication": two directions under study).
enum class ReachabilityMode {
  /// Per-query BFS over the digraph — no deductive closure is ever
  /// materialised. Cheap setup, O(V+E) per query.
  kOnDemand,
  /// Precomputed transitive closure — O(closure) setup, O(log d) queries.
  kPrecomputed,
};

/// Decides `T ⊨ α` for every DL-Lite_R axiom form α, using the digraph
/// representation of T:
///
///  * positive basic inclusions  — graph reachability (Theorem 1) plus
///    unsatisfiability of the LHS;
///  * negative inclusions        — existence of an asserted negative
///    inclusion both sides of α can reach (either orientation), or
///    unsatisfiability of either side;
///  * qualified existentials     — witness search over asserted
///    `B' ⊑ ∃Q1.A1` axioms and unqualified `∃Q1` reachability, with filler
///    coverage through filler subsumption or a range constraint
///    `∃r⁻ ⊑ A` on any role `r` between the witness role and the goal role.
class ImplicationChecker {
 public:
  ImplicationChecker(const dllite::TBox& tbox, const dllite::Vocabulary& vocab,
                     ReachabilityMode mode = ReachabilityMode::kOnDemand);
  ~ImplicationChecker();

  // Not movable: the on-demand reachability adapter holds a reference into
  // the member digraph.
  ImplicationChecker(ImplicationChecker&&) = delete;
  ImplicationChecker& operator=(ImplicationChecker&&) = delete;

  /// `T ⊨ α` for a concept inclusion (positive, negative or qualified).
  bool Entails(const dllite::ConceptInclusion& ax) const;
  /// `T ⊨ α` for a role inclusion.
  bool Entails(const dllite::RoleInclusion& ax) const;
  /// `T ⊨ α` for an attribute inclusion.
  bool Entails(const dllite::AttributeInclusion& ax) const;

  /// True iff the basic concept/role behind node `n` is unsatisfiable.
  bool IsUnsatNode(graph::NodeId n) const { return unsat_[n]; }

  const TBoxGraph& tbox_graph() const { return graph_; }

 private:
  bool Reaches(graph::NodeId from, graph::NodeId to) const;
  /// Reflexive reachability + Ω: `sub ⊑ sup` at node level.
  bool NodeSubsumed(graph::NodeId sub, graph::NodeId sup) const;
  /// True iff some role `r` with `q1 ⊑* r ⊑* goal` has range inside
  /// concept node `a` (i.e. `∃r⁻ ⊑* a`).
  bool RangeCovers(dllite::BasicRole q1, dllite::BasicRole goal,
                   graph::NodeId a) const;
  bool EntailsDisjointness(graph::NodeId lhs, graph::NodeId rhs,
                           NodeKind sort) const;
  bool EntailsQualifiedExistential(graph::NodeId lhs, dllite::BasicRole q,
                                   dllite::ConceptId filler) const;

  TBoxGraph graph_;
  std::unique_ptr<graph::TransitiveClosure> forward_;
  std::vector<bool> unsat_;
};

}  // namespace olite::core

#endif  // OLITE_CORE_IMPLICATION_H_

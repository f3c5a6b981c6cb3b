#ifndef OLITE_CORE_CLASSIFIER_H_
#define OLITE_CORE_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "core/tbox_graph.h"
#include "dllite/tbox.h"
#include "graph/closure.h"
#include "graph/dynamic_closure.h"

namespace olite::core {

/// Tuning knobs for `Classify`.
struct ClassificationOptions {
  /// Transitive-closure algorithm (see graph/closure.h). The ablation
  /// benchmark sweeps this. The default SCC engine's closures are the ones
  /// `RefreshClassification` can patch.
  graph::ClosureEngine engine = graph::ClosureEngine::kSccMerge;
  /// If false, skip the `computeUnsat` step (Ω_T); the result is then only
  /// complete for TBoxes without unsatisfiable predicates. Used to measure
  /// the cost of the second phase in isolation.
  bool compute_unsat = true;
  /// Execution width. Above one, the forward and reverse closures are
  /// built concurrently, on the calling thread and one extra thread; each
  /// closure is still built serially. `1` = everything on the calling
  /// thread (the default); `0` = hardware_concurrency. Results are
  /// identical at every width.
  unsigned threads = 1;
};

/// Timing/volume counters filled in by `Classify`.
struct ClassificationStats {
  double build_graph_ms = 0;
  double closure_ms = 0;
  double unsat_ms = 0;
  uint64_t num_nodes = 0;
  uint64_t num_graph_arcs = 0;
  uint64_t num_closure_arcs = 0;
  uint64_t num_unsat_nodes = 0;

  double TotalMillis() const { return build_graph_ms + closure_ms + unsat_ms; }
};

/// The classification of a DL-Lite_R TBox: Φ_T (subsumptions entailed by the
/// positive inclusions, materialised as the transitive closure of the
/// digraph representation — Theorem 1) together with Ω_T (subsumptions
/// entailed by unsatisfiable predicates, computed by `computeUnsat`).
///
/// All query methods implement entailment of *basic* subsumptions:
/// `Subsumes(S2, S1)` answers `T ⊨ S1 ⊑ S2` for S1, S2 of the same sort.
class Classification {
 public:
  Classification(TBoxGraph graph,
                 std::unique_ptr<graph::TransitiveClosure> forward,
                 std::unique_ptr<graph::TransitiveClosure> reverse,
                 std::vector<bool> unsat, ClassificationStats stats)
      : graph_(std::move(graph)),
        forward_(std::move(forward)),
        reverse_(std::move(reverse)),
        unsat_(std::move(unsat)),
        stats_(stats) {}

  // -- node-level queries ---------------------------------------------------

  /// True iff node `to` is reachable from node `from` (path length >= 1).
  bool Reaches(graph::NodeId from, graph::NodeId to) const {
    return forward_->Reaches(from, to);
  }

  /// True iff the predicate of node `n` is unsatisfiable w.r.t. T.
  bool IsUnsatNode(graph::NodeId n) const { return unsat_[n]; }

  /// Entailed subsumption at node level: reflexivity ∪ Φ_T ∪ Ω_T.
  bool SubsumptionHolds(graph::NodeId sub, graph::NodeId sup) const {
    return sub == sup || unsat_[sub] || forward_->Reaches(sub, sup);
  }

  // -- expression-level queries ---------------------------------------------

  /// `T ⊨ b1 ⊑ b2` for basic concepts.
  bool Entails(const dllite::BasicConcept& b1,
               const dllite::BasicConcept& b2) const {
    return SubsumptionHolds(graph_.nodes.OfBasicConcept(b1),
                            graph_.nodes.OfBasicConcept(b2));
  }

  /// `T ⊨ q1 ⊑ q2` for basic roles.
  bool Entails(dllite::BasicRole q1, dllite::BasicRole q2) const {
    return SubsumptionHolds(graph_.nodes.OfRole(q1), graph_.nodes.OfRole(q2));
  }

  /// `T ⊨ u1 ⊑ u2` for attributes.
  bool EntailsAttribute(dllite::AttributeId u1, dllite::AttributeId u2) const {
    return SubsumptionHolds(graph_.nodes.OfAttribute(u1),
                            graph_.nodes.OfAttribute(u2));
  }

  bool IsUnsatisfiable(const dllite::BasicConcept& b) const {
    return unsat_[graph_.nodes.OfBasicConcept(b)];
  }
  bool IsUnsatisfiable(dllite::BasicRole q) const {
    return unsat_[graph_.nodes.OfRole(q)];
  }

  // -- listings ---------------------------------------------------------

  /// Named superclasses of atomic concept `a` (excluding `a`), ascending.
  /// For an unsatisfiable `a` this is every named concept, per Ω_T.
  std::vector<dllite::ConceptId> SuperConcepts(dllite::ConceptId a) const;

  /// Named subclasses of atomic concept `a` (excluding `a`), ascending,
  /// including all unsatisfiable concepts.
  std::vector<dllite::ConceptId> SubConcepts(dllite::ConceptId a) const;

  /// Named super-roles of atomic role `p` (excluding `p`).
  std::vector<dllite::RoleId> SuperRoles(dllite::RoleId p) const;

  /// Named super-attributes of `u` (excluding `u`).
  std::vector<dllite::AttributeId> SuperAttributes(dllite::AttributeId u) const;

  std::vector<dllite::ConceptId> UnsatisfiableConcepts() const;
  std::vector<dllite::RoleId> UnsatisfiableRoles() const;
  std::vector<dllite::AttributeId> UnsatisfiableAttributes() const;

  /// Total number of entailed non-reflexive subsumptions between *named*
  /// predicates (the size of the classification output).
  uint64_t CountNamedSubsumptions() const;

  const TBoxGraph& tbox_graph() const { return graph_; }
  const graph::TransitiveClosure& closure() const { return *forward_; }
  const graph::TransitiveClosure& reverse_closure() const { return *reverse_; }
  const ClassificationStats& stats() const { return stats_; }

 private:
  TBoxGraph graph_;
  std::unique_ptr<graph::TransitiveClosure> forward_;
  std::unique_ptr<graph::TransitiveClosure> reverse_;
  std::vector<bool> unsat_;
  ClassificationStats stats_;
};

/// Classifies `tbox`: builds the digraph representation (Definition 1),
/// computes its transitive closure (Φ_T, Theorem 1) and runs `computeUnsat`
/// (Ω_T), returning a queryable `Classification`.
Classification Classify(const dllite::TBox& tbox,
                        const dllite::Vocabulary& vocab,
                        const ClassificationOptions& options = {});

/// Telemetry from `RefreshClassification`, fed into `snapshot.delta_*`.
struct RefreshStats {
  /// True when the refresh degenerated to a from-scratch classification —
  /// node-id layout changed (vocabulary grew), the base closures were
  /// built with `bfs`, or the delta exceeded the fallback fraction.
  bool fell_back_scratch = false;
  /// Nodes inside re-derived components, summed over forward + reverse.
  uint64_t patched_nodes = 0;
  /// Components whose reach vectors were aliased, forward + reverse.
  uint64_t reused_components = 0;
};

/// Classification of `tbox` maintained *incrementally* from `base`:
/// rebuilds the (linear-size) TBox digraph, patches the forward and
/// reverse closures via `graph::DynamicClosure::Patched` — additions by
/// re-deriving from the changed arcs' frontiers, removals DRed-style over
/// the SCC condensation — and re-runs `computeUnsat`.
/// `options.fallback_fraction` is the dirty-node fraction above which a
/// patch re-merges from scratch. Falls back to a default `Classify`
/// (whose result stays patchable) when node ids shifted or the base was
/// built with the `bfs` engine. The result is always identical to a
/// from-scratch `Classify` of `tbox`.
Classification RefreshClassification(
    const Classification& base, const dllite::TBox& tbox,
    const dllite::Vocabulary& vocab,
    const graph::DynamicClosure::PatchOptions& options = {},
    RefreshStats* stats = nullptr);

/// The paper's `computeUnsat` algorithm (Ω_T): returns the per-node
/// unsatisfiability flags for the TBox underlying `g`. One Tarjan pass
/// over `g.digraph`, then per block of negative inclusions one bitset
/// sweep over the components in reverse topological order (the seed and
/// qualified-existential rules), then a worklist fixpoint over the raw
/// in-arcs. O((n + m) · |NI| / 64) time and O(components) words of memory;
/// a TBox without negative inclusions costs O(n).
std::vector<bool> ComputeUnsat(const TBoxGraph& g);

/// Same as `ComputeUnsat(g)`; the closures are not read. Kept because the
/// perfbench harness (perfbench/olite_perfbench.cc) times the unsat step
/// through this signature.
std::vector<bool> ComputeUnsat(const TBoxGraph& g,
                               const graph::TransitiveClosure& forward,
                               const graph::TransitiveClosure& reverse);

}  // namespace olite::core

#endif  // OLITE_CORE_CLASSIFIER_H_

#ifndef OLITE_GRAPH_DYNAMIC_CLOSURE_H_
#define OLITE_GRAPH_DYNAMIC_CLOSURE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/closure.h"
#include "graph/digraph.h"
#include "graph/scc.h"

namespace olite::graph {

/// The SCC closure engine: Tarjan condensation plus a reverse-topological
/// merge of per-component reach sets, with *incremental maintenance* under
/// arc additions and removals in the over-delete/re-derive (DRed) style.
///
/// Representation: Tarjan SCCs of the graph plus, per component, the sorted
/// *representatives* of the components strictly downstream of it, kept as
/// an immutable shared list. A component's representative is its smallest
/// member. Node ids are stable across patches even though component ids
/// are not, so a patched closure shares the reach lists of every component
/// whose answer set provably did not change — zero copying for the
/// untouched bulk of the graph. The closure stores no graph and builds no
/// condensation: a merge walks the caller's graph, visiting each successor
/// component once, and `Patched` takes the old graph from the caller.
///
/// `Patched(base, next)` builds the closure of `next` from this one:
///   1. fresh Tarjan over `next` (linear — the condensation is cheap; the
///      quadratic-ish part worth preserving is the reach sets);
///   2. seed *dirty* components: membership changed vs. the old SCCs, or
///      the successor list of any member differs between the two graphs
///      (this covers both added and removed arcs — the DRed over-deletion
///      frontier);
///   3. propagate dirtiness upstream in one ascending-id sweep (component
///      ids are reverse-topological: successors have smaller ids);
///   4. clean components alias the old reach list; dirty ones re-merge
///      from their successors (the re-derivation step).
/// If the dirty fraction exceeds `PatchOptions::fallback_fraction` the
/// patch degenerates to a from-scratch merge over the fresh condensation
/// (still one Tarjan — nothing is wasted).
///
/// Soundness of sharing: on any path that uses a changed arc, the *first*
/// changed arc is preceded only by arcs present in both graphs, so the
/// path's source reaches that arc's tail in *both* graphs and is marked
/// dirty by step 3. Hence a clean component's reachable set is identical
/// in the old and new graphs, in both directions of the delta; and since
/// every component downstream of a clean one is clean, hence the same node
/// set as an old component, the representatives in an aliased list stay
/// valid.
class DynamicClosure : public TransitiveClosure {
 public:
  struct PatchOptions {
    /// Fall back to a from-scratch merge when dirty components cover more
    /// than this fraction of the nodes. 0 forces scratch, 1 never falls
    /// back.
    double fallback_fraction = 0.25;
  };

  /// Patch telemetry, fed into `snapshot.delta_*` instruments upstream.
  struct PatchStats {
    bool fell_back = false;        ///< dirty fraction forced a full merge
    uint64_t patched_nodes = 0;    ///< nodes inside re-derived components
    uint64_t reused_components = 0;  ///< components whose reach was aliased
    uint64_t dirty_components = 0;
  };

  /// From-scratch construction. `g` should be Finalize()d first.
  explicit DynamicClosure(const Digraph& g);

  // -- TransitiveClosure ----------------------------------------------------
  bool Reaches(NodeId from, NodeId to) const override;
  std::vector<NodeId> ReachableFrom(NodeId from) const override;
  uint64_t NumClosureArcs() const override { return num_arcs_; }
  std::string EngineName() const override { return "scc"; }

  /// Closure of `next`, reusing every provably-unchanged reach list of
  /// this closure. `base` must be the graph this closure was built (or
  /// patched) from; both graphs should be Finalize()d, else arcs listed in
  /// a different order only cost extra re-derivation. `next` may grow or
  /// shrink the node set; existing node ids must keep their meaning
  /// (callers with id-shifting vocabularies must rebuild from scratch
  /// instead).
  std::unique_ptr<DynamicClosure> Patched(const Digraph& base,
                                          const Digraph& next,
                                          const PatchOptions& options,
                                          PatchStats* stats = nullptr) const;

 private:
  DynamicClosure() = default;

  /// Tarjan over `g`, then each component's representative.
  void ComputeComponents(const Digraph& g);
  /// Re-merges component `c`'s downstream reach from its successor
  /// components in `g`; `seen` holds one stamp per component.
  void MergeComponent(const Digraph& g, NodeId c, std::vector<NodeId>* seen,
                      std::vector<NodeId>* scratch);
  void FinalizeArcCount();

  /// A component's reach: a count, then that many representatives of the
  /// components strictly downstream of it, ascending. One immutable
  /// allocation, shared by aliasing across patched generations.
  using ReachList = std::shared_ptr<const NodeId[]>;
  static std::span<const NodeId> Items(const ReachList& r) {
    return {r.get() + 1, r[0]};
  }

  SccResult scc_;
  /// Per component: its representative (smallest member).
  std::vector<NodeId> rep_;
  std::vector<ReachList> reach_;
  uint64_t num_arcs_ = 0;
};

}  // namespace olite::graph

#endif  // OLITE_GRAPH_DYNAMIC_CLOSURE_H_

#ifndef OLITE_GRAPH_CLOSURE_H_
#define OLITE_GRAPH_CLOSURE_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace olite {
class ThreadPool;
}

namespace olite::graph {

/// Query interface over the transitive closure of a digraph.
///
/// `Reaches(u, v)` is true iff there is a path of length >= 1 from `u` to
/// `v`; in particular a node reaches itself only when it lies on a cycle.
/// The reflexive closure, where callers need it (e.g. the `computeUnsat`
/// predecessor sets), is obtained by unioning the node itself.
class TransitiveClosure {
 public:
  virtual ~TransitiveClosure() = default;

  /// True iff a path of length >= 1 leads from `from` to `to`.
  virtual bool Reaches(NodeId from, NodeId to) const = 0;

  /// All nodes reachable from `from` by a path of length >= 1, ascending.
  virtual std::vector<NodeId> ReachableFrom(NodeId from) const = 0;

  /// Number of arcs `(u, v)` in the transitive closure.
  virtual uint64_t NumClosureArcs() const = 0;

  /// Human-readable engine name (for benchmark reports).
  virtual std::string EngineName() const = 0;
};

/// Closure algorithm selector, used by benchmarks to ablate the choice.
/// Every engine builds its closure serially on the calling thread. There
/// are two engines: `kSccMerge` and `kDynamic` both name the SCC engine.
enum class ClosureEngine {
  /// One BFS per source node over the raw adjacency lists. Simple baseline
  /// and the test oracle.
  kBfs,
  /// The SCC engine (graph/dynamic_closure.h): Tarjan condensation plus a
  /// reverse-topological merge of per-component reach lists, each the
  /// sorted representatives (smallest members) of the downstream
  /// components. Memory proportional to the condensed closure size; the
  /// default engine of `core::Classify`. Its closures are patchable in place
  /// by `core::RefreshClassification`.
  kSccMerge,
  /// The same SCC engine; the name stays for existing callers.
  kDynamic,
};

/// Returns the canonical name of `engine` ("bfs", "scc_merge",
/// "dynamic").
const char* ClosureEngineName(ClosureEngine engine);

/// Computes the transitive closure of `g` with the chosen engine.
/// `g` should be Finalize()d first.
///
/// Every engine builds serially and ignores `pool`; the parameter stays
/// because the benchmark harness (`perfbench/olite_perfbench.cc`) passes
/// one.
std::unique_ptr<TransitiveClosure> ComputeClosure(const Digraph& g,
                                                  ClosureEngine engine,
                                                  ThreadPool* pool = nullptr);

}  // namespace olite::graph

#endif  // OLITE_GRAPH_CLOSURE_H_

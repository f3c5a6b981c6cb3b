#ifndef OLITE_CORE_TAXONOMY_H_
#define OLITE_CORE_TAXONOMY_H_

#include <string>
#include <vector>

#include "core/classifier.h"

namespace olite::core {

/// The concept taxonomy distilled from a `Classification`: equivalence
/// classes of named concepts arranged in a Hasse diagram (direct, i.e.
/// non-transitive, subsumption edges). This is the structure ontology
/// editors display and the §6 visualization work navigates.
class Taxonomy {
 public:
  /// One taxonomy node: a set of mutually equivalent satisfiable concepts.
  struct Node {
    std::vector<dllite::ConceptId> members;   ///< sorted, non-empty
    std::vector<uint32_t> direct_parents;     ///< node indexes, sorted
    std::vector<uint32_t> direct_children;    ///< node indexes, sorted
  };

  /// Builds the taxonomy of all *satisfiable* named concepts; the
  /// unsatisfiable ones are reported separately (they would all collapse
  /// into a single bottom node).
  static Taxonomy Build(const Classification& classification);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<dllite::ConceptId>& unsatisfiable() const {
    return unsatisfiable_;
  }

  /// Node index of a satisfiable concept.
  uint32_t NodeOf(dllite::ConceptId a) const { return node_of_[a]; }

  /// Root nodes (no direct parents).
  std::vector<uint32_t> Roots() const;

  /// Length of the longest parent chain above `node` (roots have depth 0).
  /// Computed once in `Build`.
  unsigned DepthOf(uint32_t node) const { return depth_[node]; }

  /// Indented text rendering of the hierarchy (roots first).
  std::string ToString(const dllite::Vocabulary& vocab) const;

 private:
  std::vector<Node> nodes_;
  std::vector<uint32_t> node_of_;
  std::vector<unsigned> depth_;
  std::vector<dllite::ConceptId> unsatisfiable_;
};

}  // namespace olite::core

#endif  // OLITE_CORE_TAXONOMY_H_

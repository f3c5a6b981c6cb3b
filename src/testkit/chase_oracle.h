#ifndef OLITE_TESTKIT_CHASE_ORACLE_H_
#define OLITE_TESTKIT_CHASE_ORACLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dllite/abox.h"
#include "dllite/tbox.h"
#include "dllite/vocabulary.h"
#include "query/cq.h"

namespace olite::testkit {

/// A chase-style reference oracle for certain-answer computation,
/// deliberately independent of the rewriter, unfolder and SQL engine: it
/// saturates the *materialised* ABox under the positive inclusions of the
/// TBox (the closure Φ_T is re-derived here by naive rule application, not
/// taken from any classifier), introducing labelled nulls for existential
/// axioms, and evaluates conjunctive queries directly over the saturated
/// instance by backtracking.
///
/// The chase of a DL-Lite_R ontology can be infinite, so null generation
/// is cut at `max_depth` role steps away from the named individuals. The
/// bounded chase is complete for a CQ when every connected component of
/// its body is anchored at a named individual — contains a head variable
/// or a constant — and the component has at most `max_depth - 1` role
/// atoms: any homomorphism then stays within the generated prefix of the
/// canonical model. `benchgen::GenerateWorkload` guarantees the anchoring
/// invariant; pick `max_depth` >= max atom count + 1.
///
/// Each connected component of the query body is joined on its own (the
/// atom with the most bound arguments next, through per-argument indexes)
/// and projected onto its answer variables before the components are
/// crossed, so independent components cost the sum of their joins rather
/// than the product of their matches.
class ChaseOracle {
 public:
  ChaseOracle(const dllite::TBox& tbox, const dllite::Vocabulary& vocab,
              const dllite::ABox& abox, uint32_t max_depth);

  /// Certain answers of `cq` w.r.t. TBox ∪ ABox: sorted distinct tuples of
  /// individual names / attribute values bound to the head variables.
  /// Labelled nulls never appear in an answer.
  std::vector<std::vector<std::string>> CertainAnswers(
      const query::ConjunctiveQuery& cq) const;

  size_t num_objects() const { return num_objects_; }
  size_t num_facts() const { return num_facts_; }

 private:
  /// The saturated facts of one predicate (unary relations leave the
  /// second column empty) with per-argument indexes: term -> positions in
  /// `rows`.
  struct Relation {
    std::vector<std::array<std::string, 2>> rows;
    std::unordered_map<std::string, std::vector<size_t>> by_arg[2];
  };

  // Arguments are strings (individual names and attribute values verbatim;
  // labelled nulls get "_:" names). String-level matching mirrors
  // `query::EvaluateOverABox` exactly, so the two answer paths share
  // equality semantics. Indexed by `query::Atom::Kind`, then predicate.
  std::vector<Relation> relations_[3];
  /// Names a head variable may be bound to: named individuals and asserted
  /// attribute values (everything except labelled nulls).
  std::unordered_set<std::string> named_;
  size_t num_objects_ = 0;
  size_t num_facts_ = 0;
};

}  // namespace olite::testkit

#endif  // OLITE_TESTKIT_CHASE_ORACLE_H_

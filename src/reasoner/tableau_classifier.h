#ifndef OLITE_REASONER_TABLEAU_CLASSIFIER_H_
#define OLITE_REASONER_TABLEAU_CLASSIFIER_H_

#include <limits>
#include <vector>

#include "common/result.h"
#include "owl/ontology.h"
#include "reasoner/tableau.h"

namespace olite::reasoner {

/// Classification strategy, mirroring the optimisation tiers of the
/// general-purpose reasoners the paper benchmarks against.
enum class ClassifyStrategy {
  /// Subsumption test for every ordered concept pair. The textbook
  /// baseline; quadratic in sat tests.
  kNaivePairwise,
  /// Pairwise, but told (syntactic) subsumptions are accepted without a
  /// tableau test. Still quadratic in candidate pairs.
  kToldPruned,
  /// Enhanced-traversal insertion (top search + bottom search) into a
  /// growing hierarchy DAG with told shortcuts — the strategy production
  /// tableau reasoners use.
  kEnhancedTraversal,
};

const char* ClassifyStrategyName(ClassifyStrategy s);

/// Budget/tuning for `ClassifyWithTableau`.
struct TableauClassifierOptions {
  ClassifyStrategy strategy = ClassifyStrategy::kEnhancedTraversal;
  /// Wall-clock budget; exceeded ⇒ result.completed = false ("timeout").
  double time_budget_ms = std::numeric_limits<double>::infinity();
  TableauOptions tableau;
};

/// Output of tableau-based classification.
struct TableauClassification {
  /// False if the time budget ran out; the subsumer sets are then partial.
  bool completed = false;
  uint64_t sat_tests = 0;
  double elapsed_ms = 0;
  /// Strict named subsumers per concept id, sorted ascending. For
  /// unsatisfiable concepts this is every other named concept.
  std::vector<std::vector<dllite::ConceptId>> concept_subsumers;
  /// Strict named super-roles per role id (RBox closure), sorted.
  std::vector<std::vector<dllite::RoleId>> role_subsumers;
  std::vector<dllite::ConceptId> unsatisfiable;

  uint64_t NumSubsumptions() const {
    uint64_t n = 0;
    for (const auto& s : concept_subsumers) n += s.size();
    for (const auto& s : role_subsumers) n += s.size();
    return n;
  }
};

/// Classifies all named concepts (and roles, via the RBox) of `onto` with
/// the tableau reasoner. Never fails outright: on budget exhaustion the
/// partial result is returned with `completed = false`.
TableauClassification ClassifyWithTableau(
    const owl::OwlOntology& onto, const TableauClassifierOptions& options = {});

}  // namespace olite::reasoner

#endif  // OLITE_REASONER_TABLEAU_CLASSIFIER_H_

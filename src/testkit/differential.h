#ifndef OLITE_TESTKIT_DIFFERENTIAL_H_
#define OLITE_TESTKIT_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "benchgen/workload.h"
#include "common/exec_budget.h"
#include "dllite/ontology.h"
#include "obda/system.h"

namespace olite::testkit {

/// Test-only corruption of one engine's *reported* result, applied between
/// classification and comparison. It lets the differential + shrinking
/// machinery be exercised end-to-end on demand (a discrepancy is observed,
/// shrunk and replayed) without planting a bug in a shipping engine.
/// Default-constructed = disabled.
struct EngineMutation {
  /// Drop every subsumer the graph classifier reports for this named
  /// concept (by name; empty = no mutation). Concepts that genuinely have
  /// subsumers then disagree with the other engines.
  std::string drop_concept_supers_of;

  bool enabled() const { return !drop_concept_supers_of.empty(); }
};

/// Counters `CompareClassifiers` adds to (see `ClassifierDiffOptions::tally`).
struct ClassifierTally {
  /// Classifier pairs compared: C(k, 2) per call, for the k classifiers
  /// whose results were checked, the oracle included. A tableau that ran
  /// out of budget is not compared and adds no pair.
  uint64_t pairs = 0;
  /// Tableau runs that hit `tableau_budget_ms` and were skipped.
  uint64_t tableau_timeouts = 0;
};

/// Options for `CompareClassifiers`.
struct ClassifierDiffOptions {
  /// The tableau is worst-case exponential; large or adversarial
  /// signatures can skip it (the other engines and the oracle still
  /// triangulate).
  bool run_tableau = true;
  double tableau_budget_ms = 60000;
  EngineMutation mutation;
  /// When set, accumulates the counters above across calls.
  ClassifierTally* tally = nullptr;
};

/// Differential classification, refereed by the brute-force
/// `SubsumptionOracle`: graph (core::Classify, serial), `graph-t2`
/// (core::Classify at `threads = 2`, so the forward and reverse closures
/// are built concurrently), completion (consequence-based) and, optionally,
/// tableau (through the OWL translation). Subsumer sets and
/// unsatisfiable-predicate sets must agree exactly. A node-level leg also
/// checks graph's unsatisfiability flag on every digraph node against
/// `ReferenceUnsat` (testkit/reference_unsat.h); it checks one engine and
/// adds no classifier pair to the tally. Returns human-readable discrepancy
/// descriptions; empty = full agreement.
std::vector<std::string> CompareClassifiers(
    const dllite::Ontology& onto, const ClassifierDiffOptions& options = {});

/// Counters `CompareAnswers` adds to (see `AnswerCheckOptions::tally`).
struct AnswerTally {
  /// Answer legs compared against the chase oracle, summed over queries.
  uint64_t legs = 0;
  /// Pruning work of the constraint-pruned passes: suppressed disjuncts
  /// plus dropped unfoldings. Pruning sweeps assert it ends non-zero — a
  /// constraint-rich sweep that never pruned anything tests nothing.
  uint64_t pruned = 0;
};

/// Options for `CompareAnswers`.
struct AnswerCheckOptions {
  /// Seeds of the join-order metamorphic legs: under each seed the
  /// columnar evaluator runs every block under a random join order, which
  /// must not change any answer. Empty = no join-order legs.
  std::vector<uint64_t> join_order_seeds = {1, 7, 0xBADCAFE};
  /// When set, accumulates the counters above across calls.
  AnswerTally* tally = nullptr;
};

/// Differential certain-answer conformance over every query of `w`. One
/// `ObdaSystem` and one `ChaseOracle` serve the whole workload; the chase
/// depth is the largest query atom count + 1, the bound under which the
/// oracle is complete (testkit/chase_oracle.h). Per query, the oracle's
/// answer set is computed once and every leg must reproduce it exactly:
///   - `obda-sql`: the full pipeline (classified rewrite → unfold → SQL),
///     first call, so a cold compile;
///   - `obda-cached`: the replay, which must hit the stored plan without
///     rewriting again;
///   - `obda-uncached`: a `bypass_cache` cold compile (the pruned pass);
///   - `unpruned`: the same with `disable_constraint_pruning`; it must
///     equal the pruned answers, report no pruning, and compile a union at
///     least as large as the pruned one;
///   - `reference`: the testkit reference evaluator over the same
///     unfolded SQL (testkit/reference_eval.h);
///   - `abox-eval`: PerfectRef rewriting over the materialised ABox;
///   - `columnar-seed<N>`: one cold compile per join-order seed.
/// Returns discrepancy descriptions; empty = agreement. Shrinkable: wrap a
/// failing workload in a ConformanceCase and ddmin with this checker over
/// `ToWorkload(candidate)` as the predicate.
std::vector<std::string> CompareAnswers(
    const benchgen::Workload& w, const AnswerCheckOptions& options = {});

// -- metamorphic properties -------------------------------------------------

/// Adding one random *positive* inclusion (concept or role) must never
/// shrink any subsumer set or the unsatisfiable sets. `seed` drives the
/// choice of added axiom.
std::vector<std::string> CheckPiMonotonicity(const dllite::Ontology& onto,
                                             uint64_t seed);

/// Consistently renaming and re-ordering every predicate name must yield an
/// isomorphic classification (same subsumptions modulo the renaming).
std::vector<std::string> CheckRenamingInvariance(const dllite::Ontology& onto,
                                                 uint64_t seed);

/// Degraded answering under `options` (which should set `allow_degraded`)
/// must return a subset of the unbudgeted answers, row by row, for every
/// query of `w`. Errors (budget exhausted without degradation, or injected
/// faults surfacing as failures) are accepted; *wrong rows* are not.
/// `between_passes`, if set, runs after the unbudgeted baseline pass and
/// before the budgeted pass — the fault-injection tests use it to arm the
/// injector so only the degraded pass sees faults.
std::vector<std::string> CheckBudgetMonotonicity(
    const benchgen::Workload& w, const obda::AnswerOptions& options,
    const std::function<void()>& between_passes = {});

/// Options for `CheckSwapLinearizability`.
struct SwapLinearizabilityOptions {
  /// Concurrent answer threads (keep tiny: conformance sweeps run
  /// hundreds of seeds on small machines).
  size_t threads = 2;
  /// Answers each thread issues, round-robin over the workload's queries.
  size_t answers_per_thread = 8;
  /// Hot swaps performed while the answer threads run (alternating
  /// between the original and the perturbed snapshot).
  size_t swaps = 3;
  /// Fraction of database rows dropped (deterministically, by seed) to
  /// build the perturbed snapshot — a data-only refresh, the scenario the
  /// hot-swap layer exists for.
  double drop_fraction = 0.4;
};

/// Swap linearizability of the serving layer: while a `ServingEngine` is
/// hot-swapped back and forth between the workload's snapshot (A, odd
/// epochs) and a deterministically perturbed copy with rows dropped (B,
/// even epochs), every observed answer must equal the quiescent oracle
/// answer of the snapshot whose epoch the call reports — in particular,
/// always exactly the old-snapshot or the new-snapshot answer, never a
/// blend of the two. After the churn, the final epoch must serve its
/// oracle answers exactly. Returns discrepancy descriptions; empty =
/// linearizable. Shrinkable: wrap a failing (workload, seed) in a
/// testkit::ConformanceCase and ddmin with this checker as the predicate.
std::vector<std::string> CheckSwapLinearizability(
    const benchgen::Workload& w, uint64_t seed,
    const SwapLinearizabilityOptions& options = {});

/// Semantic approximation (src/approx) of the OWL translation of `w`'s
/// ontology must yield *sound* answers: every certain answer over the
/// approximated TBox is a certain answer over the original. Skipped (empty
/// result) for ontologies with attributes — the OWL round trip renames
/// attributes to `attr:` roles, which the workload ABox cannot follow.
std::vector<std::string> CheckApproxSoundness(const benchgen::Workload& w);

/// Options for `CheckDeltaCompile`.
struct DeltaCompileOptions {
  /// Shape of the seeded delta sequence chained over the workload.
  benchgen::DeltaSequenceConfig sequence;
  /// Rewrite mode both compile paths run under.
  query::RewriteMode mode = query::RewriteMode::kClassified;
};

/// Differential *delta compilation*: chains `CompiledOntology::Refresh`
/// over a seeded delta sequence (each refresh building on the previous
/// refreshed snapshot, exactly as a long-lived server would) and compares
/// every refreshed snapshot against a from-scratch `Compile` of the
/// identically edited specification — stage fingerprints, the
/// classification closure (subsumer sets and unsatisfiable sets of every
/// named predicate), the constraint summary with its per-view facts, and
/// the answers of every workload query must all match exactly. Also
/// checks the selective-invalidation contract: a query touching none of
/// `RefreshInfo::changed_preds` must answer identically on the base and
/// the refreshed snapshot. Returns discrepancy descriptions; empty =
/// agreement. Shrinkable: wrap a failing (workload, config) in a
/// ConformanceCase and ddmin with this checker over
/// `ToWorkload(candidate)` as the predicate.
std::vector<std::string> CheckDeltaCompile(
    const benchgen::Workload& w, const DeltaCompileOptions& options = {});

}  // namespace olite::testkit

#endif  // OLITE_TESTKIT_DIFFERENTIAL_H_

// The conformance harness end-to-end (src/testkit): seeded differential
// sweeps (four classifiers refereed by the brute-force oracle; every
// answer leg of testkit::CompareAnswers refereed by the chase oracle, on
// plain and constraint-rich workloads), hot-swap linearizability and delta
// compilation sweeps, metamorphic properties, budget/fault monotonicity,
// delta-debugging shrinking of injected discrepancies, and replay of the
// checked-in tests/corpus/ cases. Every seeded sweep runs through
// testkit::RunSweep, which shrinks a failing seed to a corpus-format repro.
//
// The seed window of every sweep is overridable without a rebuild:
//   OLITE_CONFORMANCE_SEEDS      number of seeds   (default 200)
//   OLITE_CONFORMANCE_SEED_BASE  first seed        (default 0)
// The nightly CI job uses these to sweep fresh seeds every run.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/workload.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/classifier.h"
#include "obda/system.h"
#include "query/abox_eval.h"
#include "testkit/chase_oracle.h"
#include "testkit/corpus.h"
#include "testkit/differential.h"
#include "testkit/shrinker.h"
#include "testkit/subsumption_oracle.h"
#include "testkit/sweep.h"

#ifndef OLITE_CORPUS_DIR
#define OLITE_CORPUS_DIR "tests/corpus"
#endif

namespace olite {
namespace {

using benchgen::Workload;
using benchgen::WorkloadConfig;
using testkit::ConformanceCase;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

using testkit::SweepConfig;

/// Runs `check` over the seed window through the shared sweep loop and
/// fails with the shrunk corpus-format repro of the first failing seed.
/// With a `classifiers` tally that `check` fills, it also prints how many
/// scheduled tableau runs timed out and so were not compared.
void ExpectSweepAgrees(const std::string& name,
                       WorkloadConfig (*config)(uint64_t),
                       const testkit::SeedCheck& check,
                       const testkit::ClassifierTally* classifiers = nullptr) {
  const uint64_t base = EnvOr("OLITE_CONFORMANCE_SEED_BASE", 0);
  const uint64_t count = EnvOr("OLITE_CONFORMANCE_SEEDS", 200);
  for (const auto& f : testkit::RunSweep(base, count, config, check)) {
    ADD_FAILURE() << name << ": " << f.Report(name);
  }
  if (classifiers != nullptr) {
    std::printf("%s: %llu classifier pairs compared, %llu tableau timeouts\n",
                name.c_str(),
                static_cast<unsigned long long>(classifiers->pairs),
                static_cast<unsigned long long>(classifiers->tableau_timeouts));
  }
}

/// The answer legs of a sweep seed: two fixed join-order seeds plus one
/// varying with the sweep seed keep the join-order legs cheap but fresh.
testkit::AnswerCheckOptions SweepAnswerOptions(uint64_t seed,
                                               testkit::AnswerTally* tally) {
  testkit::AnswerCheckOptions opts;
  opts.join_order_seeds = {1, 0xBADCAFE, seed + 17};
  opts.tally = tally;
  return opts;
}

void Append(std::vector<std::string> more, std::vector<std::string>* diffs) {
  for (auto& d : more) diffs->push_back(std::move(d));
}

std::string JoinDiffs(const std::vector<std::string>& diffs) {
  std::ostringstream os;
  for (const auto& d : diffs) os << "\n  " << d;
  return os.str();
}

// ---------------------------------------------------------------------------
// Workload generator invariants (tentpole prerequisite: the differential
// drivers rely on these).
// ---------------------------------------------------------------------------

TEST(WorkloadGenerator, IsDeterministic) {
  WorkloadConfig cfg = SweepConfig(7);
  Workload a = benchgen::GenerateWorkload(cfg);
  Workload b = benchgen::GenerateWorkload(cfg);
  EXPECT_EQ(testkit::SerializeCase(testkit::CaseFromWorkload(a)),
            testkit::SerializeCase(testkit::CaseFromWorkload(b)));
  EXPECT_EQ(a.abox.NumAssertions(), b.abox.NumAssertions());
}

TEST(WorkloadGenerator, QueriesAreAnchoredAndWellFormed) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Workload w = benchgen::GenerateWorkload(SweepConfig(seed));
    for (const auto& cq : w.queries) {
      ASSERT_FALSE(cq.head_vars.empty());
      ASSERT_FALSE(cq.atoms.empty());
      // Every head variable occurs in the body.
      for (const auto& h : cq.head_vars) {
        EXPECT_GT(cq.CountOccurrences(h), 0u)
            << cq.ToString(w.ontology.vocab()) << " seed " << seed;
      }
      // Every atom reaches a head variable or a constant through shared
      // variables (the anchoring invariant the chase oracle needs).
      auto anchored_atom = [&](const query::Atom& atom) {
        for (const auto& t : atom.args) {
          if (!t.IsVar()) return true;
          for (const auto& h : cq.head_vars) {
            if (h == t.name) return true;
          }
        }
        return false;
      };
      std::vector<bool> anchored(cq.atoms.size(), false);
      for (size_t i = 0; i < cq.atoms.size(); ++i) {
        anchored[i] = anchored_atom(cq.atoms[i]);
      }
      bool changed = true;
      while (changed) {
        changed = false;
        for (size_t i = 0; i < cq.atoms.size(); ++i) {
          if (anchored[i]) continue;
          for (size_t j = 0; j < cq.atoms.size(); ++j) {
            if (!anchored[j]) continue;
            for (const auto& a : cq.atoms[i].args) {
              for (const auto& b : cq.atoms[j].args) {
                if (a.IsVar() && b.IsVar() && a.name == b.name) {
                  anchored[i] = changed = true;
                }
              }
            }
          }
        }
      }
      for (size_t i = 0; i < cq.atoms.size(); ++i) {
        EXPECT_TRUE(anchored[i])
            << cq.ToString(w.ontology.vocab()) << " atom " << i << " seed "
            << seed;
      }
    }
  }
}

TEST(WorkloadGenerator, MaterialisedABoxMatchesMappings) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(3));
  EXPECT_GT(w.abox.NumAssertions(), 0u);
  EXPECT_GT(w.queries.size(), 0u);
}

// ---------------------------------------------------------------------------
// Chase oracle semantics on a hand-built ontology.
// ---------------------------------------------------------------------------

TEST(ChaseOracle, ExistentialSuccessorsAnswerExistentialQueries) {
  dllite::Ontology onto;
  onto.DeclareConcept("County");
  onto.DeclareConcept("State");
  onto.DeclareRole("isPartOf");
  ASSERT_TRUE(onto.AddAxiom("County <= exists isPartOf . State").ok());
  ASSERT_TRUE(onto.AddAxiom("exists isPartOf- <= State").ok());
  dllite::ABox abox;
  abox.AddConceptAssertion({0, onto.vocab().InternIndividual("viterbo")});

  testkit::ChaseOracle chase(onto.tbox(), onto.vocab(), abox, 4);
  // q(x) :- isPartOf(x, y): y is satisfied by the labelled null.
  auto q1 = query::ParseQuery("q(x) :- isPartOf(x, y)", onto.vocab());
  ASSERT_TRUE(q1.ok());
  auto rows = chase.CertainAnswers(*q1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "viterbo");
  // q(x, y) :- isPartOf(x, y): the null may not appear in an answer.
  auto q2 = query::ParseQuery("q(x, y) :- isPartOf(x, y)", onto.vocab());
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(chase.CertainAnswers(*q2).empty());
  // q(x) :- State(x): the *null* is a State, but it is not named; no
  // named individual is entailed to be a State.
  auto q3 = query::ParseQuery("q(x) :- State(x)", onto.vocab());
  ASSERT_TRUE(q3.ok());
  EXPECT_TRUE(chase.CertainAnswers(*q3).empty());
}

TEST(ChaseOracle, AgreesWithRewritingOnHandExample) {
  dllite::Ontology onto;
  onto.DeclareConcept("Professor");
  onto.DeclareConcept("Person");
  onto.DeclareRole("teaches");
  ASSERT_TRUE(onto.AddAxiom("Professor <= Person").ok());
  ASSERT_TRUE(onto.AddAxiom("Professor <= exists teaches").ok());
  dllite::ABox abox;
  abox.AddConceptAssertion({0, onto.vocab().InternIndividual("ada")});
  testkit::ChaseOracle chase(onto.tbox(), onto.vocab(), abox, 4);
  for (const char* text :
       {"q(x) :- Person(x)", "q(x) :- teaches(x, y)", "q(x) :- Professor(x)"}) {
    auto cq = query::ParseQuery(text, onto.vocab());
    ASSERT_TRUE(cq.ok());
    auto via_rewrite = query::AnswerOverABox(*cq, onto.tbox(), abox,
                                             onto.vocab());
    ASSERT_TRUE(via_rewrite.ok());
    auto via_chase = chase.CertainAnswers(*cq);
    EXPECT_EQ(*via_rewrite, via_chase) << text;
  }
}

// ---------------------------------------------------------------------------
// The tier-1 differential sweeps: >= 200 seeded workloads each, all
// classifier pairs and every answer leg, plus metamorphic properties.
// ---------------------------------------------------------------------------

// Classifier pairs and the metamorphic properties; the answer legs of the
// same seeds run in EvaluatorConformance below.
TEST(ConformanceSweep, DifferentialAndMetamorphicAgreement) {
  testkit::ClassifierTally tally;
  ExpectSweepAgrees(
      "sweep", SweepConfig,
      [&](const Workload& w, uint64_t seed) {
        testkit::ClassifierDiffOptions copts;
        copts.run_tableau = (seed % 8 == 0);  // tableau pairs, every 8th seed
        copts.tally = &tally;
        auto diffs = testkit::CompareClassifiers(w.ontology, copts);
        Append(testkit::CheckPiMonotonicity(w.ontology, seed), &diffs);
        Append(testkit::CheckRenamingInvariance(w.ontology, seed), &diffs);
        if (seed % 16 == 0) Append(testkit::CheckApproxSoundness(w), &diffs);
        return diffs;
      },
      &tally);
}

// A tableau that runs out of budget is skipped, not compared: the tally
// counts the timeout and adds no tableau pair.
TEST(ConformanceSweep, TableauTimeoutIsCountedNotCompared) {
  const dllite::Ontology onto =
      benchgen::GenerateWorkload(SweepConfig(0)).ontology;
  testkit::ClassifierTally without_tableau;
  testkit::ClassifierDiffOptions copts;
  copts.run_tableau = false;
  copts.tally = &without_tableau;
  ASSERT_TRUE(testkit::CompareClassifiers(onto, copts).empty());

  testkit::ClassifierTally timed_out;
  copts.run_tableau = true;
  copts.tableau_budget_ms = 0;  // stops before its first sat test
  copts.tally = &timed_out;
  ASSERT_TRUE(testkit::CompareClassifiers(onto, copts).empty());
  EXPECT_EQ(timed_out.tableau_timeouts, 1u);
  EXPECT_EQ(timed_out.pairs, without_tableau.pairs);
  EXPECT_EQ(without_tableau.tableau_timeouts, 0u);

  testkit::ClassifierTally finished;
  copts.tableau_budget_ms = 60000;
  copts.tally = &finished;
  ASSERT_TRUE(testkit::CompareClassifiers(onto, copts).empty());
  EXPECT_EQ(finished.tableau_timeouts, 0u);
  EXPECT_GT(finished.pairs, without_tableau.pairs);
}

// Every answer leg on the plain sweep: the columnar evaluator (cold,
// plan-cache-hot, cache-bypassing, unpruned, join-order shuffles) must
// agree with the row-at-a-time reference evaluator over the same unfolded
// SQL, with direct ABox evaluation, and with the chase oracle.
TEST(EvaluatorConformance, ColumnarAgreesWithNestedLoopAndOracles) {
  ExpectSweepAgrees("evaluator", SweepConfig,
                    [](const Workload& w, uint64_t seed) {
                      return testkit::CompareAnswers(
                          w, SweepAnswerOptions(seed, nullptr));
                    });
}

// The same answer legs on constraint-rich workloads (redundant mappings,
// source-materialised inclusions), where constraint pruning fires on most
// seeds: pruned ≡ unpruned ≡ reference ≡ ABox ≡ chase oracle.
TEST(ConformanceSweep, ConstraintPruningAgreesWithOracles) {
  testkit::AnswerTally tally;
  ExpectSweepAgrees("pruning", testkit::PruningSweepConfig,
                    [&](const Workload& w, uint64_t seed) {
                      return testkit::CompareAnswers(
                          w, SweepAnswerOptions(seed, &tally));
                    });
  EXPECT_GT(tally.pruned, 0u)
      << "the constraint-rich sweep never pruned a single disjunct";
}

// The shared sweep loop itself: a checker that flags one seed of the
// window (any workload with a concept inclusion) yields exactly that
// failure, shrunk to a single-axiom corpus repro that still fails.
TEST(ConformanceSweep, RunSweepShrinksTheFailingSeed) {
  auto check = [](const Workload& w, uint64_t seed) {
    std::vector<std::string> diffs;
    if (seed == 3 && !w.ontology.tbox().concept_inclusions().empty()) {
      diffs.push_back("planted");
    }
    return diffs;
  };
  auto failures = testkit::RunSweep(0, 6, SweepConfig, check,
                                    /*max_failures=*/0);
  ASSERT_EQ(failures.size(), 1u);
  const testkit::SweepFailure& f = failures[0];
  EXPECT_EQ(f.seed, 3u);
  EXPECT_EQ(f.diffs, std::vector<std::string>{"planted"});
  EXPECT_TRUE(f.repro.expect_discrepancy);
  EXPECT_EQ(f.repro.ontology.tbox().concept_inclusions().size(), 1u);
  EXPECT_GT(f.shrink.iterations, 0u);
  auto reparsed = testkit::ParseCase(testkit::SerializeCase(f.repro));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_FALSE(check(testkit::ToWorkload(*reparsed), 3).empty());
  EXPECT_NE(f.Report("planted").find("tests/corpus/planted_seed3.case"),
            std::string::npos);
}

// Seed 60045's third query, q(x0,x1,x4,x3) :- P1(x1,x0), P0(x3,x2),
// P1(x4,x1), crosses two independent components over a chase with ~15k
// facts; a join that enumerated the product of all homomorphisms ran for
// minutes. Every leg must agree, and the check must take seconds.
TEST(ConformanceSweep, PinnedSeed60045ChaseFinishesInSeconds) {
  const auto start = std::chrono::steady_clock::now();
  Workload w = benchgen::GenerateWorkload(SweepConfig(60045));
  auto diffs = testkit::CompareAnswers(w, SweepAnswerOptions(60045, nullptr));
  EXPECT_TRUE(diffs.empty()) << JoinDiffs(diffs);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
}

// Hot-swap serving conformance: while the serving layer churns between
// the generated snapshot and a perturbed (rows-dropped) copy, every
// concurrent answer must be exactly one snapshot's oracle answer set —
// the epoch the call reports — never an error and never a blend. Per-seed
// work is tiny (2 threads, a few answers, 3 swaps).
TEST(ServingConformance, AnswersAreSwapLinearizable) {
  ExpectSweepAgrees("swap", SweepConfig, [](const Workload& w, uint64_t seed) {
    return testkit::CheckSwapLinearizability(w, seed);
  });
}

// Delta-compilation conformance: a chain of seeded specification deltas
// (testkit::DeltaSweepOptions) is compiled twice per generation — once by
// `CompiledOntology::Refresh` building on the previous refreshed snapshot
// (the serving path) and once from scratch on the identically edited
// specification — and everything observable must agree: stage
// fingerprints, subsumer/unsat listings, constraint facts, and every
// workload query's answers.
TEST(DeltaConformance, RefreshAgreesWithScratchCompile) {
  ExpectSweepAgrees("delta", SweepConfig, [](const Workload& w, uint64_t seed) {
    return testkit::CheckDeltaCompile(w, testkit::DeltaSweepOptions(seed));
  });
}

// Seed 60050: from the fourth delta on, one query's rewriting exhausts
// the harness's 2000-iteration cap on the base and on the refreshed
// snapshot alike; an identical exhaustion on both sides is agreement.
TEST(DeltaConformance, PinnedSeed60050IdenticalExhaustionAgrees) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(60050));
  auto diffs =
      testkit::CheckDeltaCompile(w, testkit::DeltaSweepOptions(60050));
  EXPECT_TRUE(diffs.empty()) << JoinDiffs(diffs);
}

// Satellite: cross-engine agreement on deliberately unsatisfiable
// ontologies — computeUnsat (graph) vs tableau vs completion vs oracle.
TEST(ConformanceSweep, UnsatisfiableOntologyAgreement) {
  size_t total_unsat = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    WorkloadConfig cfg = SweepConfig(seed);
    cfg.ontology.disjointness_fraction = 0.4;
    cfg.ontology.unsatisfiable_fraction = 0.25;
    dllite::Ontology onto = benchgen::Generate(cfg.ontology);

    testkit::ClassifierDiffOptions copts;
    copts.run_tableau = (seed % 4 == 0);
    auto diffs = testkit::CompareClassifiers(onto, copts);
    ASSERT_TRUE(diffs.empty())
        << "unsat disagreement at seed " << seed << JoinDiffs(diffs);
    total_unsat +=
        core::Classify(onto.tbox(), onto.vocab()).UnsatisfiableConcepts()
            .size();
  }
  // The sweep must actually exercise the Ω_T path.
  EXPECT_GT(total_unsat, 0u);
}

// ---------------------------------------------------------------------------
// Budget monotonicity: degraded answers are row-by-row subsets.
// ---------------------------------------------------------------------------

TEST(BudgetMonotonicity, DegradedAnswersAreSubsetsAcrossBudgets) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(11));
  for (uint64_t rows : {1u, 2u, 8u}) {
    for (uint64_t iters : {1u, 2u, 16u}) {
      obda::AnswerOptions options;
      options.allow_degraded = true;
      options.max_rows = rows;
      options.max_rewrite_iterations = iters;
      options.max_sql_blocks = 3;
      auto diffs = testkit::CheckBudgetMonotonicity(w, options);
      ASSERT_TRUE(diffs.empty())
          << "rows=" << rows << " iters=" << iters << JoinDiffs(diffs);
    }
  }
}

TEST(BudgetMonotonicity, HoldsUnderRdbFaultInjection) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(12));
  obda::AnswerOptions options;
  options.allow_degraded = true;
  options.max_rows = 4;
  auto diffs = testkit::CheckBudgetMonotonicity(w, options, [] {
    fault::Injector::Global().Arm(fault::Site::kRdbExecute,
                                  {.fail_every = 2});
  });
  uint64_t hits = fault::Injector::Global().hits(fault::Site::kRdbExecute);
  fault::Injector::Global().DisarmAll();
  EXPECT_GT(hits, 0u) << "fault site never reached";
  ASSERT_TRUE(diffs.empty()) << JoinDiffs(diffs);
}

TEST(BudgetMonotonicity, HoldsUnderUnfoldFaultInjection) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(13));
  obda::AnswerOptions options;
  options.allow_degraded = true;
  options.max_rewrite_iterations = 8;
  auto diffs = testkit::CheckBudgetMonotonicity(w, options, [] {
    fault::Injector::Global().Arm(fault::Site::kUnfold, {.fail_every = 3});
  });
  uint64_t hits = fault::Injector::Global().hits(fault::Site::kUnfold);
  fault::Injector::Global().DisarmAll();
  EXPECT_GT(hits, 0u) << "fault site never reached";
  ASSERT_TRUE(diffs.empty()) << JoinDiffs(diffs);
}

// ---------------------------------------------------------------------------
// Shrinker: an injected discrepancy in a 1000-concept ontology minimises
// to a handful of axioms.
// ---------------------------------------------------------------------------

TEST(Shrinker, ReducesInjectedDiscrepancyToFewAxioms) {
  benchgen::GeneratorConfig big;
  big.name = "shrink";
  big.seed = 17;
  big.num_concepts = 1000;
  big.num_roles = 10;
  big.num_roots = 5;
  big.avg_branching = 8.0;
  ConformanceCase c;
  c.ontology = benchgen::Generate(big);
  ASSERT_EQ(c.ontology.vocab().NumConcepts(), 1000u);

  // Victim: any concept with a genuinely non-empty subsumer set; the
  // mutation hook drops the graph engine's report for it.
  core::Classification cls =
      core::Classify(c.ontology.tbox(), c.ontology.vocab());
  std::string victim;
  for (uint32_t a = 0; a < c.ontology.vocab().NumConcepts(); ++a) {
    if (!cls.SuperConcepts(a).empty()) {
      victim = c.ontology.vocab().ConceptName(a);
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  c.mutation.drop_concept_supers_of = victim;
  c.expect_discrepancy = true;

  const std::string marker = "SuperConcepts(" + victim + ")";
  auto fails = [&](const ConformanceCase& candidate) {
    testkit::ClassifierDiffOptions o;
    o.run_tableau = false;
    o.mutation = candidate.mutation;
    for (const auto& d :
         testkit::CompareClassifiers(candidate.ontology, o)) {
      if (d.find(marker) != std::string::npos &&
          d.find("graph") != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(fails(c));

  testkit::ShrinkStats stats;
  ConformanceCase shrunk = testkit::Shrink(c, fails, {}, &stats);
  EXPECT_GT(stats.initial_axioms, 900u);
  EXPECT_LE(stats.final_axioms, 10u) << "shrinker left too many axioms";
  EXPECT_GT(stats.initial_predicates, 1000u);
  EXPECT_LE(stats.final_predicates, 20u)
      << "dead vocabulary survived shrinking";
  EXPECT_TRUE(fails(shrunk));
  EXPECT_LT(stats.iterations, 20000u);

  // The shrunk repro survives a corpus round trip and still fails.
  auto reparsed = testkit::ParseCase(testkit::SerializeCase(shrunk));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(fails(*reparsed));
}

// ---------------------------------------------------------------------------
// Corpus round trip + replay of the checked-in cases.
// ---------------------------------------------------------------------------

TEST(Corpus, SerialisationRoundTripsExactly) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(5));
  ConformanceCase c = testkit::CaseFromWorkload(w);
  std::string text = testkit::SerializeCase(c);
  auto parsed = testkit::ParseCase(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(testkit::SerializeCase(*parsed), text);
  // The reparsed case drives the differential harness identically.
  EXPECT_EQ(testkit::RunCase(*parsed, /*run_tableau=*/false),
            testkit::RunCase(c, /*run_tableau=*/false));
}

TEST(Corpus, ReplaysAllCheckedInCases) {
  namespace fs = std::filesystem;
  std::set<fs::path> files;
  ASSERT_TRUE(fs::exists(OLITE_CORPUS_DIR))
      << "corpus directory missing: " << OLITE_CORPUS_DIR;
  for (const auto& entry : fs::directory_iterator(OLITE_CORPUS_DIR)) {
    if (entry.path().extension() == ".case") files.insert(entry.path());
  }
  ASSERT_FALSE(files.empty()) << "no .case files in " << OLITE_CORPUS_DIR;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto c = testkit::ParseCase(buffer.str());
    ASSERT_TRUE(c.ok()) << path << ": " << c.status().ToString();
    // Mutations corrupt only a classifier, so the answer legs must agree
    // on every case; the classifiers must disagree exactly when recorded.
    auto result = testkit::RunCase(*c, /*run_tableau=*/true);
    EXPECT_TRUE(result.answer_diffs.empty())
        << path << JoinDiffs(result.answer_diffs);
    if (c->expect_discrepancy) {
      EXPECT_FALSE(result.classifier_diffs.empty())
          << path << ": recorded discrepancy no longer reproduces";
    } else {
      EXPECT_TRUE(result.classifier_diffs.empty())
          << path << JoinDiffs(result.classifier_diffs);
    }
  }
}

}  // namespace
}  // namespace olite

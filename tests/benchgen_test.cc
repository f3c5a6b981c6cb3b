#include <gtest/gtest.h>

#include "benchgen/generator.h"
#include "benchgen/profiles.h"
#include "benchgen/workload.h"
#include "completion/completion_classifier.h"
#include "obda/delta.h"
#include "core/classifier.h"
#include "owl/from_dllite.h"
#include "reasoner/tableau_classifier.h"
#include "testkit/reference_unsat.h"
#include "testkit/sweep.h"

namespace olite::benchgen {
namespace {

TEST(GeneratorTest, Deterministic) {
  GeneratorConfig cfg;
  cfg.num_concepts = 200;
  cfg.num_roles = 10;
  cfg.qualified_exists_per_concept = 0.2;
  cfg.disjointness_fraction = 0.1;
  cfg.seed = 7;
  dllite::Ontology a = Generate(cfg);
  dllite::Ontology b = Generate(cfg);
  EXPECT_EQ(a.ToString(), b.ToString());
  GeneratorConfig cfg2 = cfg;
  cfg2.seed = 8;
  EXPECT_NE(Generate(cfg2).ToString(), a.ToString());
}

TEST(GeneratorTest, RespectsSignatureCounts) {
  GeneratorConfig cfg;
  cfg.num_concepts = 321;
  cfg.num_roles = 17;
  cfg.num_attributes = 5;
  dllite::Ontology onto = Generate(cfg);
  EXPECT_EQ(onto.vocab().NumConcepts(), 321u);
  EXPECT_EQ(onto.vocab().NumRoles(), 17u);
  EXPECT_EQ(onto.vocab().NumAttributes(), 5u);
  // Taxonomy: every non-root concept has at least one parent axiom.
  EXPECT_GE(onto.tbox().concept_inclusions().size(),
            321u - cfg.num_roots);
}

TEST(GeneratorTest, SiblingDisjointnessIsSatisfiable) {
  GeneratorConfig cfg;
  cfg.num_concepts = 400;
  cfg.num_roles = 4;
  cfg.disjointness_fraction = 0.5;
  cfg.multi_parent_prob = 0.4;  // DAG: the NI filter must still hold
  cfg.role_disjointness_fraction = 0.3;
  cfg.role_hierarchy_fraction = 0.4;
  cfg.seed = 11;
  dllite::Ontology onto = Generate(cfg);
  core::Classification cls = core::Classify(onto.tbox(), onto.vocab());
  // Filtered disjointness must not make anything unsatisfiable.
  EXPECT_TRUE(cls.UnsatisfiableConcepts().empty());
  EXPECT_TRUE(cls.UnsatisfiableRoles().empty());
  EXPECT_GT(onto.tbox().NumNegativeInclusions(), 0u);
}

TEST(GeneratorTest, UnsatisfiableFractionInjectsErrors) {
  GeneratorConfig cfg;
  cfg.num_concepts = 300;
  cfg.num_roles = 4;
  cfg.disjointness_fraction = 0.2;
  cfg.unsatisfiable_fraction = 0.05;
  cfg.seed = 13;
  dllite::Ontology onto = Generate(cfg);
  core::Classification cls = core::Classify(onto.tbox(), onto.vocab());
  size_t unsat = cls.UnsatisfiableConcepts().size();
  EXPECT_GT(unsat, 0u);
  // Victims are leaf-biased, so errors stay local: well under half the
  // signature collapses.
  EXPECT_LT(unsat, 150u);
}

TEST(GeneratorTest, ScaledKeepsShape) {
  GeneratorConfig cfg;
  cfg.num_concepts = 1000;
  cfg.num_roles = 50;
  cfg.num_attributes = 10;
  GeneratorConfig small = cfg.Scaled(0.1);
  EXPECT_EQ(small.num_concepts, 100u);
  EXPECT_EQ(small.num_roles, 5u);
  EXPECT_EQ(small.num_attributes, 1u);
  // Floors guard degenerate scales.
  GeneratorConfig tiny = cfg.Scaled(0.0001);
  EXPECT_GE(tiny.num_concepts, 8u);
  EXPECT_GE(tiny.num_roles, 1u);
}

TEST(ProfilesTest, AllElevenOntologiesPresent) {
  auto profiles = PaperProfiles();
  ASSERT_EQ(profiles.size(), 11u);
  EXPECT_EQ(profiles[0].config.name, "Mouse");
  EXPECT_EQ(profiles[6].config.name, "Galen");
  EXPECT_EQ(profiles[10].config.name, "FMA-OBO");
  // Published sizes at scale 1.
  EXPECT_EQ(profiles[0].config.num_concepts, 2744u);
  EXPECT_EQ(profiles[7].config.num_concepts, 72559u);
  // Paper cells are carried along for the report.
  EXPECT_STREQ(profiles[0].paper.quonto, "0.156");
  EXPECT_STREQ(profiles[8].paper.factpp, "out-of-mem");
  EXPECT_STREQ(profiles[6].paper.pellet, "timeout");
}

TEST(ProfilesTest, ScaledProfilesGenerateAndClassify) {
  // Smoke: every profile at 2% scale generates, classifies with the graph
  // engine, and agrees with the completion engine on subsumption counts.
  for (const auto& profile : PaperProfiles(0.02)) {
    dllite::Ontology onto = Generate(profile.config);
    core::Classification cls = core::Classify(onto.tbox(), onto.vocab());
    completion::CompletionResult cr =
        completion::ClassifyWithCompletion(onto.tbox(), onto.vocab());
    ASSERT_TRUE(cr.completed) << profile.config.name;
    uint64_t graph_count = cls.CountNamedSubsumptions();
    uint64_t completion_count = cr.NumSubsumptions();
    EXPECT_EQ(graph_count, completion_count) << profile.config.name;
  }
}

TEST(ProfilesTest, ComputeUnsatMatchesReferenceOnAllTwins) {
  // The bitset computeUnsat against the closure-based reference, node by
  // node, on every Figure-1 twin at quarter scale.
  for (const auto& profile : PaperProfiles(0.25)) {
    dllite::Ontology onto = Generate(profile.config);
    core::Classification cls = core::Classify(onto.tbox(), onto.vocab());
    const core::TBoxGraph& g = cls.tbox_graph();
    std::vector<bool> want =
        testkit::ReferenceUnsat(g, cls.closure(), cls.reverse_closure());
    EXPECT_EQ(core::ComputeUnsat(g), want) << profile.config.name;
  }
}

TEST(ProfilesTest, OwlConversionPreservesAxiomCount) {
  auto profiles = PaperProfiles(0.02);
  const auto& dolce = profiles[2];
  ASSERT_EQ(dolce.config.name, "DOLCE");
  dllite::Ontology onto = Generate(dolce.config);
  auto owl = owl::OwlFromDlLite(onto.tbox(), onto.vocab());
  EXPECT_EQ(owl->axioms().size(), onto.tbox().NumAxioms());
  EXPECT_EQ(owl->vocab().NumConcepts(), onto.vocab().NumConcepts());
  // Attributes become extra object properties.
  EXPECT_EQ(owl->vocab().NumRoles(),
            onto.vocab().NumRoles() + onto.vocab().NumAttributes());
}

TEST(ProfilesTest, TableauAgreesWithGraphOnTinyProfile) {
  // End-to-end cross-engine validation on a small Transportation twin.
  auto profiles = PaperProfiles(0.05);
  const auto& transport = profiles[1];
  ASSERT_EQ(transport.config.name, "Transportation");
  dllite::Ontology onto = Generate(transport.config);
  core::Classification graph_cls = core::Classify(onto.tbox(), onto.vocab());

  auto owl = owl::OwlFromDlLite(onto.tbox(), onto.vocab());
  reasoner::TableauClassifierOptions opts;
  opts.strategy = reasoner::ClassifyStrategy::kEnhancedTraversal;
  opts.time_budget_ms = 60000;
  auto tab = reasoner::ClassifyWithTableau(*owl, opts);
  ASSERT_TRUE(tab.completed);

  for (uint32_t a = 0; a < onto.vocab().NumConcepts(); ++a) {
    EXPECT_EQ(tab.concept_subsumers[a], graph_cls.SuperConcepts(a))
        << "concept " << onto.vocab().ConceptName(a);
  }
  EXPECT_EQ(tab.unsatisfiable, graph_cls.UnsatisfiableConcepts());
}

// ---------------------------------------------------------------------------
// Seeded delta sequences (GenerateDeltaSequence)
// ---------------------------------------------------------------------------

Workload SmallWorkload(uint64_t seed) {
  WorkloadConfig cfg;
  cfg.ontology.name = "delta-seq";
  cfg.ontology.seed = 2 * seed + 1;
  cfg.ontology.num_concepts = 14;
  cfg.ontology.num_roles = 4;
  cfg.ontology.num_attributes = 1;
  cfg.seed = seed + 500;
  cfg.num_individuals = 10;
  cfg.num_concept_assertions = 12;
  cfg.num_role_assertions = 12;
  cfg.num_queries = 2;
  return GenerateWorkload(cfg);
}

TEST(DeltaSequenceTest, DeterministicAndSeedSensitive) {
  Workload w = SmallWorkload(3);
  DeltaSequenceConfig cfg;
  cfg.seed = 42;
  cfg.num_deltas = 8;
  cfg.functionality_fraction = 0.2;
  auto a = GenerateDeltaSequence(w, cfg);
  auto b = GenerateDeltaSequence(w, cfg);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 8u);

  // Identical seeds chain to identical specifications; a different seed
  // diverges.
  dllite::TBox ta = w.ontology.tbox();
  dllite::TBox tb = w.ontology.tbox();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].NumChanges(), b[i].NumChanges()) << "delta " << i;
    ta = obda::ApplyTBoxDelta(ta, a[i]).value();
    tb = obda::ApplyTBoxDelta(tb, b[i]).value();
  }
  dllite::Ontology oa = w.ontology;
  oa.tbox() = ta;
  dllite::Ontology ob = w.ontology;
  ob.tbox() = tb;
  EXPECT_EQ(oa.ToString(), ob.ToString());

  DeltaSequenceConfig other = cfg;
  other.seed = 43;
  auto c = GenerateDeltaSequence(w, other);
  dllite::TBox tc = w.ontology.tbox();
  for (const auto& d : c) tc = obda::ApplyTBoxDelta(tc, d).value();
  dllite::Ontology oc = w.ontology;
  oc.tbox() = tc;
  EXPECT_NE(oc.ToString(), oa.ToString());
}

TEST(DeltaSequenceTest, EveryDeltaChainsAndKeepsDlLiteA) {
  // Deltas must apply cleanly in order (removals always reference existing
  // content) and never violate the DL-Lite_A functionality restriction —
  // including the seeds that plant functionality churn and an oversized
  // delta.
  for (uint64_t seed : {1ull, 9ull, 17ull}) {
    Workload w = SmallWorkload(seed);
    DeltaSequenceConfig cfg;
    cfg.seed = seed * 977;
    cfg.num_deltas = 10;
    cfg.functionality_fraction = 0.25;
    cfg.large_delta_index = 4;
    cfg.large_delta_changes = 32;
    auto deltas = GenerateDeltaSequence(w, cfg);
    ASSERT_EQ(deltas.size(), 10u);
    EXPECT_GE(deltas[4].NumChanges(), 32u);

    dllite::TBox tbox = w.ontology.tbox();
    mapping::MappingSet mappings = w.mappings;
    for (size_t i = 0; i < deltas.size(); ++i) {
      auto nt = obda::ApplyTBoxDelta(tbox, deltas[i]);
      ASSERT_TRUE(nt.ok()) << "seed " << seed << " delta " << i << ": "
                           << nt.status().ToString();
      auto nm = obda::ApplyMappingDelta(mappings, deltas[i]);
      ASSERT_TRUE(nm.ok()) << "seed " << seed << " delta " << i << ": "
                           << nm.status().ToString();
      tbox = *std::move(nt);
      mappings = *std::move(nm);
      ASSERT_TRUE(
          dllite::CheckFunctionalityRestriction(tbox, w.ontology.vocab())
              .ok())
          << "seed " << seed << " delta " << i;
      // Deltas never extend the signature: every mapping still validates
      // against the untouched vocabulary-sized predicates.
      EXPECT_GE(mappings.size(), 1u);
    }
  }
}

// Seed 50176 of the delta-compilation sweep: one delta re-targeted a
// mapping assertion and later picked that re-targeted copy for removal,
// which `ApplyMappingDelta` rejects (removals match the base set before
// additions apply), so generating the sequence aborted.
TEST(DeltaSequenceTest, DeltaSweepSeed50176AppliesInOrder) {
  const uint64_t seed = 50176;
  Workload w = GenerateWorkload(testkit::SweepConfig(seed));
  auto deltas =
      GenerateDeltaSequence(w, testkit::DeltaSweepOptions(seed).sequence);
  ASSERT_EQ(deltas.size(), 6u);
  mapping::MappingSet mappings = w.mappings;
  for (size_t i = 0; i < deltas.size(); ++i) {
    auto next = obda::ApplyMappingDelta(mappings, deltas[i]);
    ASSERT_TRUE(next.ok()) << "delta " << i << ": "
                           << next.status().ToString();
    mappings = *std::move(next);
  }
}

}  // namespace
}  // namespace olite::benchgen

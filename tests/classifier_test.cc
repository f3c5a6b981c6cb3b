#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "core/classifier.h"
#include "core/deductive_closure.h"
#include "core/node_table.h"
#include "dllite/ontology.h"
#include "testkit/reference_unsat.h"

namespace olite::core {
namespace {

using dllite::BasicConcept;
using dllite::BasicRole;
using dllite::Ontology;
using dllite::ParseOntology;

Ontology MustParse(const char* text) {
  auto r = ParseOntology(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// NodeTable
// ---------------------------------------------------------------------------

TEST(NodeTableTest, LayoutAndDecode) {
  dllite::Vocabulary v;
  auto a = v.InternConcept("A");
  auto b = v.InternConcept("B");
  auto p = v.InternRole("P");
  auto q = v.InternRole("Q");
  auto u = v.InternAttribute("u");
  NodeTable nt(v);

  EXPECT_EQ(nt.NumNodes(), 2u + 4 * 2u + 2 * 1u);
  EXPECT_EQ(nt.OfConcept(a), 0u);
  EXPECT_EQ(nt.OfConcept(b), 1u);
  EXPECT_EQ(nt.KindOf(nt.OfRole(BasicRole::Direct(p))), NodeKind::kRole);
  EXPECT_EQ(nt.KindOf(nt.OfRole(BasicRole::Inverse(q))), NodeKind::kRole);
  EXPECT_EQ(nt.KindOf(nt.OfExists(BasicRole::Direct(p))), NodeKind::kExists);
  EXPECT_EQ(nt.KindOf(nt.OfAttribute(u)), NodeKind::kAttribute);
  EXPECT_EQ(nt.KindOf(nt.OfAttrDomain(u)), NodeKind::kAttrDomain);

  // Round trips.
  EXPECT_EQ(nt.RoleOf(nt.OfRole(BasicRole::Inverse(q))),
            BasicRole::Inverse(q));
  EXPECT_EQ(nt.RoleOf(nt.OfExists(BasicRole::Inverse(p))),
            BasicRole::Inverse(p));
  EXPECT_EQ(nt.AttributeOf(nt.OfAttrDomain(u)), u);
  EXPECT_EQ(nt.BasicConceptOf(nt.OfExists(BasicRole::Direct(q))),
            BasicConcept::Exists(BasicRole::Direct(q)));
  EXPECT_TRUE(nt.IsConceptSorted(nt.OfConcept(a)));
  EXPECT_TRUE(nt.IsConceptSorted(nt.OfExists(BasicRole::Direct(p))));
  EXPECT_TRUE(nt.IsConceptSorted(nt.OfAttrDomain(u)));
  EXPECT_FALSE(nt.IsConceptSorted(nt.OfRole(BasicRole::Direct(p))));
  EXPECT_FALSE(nt.IsConceptSorted(nt.OfAttribute(u)));
}

TEST(NodeTableTest, NamesAreReadable) {
  dllite::Vocabulary v;
  v.InternConcept("Person");
  auto p = v.InternRole("knows");
  NodeTable nt(v);
  EXPECT_EQ(nt.NameOf(0, v), "Person");
  EXPECT_EQ(nt.NameOf(nt.OfExists(BasicRole::Inverse(p)), v),
            "exists knows-");
}

// ---------------------------------------------------------------------------
// Digraph construction (Definition 1)
// ---------------------------------------------------------------------------

TEST(TBoxGraphTest, ConceptInclusionMakesOneArc) {
  Ontology onto = MustParse("concept A B\nA <= B\n");
  TBoxGraph g = BuildTBoxGraph(onto.tbox(), onto.vocab());
  EXPECT_TRUE(g.digraph.HasArc(0, 1));
  EXPECT_EQ(g.digraph.NumArcs(), 1u);
}

TEST(TBoxGraphTest, RoleInclusionMakesFourArcs) {
  Ontology onto = MustParse("role P Q\nP <= Q\n");
  TBoxGraph g = BuildTBoxGraph(onto.tbox(), onto.vocab());
  const NodeTable& nt = g.nodes;
  auto p = BasicRole::Direct(0);
  auto q = BasicRole::Direct(1);
  EXPECT_TRUE(g.digraph.HasArc(nt.OfRole(p), nt.OfRole(q)));
  EXPECT_TRUE(
      g.digraph.HasArc(nt.OfRole(p.Inverted()), nt.OfRole(q.Inverted())));
  EXPECT_TRUE(g.digraph.HasArc(nt.OfExists(p), nt.OfExists(q)));
  EXPECT_TRUE(
      g.digraph.HasArc(nt.OfExists(p.Inverted()), nt.OfExists(q.Inverted())));
  EXPECT_EQ(g.digraph.NumArcs(), 4u);
}

TEST(TBoxGraphTest, QualifiedExistentialMakesDomainArcAndIndexEntry) {
  Ontology onto =
      MustParse("concept County State\nrole isPartOf\n"
                "County <= exists isPartOf . State\n");
  TBoxGraph g = BuildTBoxGraph(onto.tbox(), onto.vocab());
  const NodeTable& nt = g.nodes;
  EXPECT_TRUE(g.digraph.HasArc(nt.OfConcept(0),
                               nt.OfExists(BasicRole::Direct(0))));
  ASSERT_EQ(g.qualified_existentials.size(), 1u);
  EXPECT_EQ(g.qualified_existentials[0].filler, 1u);
  EXPECT_TRUE(g.negative_inclusions.empty());
}

TEST(TBoxGraphTest, NegativeInclusionsGoToSideIndex) {
  Ontology onto = MustParse("concept A B\nrole P Q\nA <= not B\nP <= not Q\n");
  TBoxGraph g = BuildTBoxGraph(onto.tbox(), onto.vocab());
  // Concept NI once; role NI recorded for both component pairs.
  EXPECT_EQ(g.negative_inclusions.size(), 3u);
  EXPECT_EQ(g.digraph.NumArcs(), 0u);
}

// ---------------------------------------------------------------------------
// Φ_T: subsumptions from positive inclusions (Theorem 1)
// ---------------------------------------------------------------------------

class ClassifyEngineTest
    : public ::testing::TestWithParam<graph::ClosureEngine> {
 protected:
  ClassificationOptions Opts() const {
    ClassificationOptions o;
    o.engine = GetParam();
    return o;
  }
  // `kDynamic` names the same engine as `kSccMerge`, so its instantiation
  // classifies incrementally instead: `RefreshClassification` from an empty
  // TBox over the same vocabulary, patching every arc in (no scratch
  // fallback). Each case then also covers the refresh path.
  Classification Run(const Ontology& onto) const {
    if (GetParam() != graph::ClosureEngine::kDynamic) {
      return Classify(onto.tbox(), onto.vocab(), Opts());
    }
    Classification empty = Classify(dllite::TBox(), onto.vocab());
    graph::DynamicClosure::PatchOptions patch;
    patch.fallback_fraction = 1.0;
    RefreshStats stats;
    Classification out = RefreshClassification(empty, onto.tbox(),
                                               onto.vocab(), patch, &stats);
    EXPECT_FALSE(stats.fell_back_scratch);
    return out;
  }
};

TEST_P(ClassifyEngineTest, TransitiveConceptChain) {
  Ontology onto = MustParse("concept A1 A2 A3\nA1 <= A2\nA2 <= A3\n");
  Classification cls = Run(onto);
  // The paper's introductory example: A1 ⊑ A3 is inferred.
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(2)));
  EXPECT_FALSE(cls.Entails(BasicConcept::Atomic(2), BasicConcept::Atomic(0)));
  EXPECT_EQ(cls.SuperConcepts(0), (std::vector<dllite::ConceptId>{1, 2}));
  EXPECT_EQ(cls.SubConcepts(2), (std::vector<dllite::ConceptId>{0, 1}));
}

TEST_P(ClassifyEngineTest, RoleHierarchyPropagatesToDomains) {
  Ontology onto = MustParse(
      "concept A B\nrole P Q\nP <= Q\nexists Q <= A\nexists P- <= B\n");
  Classification cls = Run(onto);
  // ∃P ⊑ ∃Q ⊑ A.
  EXPECT_TRUE(cls.Entails(BasicConcept::Exists(BasicRole::Direct(0)),
                          BasicConcept::Atomic(0)));
  // Role subsumption itself.
  EXPECT_TRUE(cls.Entails(BasicRole::Direct(0), BasicRole::Direct(1)));
  EXPECT_TRUE(cls.Entails(BasicRole::Inverse(0), BasicRole::Inverse(1)));
  EXPECT_FALSE(cls.Entails(BasicRole::Direct(1), BasicRole::Direct(0)));
  // ∃Q⁻ is not constrained.
  EXPECT_FALSE(cls.Entails(BasicConcept::Exists(BasicRole::Inverse(1)),
                           BasicConcept::Atomic(1)));
  EXPECT_EQ(cls.SuperRoles(0), (std::vector<dllite::RoleId>{1}));
  EXPECT_TRUE(cls.SuperRoles(1).empty());
}

TEST_P(ClassifyEngineTest, EquivalentConceptsViaCycle) {
  Ontology onto = MustParse("concept A B C\nA <= B\nB <= A\nB <= C\n");
  Classification cls = Run(onto);
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(1)));
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(1), BasicConcept::Atomic(0)));
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(2)));
  EXPECT_FALSE(cls.Entails(BasicConcept::Atomic(2), BasicConcept::Atomic(0)));
}

TEST_P(ClassifyEngineTest, AttributeHierarchy) {
  Ontology onto = MustParse(
      "concept A\nattribute u w\nu <= w\ndelta(w) <= A\n");
  Classification cls = Run(onto);
  EXPECT_TRUE(cls.EntailsAttribute(0, 1));
  EXPECT_FALSE(cls.EntailsAttribute(1, 0));
  // δ(u) ⊑ δ(w) ⊑ A.
  EXPECT_TRUE(cls.Entails(BasicConcept::AttrDomain(0),
                          BasicConcept::Atomic(0)));
  EXPECT_EQ(cls.SuperAttributes(0), (std::vector<dllite::AttributeId>{1}));
}

TEST_P(ClassifyEngineTest, QualifiedExistentialGivesUnqualifiedDomain) {
  Ontology onto = MustParse(
      "concept County State Region\nrole isPartOf\n"
      "County <= exists isPartOf . State\n"
      "exists isPartOf <= Region\n");
  Classification cls = Run(onto);
  // County ⊑ ∃isPartOf ⊑ Region.
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(2)));
}

// ---------------------------------------------------------------------------
// Ω_T: computeUnsat
// ---------------------------------------------------------------------------

TEST_P(ClassifyEngineTest, DirectContradictionIsUnsat) {
  Ontology onto = MustParse("concept A B C\nA <= B\nA <= C\nB <= not C\n");
  Classification cls = Run(onto);
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(1)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(2)));
  EXPECT_EQ(cls.UnsatisfiableConcepts(), (std::vector<dllite::ConceptId>{0}));
  // Ω_T: the unsatisfiable A is classified under everything.
  EXPECT_EQ(cls.SuperConcepts(0), (std::vector<dllite::ConceptId>{1, 2}));
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(1)));
}

TEST_P(ClassifyEngineTest, SelfDisjointConceptIsUnsat) {
  Ontology onto = MustParse("concept A B\nB <= A\nA <= not A\n");
  Classification cls = Run(onto);
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
  // Subsumees of an unsatisfiable concept are unsatisfiable.
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(1)));
}

TEST_P(ClassifyEngineTest, UnsatRolePropagatesToComponents) {
  Ontology onto = MustParse("concept A\nrole P Q\nP <= Q\nP <= not Q\n");
  Classification cls = Run(onto);
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicRole::Direct(0)));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicRole::Inverse(0)));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Exists(BasicRole::Direct(0))));
  EXPECT_TRUE(
      cls.IsUnsatisfiable(BasicConcept::Exists(BasicRole::Inverse(0))));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicRole::Direct(1)));
  EXPECT_EQ(cls.UnsatisfiableRoles(), (std::vector<dllite::RoleId>{0}));
}

TEST_P(ClassifyEngineTest, EmptyDomainEmptiesRole) {
  Ontology onto = MustParse(
      "concept A\nrole P\nexists P <= A\nexists P <= not A\n");
  Classification cls = Run(onto);
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Exists(BasicRole::Direct(0))));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicRole::Direct(0)));
  EXPECT_TRUE(
      cls.IsUnsatisfiable(BasicConcept::Exists(BasicRole::Inverse(0))));
}

TEST_P(ClassifyEngineTest, UnsatFillerEmptiesQualifiedLhs) {
  Ontology onto = MustParse(
      "concept A B C\nrole P\n"
      "B <= C\nB <= not C\n"        // B is unsatisfiable
      "A <= exists P . B\n");       // hence A is too
  Classification cls = Run(onto);
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(1)));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(2)));
}

TEST_P(ClassifyEngineTest, UnsatRoleInQualifiedExistentialEmptiesLhs) {
  Ontology onto = MustParse(
      "concept A B\nrole P\n"
      "P <= not P\n"              // P is unsatisfiable
      "A <= exists P . B\n");     // hence A is too
  Classification cls = Run(onto);
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicRole::Direct(0)));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(1)));
}

TEST_P(ClassifyEngineTest, UnsatAttributePropagatesToDomain) {
  Ontology onto = MustParse(
      "concept A\nattribute u w\nu <= w\nu <= not w\ndelta(u) <= A\n");
  Classification cls = Run(onto);
  EXPECT_EQ(cls.UnsatisfiableAttributes(),
            (std::vector<dllite::AttributeId>{0}));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::AttrDomain(0)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
}

TEST_P(ClassifyEngineTest, QualifiedSuccessorConflictDetected) {
  // B ⊑ ∃P.F with range(P) ⊑ R and the successor's memberships F, R
  // having disjoint ancestors: the anonymous successor is contradictory,
  // so B is unsatisfiable (the paper's "remaining challenge" case).
  Ontology onto = MustParse(
      "concept B F R X Y\nrole P\n"
      "F <= X\nR <= Y\nX <= not Y\n"
      "exists P- <= R\n"
      "B <= exists P . F\n");
  Classification cls = Run(onto);
  auto b = onto.vocab().FindConcept("B").value();
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(b)));
  // Neither the filler nor the range class is unsatisfiable themselves.
  EXPECT_FALSE(cls.IsUnsatisfiable(
      BasicConcept::Atomic(onto.vocab().FindConcept("F").value())));
  EXPECT_FALSE(cls.IsUnsatisfiable(
      BasicConcept::Atomic(onto.vocab().FindConcept("R").value())));
}

TEST_P(ClassifyEngineTest, QualifiedSuccessorViaSuperRoleRange) {
  // The range constraint sits on a super-role of the qualified one.
  Ontology onto = MustParse(
      "concept B F R\nrole P Q\n"
      "P <= Q\n"
      "exists Q- <= R\n"
      "F <= not R\n"
      "B <= exists P . F\n");
  Classification cls = Run(onto);
  EXPECT_TRUE(cls.IsUnsatisfiable(
      BasicConcept::Atomic(onto.vocab().FindConcept("B").value())));
}

TEST_P(ClassifyEngineTest, QualifiedSuccessorCompatibleFillerIsFine) {
  Ontology onto = MustParse(
      "concept B F R\nrole P\n"
      "exists P- <= R\n"
      "B <= exists P . F\n");
  Classification cls = Run(onto);
  EXPECT_TRUE(cls.UnsatisfiableConcepts().empty());
}

TEST_P(ClassifyEngineTest, DisjointRolesAloneCauseNoUnsat) {
  // Disjoint roles do NOT make their domains disjoint or empty.
  Ontology onto = MustParse("role P Q\nP <= not Q\n");
  Classification cls = Run(onto);
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicRole::Direct(0)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicRole::Direct(1)));
  EXPECT_FALSE(
      cls.IsUnsatisfiable(BasicConcept::Exists(BasicRole::Direct(0))));
}

TEST_P(ClassifyEngineTest, SkippingUnsatStepLeavesPhiOnly) {
  Ontology onto = MustParse("concept A B C\nA <= B\nA <= not B\n");
  ClassificationOptions opts = Opts();
  opts.compute_unsat = false;
  Classification cls = Classify(onto.tbox(), onto.vocab(), opts);
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(1)));
  // Without Ω_T, A ⊑ C is missed (A is actually unsatisfiable).
  EXPECT_FALSE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(2)));
}

TEST_P(ClassifyEngineTest, StatsAreFilled) {
  Ontology onto = MustParse("concept A B\nrole P\nA <= B\nA <= not B\n");
  Classification cls = Run(onto);
  const auto& st = cls.stats();
  EXPECT_EQ(st.num_nodes, 2u + 4u);
  EXPECT_EQ(st.num_graph_arcs, 1u);
  EXPECT_GT(st.num_unsat_nodes, 0u);
  EXPECT_GE(st.TotalMillis(), 0.0);
}

TEST_P(ClassifyEngineTest, CountNamedSubsumptions) {
  Ontology onto = MustParse("concept A B C\nrole P Q\nA <= B\nB <= C\nP <= Q\n");
  Classification cls = Run(onto);
  // A⊑B, A⊑C, B⊑C plus P⊑Q.
  EXPECT_EQ(cls.CountNamedSubsumptions(), 4u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ClassifyEngineTest,
                         ::testing::Values(graph::ClosureEngine::kBfs,
                                           graph::ClosureEngine::kSccMerge,
                                           graph::ClosureEngine::kDynamic),
                         [](const auto& pinfo) {
                           return graph::ClosureEngineName(pinfo.param);
                         });

// ---------------------------------------------------------------------------
// computeUnsat (Ω_T) against the closure-based reference
// ---------------------------------------------------------------------------

// ComputeUnsat on `onto`, checked node by node against
// testkit::ReferenceUnsat.
std::vector<bool> CheckedUnsat(const Ontology& onto) {
  Classification cls = Classify(onto.tbox(), onto.vocab());
  const TBoxGraph& g = cls.tbox_graph();
  std::vector<bool> unsat = ComputeUnsat(g);
  EXPECT_EQ(unsat, testkit::ReferenceUnsat(g, cls.closure(),
                                           cls.reverse_closure()));
  return unsat;
}

TEST(ComputeUnsatTest, QualifiedExistentialThroughRoleHierarchy) {
  // The successor forced by B ⊑ ∃Q.A is in A and, as Q ⊑ R, in ∃R⁻,
  // which is disjoint from A.
  Ontology onto = MustParse(
      "concept A B\nrole Q R\n"
      "Q <= R\nexists R- <= not A\nB <= exists Q . A\n");
  const NodeTable nt(onto.vocab());
  std::vector<bool> unsat = CheckedUnsat(onto);
  EXPECT_TRUE(unsat[nt.OfConcept(onto.vocab().FindConcept("B").value())]);
  EXPECT_FALSE(unsat[nt.OfConcept(onto.vocab().FindConcept("A").value())]);
  EXPECT_EQ(std::count(unsat.begin(), unsat.end(), true), 1);
}

TEST(ComputeUnsatTest, NegativeInclusionsSpanSeveralBlocks) {
  // k disjoint pairs C_i ⊑ ¬D_i. Below pair j sits U_j ⊑ C_j, D_j (a seed)
  // and V_j ⊑ ∃P_j.C_j with range(P_j) ⊑ D_j (a qualified existential).
  // The chosen j straddle the 64-bit words and the NI blocks.
  for (int k : {63, 64, 65, 255, 256, 257, 520}) {
    std::vector<int> picked;
    for (int j : {0, 63, 64, 255, 256, 257, 511, 512, k - 1}) {
      if (j < k) picked.push_back(j);
    }
    std::sort(picked.begin(), picked.end());
    picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
    std::string decl = "concept";
    std::string roles = "role";
    std::string axioms;
    for (int i = 0; i < k; ++i) {
      const std::string c = "C" + std::to_string(i);
      const std::string d = "D" + std::to_string(i);
      decl += " " + c + " " + d;
      axioms += c + " <= not " + d + "\n";
    }
    for (int j : picked) {
      const std::string c = "C" + std::to_string(j);
      const std::string d = "D" + std::to_string(j);
      const std::string u = "U" + std::to_string(j);
      const std::string v = "V" + std::to_string(j);
      const std::string p = "P" + std::to_string(j);
      decl += " " + u + " " + v;
      roles += " " + p;
      axioms += u + " <= " + c + "\n" + u + " <= " + d + "\n" + "exists " +
                p + "- <= " + d + "\n" + v + " <= exists " + p + " . " + c +
                "\n";
    }
    Ontology onto = MustParse((decl + "\n" + roles + "\n" + axioms).c_str());
    const NodeTable nt(onto.vocab());
    std::vector<bool> unsat = CheckedUnsat(onto);
    std::vector<graph::NodeId> want;
    for (int j : picked) {
      for (const char* prefix : {"U", "V"}) {
        want.push_back(nt.OfConcept(
            onto.vocab().FindConcept(prefix + std::to_string(j)).value()));
      }
    }
    std::sort(want.begin(), want.end());
    std::vector<graph::NodeId> got;
    for (graph::NodeId x = 0; x < unsat.size(); ++x) {
      if (unsat[x]) got.push_back(x);
    }
    EXPECT_EQ(got, want) << k << " negative inclusions";
  }
}

TEST(ComputeUnsatTest, NegativeInclusionInsideOneCycle) {
  // A, B, C are one strongly connected component holding both NI sides.
  Ontology onto = MustParse(
      "concept A B C D E\n"
      "A <= B\nB <= C\nC <= A\nA <= not C\nD <= A\nC <= E\n");
  std::vector<bool> unsat = CheckedUnsat(onto);
  const NodeTable nt(onto.vocab());
  for (const char* name : {"A", "B", "C", "D"}) {
    EXPECT_TRUE(unsat[nt.OfConcept(onto.vocab().FindConcept(name).value())])
        << name;
  }
  EXPECT_FALSE(unsat[nt.OfConcept(onto.vocab().FindConcept("E").value())]);
}

TEST(ComputeUnsatTest, RoleAndAttributeNegativeInclusions) {
  Ontology onto = MustParse(
      "concept A\nrole P Q S\nattribute u w v\n"
      "P <= not Q\nS <= P\nS <= Q\n"
      "u <= not w\nv <= u\nv <= w\ndelta(v) <= A\n");
  std::vector<bool> unsat = CheckedUnsat(onto);
  const NodeTable nt(onto.vocab());
  const dllite::Vocabulary& voc = onto.vocab();
  const auto s = voc.FindRole("S").value();
  EXPECT_TRUE(unsat[nt.OfRole(BasicRole::Direct(s))]);
  EXPECT_TRUE(unsat[nt.OfRole(BasicRole::Inverse(s))]);
  EXPECT_TRUE(unsat[nt.OfExists(BasicRole::Direct(s))]);
  EXPECT_TRUE(unsat[nt.OfExists(BasicRole::Inverse(s))]);
  EXPECT_FALSE(unsat[nt.OfRole(BasicRole::Direct(voc.FindRole("P").value()))]);
  const auto v = voc.FindAttribute("v").value();
  EXPECT_TRUE(unsat[nt.OfAttribute(v)]);
  EXPECT_TRUE(unsat[nt.OfAttrDomain(v)]);
  EXPECT_FALSE(unsat[nt.OfAttribute(voc.FindAttribute("u").value())]);
  EXPECT_FALSE(unsat[nt.OfConcept(voc.FindConcept("A").value())]);
}

TEST(ComputeUnsatTest, QualifiedExistentialsWithoutNegativeInclusions) {
  Ontology onto = MustParse(
      "concept A B C\nrole P Q\n"
      "P <= Q\nexists Q- <= C\nB <= exists P . A\nA <= exists P- . B\n");
  std::vector<bool> unsat = CheckedUnsat(onto);
  EXPECT_EQ(std::count(unsat.begin(), unsat.end(), true), 0);
}

// ---------------------------------------------------------------------------
// Deductive closure
// ---------------------------------------------------------------------------

TEST(DeductiveClosureTest, BasicPositives) {
  Ontology onto = MustParse("concept A B C\nA <= B\nB <= C\n");
  dllite::TBox closure = DeductiveClosure(onto.tbox(), onto.vocab());
  // A⊑B, B⊑C, A⊑C.
  EXPECT_EQ(closure.concept_inclusions().size(), 3u);
}

TEST(DeductiveClosureTest, RoleClosureIncludesInverseForms) {
  Ontology onto = MustParse("role P Q R\nP <= Q\nQ <= R\n");
  dllite::TBox closure = DeductiveClosure(onto.tbox(), onto.vocab());
  // {P⊑Q, Q⊑R, P⊑R} in both direct and inverse component forms.
  EXPECT_EQ(closure.role_inclusions().size(), 6u);
}

TEST(DeductiveClosureTest, NegativeClosurePropagatesUpward) {
  Ontology onto = MustParse("concept A B C\nA <= B\nB <= not C\n");
  DeductiveClosureOptions opts;
  opts.positive_basic = false;
  opts.qualified_existentials = false;
  dllite::TBox closure = DeductiveClosure(onto.tbox(), onto.vocab(), opts);
  // B ⊑ ¬C, C ⊑ ¬B, A ⊑ ¬C, C ⊑ ¬A.
  EXPECT_EQ(closure.concept_inclusions().size(), 4u);
  for (const auto& ax : closure.concept_inclusions()) {
    EXPECT_EQ(ax.rhs.kind, dllite::RhsConceptKind::kNegatedBasic);
  }
}

TEST(DeductiveClosureTest, QualifiedExistentialConsequences) {
  Ontology onto = MustParse(
      "concept A B State Region\nrole P Q\n"
      "A <= B\nState <= Region\nP <= Q\n"
      "B <= exists P . State\n");
  DeductiveClosureOptions opts;
  opts.positive_basic = false;
  opts.negative = false;
  dllite::TBox closure = DeductiveClosure(onto.tbox(), onto.vocab(), opts);
  // Expected QE consequences include A ⊑ ∃P.State, A ⊑ ∃Q.Region, etc.
  auto contains = [&](const char* lhs, const char* role, bool inv,
                      const char* filler) {
    auto a = onto.vocab().FindConcept(lhs).value();
    auto p = onto.vocab().FindRole(role).value();
    auto f = onto.vocab().FindConcept(filler).value();
    for (const auto& ax : closure.concept_inclusions()) {
      if (ax.lhs == BasicConcept::Atomic(a) &&
          ax.rhs.kind == dllite::RhsConceptKind::kQualifiedExists &&
          ax.rhs.role == dllite::BasicRole{p, inv} && ax.rhs.filler == f) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(contains("B", "P", false, "State"));
  EXPECT_TRUE(contains("A", "P", false, "State"));
  EXPECT_TRUE(contains("A", "Q", false, "Region"));
  EXPECT_TRUE(contains("B", "Q", false, "State"));
  EXPECT_FALSE(contains("State", "P", false, "State"));
  EXPECT_FALSE(contains("A", "P", true, "State"));
}

// ---------------------------------------------------------------------------
// Parallel classification determinism
// ---------------------------------------------------------------------------

// Random DL-Lite_R TBox with atomic/existential inclusions, role
// hierarchy arcs and a sprinkling of disjointness (⇒ unsat predicates).
dllite::Ontology RandomOntology(uint64_t seed) {
  Rng rng(seed);
  dllite::Ontology onto;
  const uint32_t nc = 50, nr = 8;
  for (uint32_t i = 0; i < nc; ++i) {
    onto.vocab().InternConcept("C" + std::to_string(i));
  }
  for (uint32_t i = 0; i < nr; ++i) {
    onto.vocab().InternRole("P" + std::to_string(i));
  }
  auto random_basic = [&] {
    if (rng.Uniform(4) == 0) {
      auto q = dllite::BasicRole{static_cast<dllite::RoleId>(rng.Uniform(nr)),
                                 rng.Uniform(2) == 0};
      return BasicConcept::Exists(q);
    }
    return BasicConcept::Atomic(static_cast<dllite::ConceptId>(rng.Uniform(nc)));
  };
  for (int i = 0; i < 120; ++i) {
    onto.tbox().AddConceptInclusion(
        {random_basic(), dllite::RhsConcept::Positive(random_basic())});
  }
  for (int i = 0; i < 8; ++i) {
    onto.tbox().AddConceptInclusion(
        {random_basic(), dllite::RhsConcept::Negated(random_basic())});
  }
  for (int i = 0; i < 12; ++i) {
    auto q1 = dllite::BasicRole{static_cast<dllite::RoleId>(rng.Uniform(nr)),
                                rng.Uniform(2) == 0};
    auto q2 = dllite::BasicRole{static_cast<dllite::RoleId>(rng.Uniform(nr)),
                                rng.Uniform(2) == 0};
    onto.tbox().AddRoleInclusion({q1, q2, /*negated=*/false});
  }
  return onto;
}

TEST(ClassifierParallelTest, IdenticalResultsAtEveryWidth) {
  const graph::ClosureEngine kEngines[] = {graph::ClosureEngine::kBfs,
                                           graph::ClosureEngine::kSccMerge,
                                           graph::ClosureEngine::kDynamic};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    dllite::Ontology onto = RandomOntology(seed);
    for (graph::ClosureEngine engine : kEngines) {
      ClassificationOptions serial_opts;
      serial_opts.engine = engine;
      serial_opts.threads = 1;
      Classification serial = Classify(onto.tbox(), onto.vocab(), serial_opts);
      const uint64_t serial_count = serial.CountNamedSubsumptions();
      for (unsigned width : {2u, 8u}) {
        ClassificationOptions opts;
        opts.engine = engine;
        opts.threads = width;
        Classification par = Classify(onto.tbox(), onto.vocab(), opts);
        EXPECT_EQ(par.stats().num_closure_arcs, serial.stats().num_closure_arcs);
        EXPECT_EQ(par.stats().num_unsat_nodes, serial.stats().num_unsat_nodes);
        EXPECT_EQ(par.CountNamedSubsumptions(), serial_count);
        for (uint32_t a = 0; a < onto.vocab().NumConcepts(); ++a) {
          ASSERT_EQ(par.SuperConcepts(a), serial.SuperConcepts(a))
              << "seed " << seed << " width " << width << " concept " << a;
        }
        EXPECT_EQ(par.UnsatisfiableConcepts(), serial.UnsatisfiableConcepts());
        EXPECT_EQ(par.UnsatisfiableRoles(), serial.UnsatisfiableRoles());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RefreshClassification: incremental maintenance from a base classification
// ---------------------------------------------------------------------------

// `RefreshClassification`'s contract is exact equality with a from-scratch
// `Classify` of the edited TBox, whatever internal path it took.
void ExpectSameClassification(const Classification& got,
                              const dllite::Ontology& onto) {
  Classification want = Classify(onto.tbox(), onto.vocab());
  const auto& vocab = onto.vocab();
  for (size_t a = 0; a < vocab.NumConcepts(); ++a) {
    const auto id = static_cast<dllite::ConceptId>(a);
    EXPECT_EQ(got.SuperConcepts(id), want.SuperConcepts(id))
        << vocab.ConceptName(id);
  }
  for (size_t p = 0; p < vocab.NumRoles(); ++p) {
    const auto id = static_cast<dllite::RoleId>(p);
    EXPECT_EQ(got.SuperRoles(id), want.SuperRoles(id)) << vocab.RoleName(id);
  }
  for (size_t u = 0; u < vocab.NumAttributes(); ++u) {
    const auto id = static_cast<dllite::AttributeId>(u);
    EXPECT_EQ(got.SuperAttributes(id), want.SuperAttributes(id))
        << vocab.AttributeName(id);
  }
  EXPECT_EQ(got.UnsatisfiableConcepts(), want.UnsatisfiableConcepts());
  EXPECT_EQ(got.UnsatisfiableRoles(), want.UnsatisfiableRoles());
  EXPECT_EQ(got.UnsatisfiableAttributes(), want.UnsatisfiableAttributes());
  EXPECT_EQ(got.CountNamedSubsumptions(), want.CountNamedSubsumptions());
}

// A base classified with the dynamic engine, so the refresh can patch it.
Classification DynamicClassify(const dllite::Ontology& onto) {
  ClassificationOptions opts;
  opts.engine = graph::ClosureEngine::kDynamic;
  return Classify(onto.tbox(), onto.vocab(), opts);
}

graph::DynamicClosure::PatchOptions PatchAlways() {
  graph::DynamicClosure::PatchOptions o;
  o.fallback_fraction = 1.0;
  return o;
}

TEST(RefreshClassificationTest, AdditionPatchesInPlace) {
  Ontology base = MustParse("concept A B C D\nrole P\nA <= B\nB <= C\n");
  Ontology next =
      MustParse("concept A B C D\nrole P\nA <= B\nB <= C\nC <= D\n");
  Classification cls = DynamicClassify(base);

  RefreshStats stats;
  Classification refreshed = RefreshClassification(
      cls, next.tbox(), next.vocab(), PatchAlways(), &stats);
  EXPECT_FALSE(stats.fell_back_scratch);
  EXPECT_GT(stats.patched_nodes, 0u);
  ExpectSameClassification(refreshed, next);
  // A, B and C all gained D as a superclass.
  EXPECT_EQ(refreshed.SuperConcepts(0),
            (std::vector<dllite::ConceptId>{1, 2, 3}));
}

TEST(RefreshClassificationTest, RemovalDropsStaleSubsumptions) {
  Ontology base =
      MustParse("concept A B C D\nrole P\nA <= B\nB <= C\nC <= D\n");
  Ontology next = MustParse("concept A B C D\nrole P\nA <= B\nC <= D\n");
  Classification cls = DynamicClassify(base);

  RefreshStats stats;
  Classification refreshed = RefreshClassification(
      cls, next.tbox(), next.vocab(), PatchAlways(), &stats);
  EXPECT_FALSE(stats.fell_back_scratch);
  ExpectSameClassification(refreshed, next);
  EXPECT_EQ(refreshed.SuperConcepts(0),
            (std::vector<dllite::ConceptId>{1}));  // A <= B only
}

TEST(RefreshClassificationTest, RemovalRepairsUnsatisfiability) {
  // A is unsatisfiable in the base (A <= B, A <= C, B <= not C); dropping
  // A <= C must clear the Ω_T contribution through the patched closures.
  Ontology base =
      MustParse("concept A B C\nA <= B\nA <= C\nB <= not C\n");
  Ontology next = MustParse("concept A B C\nA <= B\nB <= not C\n");
  Classification cls = DynamicClassify(base);
  ASSERT_EQ(cls.UnsatisfiableConcepts(),
            (std::vector<dllite::ConceptId>{0}));

  RefreshStats stats;
  Classification refreshed = RefreshClassification(
      cls, next.tbox(), next.vocab(), PatchAlways(), &stats);
  ExpectSameClassification(refreshed, next);
  EXPECT_TRUE(refreshed.UnsatisfiableConcepts().empty());
}

TEST(RefreshClassificationTest, CycleEditsStayExact) {
  // Equivalence cycle A = B = C (via inclusions); the edit breaks the
  // cycle — the DRed over-delete/re-derive path over a genuine SCC.
  Ontology base =
      MustParse("concept A B C D\nA <= B\nB <= C\nC <= A\nC <= D\n");
  Ontology next =
      MustParse("concept A B C D\nA <= B\nC <= A\nC <= D\n");
  Classification cls = DynamicClassify(base);
  ASSERT_EQ(cls.SuperConcepts(0), (std::vector<dllite::ConceptId>{1, 2, 3}));

  RefreshStats stats;
  Classification refreshed = RefreshClassification(
      cls, next.tbox(), next.vocab(), PatchAlways(), &stats);
  EXPECT_FALSE(stats.fell_back_scratch);
  ExpectSameClassification(refreshed, next);
  EXPECT_EQ(refreshed.SuperConcepts(0), (std::vector<dllite::ConceptId>{1}));
}

TEST(RefreshClassificationTest, LayoutShiftFallsBackToScratch) {
  Ontology base = MustParse("concept A B\nA <= B\n");
  // One more concept: every role/attribute node id would shift, so the
  // refresh must not attempt a patch.
  Ontology next = MustParse("concept A B C\nA <= B\nB <= C\n");
  Classification cls = DynamicClassify(base);

  RefreshStats stats;
  Classification refreshed = RefreshClassification(
      cls, next.tbox(), next.vocab(), PatchAlways(), &stats);
  EXPECT_TRUE(stats.fell_back_scratch);
  ExpectSameClassification(refreshed, next);
}

TEST(RefreshClassificationTest, NonPatchableBaseFallsBackToScratch) {
  Ontology base = MustParse("concept A B C\nA <= B\n");
  Ontology next = MustParse("concept A B C\nA <= B\nB <= C\n");
  // The bfs engine's closure is not a DynamicClosure, so the refresh
  // cannot patch it.
  ClassificationOptions bfs;
  bfs.engine = graph::ClosureEngine::kBfs;
  Classification cls = Classify(base.tbox(), base.vocab(), bfs);

  RefreshStats stats;
  Classification refreshed = RefreshClassification(
      cls, next.tbox(), next.vocab(), PatchAlways(), &stats);
  EXPECT_TRUE(stats.fell_back_scratch);
  ExpectSameClassification(refreshed, next);
}

TEST(RefreshClassificationTest, DefaultEngineBaseIsPatched) {
  Ontology base = MustParse("concept A B C D\nA <= B\n");
  Ontology next = MustParse("concept A B C D\nA <= B\nC <= D\n");
  Classification cls = Classify(base.tbox(), base.vocab());

  RefreshStats stats;
  Classification refreshed = RefreshClassification(
      cls, next.tbox(), next.vocab(), PatchAlways(), &stats);
  EXPECT_FALSE(stats.fell_back_scratch);
  EXPECT_GT(stats.patched_nodes, 0u);
  EXPECT_GT(stats.reused_components, 0u);
  ExpectSameClassification(refreshed, next);
}

TEST(RefreshClassificationTest, LargeDeltaFallsBackByFraction) {
  Ontology base = MustParse("concept A B C D\nA <= B\n");
  // Every concept's subsumers change: the dirty fraction exceeds any
  // reasonable threshold, so the default options take the scratch path.
  Ontology next =
      MustParse("concept A B C D\nA <= B\nB <= C\nC <= D\nD <= A\n");
  Classification cls = DynamicClassify(base);

  RefreshStats stats;
  graph::DynamicClosure::PatchOptions tight;
  tight.fallback_fraction = 0.1;
  Classification refreshed = RefreshClassification(
      cls, next.tbox(), next.vocab(), tight, &stats);
  EXPECT_TRUE(stats.fell_back_scratch);
  ExpectSameClassification(refreshed, next);
  // The fallback classifies with the default engine, so the *next* delta
  // can patch again.
  Ontology after =
      MustParse("concept A B C D\nA <= B\nB <= C\nC <= D\n");
  RefreshStats again;
  Classification chained = RefreshClassification(
      refreshed, after.tbox(), after.vocab(), PatchAlways(), &again);
  EXPECT_FALSE(again.fell_back_scratch);
  ExpectSameClassification(chained, after);
}

}  // namespace
}  // namespace olite::core

#include <gtest/gtest.h>

#include "owl/ontology.h"
#include "reasoner/tableau.h"
#include "reasoner/tableau_classifier.h"

namespace olite::reasoner {
namespace {

using dllite::BasicRole;
using owl::ClassExprPtr;
using owl::OwlAxiom;
using owl::OwlOntology;
using owl::ParseOwl;

std::unique_ptr<OwlOntology> MustParse(const char* text) {
  auto r = ParseOwl(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

bool Sat(TableauReasoner& reasoner, ClassExprPtr c) {
  auto r = reasoner.IsSatisfiable(c);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() && *r;
}

TEST(TableauTest, PropositionalBasics) {
  OwlOntology onto;
  auto& f = onto.factory();
  auto a = f.Atomic(onto.vocab().InternConcept("A"));
  TableauReasoner reasoner(onto);
  EXPECT_TRUE(Sat(reasoner, a));
  EXPECT_TRUE(Sat(reasoner, f.Thing()));
  EXPECT_FALSE(Sat(reasoner, f.Nothing()));
  EXPECT_FALSE(Sat(reasoner, f.And({a, f.Not(a)})));
  EXPECT_TRUE(Sat(reasoner, f.Or({a, f.Not(a)})));
}

TEST(TableauTest, DisjunctionNeedsBacktracking) {
  OwlOntology onto;
  auto& f = onto.factory();
  auto a = f.Atomic(onto.vocab().InternConcept("A"));
  auto b = f.Atomic(onto.vocab().InternConcept("B"));
  // (A ⊔ B) ⊓ ¬A ⊓ ¬B is unsat; (A ⊔ B) ⊓ ¬A is sat via B.
  TableauReasoner reasoner(onto);
  EXPECT_FALSE(Sat(reasoner, f.And({f.Or({a, b}), f.Not(a), f.Not(b)})));
  EXPECT_TRUE(Sat(reasoner, f.And({f.Or({a, b}), f.Not(a)})));
}

TEST(TableauTest, ExistentialAndUniversalInteract) {
  OwlOntology onto;
  auto& f = onto.factory();
  auto a = f.Atomic(onto.vocab().InternConcept("A"));
  auto p = BasicRole::Direct(onto.vocab().InternRole("p"));
  TableauReasoner reasoner(onto);
  // ∃p.A ⊓ ∀p.¬A is unsat.
  EXPECT_FALSE(Sat(reasoner, f.And({f.Some(p, a), f.All(p, f.Not(a))})));
  // ∃p.A ⊓ ∀p.A is sat.
  EXPECT_TRUE(Sat(reasoner, f.And({f.Some(p, a), f.All(p, a)})));
  // ∀p.⊥ alone is sat (no successor needed).
  EXPECT_TRUE(Sat(reasoner, f.All(p, f.Nothing())));
  // ∃p.⊤ ⊓ ∀p.⊥ is unsat.
  EXPECT_FALSE(Sat(reasoner,
                   f.And({f.Some(p, f.Thing()), f.All(p, f.Nothing())})));
}

TEST(TableauTest, InverseRolePropagation) {
  OwlOntology onto;
  auto& f = onto.factory();
  auto a = f.Atomic(onto.vocab().InternConcept("A"));
  auto p = BasicRole::Direct(onto.vocab().InternRole("p"));
  TableauReasoner reasoner(onto);
  // ¬A ⊓ ∃p.(∀p⁻.A): the universal fires back onto the root. Unsat.
  EXPECT_FALSE(
      Sat(reasoner, f.And({f.Not(a), f.Some(p, f.All(p.Inverted(), a))})));
  EXPECT_TRUE(Sat(reasoner, f.And({a, f.Some(p, f.All(p.Inverted(), a))})));
}

TEST(TableauTest, GciInternalisation) {
  auto onto = MustParse(R"(
SubClassOf(:A :B)
SubClassOf(:B :C)
DisjointClasses(:A :D)
)");
  auto& f = onto->factory();
  auto atom = [&](const char* n) {
    return f.Atomic(onto->vocab().FindConcept(n).value());
  };
  TableauReasoner reasoner(*onto);
  EXPECT_FALSE(Sat(reasoner, f.And({atom("A"), f.Not(atom("C"))})));
  EXPECT_FALSE(Sat(reasoner, f.And({atom("A"), atom("D")})));
  EXPECT_TRUE(Sat(reasoner, f.And({atom("B"), f.Not(atom("A"))})));
  auto sub = reasoner.IsSubsumedBy(atom("A"), atom("C"));
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(*sub);
  auto nsub = reasoner.IsSubsumedBy(atom("C"), atom("A"));
  ASSERT_TRUE(nsub.ok());
  EXPECT_FALSE(*nsub);
}

TEST(TableauTest, CyclicTBoxNeedsBlocking) {
  // Person ⊑ ∃hasParent.Person — an infinite model exists; equality
  // blocking must terminate the expansion and report satisfiable.
  auto onto = MustParse(
      "SubClassOf(:Person ObjectSomeValuesFrom(:hasParent :Person))");
  auto& f = onto->factory();
  auto person = f.Atomic(onto->vocab().FindConcept("Person").value());
  TableauReasoner reasoner(*onto);
  EXPECT_TRUE(Sat(reasoner, person));
}

TEST(TableauTest, BlockingWithInverseStillSound) {
  // A ⊑ ∃p.A and A ⊑ ∀p⁻.B, A ⊓ ¬B sat? root: A, ¬B; successors all A⊑…;
  // the ∀p⁻.B of the child pushes B onto the root → clash with ¬B.
  auto onto = MustParse(R"(
SubClassOf(:A ObjectSomeValuesFrom(:p :A))
SubClassOf(:A ObjectAllValuesFrom(ObjectInverseOf(:p) :B))
)");
  auto& f = onto->factory();
  auto a = f.Atomic(onto->vocab().FindConcept("A").value());
  auto b = f.Atomic(onto->vocab().FindConcept("B").value());
  TableauReasoner reasoner(*onto);
  EXPECT_FALSE(Sat(reasoner, f.And({a, f.Not(b)})));
  EXPECT_TRUE(Sat(reasoner, a));
}

TEST(TableauTest, RoleHierarchyInUniversals) {
  // p ⊑ q; ∃p.A ⊓ ∀q.¬A is unsat because the p-successor is a q-neighbor.
  auto onto = MustParse("SubObjectPropertyOf(:p :q)");
  auto& f = onto->factory();
  auto a = f.Atomic(onto->vocab().InternConcept("A"));
  auto p = BasicRole::Direct(onto->vocab().FindRole("p").value());
  auto q = BasicRole::Direct(onto->vocab().FindRole("q").value());
  TableauReasoner reasoner(*onto);
  EXPECT_FALSE(Sat(reasoner, f.And({f.Some(p, a), f.All(q, f.Not(a))})));
  // The converse direction does not hold.
  EXPECT_TRUE(Sat(reasoner, f.And({f.Some(q, a), f.All(p, f.Not(a))})));
  EXPECT_TRUE(reasoner.RoleSubsumedSyntactically(p, q));
  EXPECT_TRUE(reasoner.RoleSubsumedSyntactically(p.Inverted(), q.Inverted()));
  EXPECT_FALSE(reasoner.RoleSubsumedSyntactically(q, p));
}

TEST(TableauTest, InversePropertiesAxiom) {
  // hasChild ≡ hasParent⁻.
  auto onto = MustParse("InverseObjectProperties(:hasParent :hasChild)");
  auto& f = onto->factory();
  auto a = f.Atomic(onto->vocab().InternConcept("A"));
  auto parent = BasicRole::Direct(onto->vocab().FindRole("hasParent").value());
  auto child = BasicRole::Direct(onto->vocab().FindRole("hasChild").value());
  TableauReasoner reasoner(*onto);
  EXPECT_FALSE(Sat(reasoner, f.And({f.Some(child, a),
                                    f.All(parent.Inverted(), f.Not(a))})));
}

TEST(TableauTest, DomainAndRangeAxioms) {
  auto onto = MustParse(R"(
ObjectPropertyDomain(:teaches :Teacher)
ObjectPropertyRange(:teaches :Course)
DisjointClasses(:Teacher :Course)
)");
  auto& f = onto->factory();
  auto teacher = f.Atomic(onto->vocab().FindConcept("Teacher").value());
  auto teaches = BasicRole::Direct(onto->vocab().FindRole("teaches").value());
  TableauReasoner reasoner(*onto);
  // ∃teaches.⊤ ⊑ Teacher.
  auto dom = reasoner.IsSubsumedBy(f.Some(teaches, f.Thing()), teacher);
  ASSERT_TRUE(dom.ok());
  EXPECT_TRUE(*dom);
  // A course cannot teach itself-ish: ∃teaches.⊤ ⊓ Course is unsat.
  auto course = f.Atomic(onto->vocab().FindConcept("Course").value());
  EXPECT_FALSE(Sat(reasoner, f.And({course, f.Some(teaches, f.Thing())})));
}

TEST(TableauTest, EntailsAxiomForms) {
  auto onto = MustParse(R"(
SubClassOf(:A :B)
SubClassOf(:B :A)
DisjointClasses(:B :C)
SubObjectPropertyOf(:p :q)
ObjectPropertyRange(:p :C)
)");
  auto& v = onto->vocab();
  auto& f = onto->factory();
  auto atom = [&](const char* n) { return f.Atomic(v.FindConcept(n).value()); };
  TableauReasoner reasoner(*onto);

  auto check = [&](OwlAxiom ax, bool expect) {
    auto r = reasoner.EntailsAxiom(ax);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, expect) << ax.ToString(v);
  };
  check(OwlAxiom::EquivalentClasses({atom("A"), atom("B")}), true);
  check(OwlAxiom::EquivalentClasses({atom("A"), atom("C")}), false);
  check(OwlAxiom::DisjointClasses({atom("A"), atom("C")}), true);
  check(OwlAxiom::SubObjectPropertyOf(
            BasicRole::Direct(v.FindRole("p").value()),
            BasicRole::Direct(v.FindRole("q").value())),
        true);
  check(OwlAxiom::Range(BasicRole::Direct(v.FindRole("p").value()),
                        atom("C")),
        true);
  check(OwlAxiom::Domain(BasicRole::Direct(v.FindRole("p").value()),
                         atom("A")),
        false);
}

TEST(TableauTest, BudgetExhaustionReportsError) {
  auto onto = MustParse(
      "SubClassOf(:A ObjectSomeValuesFrom(:p ObjectUnionOf(:A :B)))\n"
      "SubClassOf(:B ObjectSomeValuesFrom(:p ObjectUnionOf(:A :B)))\n");
  auto& f = onto->factory();
  auto a = f.Atomic(onto->vocab().FindConcept("A").value());
  TableauOptions opts;
  opts.max_rule_applications = 10;  // absurdly small
  TableauReasoner reasoner(*onto, opts);
  auto r = reasoner.IsSatisfiable(a);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Tableau classifier
// ---------------------------------------------------------------------------

class StrategyTest : public ::testing::TestWithParam<ClassifyStrategy> {
 protected:
  TableauClassifierOptions Opts() const {
    TableauClassifierOptions o;
    o.strategy = GetParam();
    return o;
  }
};

TEST_P(StrategyTest, SimpleTaxonomy) {
  auto onto = MustParse(R"(
Declaration(Class(:Animal))
Declaration(Class(:Mammal))
Declaration(Class(:Dog))
Declaration(Class(:Plant))
SubClassOf(:Mammal :Animal)
SubClassOf(:Dog :Mammal)
DisjointClasses(:Animal :Plant)
)");
  auto result = ClassifyWithTableau(*onto, Opts());
  ASSERT_TRUE(result.completed);
  auto& v = onto->vocab();
  auto id = [&](const char* n) { return v.FindConcept(n).value(); };
  EXPECT_EQ(result.concept_subsumers[id("Dog")],
            (std::vector<dllite::ConceptId>{id("Animal"), id("Mammal")}));
  EXPECT_EQ(result.concept_subsumers[id("Mammal")],
            (std::vector<dllite::ConceptId>{id("Animal")}));
  EXPECT_TRUE(result.concept_subsumers[id("Animal")].empty());
  EXPECT_TRUE(result.unsatisfiable.empty());
}

TEST_P(StrategyTest, NonToldSubsumptionViaDomain) {
  // Dog ⊑ ∃owns.⊤ and Domain(owns) = Owner gives the non-told Dog ⊑ Owner.
  auto onto = MustParse(R"(
Declaration(Class(:Dog))
Declaration(Class(:Owner))
SubClassOf(:Dog ObjectSomeValuesFrom(:owns owl:Thing))
ObjectPropertyDomain(:owns :Owner)
)");
  auto result = ClassifyWithTableau(*onto, Opts());
  ASSERT_TRUE(result.completed);
  auto& v = onto->vocab();
  EXPECT_EQ(result.concept_subsumers[v.FindConcept("Dog").value()],
            (std::vector<dllite::ConceptId>{v.FindConcept("Owner").value()}));
}

TEST_P(StrategyTest, UnsatisfiableConceptGetsAllSubsumers) {
  auto onto = MustParse(R"(
Declaration(Class(:A))
Declaration(Class(:B))
Declaration(Class(:C))
SubClassOf(:A :B)
SubClassOf(:A :C)
DisjointClasses(:B :C)
)");
  auto result = ClassifyWithTableau(*onto, Opts());
  ASSERT_TRUE(result.completed);
  auto& v = onto->vocab();
  auto a = v.FindConcept("A").value();
  EXPECT_EQ(result.unsatisfiable, (std::vector<dllite::ConceptId>{a}));
  EXPECT_EQ(result.concept_subsumers[a].size(), 2u);
}

TEST_P(StrategyTest, EquivalentConcepts) {
  auto onto = MustParse(R"(
Declaration(Class(:Human))
Declaration(Class(:Person))
Declaration(Class(:Agent))
EquivalentClasses(:Human :Person)
SubClassOf(:Person :Agent)
)");
  auto result = ClassifyWithTableau(*onto, Opts());
  ASSERT_TRUE(result.completed);
  auto& v = onto->vocab();
  auto human = v.FindConcept("Human").value();
  auto person = v.FindConcept("Person").value();
  auto agent = v.FindConcept("Agent").value();
  std::vector<dllite::ConceptId> expected_h = {person, agent};
  std::sort(expected_h.begin(), expected_h.end());
  EXPECT_EQ(result.concept_subsumers[human], expected_h);
  std::vector<dllite::ConceptId> expected_p = {human, agent};
  std::sort(expected_p.begin(), expected_p.end());
  EXPECT_EQ(result.concept_subsumers[person], expected_p);
}

TEST_P(StrategyTest, RoleHierarchyIncluded) {
  auto onto = MustParse(R"(
SubObjectPropertyOf(:p :q)
SubObjectPropertyOf(:q :r)
)");
  auto result = ClassifyWithTableau(*onto, Opts());
  ASSERT_TRUE(result.completed);
  auto& v = onto->vocab();
  auto p = v.FindRole("p").value();
  EXPECT_EQ(result.role_subsumers[p],
            (std::vector<dllite::RoleId>{v.FindRole("q").value(),
                                         v.FindRole("r").value()}));
}

TEST_P(StrategyTest, TimeBudgetProducesPartialResult) {
  auto onto = MustParse(R"(
Declaration(Class(:A))
Declaration(Class(:B))
Declaration(Class(:C))
SubClassOf(:A :B)
SubClassOf(:B :C)
)");
  TableauClassifierOptions opts = Opts();
  opts.time_budget_ms = 0.0;  // immediate timeout
  auto result = ClassifyWithTableau(*onto, opts);
  EXPECT_FALSE(result.completed);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         ::testing::Values(ClassifyStrategy::kNaivePairwise,
                                           ClassifyStrategy::kToldPruned,
                                           ClassifyStrategy::kEnhancedTraversal),
                         [](const auto& pinfo) {
                           return ClassifyStrategyName(pinfo.param);
                         });

TEST(TableauClassifierTest, EnhancedMatchesNaiveOnMixedOntology) {
  auto onto = MustParse(R"(
Declaration(Class(:A)) Declaration(Class(:B)) Declaration(Class(:C))
Declaration(Class(:D)) Declaration(Class(:E))
SubClassOf(:A :B)
SubClassOf(:B :C)
SubClassOf(:D ObjectSomeValuesFrom(:p :A))
ObjectPropertyDomain(:p :E)
EquivalentClasses(:C ObjectUnionOf(:C :B))
DisjointClasses(:B :E)
)");
  TableauClassifierOptions naive;
  naive.strategy = ClassifyStrategy::kNaivePairwise;
  TableauClassifierOptions enhanced;
  enhanced.strategy = ClassifyStrategy::kEnhancedTraversal;
  auto rn = ClassifyWithTableau(*onto, naive);
  auto re = ClassifyWithTableau(*onto, enhanced);
  ASSERT_TRUE(rn.completed);
  ASSERT_TRUE(re.completed);
  EXPECT_EQ(rn.concept_subsumers, re.concept_subsumers);
  EXPECT_EQ(rn.unsatisfiable, re.unsatisfiable);
  // Enhanced traversal should not need more tests than naive.
  EXPECT_LE(re.sat_tests, rn.sat_tests);
}

// A taxonomy with equivalences, non-primitive concepts (⇒ bottom search),
// an unsatisfiable concept and a role hierarchy; two runs of every
// strategy must produce the same result, including the number of sat
// tests issued.
TEST(TableauClassifierTest, ParallelClassificationIsDeterministic) {
  auto onto = MustParse(R"(
Declaration(Class(:A)) Declaration(Class(:B)) Declaration(Class(:C))
Declaration(Class(:D)) Declaration(Class(:E)) Declaration(Class(:F))
Declaration(Class(:G)) Declaration(Class(:H))
SubClassOf(:A :B)
SubClassOf(:B :C)
SubClassOf(:D :C)
SubClassOf(:E ObjectSomeValuesFrom(:p :A))
SubClassOf(:F ObjectIntersectionOf(:B :D))
EquivalentClasses(:G ObjectIntersectionOf(:B :D))
ObjectPropertyDomain(:p :C)
DisjointClasses(:A :D)
SubClassOf(:H :A)
SubClassOf(:H :D)
SubObjectPropertyOf(:p :q)
)");
  for (ClassifyStrategy strategy :
       {ClassifyStrategy::kNaivePairwise, ClassifyStrategy::kToldPruned,
        ClassifyStrategy::kEnhancedTraversal}) {
    TableauClassifierOptions opts;
    opts.strategy = strategy;
    auto first = ClassifyWithTableau(*onto, opts);
    auto second = ClassifyWithTableau(*onto, opts);
    ASSERT_TRUE(first.completed) << ClassifyStrategyName(strategy);
    ASSERT_TRUE(second.completed) << ClassifyStrategyName(strategy);
    EXPECT_EQ(second.concept_subsumers, first.concept_subsumers)
        << ClassifyStrategyName(strategy);
    EXPECT_EQ(second.role_subsumers, first.role_subsumers);
    EXPECT_EQ(second.unsatisfiable, first.unsatisfiable)
        << ClassifyStrategyName(strategy);
    EXPECT_EQ(second.sat_tests, first.sat_tests)
        << ClassifyStrategyName(strategy);
  }
}

}  // namespace
}  // namespace olite::reasoner

#include <gtest/gtest.h>

#include "owl/ontology.h"

namespace olite::owl {
namespace {

using dllite::BasicRole;

class ExprTest : public ::testing::Test {
 protected:
  OwlOntology onto_;
  ExprFactory& f_ = onto_.factory();
  dllite::ConceptId a_ = onto_.vocab().InternConcept("A");
  dllite::ConceptId b_ = onto_.vocab().InternConcept("B");
  dllite::RoleId p_ = onto_.vocab().InternRole("p");
};

TEST_F(ExprTest, InterningGivesPointerEquality) {
  EXPECT_EQ(f_.Atomic(a_), f_.Atomic(a_));
  EXPECT_NE(f_.Atomic(a_), f_.Atomic(b_));
  EXPECT_EQ(f_.Some(BasicRole::Direct(p_), f_.Atomic(a_)),
            f_.Some(BasicRole::Direct(p_), f_.Atomic(a_)));
  EXPECT_NE(f_.Some(BasicRole::Direct(p_), f_.Atomic(a_)),
            f_.Some(BasicRole::Inverse(p_), f_.Atomic(a_)));
}

TEST_F(ExprTest, AndCanonicalisation) {
  ClassExprPtr ab = f_.And({f_.Atomic(a_), f_.Atomic(b_)});
  ClassExprPtr ba = f_.And({f_.Atomic(b_), f_.Atomic(a_)});
  EXPECT_EQ(ab, ba);  // sorted operands
  EXPECT_EQ(f_.And({f_.Atomic(a_), f_.Atomic(a_)}), f_.Atomic(a_));
  EXPECT_EQ(f_.And({}), f_.Thing());
  EXPECT_EQ(f_.And({f_.Atomic(a_), f_.Nothing()}), f_.Nothing());
  EXPECT_EQ(f_.And({f_.Atomic(a_), f_.Thing()}), f_.Atomic(a_));
  // Nested intersections flatten.
  EXPECT_EQ(f_.And({ab, f_.Atomic(a_)}), ab);
}

TEST_F(ExprTest, OrCanonicalisation) {
  EXPECT_EQ(f_.Or({}), f_.Nothing());
  EXPECT_EQ(f_.Or({f_.Atomic(a_), f_.Thing()}), f_.Thing());
  EXPECT_EQ(f_.Or({f_.Atomic(a_), f_.Nothing()}), f_.Atomic(a_));
  EXPECT_EQ(f_.Or({f_.Atomic(a_), f_.Atomic(b_)}),
            f_.Or({f_.Atomic(b_), f_.Atomic(a_)}));
}

TEST_F(ExprTest, NotSimplifies) {
  EXPECT_EQ(f_.Not(f_.Not(f_.Atomic(a_))), f_.Atomic(a_));
  EXPECT_EQ(f_.Not(f_.Thing()), f_.Nothing());
  EXPECT_EQ(f_.Not(f_.Nothing()), f_.Thing());
}

TEST_F(ExprTest, CardinalityRewrites) {
  EXPECT_EQ(f_.AtLeast(0, BasicRole::Direct(p_), f_.Atomic(a_)), f_.Thing());
  EXPECT_EQ(f_.AtLeast(1, BasicRole::Direct(p_), f_.Atomic(a_)),
            f_.Some(BasicRole::Direct(p_), f_.Atomic(a_)));
  ClassExprPtr two = f_.AtLeast(2, BasicRole::Direct(p_), f_.Atomic(a_));
  EXPECT_EQ(two->kind(), ExprKind::kAtLeast);
  EXPECT_EQ(two->cardinality(), 2u);
}

TEST_F(ExprTest, NnfPushesNegation) {
  ClassExprPtr e = f_.Not(f_.And(
      {f_.Atomic(a_), f_.Some(BasicRole::Direct(p_), f_.Atomic(b_))}));
  ClassExprPtr nnf = f_.Nnf(e);
  // ¬(A ⊓ ∃p.B) = ¬A ⊔ ∀p.¬B
  EXPECT_EQ(nnf, f_.Or({f_.Not(f_.Atomic(a_)),
                        f_.All(BasicRole::Direct(p_),
                               f_.Not(f_.Atomic(b_)))}));
  // NNF is idempotent.
  EXPECT_EQ(f_.Nnf(nnf), nnf);
}

TEST_F(ExprTest, NnfOfQuantifiers) {
  ClassExprPtr e =
      f_.Not(f_.All(BasicRole::Inverse(p_), f_.Not(f_.Atomic(a_))));
  EXPECT_EQ(f_.Nnf(e), f_.Some(BasicRole::Inverse(p_), f_.Atomic(a_)));
}

TEST_F(ExprTest, ToStringRoundsReadably) {
  ClassExprPtr e = f_.Some(BasicRole::Direct(p_),
                           f_.And({f_.Atomic(a_), f_.Atomic(b_)}));
  EXPECT_EQ(e->ToString(onto_.vocab()),
            "ObjectSomeValuesFrom(p ObjectIntersectionOf(A B))");
  EXPECT_EQ(f_.Thing()->ToString(onto_.vocab()), "owl:Thing");
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(OwlParserTest, ParsesPlainAxioms) {
  auto r = ParseOwl(R"(
Ontology(
  Declaration(Class(:A))
  Declaration(Class(:B))
  Declaration(ObjectProperty(:p))
  SubClassOf(:A :B)
  SubClassOf(:A ObjectSomeValuesFrom(:p :B))
  DisjointClasses(:A :B)
)
)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const OwlOntology& onto = **r;
  EXPECT_EQ(onto.vocab().NumConcepts(), 2u);
  EXPECT_EQ(onto.vocab().NumRoles(), 1u);
  ASSERT_EQ(onto.axioms().size(), 3u);
  EXPECT_EQ(onto.axioms()[0].kind, AxiomKind::kSubClassOf);
  EXPECT_EQ(onto.axioms()[1].classes[1]->kind(), ExprKind::kSome);
  EXPECT_EQ(onto.axioms()[2].kind, AxiomKind::kDisjointClasses);
}

TEST(OwlParserTest, ParsesRoleAxiomsAndInverse) {
  auto r = ParseOwl(R"(
SubObjectPropertyOf(:p :q)
InverseObjectProperties(:p :pInv)
ObjectPropertyDomain(:p :A)
ObjectPropertyRange(ObjectInverseOf(:p) :B)
DisjointObjectProperties(:p :q)
)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& axs = (*r)->axioms();
  ASSERT_EQ(axs.size(), 5u);
  EXPECT_EQ(axs[0].kind, AxiomKind::kSubObjectPropertyOf);
  EXPECT_EQ(axs[1].kind, AxiomKind::kInverseProperties);
  EXPECT_EQ(axs[3].kind, AxiomKind::kObjectPropertyRange);
  EXPECT_TRUE(axs[3].roles[0].inverse);
}

TEST(OwlParserTest, ParsesNestedExpressions) {
  auto r = ParseOwl(
      "EquivalentClasses(:A ObjectIntersectionOf(:B "
      "ObjectAllValuesFrom(:p ObjectUnionOf(:C ObjectComplementOf(:D)))))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& ax = (*r)->axioms()[0];
  EXPECT_EQ(ax.kind, AxiomKind::kEquivalentClasses);
  EXPECT_EQ(ax.classes[1]->kind(), ExprKind::kIntersection);
}

TEST(OwlParserTest, StripsPrefixesAndIris) {
  auto r = ParseOwl(
      "SubClassOf(ns:Person <http://example.org/onto#Agent>)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& v = (*r)->vocab();
  EXPECT_TRUE(v.FindConcept("Person").has_value());
  EXPECT_TRUE(v.FindConcept("Agent").has_value());
}

TEST(OwlParserTest, MinCardinalityOneBecomesSome) {
  auto r = ParseOwl("SubClassOf(:A ObjectMinCardinality(1 :p :B))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->axioms()[0].classes[1]->kind(), ExprKind::kSome);
}

TEST(OwlParserTest, RejectsUnsupportedConstructs) {
  EXPECT_EQ(ParseOwl("SubClassOf(:A ObjectMinCardinality(2 :p :B))")
                .status()
                .code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(ParseOwl("TransitiveObjectProperty(:p)").status().code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(ParseOwl("SubClassOf(:A ObjectMaxCardinality(1 :p))")
                .status()
                .code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(ParseOwl("SubClassOf(:A)").status().code(),
            StatusCode::kParseError);
}

TEST(OwlParserTest, SkipsPrefixAndComments) {
  auto r = ParseOwl(R"(
# a comment
Prefix(ns:=<http://example.org/>)
SubClassOf(:A :B)
)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->axioms().size(), 1u);
}

TEST(OwlParserTest, RoundTripThroughToString) {
  auto r = ParseOwl(R"(
Ontology(
  Declaration(Class(:A))
  Declaration(Class(:B))
  Declaration(ObjectProperty(:p))
  SubClassOf(:A ObjectSomeValuesFrom(:p :B))
  EquivalentClasses(:A ObjectIntersectionOf(:A :B))
  ObjectPropertyDomain(:p :A)
)
)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text = (*r)->ToString();
  auto r2 = ParseOwl(text);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString() << "\n" << text;
  EXPECT_EQ((*r2)->axioms().size(), (*r)->axioms().size());
  EXPECT_EQ((*r2)->ToString(), text);
}

}  // namespace
}  // namespace olite::owl

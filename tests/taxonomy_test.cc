#include <gtest/gtest.h>

#include <string>

#include "core/taxonomy.h"
#include "dllite/ontology.h"

namespace olite::core {
namespace {

using dllite::Ontology;
using dllite::ParseOntology;

Taxonomy Build(const char* text) {
  auto r = ParseOntology(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  Classification cls = Classify(r->tbox(), r->vocab());
  return Taxonomy::Build(cls);
}

TEST(TaxonomyTest, SimpleTreeHasDirectEdgesOnly) {
  Taxonomy t = Build("concept Animal Mammal Dog Cat\n"
                     "Mammal <= Animal\nDog <= Mammal\nCat <= Mammal\n");
  ASSERT_EQ(t.nodes().size(), 4u);
  // Dog's only direct parent is Mammal, not Animal.
  uint32_t dog = t.NodeOf(2);
  ASSERT_EQ(t.nodes()[dog].direct_parents.size(), 1u);
  EXPECT_EQ(t.nodes()[dog].direct_parents[0], t.NodeOf(1));
  EXPECT_EQ(t.DepthOf(dog), 2u);
  EXPECT_EQ(t.Roots().size(), 1u);
  EXPECT_EQ(t.Roots()[0], t.NodeOf(0));
}

TEST(TaxonomyTest, EquivalentConceptsShareANode) {
  Taxonomy t = Build("concept Human Person Agent\n"
                     "Human <= Person\nPerson <= Human\nPerson <= Agent\n");
  ASSERT_EQ(t.nodes().size(), 2u);
  EXPECT_EQ(t.NodeOf(0), t.NodeOf(1));
  EXPECT_EQ(t.nodes()[t.NodeOf(0)].members.size(), 2u);
  EXPECT_EQ(t.DepthOf(t.NodeOf(0)), 1u);
}

TEST(TaxonomyTest, UnsatisfiableConceptsReportedSeparately) {
  Taxonomy t = Build("concept A B C\nA <= B\nA <= C\nB <= not C\n");
  EXPECT_EQ(t.unsatisfiable(), (std::vector<dllite::ConceptId>{0}));
  EXPECT_EQ(t.nodes().size(), 2u);  // B and C
}

TEST(TaxonomyTest, DiamondKeepsBothParents) {
  Taxonomy t = Build("concept Top Left Right Bottom\n"
                     "Left <= Top\nRight <= Top\n"
                     "Bottom <= Left\nBottom <= Right\n");
  uint32_t bottom = t.NodeOf(3);
  EXPECT_EQ(t.nodes()[bottom].direct_parents.size(), 2u);
  EXPECT_EQ(t.DepthOf(bottom), 2u);
}

TEST(TaxonomyTest, ToStringIndentsHierarchy) {
  Taxonomy t = Build("concept Animal Dog\nDog <= Animal\n");
  auto parsed = ParseOntology("concept Animal Dog\nDog <= Animal\n");
  ASSERT_TRUE(parsed.ok());
  std::string text = t.ToString(parsed->vocab());
  EXPECT_NE(text.find("Animal\n  Dog\n"), std::string::npos);
}

TEST(TaxonomyTest, IsolatedConceptsAreRoots) {
  Taxonomy t = Build("concept A B\n");
  EXPECT_EQ(t.Roots().size(), 2u);
}

TEST(TaxonomyTest, DepthOfDiamondLadderIsLinear) {
  // T(k+1) sits under both L(k) and R(k), which both sit under T(k): the
  // bottom of a 40-diamond ladder has 2^40 parent paths to the root, so a
  // depth that walks every path never returns.
  const int kDiamonds = 40;
  std::string text = "concept T0";
  std::string axioms;
  for (int k = 0; k < kDiamonds; ++k) {
    const std::string t = "T" + std::to_string(k);
    const std::string l = "L" + std::to_string(k);
    const std::string r = "R" + std::to_string(k);
    const std::string next = "T" + std::to_string(k + 1);
    text += " " + l + " " + r + " " + next;
    axioms += l + " <= " + t + "\n" + r + " <= " + t + "\n" + next +
              " <= " + l + "\n" + next + " <= " + r + "\n";
  }
  Taxonomy t = Build((text + "\n" + axioms).c_str());
  ASSERT_EQ(t.nodes().size(), 1u + 3u * kDiamonds);
  // Concept ids follow the declaration: T0, then (L, R, T) per diamond.
  EXPECT_EQ(t.DepthOf(t.NodeOf(0)), 0u);
  EXPECT_EQ(t.DepthOf(t.NodeOf(1)), 1u);
  EXPECT_EQ(t.DepthOf(t.NodeOf(3 * kDiamonds)), 2u * kDiamonds);
}

}  // namespace
}  // namespace olite::core

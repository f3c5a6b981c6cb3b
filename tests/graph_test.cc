#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/closure.h"
#include "graph/digraph.h"
#include "graph/dynamic_closure.h"
#include "graph/scc.h"

namespace olite::graph {
namespace {

TEST(DigraphTest, AddArcGrowsNodes) {
  Digraph g;
  g.AddArc(0, 5);
  EXPECT_EQ(g.NumNodes(), 6u);
  EXPECT_TRUE(g.HasArc(0, 5));
  EXPECT_FALSE(g.HasArc(5, 0));
}

TEST(DigraphTest, FinalizeDeduplicates) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(0, 1);
  g.AddArc(0, 2);
  g.Finalize();
  EXPECT_EQ(g.NumArcs(), 2u);
  EXPECT_EQ(g.Successors(0).size(), 2u);
  EXPECT_TRUE(g.HasArc(0, 1));
}

TEST(DigraphTest, ReversedFlipsArcs) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  Digraph r = g.Reversed();
  EXPECT_TRUE(r.HasArc(1, 0));
  EXPECT_TRUE(r.HasArc(2, 1));
  EXPECT_FALSE(r.HasArc(0, 1));
}

TEST(DigraphTest, ToDotMentionsNodesAndArcs) {
  Digraph g(2);
  g.AddArc(0, 1);
  std::string dot = g.ToDot({"A", "B"});
  EXPECT_NE(dot.find("\"A\" -> \"B\""), std::string::npos);
}

TEST(SccTest, ChainIsAllSingletons) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 3);
  g.Finalize();
  SccResult scc = ComputeScc(g);
  EXPECT_EQ(scc.NumComponents(), 4u);
  for (NodeId c = 0; c < 4; ++c) EXPECT_FALSE(scc.cyclic[c]);
  // Reverse topological numbering: successors get smaller component ids.
  EXPECT_LT(scc.component_of[3], scc.component_of[2]);
  EXPECT_LT(scc.component_of[2], scc.component_of[1]);
  EXPECT_LT(scc.component_of[1], scc.component_of[0]);
}

TEST(SccTest, CycleCollapses) {
  Digraph g(5);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 0);
  g.AddArc(2, 3);
  g.AddArc(4, 0);
  g.Finalize();
  SccResult scc = ComputeScc(g);
  EXPECT_EQ(scc.NumComponents(), 3u);
  EXPECT_EQ(scc.component_of[0], scc.component_of[1]);
  EXPECT_EQ(scc.component_of[1], scc.component_of[2]);
  EXPECT_TRUE(scc.cyclic[scc.component_of[0]]);
  EXPECT_FALSE(scc.cyclic[scc.component_of[3]]);
  EXPECT_FALSE(scc.cyclic[scc.component_of[4]]);
}

TEST(SccTest, SelfLoopIsCyclic) {
  Digraph g(2);
  g.AddArc(0, 0);
  g.Finalize();
  SccResult scc = ComputeScc(g);
  EXPECT_TRUE(scc.cyclic[scc.component_of[0]]);
  EXPECT_FALSE(scc.cyclic[scc.component_of[1]]);
}

TEST(SccTest, CondensationIsAcyclicAndDeduplicated) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(1, 0);
  g.AddArc(0, 2);
  g.AddArc(1, 2);
  g.AddArc(2, 3);
  g.Finalize();
  SccResult scc = ComputeScc(g);
  Digraph dag = BuildCondensation(g, scc);
  EXPECT_EQ(dag.NumNodes(), 3u);
  // The two arcs {0,1}→2 collapse to one.
  NodeId c01 = scc.component_of[0];
  NodeId c2 = scc.component_of[2];
  EXPECT_TRUE(dag.HasArc(c01, c2));
  EXPECT_EQ(dag.Successors(c01).size(), 1u);
}

// ---------------------------------------------------------------------------
// Closure engines: identical semantics across all three implementations.
// ---------------------------------------------------------------------------

class ClosureEngineTest : public ::testing::TestWithParam<ClosureEngine> {
 protected:
  // `kDynamic` names the same engine as `kSccMerge`, so its instantiation
  // builds the closure by patching an arc-less graph up to `g` instead (no
  // scratch fallback): every case then also checks `DynamicClosure::Patched`.
  std::unique_ptr<TransitiveClosure> Build(const Digraph& g) const {
    if (GetParam() != ClosureEngine::kDynamic) {
      return ComputeClosure(g, GetParam());
    }
    Digraph empty(g.NumNodes());
    empty.Finalize();
    DynamicClosure::PatchOptions options;
    options.fallback_fraction = 1.0;
    DynamicClosure::PatchStats stats;
    auto patched = DynamicClosure(empty).Patched(empty, g, options, &stats);
    EXPECT_FALSE(stats.fell_back);
    return patched;
  }
};

TEST_P(ClosureEngineTest, ChainReachability) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 3);
  g.Finalize();
  auto c = Build(g);
  EXPECT_TRUE(c->Reaches(0, 3));
  EXPECT_TRUE(c->Reaches(1, 3));
  EXPECT_FALSE(c->Reaches(3, 0));
  EXPECT_FALSE(c->Reaches(0, 0));  // no cycle: not self-reaching
  EXPECT_EQ(c->ReachableFrom(0), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(c->NumClosureArcs(), 6u);
}

TEST_P(ClosureEngineTest, CycleMembersReachThemselves) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(1, 0);
  g.AddArc(1, 2);
  g.Finalize();
  auto c = Build(g);
  EXPECT_TRUE(c->Reaches(0, 0));
  EXPECT_TRUE(c->Reaches(1, 1));
  EXPECT_FALSE(c->Reaches(2, 2));
  EXPECT_EQ(c->ReachableFrom(0), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(c->ReachableFrom(2), (std::vector<NodeId>{}));
}

TEST_P(ClosureEngineTest, SelfLoop) {
  Digraph g(2);
  g.AddArc(0, 0);
  g.Finalize();
  auto c = Build(g);
  EXPECT_TRUE(c->Reaches(0, 0));
  EXPECT_FALSE(c->Reaches(1, 1));
}

TEST_P(ClosureEngineTest, DiamondDag) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(0, 2);
  g.AddArc(1, 3);
  g.AddArc(2, 3);
  g.Finalize();
  auto c = Build(g);
  EXPECT_EQ(c->ReachableFrom(0), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(c->NumClosureArcs(), 5u);
}

TEST_P(ClosureEngineTest, EmptyAndIsolated) {
  Digraph g(3);
  g.Finalize();
  auto c = Build(g);
  EXPECT_FALSE(c->Reaches(0, 1));
  EXPECT_TRUE(c->ReachableFrom(2).empty());
  EXPECT_EQ(c->NumClosureArcs(), 0u);
}

TEST_P(ClosureEngineTest, RandomGraphAgreesWithBfsOracle) {
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId n = 40;
    Digraph g(n);
    for (int e = 0; e < 120; ++e) {
      g.AddArc(static_cast<NodeId>(rng.Uniform(n)),
               static_cast<NodeId>(rng.Uniform(n)));
    }
    g.Finalize();
    auto oracle = ComputeClosure(g, ClosureEngine::kBfs);
    auto tested = Build(g);
    EXPECT_EQ(tested->NumClosureArcs(), oracle->NumClosureArcs());
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_EQ(tested->ReachableFrom(u), oracle->ReachableFrom(u))
          << "engine " << tested->EngineName() << " node " << u;
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(tested->Reaches(u, v), oracle->Reaches(u, v))
            << "engine " << tested->EngineName() << " " << u << " -> " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ClosureEngineTest,
                         ::testing::Values(ClosureEngine::kBfs,
                                           ClosureEngine::kSccMerge,
                                           ClosureEngine::kDynamic),
                         [](const auto& pinfo) {
                           return ClosureEngineName(pinfo.param);
                         });

// Every engine must agree bit-for-bit with the BFS oracle on random
// digraphs (including dense, cyclic and near-empty shapes). Every engine
// builds serially and ignores the pool argument, so the widths only pin
// that passing a pool of any width leaves the result unchanged.
TEST(ClosureParallelTest, EnginesAgreeAtEveryWidthOnRandomGraphs) {
  const ClosureEngine kEngines[] = {ClosureEngine::kBfs,
                                    ClosureEngine::kSccMerge,
                                    ClosureEngine::kDynamic};
  const unsigned kWidths[] = {1, 2, 8};
  Rng rng(2013);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId n = static_cast<NodeId>(1 + rng.Uniform(60));
    Digraph g(n);
    const uint64_t arcs = rng.Uniform(4 * static_cast<uint64_t>(n) + 1);
    for (uint64_t e = 0; e < arcs; ++e) {
      g.AddArc(static_cast<NodeId>(rng.Uniform(n)),
               static_cast<NodeId>(rng.Uniform(n)));
    }
    g.Finalize();
    auto oracle = ComputeClosure(g, ClosureEngine::kBfs);
    for (ClosureEngine engine : kEngines) {
      for (unsigned width : kWidths) {
        ThreadPool pool(width);
        auto c = ComputeClosure(g, engine, &pool);
        ASSERT_EQ(c->NumClosureArcs(), oracle->NumClosureArcs())
            << c->EngineName() << " width " << width << " trial " << trial;
        for (NodeId u = 0; u < n; ++u) {
          ASSERT_EQ(c->ReachableFrom(u), oracle->ReachableFrom(u))
              << c->EngineName() << " width " << width << " trial " << trial
              << " node " << u;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DynamicClosure: incremental patching, DRed over the SCC condensation
// ---------------------------------------------------------------------------

// All-pairs agreement of a patched closure with a from-scratch closure of
// the same graph — the only contract Patched has.
void ExpectClosureOf(const DynamicClosure& got, const Digraph& next) {
  DynamicClosure want(next);
  for (NodeId u = 0; u < next.NumNodes(); ++u) {
    ASSERT_EQ(got.ReachableFrom(u), want.ReachableFrom(u)) << "from " << u;
    for (NodeId v = 0; v < next.NumNodes(); ++v) {
      ASSERT_EQ(got.Reaches(u, v), want.Reaches(u, v)) << u << " -> " << v;
    }
  }
  EXPECT_EQ(got.NumClosureArcs(), want.NumClosureArcs());
}

DynamicClosure::PatchOptions NeverFallBack() {
  DynamicClosure::PatchOptions o;
  o.fallback_fraction = 1.0;
  return o;
}

TEST(DynamicClosureTest, AdditionExtendsChain) {
  Digraph g(8);  // chain 0..3 plus isolated 4..7
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 3);
  DynamicClosure base(g);

  Digraph next = g;
  next.AddArc(3, 4);  // the chain now reaches into the isolated tail
  DynamicClosure::PatchStats stats;
  auto patched = base.Patched(g, next, NeverFallBack(), &stats);
  ExpectClosureOf(*patched, next);
  EXPECT_FALSE(stats.fell_back);
  // The isolated nodes 5..7 are untouched: their components alias the old
  // reach vectors instead of re-merging.
  EXPECT_GT(stats.reused_components, 0u);
  EXPECT_GT(stats.patched_nodes, 0u);
}

TEST(DynamicClosureTest, RemovalBreaksCycle) {
  // DRed over-delete case: removing one arc of the 3-cycle dissolves the
  // SCC; every stale transitive fact must disappear.
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 0);
  g.AddArc(2, 3);
  DynamicClosure base(g);
  EXPECT_TRUE(base.Reaches(0, 3));
  EXPECT_TRUE(base.Reaches(1, 0));

  Digraph next(4);  // drop 1 -> 2
  next.AddArc(0, 1);
  next.AddArc(2, 0);
  next.AddArc(2, 3);
  DynamicClosure::PatchStats stats;
  auto patched = base.Patched(g, next, NeverFallBack(), &stats);
  ExpectClosureOf(*patched, next);
  EXPECT_FALSE(stats.fell_back);
  EXPECT_FALSE(patched->Reaches(0, 3));
  EXPECT_FALSE(patched->Reaches(1, 0));
  EXPECT_TRUE(patched->Reaches(2, 1));
}

TEST(DynamicClosureTest, RemovalRederivesThroughAlternatePath) {
  // The re-derivation half of DRed: dropping 2 -> 3 splits the chorded
  // 4-cycle, but 1 still reaches 3 through the chord — the fact must
  // survive the over-deletion.
  Digraph g(5);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 3);
  g.AddArc(3, 0);
  g.AddArc(1, 3);  // chord
  g.AddArc(3, 4);  // tail outside the cycle
  DynamicClosure base(g);

  Digraph next(5);
  next.AddArc(0, 1);
  next.AddArc(1, 2);
  next.AddArc(3, 0);
  next.AddArc(1, 3);
  next.AddArc(3, 4);
  DynamicClosure::PatchStats stats;
  auto patched = base.Patched(g, next, NeverFallBack(), &stats);
  ExpectClosureOf(*patched, next);
  EXPECT_TRUE(patched->Reaches(1, 3));   // re-derived via the chord
  EXPECT_TRUE(patched->Reaches(1, 4));
  EXPECT_FALSE(patched->Reaches(2, 3));  // genuinely gone
}

TEST(DynamicClosureTest, AdditionMergesChainIntoCycle) {
  Digraph g(3);  // chain 0 -> 1 -> 2
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  DynamicClosure base(g);

  Digraph next = g;
  next.AddArc(2, 0);  // one SCC: everything reaches everything
  auto patched = base.Patched(g, next, NeverFallBack());
  ExpectClosureOf(*patched, next);
  EXPECT_TRUE(patched->Reaches(2, 1));
  EXPECT_TRUE(patched->Reaches(1, 1));  // cycle members reach themselves
}

TEST(DynamicClosureTest, FallbackFractionZeroForcesScratchMerge) {
  Digraph g(6);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(3, 4);
  DynamicClosure base(g);

  Digraph next = g;
  next.AddArc(4, 5);
  DynamicClosure::PatchOptions opts;
  opts.fallback_fraction = 0.0;
  DynamicClosure::PatchStats stats;
  auto patched = base.Patched(g, next, opts, &stats);
  ExpectClosureOf(*patched, next);
  EXPECT_TRUE(stats.fell_back);
  EXPECT_EQ(stats.reused_components, 0u);
}

TEST(DynamicClosureTest, PatchAcrossNodeGrowthAndShrink) {
  Digraph g(3);
  g.AddArc(0, 1);
  DynamicClosure base(g);

  Digraph grown(5);
  grown.AddArc(0, 1);
  grown.AddArc(1, 4);
  auto bigger = base.Patched(g, grown, NeverFallBack());
  ExpectClosureOf(*bigger, grown);
  EXPECT_TRUE(bigger->Reaches(0, 4));

  Digraph shrunk(2);
  shrunk.AddArc(1, 0);
  auto smaller = bigger->Patched(grown, shrunk, NeverFallBack());
  ExpectClosureOf(*smaller, shrunk);
}

TEST(DynamicClosureTest, ChainedRandomPatchesAgreeWithScratch) {
  // 30 random evolutions of a random graph, patched step by step; every
  // generation must equal the scratch closure, under both the default
  // fallback fraction and the never-fall-back one.
  Rng rng(0xD12ED);
  for (double fraction : {0.25, 1.0}) {
    const NodeId n = 24;
    Digraph g(n);
    for (int e = 0; e < 40; ++e) {
      g.AddArc(static_cast<NodeId>(rng.Uniform(n)),
               static_cast<NodeId>(rng.Uniform(n)));
    }
    g.Finalize();
    auto closure = std::make_unique<DynamicClosure>(g);
    DynamicClosure::PatchOptions opts;
    opts.fallback_fraction = fraction;
    for (int step = 0; step < 30; ++step) {
      Digraph next = g;
      if (rng.Uniform(2) == 0 && next.NumArcs() > 0) {
        // Remove one arc: rebuild without the chosen one.
        const uint64_t victim = rng.Uniform(next.NumArcs());
        Digraph pruned(next.NumNodes());
        uint64_t i = 0;
        for (NodeId u = 0; u < next.NumNodes(); ++u) {
          for (NodeId v : next.Successors(u)) {
            if (i++ != victim) pruned.AddArc(u, v);
          }
        }
        next = std::move(pruned);
      } else {
        next.AddArc(static_cast<NodeId>(rng.Uniform(n)),
                    static_cast<NodeId>(rng.Uniform(n)));
      }
      next.Finalize();
      auto patched = closure->Patched(g, next, opts);
      ExpectClosureOf(*patched, next);
      closure = std::move(patched);
      g = std::move(next);
    }
  }
}

}  // namespace
}  // namespace olite::graph

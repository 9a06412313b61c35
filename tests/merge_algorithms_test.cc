#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/exhaustive_merger.h"
#include "merge/pair_merger.h"
#include "merge/partition_merger.h"
#include "merge/rgs.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "stats/size_estimator.h"
#include "tests/reference_pair_merger.h"
#include "util/bell.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

/// Shared fixture pieces: random workload + context + model.
struct Instance {
  QuerySet queries;
  UniformDensityEstimator estimator{0.01};
  BoundingRectProcedure procedure;
  std::unique_ptr<MergeContext> ctx;
  CostModel model;

  Instance(size_t n, uint64_t seed, CostModel m = {4.0, 1.0, 1.0, 0.0})
      : model(m) {
    Rng rng(seed);
    QueryGenConfig config;
    config.num_queries = n;
    config.cf = 0.6;
    config.sf = 0.4;
    config.df = 0.04;
    queries = QuerySet(GenerateQueries(config, &rng));
    ctx = std::make_unique<MergeContext>(&queries, &estimator, &procedure);
  }
};

// ------------------------------------------------------------------- RGS

TEST(RgsTest, EnumeratesBellManyPartitions) {
  for (int n = 1; n <= 8; ++n) {
    RgsIterator it(n);
    uint64_t count = 1;
    while (it.Next()) ++count;
    EXPECT_EQ(count, BellNumber(n)) << "n=" << n;
  }
}

TEST(RgsTest, BoundedBlocksMatchesStirlingSums) {
  for (int n = 1; n <= 7; ++n) {
    for (int k = 1; k <= n; ++k) {
      RgsIterator it(n, k);
      uint64_t count = 1;
      while (it.Next()) ++count;
      EXPECT_EQ(count, PartitionsIntoAtMost(n, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(RgsTest, FirstIsOneBlockLastIsAllSingletons) {
  RgsIterator it(4);
  EXPECT_EQ(it.Current(), (std::vector<int>{0, 0, 0, 0}));
  std::vector<int> last;
  do {
    last = it.Current();
  } while (it.Next());
  EXPECT_EQ(last, (std::vector<int>{0, 1, 2, 3}));
}

TEST(RgsTest, BlocksRoundTrip) {
  const auto blocks = RgsToBlocks({0, 1, 0, 2, 1});
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(blocks[1], (std::vector<int>{1, 4}));
  EXPECT_EQ(blocks[2], (std::vector<int>{3}));
}

// ------------------------------------------------------------ Exhaustive

TEST(ExhaustiveMergerTest, RefusesLargeInputs) {
  Instance inst(6, 1);
  ExhaustiveMerger merger(4);
  EXPECT_FALSE(merger.Merge(*inst.ctx, inst.model).ok());
}

TEST(ExhaustiveMergerTest, SingleQueryTrivial) {
  Instance inst(1, 2);
  ExhaustiveMerger merger;
  auto result = merger.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition, (Partition{{0}}));
}

/// The single-allocation property (Section 6.1.1): the optimum over all
/// covers (queries may repeat) is never better than the optimum over
/// partitions, so the two searches must agree on cost.
class SingleAllocationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SingleAllocationProperty, CoverOptimumEqualsPartitionOptimum) {
  Instance inst(4, GetParam());
  ExhaustiveMerger cover_search;
  PartitionMerger partition_search;
  auto cover = cover_search.Merge(*inst.ctx, inst.model);
  auto partition = partition_search.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(cover.ok());
  ASSERT_TRUE(partition.ok());
  EXPECT_NEAR(cover->cost, partition->cost, 1e-9);
  // And the cover optimum is actually a valid partition.
  EXPECT_TRUE(IsValidPartition(cover->partition, 4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleAllocationProperty,
                         ::testing::Range<uint64_t>(300, 310));

// --------------------------------------------------------- PartitionMerger

TEST(PartitionMergerTest, EnumeratesBellManyCandidates) {
  Instance inst(6, 3);
  PartitionMerger merger;
  auto result = merger.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates, BellNumber(6));
}

TEST(PartitionMergerTest, RefusesHugeInputs) {
  Instance inst(20, 3);
  PartitionMerger merger(13);
  EXPECT_FALSE(merger.Merge(*inst.ctx, inst.model).ok());
}

TEST(PartitionMergerTest, ReturnsValidPartitionWithConsistentCost) {
  Instance inst(7, 4);
  PartitionMerger merger;
  auto result = merger.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsValidPartition(result->partition, 7));
  EXPECT_NEAR(result->cost,
              inst.model.PartitionCost(*inst.ctx, result->partition), 1e-9);
}

TEST(PartitionMergerTest, IdenticalQueriesAllMerge) {
  QuerySet qs({Rect(0, 0, 5, 5), Rect(0, 0, 5, 5), Rect(0, 0, 5, 5)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{1, 1, 1, 0};
  PartitionMerger merger;
  auto result = merger.Merge(ctx, model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition, (Partition{{0, 1, 2}}));
}

TEST(PartitionMergerTest, FarApartQueriesStaySeparate) {
  QuerySet qs({Rect(0, 0, 1, 1), Rect(500, 500, 501, 501),
               Rect(900, 0, 901, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{0.1, 1, 1, 0};
  PartitionMerger merger;
  auto result = merger.Merge(ctx, model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.size(), 3u);
}

TEST(ExactPartitionSearchTest, WorksOnArbitraryIdSubsets) {
  Instance inst(8, 5);
  const std::vector<QueryId> subset = {1, 4, 6};
  const MergeOutcome outcome =
      ExactPartitionSearch(*inst.ctx, inst.model, subset);
  EXPECT_EQ(outcome.candidates, BellNumber(3));
  std::set<QueryId> covered;
  for (const auto& group : outcome.partition) {
    covered.insert(group.begin(), group.end());
  }
  EXPECT_EQ(covered, (std::set<QueryId>{1, 4, 6}));
}

// ------------------------------------------------------------ PairMerger

TEST(PairMergerTest, OptimalForTwoQueries) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Instance inst(2, 700 + seed);
    PairMerger pair;
    PartitionMerger exact;
    auto greedy = pair.Merge(*inst.ctx, inst.model);
    auto optimal = exact.Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(optimal.ok());
    EXPECT_NEAR(greedy->cost, optimal->cost, 1e-9) << "seed " << seed;
  }
}

TEST(PairMergerTest, HeapAndTableVariantsAgree) {
  // The library's heap loop, in both scoring modes, against the paper's
  // rescanned Profit Table (tests/reference_pair_merger.h).
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Instance inst(12, 800 + seed);
    auto table = ReferencePairMerger().Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(table.ok());
    for (const bool pruning : {false, true}) {
      auto heap = PairMerger(pruning).Merge(*inst.ctx, inst.model);
      ASSERT_TRUE(heap.ok());
      const std::string label =
          "seed " + std::to_string(seed) + (pruning ? " bounded" : "");
      EXPECT_EQ(heap->cost, table->cost) << label;
      // The two must agree on the partition itself, not just its cost —
      // equal-benefit ties are broken by stable group ids in both.
      EXPECT_EQ(heap->partition, table->partition) << label;
      if (!pruning) {
        EXPECT_EQ(heap->candidates, table->candidates) << label;
      }
    }
  }
}

// Without bounds the loop evaluates every live pair exactly once:
// C(n,2) pairs up front, then after the k-th merge the fresh group
// against its n-1-k live partners.
TEST(PairMergerTest, UnboundedCandidatesMatchClosedForm) {
  for (const size_t n : {2u, 7u, 15u, 30u}) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      Instance inst(n, 1000 + seed);
      auto outcome =
          PairMerger(/*pruning=*/false).Merge(*inst.ctx, inst.model);
      ASSERT_TRUE(outcome.ok());
      const uint64_t m = n - outcome->partition.size();
      uint64_t expected = n * (n - 1) / 2;
      for (uint64_t k = 1; k <= m; ++k) expected += n - 1 - k;
      EXPECT_EQ(outcome->candidates, expected)
          << "n " << n << " seed " << seed << " merges " << m;
    }
  }
}

TEST(PairMergerTest, TieBrokenBySmallestStableGroupId) {
  // An equally spaced chain of overlapping queries: by translation
  // symmetry every adjacent merge has a bit-identical benefit, and only
  // two of the four tied merges fire before the search stops. Both
  // scoring modes and the table oracle must resolve each tie to the
  // smallest live pair — by stable group id, never by heap pop order or
  // map iteration artifacts. (The third pick is the regression: after
  // two merges the heap's pop reorganization has shuffled the tied
  // entries, and a benefit-only comparator surfaces (5,6) ahead of
  // (4,5), diverging from the table's ordered scan.)
  QuerySet qs({Rect(0, 0, 2, 1), Rect(1, 0, 3, 1), Rect(2, 0, 4, 1),
               Rect(3, 0, 5, 1), Rect(4, 0, 6, 1), Rect(5, 0, 7, 1),
               Rect(6, 0, 8, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{1, 1, 0.5, 0};

  // The instance really is a tie: all adjacent merges are equally
  // beneficial, skip-a-step merges are worse.
  const double b01 = model.MergeBenefit(ctx, {0}, {1});
  ASSERT_GT(b01, 0.0);
  for (QueryId q = 1; q < 6; ++q) {
    ASSERT_EQ(model.MergeBenefit(ctx, {q}, {q + 1}), b01) << "pair " << q;
  }
  ASSERT_LT(model.MergeBenefit(ctx, {0}, {2}), b01);

  const PairMerger bounded(/*pruning=*/true);
  const PairMerger unbounded(/*pruning=*/false);
  const ReferencePairMerger table;
  const std::pair<const char*, const Merger*> variants[] = {
      {"bounded", &bounded}, {"unbounded", &unbounded}, {"table", &table}};
  for (const auto& [label, merger] : variants) {
    auto result = merger->Merge(ctx, model);
    ASSERT_TRUE(result.ok());
    const Partition expected = {{0, 1}, {2, 3}, {4, 5}, {6}};
    EXPECT_EQ(result->partition, expected)
        << label << " variant broke a tie away from the smallest live pair";
  }
}

TEST(PairMergerTest, NeverWorseThanInitialCost) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Instance inst(15, 900 + seed);
    PairMerger merger;
    auto result = merger.Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->cost, inst.model.InitialCost(*inst.ctx) + 1e-9);
    EXPECT_TRUE(IsValidPartition(result->partition, 15));
  }
}

TEST(PairMergerTest, MergesIdenticalQueriesFirst) {
  QuerySet qs({Rect(0, 0, 5, 5), Rect(0, 0, 5, 5), Rect(800, 800, 900, 900)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{1, 1, 1, 0};
  PairMerger merger;
  auto result = merger.Merge(ctx, model);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->partition.size(), 2u);
  EXPECT_EQ(result->partition[0], (QueryGroup{0, 1}));
}

TEST(PairMergerTest, MergeFromRespectsStartPartition) {
  Instance inst(6, 6);
  PairMerger merger;
  // Start from everything already in one group: no pair exists, so the
  // result is that single group.
  MergeOutcome outcome =
      merger.MergeFrom(*inst.ctx, inst.model, OneGroupPartition(6));
  EXPECT_EQ(outcome.partition.size(), 1u);
}

TEST(PairMergerTest, MissesGloballyOptimalTripleByDesign) {
  // The Figure 6 instance: greedy local decisions keep all queries
  // separate although merging all three is the optimum (Section 5.1).
  QuerySet qs({Rect(0, 1, 2, 2), Rect(1, 0, 2, 2), Rect(0, 0, 1, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{10, 9, 4, 0};
  PairMerger pair;
  PartitionMerger exact;
  auto greedy = pair.Merge(ctx, model);
  auto optimal = exact.Merge(ctx, model);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(optimal.ok());
  EXPECT_EQ(greedy->partition.size(), 3u);
  EXPECT_EQ(optimal->partition.size(), 1u);
  EXPECT_GT(greedy->cost, optimal->cost);
}

// -------------------------------------------------------- DirectedSearch

TEST(DirectedSearchTest, EscapesThePairMergingTrap) {
  // On the Figure 6 instance, the random restarts + extract moves find
  // the global optimum the greedy merger misses.
  QuerySet qs({Rect(0, 1, 2, 2), Rect(1, 0, 2, 2), Rect(0, 0, 1, 1)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{10, 9, 4, 0};
  DirectedSearchMerger merger(16, 7);
  auto result = merger.Merge(ctx, model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition, (Partition{{0, 1, 2}}));
  EXPECT_DOUBLE_EQ(result->cost, 74.0);
}

TEST(DirectedSearchTest, DeterministicInSeed) {
  Instance a(10, 42), b(10, 42);
  DirectedSearchMerger m1(6, 5), m2(6, 5);
  auto r1 = m1.Merge(*a.ctx, a.model);
  auto r2 = m2.Merge(*b.ctx, b.model);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->partition, r2->partition);
}

TEST(DirectedSearchTest, NeverWorseThanPairMerging) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Instance inst(10, 1100 + seed);
    PairMerger pair;
    DirectedSearchMerger directed(6, seed);
    auto p = pair.Merge(*inst.ctx, inst.model);
    auto d = directed.Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(d.ok());
    // Restart 0 of the directed search IS pair-merging-like descent from
    // singletons with a superset of moves, so it can't end up worse.
    EXPECT_LE(d->cost, p->cost + 1e-9) << "seed " << seed;
    EXPECT_TRUE(IsValidPartition(d->partition, 10));
  }
}

// ------------------------------------------------------------ Clustering

TEST(ClusteringMergerTest, SeparatesFarComponentsExactly) {
  // Two tight pairs far apart: clustering should solve each exactly.
  QuerySet qs({Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), Rect(800, 800, 802, 802),
               Rect(801, 801, 803, 803)});
  UniformDensityEstimator est(1.0);
  BoundingRectProcedure proc;
  MergeContext ctx(&qs, &est, &proc);
  const CostModel model{10, 1, 1, 0};
  ClusteringMerger clustering;
  PartitionMerger exact;
  auto c = clustering.Merge(ctx, model);
  auto e = exact.Merge(ctx, model);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(c->cost, e->cost, 1e-9);
  EXPECT_TRUE(IsValidPartition(c->partition, 4));
}

TEST(ClusteringMergerTest, LooseAndTightBoundsBothValid) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Instance inst(12, 1300 + seed);
    ClusteringMerger tight(10, true), loose(10, false);
    auto t = tight.Merge(*inst.ctx, inst.model);
    auto l = loose.Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(l.ok());
    EXPECT_TRUE(IsValidPartition(t->partition, 12));
    EXPECT_TRUE(IsValidPartition(l->partition, 12));
    EXPECT_LE(t->cost, inst.model.InitialCost(*inst.ctx) + 1e-9);
  }
}

TEST(ClusteringMergerTest, FallsBackToGreedyOnLargeComponents) {
  Instance inst(20, 9);
  ClusteringMerger clustering(4);  // Force greedy path for components > 4.
  auto result = clustering.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsValidPartition(result->partition, 20));
}

// -------------------------------------------- Heuristics vs exact optimum

/// Property sweep backing Figures 16/17: on small instances the
/// heuristics stay within the [optimal, initial] bracket.
class HeuristicBracket : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeuristicBracket, AllHeuristicsWithinBracket) {
  Instance inst(8, GetParam());
  PartitionMerger exact;
  auto optimal = exact.Merge(*inst.ctx, inst.model);
  ASSERT_TRUE(optimal.ok());
  const double initial = inst.model.InitialCost(*inst.ctx);

  PairMerger pair;
  DirectedSearchMerger directed(6, GetParam());
  ClusteringMerger clustering;
  for (const Merger* merger :
       std::initializer_list<const Merger*>{&pair, &directed, &clustering}) {
    auto result = merger->Merge(*inst.ctx, inst.model);
    ASSERT_TRUE(result.ok()) << merger->name();
    EXPECT_GE(result->cost, optimal->cost - 1e-9) << merger->name();
    EXPECT_LE(result->cost, initial + 1e-9) << merger->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicBracket,
                         ::testing::Range<uint64_t>(1400, 1420));

}  // namespace
}  // namespace qsp

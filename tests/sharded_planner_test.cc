// ShardedPlanner (merge/sharded_planner.h): the sharded parallel
// planning layer (DESIGN.md §12). The contracts under test: shards=1 is
// byte-identical to the wrapped merger for every merger kind; multi-
// shard plans are valid partitions whose reported cost matches a
// from-scratch recomputation on a fresh context; outputs (including the
// shard attribution) are deterministic across runs and thread counts;
// and boundless queries always flow through the seam pass.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cost/cost_model.h"
#include "exec/thread_pool.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/pair_merger.h"
#include "merge/sharded_planner.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "stats/size_estimator.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

constexpr uint64_t kSeeds[] = {5, 17};

struct Instance {
  QuerySet queries;
  std::unique_ptr<SizeEstimator> estimator;
  std::unique_ptr<MergeProcedure> procedure;
  std::unique_ptr<MergeContext> ctx;

  Instance(size_t n, uint64_t seed, size_t empty_rects = 0) {
    Rng rng(seed);
    std::vector<Rect> rects =
        GenerateQueries(bench::Fig16WorkloadConfig(n), &rng);
    for (size_t i = 0; i < empty_rects; ++i) rects.push_back(Rect::Empty());
    queries = QuerySet(rects);
    estimator = std::make_unique<UniformDensityEstimator>(bench::kFig16Density);
    procedure = std::make_unique<BoundingRectProcedure>();
    ctx = std::make_unique<MergeContext>(&queries, estimator.get(),
                                         procedure.get());
  }
};

struct MergerCase {
  std::string name;
  std::unique_ptr<Merger> (*make)(uint64_t seed);
};

const MergerCase kMergers[] = {
    {"pair-merging",
     [](uint64_t) -> std::unique_ptr<Merger> {
       return std::make_unique<PairMerger>(/*pruning=*/true);
     }},
    {"clustering",
     [](uint64_t) -> std::unique_ptr<Merger> {
       return std::make_unique<ClusteringMerger>(
           /*exact_component_limit=*/10, /*tight_bound=*/true,
           /*pruning=*/true);
     }},
    {"directed-search",
     [](uint64_t seed) -> std::unique_ptr<Merger> {
       return std::make_unique<DirectedSearchMerger>(4, seed, /*pruning=*/true);
     }},
};

constexpr ShardAssign kAssigns[] = {ShardAssign::kGrid,
                                    ShardAssign::kBalanced};

const char* AssignName(ShardAssign assign) {
  return assign == ShardAssign::kGrid ? "grid" : "balanced";
}

// shards=1 must be the wrapped merger, byte for byte: same partition,
// same cost, same effort counters — the delegation makes the knob's
// default a provable no-op. Delegation happens before assignment runs,
// so both assignment modes must take it.
TEST(ShardedPlannerTest, ShardsOneIsByteIdenticalToUnsharded) {
  const CostModel model = bench::Fig16CostModel();
  for (const MergerCase& mc : kMergers) {
    for (const uint64_t seed : kSeeds) {
      for (const ShardAssign assign : kAssigns) {
        const std::string label = mc.name + "/seed" + std::to_string(seed) +
                                  "/" + AssignName(assign);
        Instance plain_inst(60, seed);
        auto plain = mc.make(seed)->Merge(*plain_inst.ctx, model);
        ASSERT_TRUE(plain.ok()) << label;

        Instance sharded_inst(60, seed);
        const auto inner = mc.make(seed);
        const ShardedPlanner planner(
            inner.get(),
            ShardedPlanner::Options{/*shards=*/1, assign, /*pruning=*/true});
        auto sharded = planner.Plan(*sharded_inst.ctx, model);
        ASSERT_TRUE(sharded.ok()) << label;

        EXPECT_EQ(sharded->outcome.partition, plain->partition) << label;
        EXPECT_EQ(sharded->outcome.cost, plain->cost) << label;
        EXPECT_EQ(sharded->outcome.candidates, plain->candidates) << label;
        // All groups attributed to the single shard.
        ASSERT_EQ(sharded->group_shard.size(),
                  sharded->outcome.partition.size())
            << label;
        for (int32_t s : sharded->group_shard) EXPECT_EQ(s, 0) << label;
        EXPECT_EQ(sharded->cells_x, 1) << label;
        EXPECT_EQ(sharded->cells_y, 1) << label;
      }
    }
  }
}

// Multi-shard plans: valid partitions, cost verified against a fresh
// context (the sim/churn invariant-checker idea — the planner must not
// be grading its own homework through a stale memo), attribution
// shaped correctly, and cost within a sane factor of the unsharded plan.
TEST(ShardedPlannerTest, MultiShardPlansAreValidAndCostVerified) {
  const CostModel model = bench::Fig16CostModel();
  for (const MergerCase& mc : kMergers) {
    for (const uint64_t seed : kSeeds) {
      for (const int shards : {4, 9}) {
        for (const ShardAssign assign : kAssigns) {
          const std::string label = mc.name + "/seed" + std::to_string(seed) +
                                    "/shards" + std::to_string(shards) + "/" +
                                    AssignName(assign);
          Instance inst(120, seed);
          const size_t n = inst.queries.size();
          const auto inner = mc.make(seed);
          const ShardedPlanner planner(
              inner.get(),
              ShardedPlanner::Options{shards, assign, /*pruning=*/true});
          auto plan = planner.Plan(*inst.ctx, model);
          ASSERT_TRUE(plan.ok()) << label;

          EXPECT_TRUE(IsValidPartition(plan->outcome.partition, n)) << label;
          ASSERT_EQ(plan->group_shard.size(), plan->outcome.partition.size())
              << label;
          const int num_shards = plan->layout.num_shards;
          EXPECT_GE(num_shards, 1) << label;
          if (assign == ShardAssign::kBalanced) {
            // Balanced treats the request as a budget (the extent floor
            // may stop the bisection early); the grid rounds to
            // cells_x * cells_y.
            EXPECT_LE(num_shards, shards) << label;
          } else {
            EXPECT_EQ(num_shards, plan->cells_x * plan->cells_y) << label;
            EXPECT_LE(num_shards, shards) << label;
          }
          for (int32_t s : plan->group_shard) {
            EXPECT_GE(s, ShardedMergeOutcome::kSeamGroup) << label;
            EXPECT_LT(s, num_shards) << label;
          }
          size_t shard_queries = 0, shard_seam = 0;
          for (const ShardStats& stats : plan->shards) {
            shard_queries += stats.queries;
            shard_seam += stats.seam_groups;
          }
          EXPECT_EQ(shard_queries, n) << label;
          EXPECT_EQ(shard_seam, plan->seam_groups_in) << label;
          // Every query is assigned, and the per-shard accounting in the
          // layout matches what the planner actually built.
          ASSERT_EQ(plan->layout.shard_of.size(), n) << label;
          EXPECT_GT(plan->imbalance, 0.0) << label;

          // From-scratch cost recomputation on a fresh context.
          Instance fresh(120, seed);
          EXPECT_EQ(plan->outcome.cost,
                    model.PartitionCost(*fresh.ctx, plan->outcome.partition))
              << label;

          // Locality sanity: sharding trades a little plan quality for
          // parallel planning; it must never be wildly worse than the
          // unsharded plan (the bench gates 2% at scale) nor beat the
          // no-merge baseline's ceiling.
          auto unsharded = mc.make(seed)->Merge(*fresh.ctx, model);
          ASSERT_TRUE(unsharded.ok()) << label;
          EXPECT_LE(plan->outcome.cost, unsharded->cost * 1.10) << label;
          EXPECT_LE(plan->outcome.cost,
                    model.InitialCost(*fresh.ctx) * (1.0 + 1e-9))
              << label;
        }
      }
    }
  }
}

// Determinism: identical outputs (partition, cost, attribution) on
// repeated runs and across exec thread counts — shard fan-out must not
// leak scheduling into the plan.
TEST(ShardedPlannerTest, MultiShardOutputsAreThreadCountInvariant) {
  const CostModel model = bench::Fig16CostModel();
  for (const MergerCase& mc : kMergers) {
    for (const ShardAssign assign : kAssigns) {
      Partition baseline_partition;
      std::vector<int32_t> baseline_shard;
      double baseline_cost = 0.0;
      for (const int threads : {1, 4}) {
        exec::SetDefaultThreads(threads);
        Instance inst(100, 23);
        const auto inner = mc.make(23);
        const ShardedPlanner planner(
            inner.get(),
            ShardedPlanner::Options{/*shards=*/4, assign, /*pruning=*/true});
        auto plan = planner.Plan(*inst.ctx, model);
        const std::string label = std::string(mc.name) + "/" +
                                  AssignName(assign) + " threads " +
                                  std::to_string(threads);
        ASSERT_TRUE(plan.ok()) << label;
        if (threads == 1) {
          baseline_partition = plan->outcome.partition;
          baseline_shard = plan->group_shard;
          baseline_cost = plan->outcome.cost;
        } else {
          EXPECT_EQ(plan->outcome.partition, baseline_partition) << label;
          EXPECT_EQ(plan->group_shard, baseline_shard) << label;
          EXPECT_EQ(plan->outcome.cost, baseline_cost) << label;
        }
      }
      exec::SetDefaultThreads(1);
    }
  }
}

// Boundless queries have no shard home: they park in shard 0 but their
// groups are always seam-classified, so cross-shard reconciliation sees
// them (the grid boundless-pair bugfix end to end).
TEST(ShardedPlannerTest, BoundlessQueriesFlowThroughSeamPass) {
  const CostModel model = bench::Fig16CostModel();
  for (const ShardAssign assign : kAssigns) {
    Instance inst(80, 31, /*empty_rects=*/2);
    const size_t n = inst.queries.size();
    const PairMerger inner(/*pruning=*/true);
    const ShardedPlanner planner(
        &inner, ShardedPlanner::Options{/*shards=*/4, assign,
                                        /*pruning=*/true});
    auto plan = planner.Plan(*inst.ctx, model);
    ASSERT_TRUE(plan.ok()) << AssignName(assign);
    EXPECT_TRUE(IsValidPartition(plan->outcome.partition, n))
        << AssignName(assign);
    // Find the groups holding the two empty-rect queries (the last ids).
    for (QueryId empty_id :
         {static_cast<QueryId>(n - 2), static_cast<QueryId>(n - 1)}) {
      bool found = false;
      for (size_t g = 0; g < plan->outcome.partition.size(); ++g) {
        const QueryGroup& group = plan->outcome.partition[g];
        if (std::find(group.begin(), group.end(), empty_id) == group.end()) {
          continue;
        }
        found = true;
        EXPECT_EQ(plan->group_shard[g], ShardedMergeOutcome::kSeamGroup)
            << AssignName(assign) << ": group of boundless query " << empty_id
            << " was not seam-classified";
      }
      EXPECT_TRUE(found) << AssignName(assign) << ": boundless query "
                         << empty_id << " missing";
    }
  }
}

}  // namespace
}  // namespace qsp

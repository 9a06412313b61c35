// Serial-vs-parallel golden matrix (DESIGN.md §7): every merger and the
// channel allocator must return the exact same partitions, allocations,
// and costs for any thread count — parallelism may only change wall
// time. Each algorithm runs at threads 1, 2, and 8 over three seeds; the
// threads=1 result is the golden baseline the others are compared to.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "channel/channel_cost.h"
#include "channel/client_set.h"
#include "channel/hill_climb_allocator.h"
#include "core/subscription_service.h"
#include "exec/thread_pool.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/pair_merger.h"
#include "relation/generator.h"
#include "tests/reference_pair_merger.h"
#include "util/rng.h"
#include "workload/client_gen.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr uint64_t kSeeds[] = {11, 22, 33};

struct ScopedThreads {
  explicit ScopedThreads(int n) { exec::SetDefaultThreads(n); }
  ~ScopedThreads() { exec::SetDefaultThreads(1); }
};

// ------------------------------------------------------------- mergers

struct MergerCase {
  std::string name;
  std::unique_ptr<Merger> (*make)(uint64_t seed, bool pruning);
};

const MergerCase kMergers[] = {
    {"pair",
     [](uint64_t, bool pruning) -> std::unique_ptr<Merger> {
       return std::make_unique<PairMerger>(pruning);
     }},
    {"clustering",
     [](uint64_t, bool pruning) -> std::unique_ptr<Merger> {
       return std::make_unique<ClusteringMerger>(
           /*exact_component_limit=*/10, /*tight_bound=*/true, pruning);
     }},
    {"directed-search",
     [](uint64_t seed, bool pruning) -> std::unique_ptr<Merger> {
       return std::make_unique<DirectedSearchMerger>(8, seed, pruning);
     }},
};

// Full pruning x threads x merger x seed matrix against one golden cell
// (threads = 1, pruning off): partitions and costs must be identical in
// every cell — threads may only change wall time, pruning only planning
// effort. The candidates counter is thread-invariant too, but its value
// legitimately differs between the exhaustive and the pruned evaluation
// strategies, so it is compared against a per-pruning-mode baseline.
TEST(ParallelMatrixTest, MergersMatchSerialAtAnyThreadCount) {
  const CostModel model = bench::Fig16CostModel();
  for (const MergerCase& mc : kMergers) {
    for (const uint64_t seed : kSeeds) {
      // Baseline with threads=1; fresh context per run so memo caches
      // cannot leak state between thread counts.
      MergeOutcome golden;
      {
        ScopedThreads threads(1);
        bench::Instance inst(bench::Fig16WorkloadConfig(30), seed,
                             bench::kFig16Density);
        auto outcome =
            mc.make(seed, /*pruning=*/false)->Merge(*inst.ctx, model);
        ASSERT_TRUE(outcome.ok()) << mc.name << " seed " << seed;
        golden = *outcome;
      }
      for (const bool pruning : {false, true}) {
        uint64_t golden_candidates = golden.candidates;
        for (const int threads : kThreadCounts) {
          ScopedThreads scoped(threads);
          bench::Instance inst(bench::Fig16WorkloadConfig(30), seed,
                               bench::kFig16Density);
          auto outcome = mc.make(seed, pruning)->Merge(*inst.ctx, model);
          const std::string label = mc.name + " seed " +
                                    std::to_string(seed) + " threads " +
                                    std::to_string(threads) +
                                    (pruning ? " pruned" : "");
          ASSERT_TRUE(outcome.ok()) << label;
          EXPECT_EQ(outcome->partition, golden.partition) << label;
          EXPECT_EQ(outcome->cost, golden.cost) << label;
          if (pruning && threads == kThreadCounts[0]) {
            golden_candidates = outcome->candidates;
          }
          EXPECT_EQ(outcome->candidates, golden_candidates) << label;
        }
      }
    }
  }
}

// The pair merger in both scoring modes against the paper's rescanned
// Profit Table (tests/reference_pair_merger.h) at every thread count: the
// unbounded mode fans its exact evaluations across the pool, and must
// still return the oracle's partition and cost and evaluate exactly the
// oracle's pairs.
TEST(ParallelMatrixTest, PairMergerMatchesReferenceAtAnyThreadCount) {
  const CostModel model = bench::Fig16CostModel();
  for (const uint64_t seed : kSeeds) {
    MergeOutcome reference;
    {
      bench::Instance inst(bench::Fig16WorkloadConfig(30), seed,
                           bench::kFig16Density);
      auto outcome = ReferencePairMerger().Merge(*inst.ctx, model);
      ASSERT_TRUE(outcome.ok()) << "seed " << seed;
      reference = *outcome;
    }
    for (const bool pruning : {false, true}) {
      for (const int threads : kThreadCounts) {
        ScopedThreads scoped(threads);
        bench::Instance inst(bench::Fig16WorkloadConfig(30), seed,
                             bench::kFig16Density);
        auto outcome = PairMerger(pruning).Merge(*inst.ctx, model);
        const std::string label = "seed " + std::to_string(seed) +
                                  " threads " + std::to_string(threads) +
                                  (pruning ? " pruned" : "");
        ASSERT_TRUE(outcome.ok()) << label;
        EXPECT_EQ(outcome->partition, reference.partition) << label;
        EXPECT_EQ(outcome->cost, reference.cost) << label;
        if (!pruning) {
          EXPECT_EQ(outcome->candidates, reference.candidates) << label;
        }
      }
    }
  }
}

// ------------------------------------------------------------ allocator

struct AllocInstance {
  QuerySet queries;
  ClientSet clients;
  UniformDensityEstimator estimator{0.01};
  BoundingRectProcedure procedure;
  std::unique_ptr<MergeContext> ctx;
  CostModel model{4.0, 1.0, 1.0, 0.5, 2.0};
  std::unique_ptr<ChannelCostEvaluator> evaluator;

  explicit AllocInstance(uint64_t seed) {
    Rng rng(seed);
    QueryGenConfig config;
    config.num_queries = 12;
    config.cf = 0.7;
    queries = QuerySet(GenerateQueries(config, &rng));
    clients =
        AssignClients(queries, 6, ClientAssignment::kLocality, &rng);
    ctx = std::make_unique<MergeContext>(&queries, &estimator, &procedure);
    evaluator =
        std::make_unique<ChannelCostEvaluator>(ctx.get(), model, &clients);
  }
};

TEST(ParallelMatrixTest, AllocatorMatchesSerialAtAnyThreadCount) {
  for (const StartPolicy policy :
       {StartPolicy::kSeeded, StartPolicy::kRandom,
        StartPolicy::kBestOfBoth}) {
    for (const uint64_t seed : kSeeds) {
      AllocationOutcome golden;
      {
        ScopedThreads threads(1);
        AllocInstance inst(seed);
        HillClimbAllocator allocator(policy, seed);
        auto outcome = allocator.Allocate(*inst.evaluator, 3);
        ASSERT_TRUE(outcome.ok()) << "seed " << seed;
        golden = *outcome;
      }
      for (const int threads : kThreadCounts) {
        ScopedThreads scoped(threads);
        AllocInstance inst(seed);
        HillClimbAllocator allocator(policy, seed);
        auto outcome = allocator.Allocate(*inst.evaluator, 3);
        ASSERT_TRUE(outcome.ok()) << "seed " << seed;
        EXPECT_EQ(outcome->allocation, golden.allocation)
            << "seed " << seed << " threads " << threads;
        EXPECT_EQ(outcome->cost, golden.cost)
            << "seed " << seed << " threads " << threads;
        EXPECT_EQ(outcome->candidates, golden.candidates)
            << "seed " << seed << " threads " << threads;
      }
    }
  }
}

// -------------------------------------------- end-to-end service rounds

Table MakeWorldTable(uint64_t seed) {
  Rng rng(seed);
  TableGeneratorConfig config;
  config.domain = Rect(0, 0, 100, 100);
  config.num_objects = 500;
  config.payload_fields = 1;
  config.payload_bytes = 16;
  return GenerateTable(config, &rng);
}

RoundStats RunServiceOnce(uint64_t seed, int threads, int num_channels,
                          double* estimated_cost) {
  ServiceConfig config;
  config.cost_model = {2.0, 1.0, 1.0, 0.0, num_channels > 1 ? 1.0 : 0.0};
  config.estimator = EstimatorKind::kExact;
  config.num_channels = num_channels;
  config.seed = seed;
  config.threads = threads;
  SubscriptionService service(MakeWorldTable(seed), Rect(0, 0, 100, 100),
                              config);
  Rng rng(seed + 99);
  for (int c = 0; c < 5; ++c) {
    const ClientId client = service.AddClient();
    for (int q = 0; q < 2; ++q) {
      const double x = rng.UniformDouble(0, 80);
      const double y = rng.UniformDouble(0, 80);
      service.Subscribe(client, Rect(x, y, x + rng.UniformDouble(5, 20),
                                     y + rng.UniformDouble(5, 20)));
    }
  }
  auto report = service.Plan();
  EXPECT_TRUE(report.ok());
  *estimated_cost = report.ok() ? report->estimated_cost : -1.0;
  auto stats = service.RunRound();
  EXPECT_TRUE(stats.ok());
  // The config's thread count is process-global; restore the serial
  // default so the next run starts clean.
  exec::SetDefaultThreads(1);
  return stats.ok() ? *stats : RoundStats{};
}

TEST(ParallelMatrixTest, ServiceRoundsMatchSerialAtAnyThreadCount) {
  for (const int num_channels : {1, 3}) {
    for (const uint64_t seed : kSeeds) {
      double golden_cost = 0.0;
      const RoundStats golden =
          RunServiceOnce(seed, 1, num_channels, &golden_cost);
      EXPECT_TRUE(golden.all_answers_correct);
      for (const int threads : kThreadCounts) {
        double cost = 0.0;
        const RoundStats stats =
            RunServiceOnce(seed, threads, num_channels, &cost);
        EXPECT_EQ(cost, golden_cost)
            << "channels " << num_channels << " seed " << seed
            << " threads " << threads;
        EXPECT_TRUE(stats == golden)
            << "channels " << num_channels << " seed " << seed
            << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace qsp

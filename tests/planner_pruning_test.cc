// Planner pruning golden tests (DESIGN.md §8): the spatial candidate
// index and the admissible benefit bounds are pure accelerations — with
// pruning on, every heuristic merger must return the exact partition and
// cost the exhaustive evaluation returns, for every merge procedure,
// estimator, and seed. The bounds themselves are checked as properties:
// UpperBound never falls below the exact MergeBenefit, and no group
// outside a SearchWindow can carry a positive bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cost/cost_model.h"
#include "exec/thread_pool.h"
#include "geom/region.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/pair_merger.h"
#include "merge/plan_bounds.h"
#include "query/merge_context.h"
#include "query/merge_procedure.h"
#include "relation/generator.h"
#include "stats/histogram_estimator.h"
#include "stats/size_estimator.h"
#include "tests/reference_pair_merger.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

constexpr uint64_t kSeeds[] = {11, 22, 33};

// A merging instance with selectable procedure and estimator (the bench
// Instance hardcodes uniform + bounding-rect; the pruning identity must
// hold for every combination).
struct Instance {
  QuerySet queries;
  std::optional<Table> table;
  std::unique_ptr<SizeEstimator> estimator;
  std::unique_ptr<MergeProcedure> procedure;
  std::unique_ptr<MergeContext> ctx;

  Instance(size_t n, uint64_t seed, const std::string& procedure_name,
           const std::string& estimator_name) {
    const QueryGenConfig config = bench::Fig16WorkloadConfig(n);
    Rng rng(seed);
    queries = QuerySet(GenerateQueries(config, &rng));
    if (procedure_name == "bounding-rect") {
      procedure = std::make_unique<BoundingRectProcedure>();
    } else if (procedure_name == "bounding-polygon") {
      procedure = std::make_unique<BoundingPolygonProcedure>();
    } else {
      procedure = std::make_unique<ExactCoverProcedure>();
    }
    if (estimator_name == "uniform") {
      estimator =
          std::make_unique<UniformDensityEstimator>(bench::kFig16Density);
    } else {
      TableGeneratorConfig tconfig;
      tconfig.domain = config.domain;
      tconfig.num_objects = 2000;
      tconfig.clustered_fraction = 0.6;
      Rng trng(seed + 1);
      table = GenerateTable(tconfig, &trng);
      estimator = std::make_unique<HistogramEstimator>(*table, config.domain,
                                                       16, 16);
    }
    ctx = std::make_unique<MergeContext>(&queries, estimator.get(),
                                         procedure.get());
  }
};

struct MergerCase {
  std::string name;
  std::unique_ptr<Merger> (*make)(uint64_t seed, bool pruning);
};

const MergerCase kMergers[] = {
    {"pair-heap",
     [](uint64_t, bool pruning) -> std::unique_ptr<Merger> {
       return std::make_unique<PairMerger>(pruning);
     }},
    {"clustering",
     [](uint64_t, bool pruning) -> std::unique_ptr<Merger> {
       return std::make_unique<ClusteringMerger>(
           /*exact_component_limit=*/10, /*tight_bound=*/true, pruning);
     }},
    {"clustering-loose",
     [](uint64_t, bool pruning) -> std::unique_ptr<Merger> {
       return std::make_unique<ClusteringMerger>(
           /*exact_component_limit=*/10, /*tight_bound=*/false, pruning);
     }},
    {"directed-search",
     [](uint64_t seed, bool pruning) -> std::unique_ptr<Merger> {
       return std::make_unique<DirectedSearchMerger>(4, seed, pruning);
     }},
};

// The tentpole identity: pruning may only change planning effort, never
// the plan. Partition and cost must match bit-for-bit across every
// merger x procedure x estimator x seed cell.
TEST(PlannerPruningTest, PrunedPlanMatchesExhaustivePlan) {
  const CostModel model = bench::Fig16CostModel();
  for (const MergerCase& mc : kMergers) {
    for (const std::string& procedure :
         {std::string("bounding-rect"), std::string("bounding-polygon"),
          std::string("exact-cover")}) {
      for (const std::string& estimator :
           {std::string("uniform"), std::string("histogram")}) {
        for (const uint64_t seed : kSeeds) {
          const std::string label = mc.name + "/" + procedure + "/" +
                                    estimator + "/seed" +
                                    std::to_string(seed);
          Instance exhaustive_inst(30, seed, procedure, estimator);
          auto exhaustive = mc.make(seed, /*pruning=*/false)
                                ->Merge(*exhaustive_inst.ctx, model);
          ASSERT_TRUE(exhaustive.ok()) << label;

          Instance pruned_inst(30, seed, procedure, estimator);
          auto pruned =
              mc.make(seed, /*pruning=*/true)->Merge(*pruned_inst.ctx, model);
          ASSERT_TRUE(pruned.ok()) << label;

          EXPECT_EQ(pruned->partition, exhaustive->partition) << label;
          EXPECT_EQ(pruned->cost, exhaustive->cost) << label;
        }
      }
    }
  }
}

// A cost model with a negative coefficient invalidates the bounds;
// SupportsBenefitBounds must route such models to the exhaustive path so
// the plan is still exact (and identical whether pruning is requested).
TEST(PlannerPruningTest, NegativeCoefficientModelFallsBackToExhaustive) {
  CostModel model = bench::Fig16CostModel();
  model.k_u = -1.0;
  ASSERT_FALSE(model.SupportsBenefitBounds());
  for (const uint64_t seed : kSeeds) {
    Instance a(20, seed, "bounding-rect", "uniform");
    Instance b(20, seed, "bounding-rect", "uniform");
    auto off = PairMerger(/*pruning=*/false).Merge(*a.ctx, model);
    auto on = PairMerger(/*pruning=*/true).Merge(*b.ctx, model);
    auto table = ReferencePairMerger().Merge(*a.ctx, model);
    ASSERT_TRUE(off.ok());
    ASSERT_TRUE(on.ok());
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(on->partition, off->partition) << "seed " << seed;
    EXPECT_EQ(on->cost, off->cost) << "seed " << seed;
    EXPECT_EQ(off->partition, table->partition) << "seed " << seed;
    EXPECT_EQ(off->cost, table->cost) << "seed " << seed;
    // The fallback path is the unbounded one, so even the effort metric
    // matches — and equals the Profit Table's.
    EXPECT_EQ(on->candidates, off->candidates) << "seed " << seed;
    EXPECT_EQ(off->candidates, table->candidates) << "seed " << seed;
  }
}

// Random disjoint groups drawn from a random partition of 0..n-1.
std::vector<QueryGroup> RandomGroups(size_t n, size_t blocks, Rng* rng) {
  std::vector<QueryGroup> groups(blocks);
  for (size_t i = 0; i < n; ++i) {
    groups[static_cast<size_t>(
               rng->UniformInt(0, static_cast<int64_t>(blocks) - 1))]
        .push_back(static_cast<QueryId>(i));
  }
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const QueryGroup& g) { return g.empty(); }),
               groups.end());
  return groups;
}

// Admissibility: UpperBound(a, b) >= MergeBenefit(a, b) for random
// disjoint groups, under every procedure/estimator combination whose
// traits the bounder exploits differently.
TEST(PlannerPruningTest, UpperBoundNeverBelowExactBenefit) {
  const CostModel model = bench::Fig16CostModel();
  for (const std::string& procedure :
       {std::string("bounding-rect"), std::string("bounding-polygon"),
        std::string("exact-cover")}) {
    for (const std::string& estimator :
         {std::string("uniform"), std::string("histogram")}) {
      for (const uint64_t seed : kSeeds) {
        Instance inst(40, seed, procedure, estimator);
        const plan::BenefitBounder bounder(*inst.ctx, model);
        ASSERT_TRUE(bounder.enabled());
        Rng rng(seed * 7 + 1);
        const std::vector<QueryGroup> groups = RandomGroups(40, 12, &rng);
        std::vector<plan::GroupSummary> sums;
        sums.reserve(groups.size());
        for (const QueryGroup& g : groups) sums.push_back(bounder.Summarize(g));
        for (size_t i = 0; i < groups.size(); ++i) {
          for (size_t j = i + 1; j < groups.size(); ++j) {
            const double exact =
                model.MergeBenefit(*inst.ctx, groups[i], groups[j]);
            const double bound = bounder.UpperBound(sums[i], sums[j]);
            EXPECT_GE(bound, exact)
                << procedure << "/" << estimator << " seed " << seed
                << " pair " << GroupToString(groups[i]) << " + "
                << GroupToString(groups[j]);
          }
        }
      }
    }
  }
}

// Window soundness: a partner whose bounding box misses SearchWindow(g)
// must have a non-positive benefit bound against g (otherwise the grid
// query would wrongly prune a viable merge).
TEST(PlannerPruningTest, GroupsOutsideSearchWindowHaveNonPositiveBounds) {
  const CostModel model = bench::Fig16CostModel();
  for (const uint64_t seed : kSeeds) {
    // Uniform estimator + bounding rect: the distance-aware
    // configuration. High density makes covering empty space expensive,
    // so the windows are actually selective (the Fig16 density is so low
    // that every window covers the whole domain and the assertions would
    // pass vacuously).
    Rng qrng(seed);
    std::vector<Rect> rects;
    for (int i = 0; i < 40; ++i) {
      const double x = qrng.UniformDouble(0, 950);
      const double y = qrng.UniformDouble(0, 950);
      rects.push_back(Rect(x, y, x + qrng.UniformDouble(5, 15),
                           y + qrng.UniformDouble(5, 15)));
    }
    QuerySet queries(rects);
    UniformDensityEstimator estimator(5.0);
    BoundingRectProcedure procedure;
    MergeContext ctx(&queries, &estimator, &procedure);
    const plan::BenefitBounder bounder(ctx, model);
    ASSERT_TRUE(bounder.enabled());
    ASSERT_TRUE(bounder.distance_aware());
    std::vector<plan::GroupSummary> sums;
    double max_cost = 0.0;
    for (QueryId q = 0; q < 40; ++q) {
      sums.push_back(bounder.Summarize({q}));
      max_cost = std::max(max_cost, sums.back().cost);
    }
    size_t outside_pairs = 0;
    for (size_t i = 0; i < sums.size(); ++i) {
      const Rect window = bounder.SearchWindow(sums[i], max_cost);
      for (size_t j = 0; j < sums.size(); ++j) {
        if (j == i) continue;
        if (!sums[j].bbox.IsEmpty() && !window.Intersects(sums[j].bbox)) {
          ++outside_pairs;
          EXPECT_LE(bounder.UpperBound(sums[i], sums[j]), 0.0)
              << "seed " << seed << " pair (" << i << ", " << j << ")";
        }
      }
    }
    // The workload spreads clusters across the domain, so the window must
    // actually exclude something for this test to mean anything.
    EXPECT_GT(outside_pairs, 0u) << "seed " << seed;
  }
}

// ------------------------------------------------ differential sweep

// One random planning instance for the differential sweep: queries
// clustered around a few hot spots (or, in the zero-area regime, bare
// points), a uniform estimator of random density, and cost constants
// drawn from one of five regimes chosen by the seed.
struct SweepDraw {
  QuerySet queries;
  std::unique_ptr<UniformDensityEstimator> estimator;
  BoundingRectProcedure procedure;
  std::unique_ptr<MergeContext> ctx;
  CostModel model;
  std::string label;

  explicit SweepDraw(uint64_t seed) {
    Rng rng(seed);
    const size_t n = static_cast<size_t>(rng.UniformInt(20, 200));
    const int regime = static_cast<int>(seed % 5);
    const bool points = regime == 3 && rng.Bernoulli(0.5);
    model.k_m = rng.UniformDouble(0.5, 20.0);
    model.k_t = rng.UniformDouble(0.1, 2.0);
    model.k_u = rng.UniformDouble(0.0, 1.0);
    switch (regime) {
      case 1:  // Bounds invalid: the bounded mode must fall back.
        model.k_u = -rng.UniformDouble(0.01, 1.0);
        break;
      case 2:  // No distance term: every search window is the domain.
        model.k_t = 0.0;
        break;
      case 3:  // Zero per-message cost: the tightest windows; over bare
               // points every group costs 0 and the windows are empty.
        model.k_m = 0.0;
        break;
      case 4:  // Every merge pays: windows cover the whole domain.
        model.k_m = rng.UniformDouble(1e3, 1e5);
        break;
      default:
        break;
    }
    const double density = std::exp(rng.UniformDouble(std::log(1e-3), 0.0));
    std::vector<Point> hotspots(static_cast<size_t>(rng.UniformInt(1, 6)));
    for (Point& h : hotspots) {
      h = {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
    }
    const double spread = rng.UniformDouble(5.0, 150.0);
    std::vector<Rect> rects;
    for (size_t i = 0; i < n; ++i) {
      const Point& h = hotspots[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(hotspots.size()) - 1))];
      const double x = rng.Normal(h.x, spread);
      const double y = rng.Normal(h.y, spread);
      const double w = points ? 0.0 : rng.UniformDouble(1.0, 40.0);
      const double ht = points ? 0.0 : rng.UniformDouble(1.0, 40.0);
      rects.push_back(Rect(x, y, x + w, y + ht));
    }
    queries = QuerySet(rects);
    estimator = std::make_unique<UniformDensityEstimator>(density);
    ctx = std::make_unique<MergeContext>(&queries, estimator.get(),
                                         &procedure);
    std::ostringstream os;
    os << "seed " << seed << " (|Q| " << n << ", regime " << regime
       << (points ? " points" : "") << ", k_m " << model.k_m << ", k_t "
       << model.k_t << ", k_u " << model.k_u << ", density " << density
       << ")";
    label = os.str();
  }

  // True when some singleton's search window is empty — the regime in
  // which the bounded mode enumerates no candidates at all for a group.
  bool HasEmptyWindow() const {
    if (!model.SupportsBenefitBounds()) return false;
    const plan::BenefitBounder bounder(*ctx, model);
    std::vector<plan::GroupSummary> sums;
    double max_cost = 0.0;
    for (QueryId q = 0; q < queries.size(); ++q) {
      sums.push_back(bounder.Summarize({q}));
      max_cost = std::max(max_cost, sums.back().cost);
    }
    for (const plan::GroupSummary& s : sums) {
      if (bounder.SearchWindow(s, max_cost).IsEmpty()) return true;
    }
    return false;
  }
};

// Randomised differential sweep: the library PairMerger, in both scoring
// modes, against the paper's rescanned Profit Table
// (tests/reference_pair_merger.h), through Merge and through MergeFrom
// from a random non-singleton start. Partition and cost must be
// bit-equal; the unbounded mode must evaluate exactly the table's pairs.
// The unbounded mode runs on a 2-thread pool, so the sweep also covers
// the parallel EvaluatePairBenefits fan-out (TSan CI job).
TEST(PairMergerDifferential, MatchesProfitTableAtRandomScaleAndCosts) {
  struct ScopedThreads {
    ScopedThreads() { exec::SetDefaultThreads(2); }
    ~ScopedThreads() { exec::SetDefaultThreads(1); }
  } threads;
  constexpr uint64_t kDraws = 200;
  uint64_t empty_window_draws = 0;
  uint64_t unbounded_draws = 0;
  uint64_t bounds_pruned = 0;
  for (uint64_t seed = 1; seed <= kDraws; ++seed) {
    const SweepDraw draw(seed);
    const MergeContext& ctx = *draw.ctx;
    if (draw.HasEmptyWindow()) ++empty_window_draws;
    if (!draw.model.SupportsBenefitBounds()) ++unbounded_draws;

    // A random start with fewer blocks than queries always holds a
    // non-singleton group.
    Rng start_rng(seed ^ 0x5eed);
    const size_t n = ctx.num_queries();
    const Partition start = RandomGroups(
        n,
        static_cast<size_t>(start_rng.UniformInt(
            2, static_cast<int64_t>(n) - 1)),
        &start_rng);

    const MergeOutcome table = ReferencePairMergeFrom(
        ctx, draw.model, SingletonPartition(n));
    const MergeOutcome table_from =
        ReferencePairMergeFrom(ctx, draw.model, start);
    for (const bool pruning : {false, true}) {
      const PairMerger merger(pruning);
      auto merged = merger.Merge(ctx, draw.model);
      ASSERT_TRUE(merged.ok()) << draw.label;
      const MergeOutcome from = merger.MergeFrom(ctx, draw.model, start);
      const std::string label =
          draw.label + (pruning ? " bounded" : " unbounded");
      EXPECT_EQ(merged->partition, table.partition) << label << " Merge";
      EXPECT_EQ(merged->cost, table.cost) << label << " Merge";
      EXPECT_EQ(from.partition, table_from.partition) << label << " MergeFrom";
      EXPECT_EQ(from.cost, table_from.cost) << label << " MergeFrom";
      // Without usable bounds (pruning off, or a negative coefficient)
      // the loop scores every live pair exactly, as the table does.
      if (!pruning || !draw.model.SupportsBenefitBounds()) {
        EXPECT_EQ(merged->candidates, table.candidates) << label << " Merge";
        EXPECT_EQ(from.candidates, table_from.candidates)
            << label << " MergeFrom";
      } else {
        bounds_pruned += merged->bounds_pruned + from.bounds_pruned;
      }
    }
    if (::testing::Test::HasFailure()) break;  // Report the first seed.
  }
  // The sweep must actually reach the adversarial regimes.
  EXPECT_GT(empty_window_draws, 0u);
  EXPECT_GT(unbounded_draws, 0u);
  EXPECT_GT(bounds_pruned, 0u);
}

// ---------------------------------------------------------- context fixes

// Regression: a MergeContext watching a QuerySet that *shrank* (ids
// reassigned) must drop every stale cache instead of serving sizes and
// group stats of the old queries — or indexing out of range.
TEST(PlannerPruningTest, MergeContextSurvivesShrinkingQuerySet) {
  QuerySet queries;
  for (int i = 0; i < 8; ++i) {
    const double x = 10.0 * i;
    queries.Add(Rect(x, 0, x + 4, 4));
  }
  UniformDensityEstimator estimator(1.0);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);
  EXPECT_DOUBLE_EQ(ctx.Size(7), 16.0);
  EXPECT_GT(ctx.Stats({6, 7}).size, 0.0);

  // Replace with a smaller set: old id 7 is gone, id 0 is a new rect.
  queries = QuerySet({Rect(0, 0, 2, 2), Rect(5, 5, 7, 7)});
  EXPECT_DOUBLE_EQ(ctx.Size(0), 4.0);
  EXPECT_DOUBLE_EQ(ctx.Size(1), 4.0);
  // Group stats must be recomputed against the new rects, not replayed
  // from the old-id cache.
  const GroupStats& stats = ctx.Stats({0, 1});
  EXPECT_DOUBLE_EQ(stats.size, 49.0);  // bbox (0,0)-(7,7)

  // Growth after the shrink keeps the fresh entries valid.
  queries.Add(Rect(100, 100, 101, 101));
  EXPECT_DOUBLE_EQ(ctx.Size(2), 1.0);
  EXPECT_DOUBLE_EQ(ctx.Size(0), 4.0);
}

// The UnionSize fast path (x-separated rects skip the sweep) must be
// bit-identical to the sweep's decomposition for every arrangement.
TEST(PlannerPruningTest, UnionSizeMatchesSweepDecomposition) {
  const std::vector<std::pair<Rect, Rect>> cases = {
      {Rect(0, 0, 10, 10), Rect(20, 5, 30, 15)},   // x-separated
      {Rect(20, 5, 30, 15), Rect(0, 0, 10, 10)},   // reversed order
      {Rect(0, 0, 10, 10), Rect(10, 20, 30, 25)},  // touching in x
      {Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)},    // overlapping
      {Rect(0, 0, 10, 10), Rect(2, 20, 8, 30)},    // y-separated only
      {Rect(0, 0, 10, 10), Rect(0, 0, 10, 10)},    // identical
  };
  UniformDensityEstimator estimator(0.5);
  BoundingRectProcedure procedure;
  for (const auto& [ra, rb] : cases) {
    QuerySet queries({ra, rb});
    MergeContext ctx(&queries, &estimator, &procedure);
    const RectilinearRegion region = RectilinearRegion::UnionOf({ra, rb});
    const double expected = estimator.EstimateRegionSize(region.pieces());
    EXPECT_EQ(ctx.UnionSize(0, 1), expected)
        << ra.ToString() << " U " << rb.ToString();
    EXPECT_EQ(ctx.UnionSize(1, 0), expected)
        << rb.ToString() << " U " << ra.ToString();
  }
}

// Property sweep of the same identity over random rects, including
// degenerate (zero-extent) ones that must take the sweep path.
TEST(PlannerPruningTest, UnionSizeMatchesSweepOnRandomRects) {
  UniformDensityEstimator estimator(1.0);
  BoundingRectProcedure procedure;
  Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    auto random_rect = [&rng]() {
      const double x = rng.UniformDouble(0, 90);
      const double y = rng.UniformDouble(0, 90);
      const double w = rng.UniformDouble(0, 10);
      const double h = rng.UniformDouble(0, 10);
      return Rect(x, y, x + w, y + h);
    };
    const Rect ra = random_rect();
    const Rect rb = random_rect();
    QuerySet queries({ra, rb});
    MergeContext ctx(&queries, &estimator, &procedure);
    const RectilinearRegion region = RectilinearRegion::UnionOf({ra, rb});
    EXPECT_EQ(ctx.UnionSize(0, 1),
              estimator.EstimateRegionSize(region.pieces()))
        << ra.ToString() << " U " << rb.ToString();
  }
}

}  // namespace
}  // namespace qsp

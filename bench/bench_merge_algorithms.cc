// Ablation: wall-clock scaling of the merging algorithms of Section 6 —
// the O(Bell(n)) partition search vs the O(n^2) heuristics — validating
// the complexity claims. Also reports solution cost as a counter so the
// time/quality trade-off is visible in one run.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/pair_merger.h"
#include "merge/partition_merger.h"

namespace qsp {
namespace {

bench::Instance MakeInstance(int n, uint64_t seed) {
  return bench::Instance(bench::Fig16WorkloadConfig(static_cast<size_t>(n)),
                         seed, bench::kFig16Density);
}

template <typename MergerT>
void RunMerger(benchmark::State& state, const MergerT& merger) {
  const int n = static_cast<int>(state.range(0));
  const CostModel model = bench::Fig16CostModel();
  double last_cost = 0.0;
  uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh instance per iteration: the context memoization would
    // otherwise let later iterations ride the first one's cache.
    bench::Instance inst = MakeInstance(n, seed++);
    state.ResumeTiming();
    auto outcome = merger.Merge(*inst.ctx, model);
    if (outcome.ok()) last_cost = outcome->cost;
    benchmark::DoNotOptimize(last_cost);
  }
  state.counters["cost"] = last_cost;
}

void BM_PartitionExact(benchmark::State& state) {
  RunMerger(state, PartitionMerger());
}

void BM_PairMerging(benchmark::State& state) {
  RunMerger(state, PairMerger());
}

void BM_DirectedSearch(benchmark::State& state) {
  RunMerger(state, DirectedSearchMerger(8, 42));
}

void BM_Clustering(benchmark::State& state) {
  RunMerger(state, ClusteringMerger());
}

}  // namespace
}  // namespace qsp

BENCHMARK(qsp::BM_PartitionExact)->DenseRange(4, 12, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(qsp::BM_PairMerging)->RangeMultiplier(2)->Range(8, 256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(qsp::BM_DirectedSearch)->RangeMultiplier(2)->Range(8, 64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(qsp::BM_Clustering)->RangeMultiplier(2)->Range(8, 128)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

#include "merge/pair_merger.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "geom/spatial_grid.h"
#include "merge/plan_bounds.h"
#include "obs/metrics.h"

namespace qsp {
namespace {

/// Profit-heap entry: `benefit` is the exact benefit of merging live
/// groups a and b when `exact`, else an admissible upper bound on it.
/// Max-heap on benefit; equal benefits rank the smaller (a, b) first. The
/// tie-break must come from the stable group ids — never from push order,
/// which is a scheduling artifact — so the heap picks the same pair as
/// the paper's ordered table scan and the merge sequence is reproducible
/// run to run. The same ordering makes lazy refinement exact: when an
/// exact entry surfaces at the top, every other live pair's entry — bound
/// or exact — carries a key >= its true benefit, so no other pair can
/// beat the popped one, and among equal benefits an equal-valued bound of
/// a smaller pair would have surfaced and been refined before this pop.
struct HeapEntry {
  double benefit;
  size_t a;
  size_t b;
  bool exact;
  bool operator<(const HeapEntry& other) const {
    if (benefit != other.benefit) return benefit < other.benefit;
    if (a != other.a) return a > other.a;
    return b > other.b;
  }
};

}  // namespace

std::vector<double> PairMerger::EvaluatePairBenefits(
    const MergeContext& ctx, const CostModel& model,
    const std::vector<QueryGroup>& groups,
    const std::vector<double>& group_cost,
    const std::vector<std::pair<size_t, size_t>>& pairs) {
  // Each pair is independent, so the evaluations fan out across the exec
  // pool; result k always belongs to pairs[k], so the output is identical
  // for any thread count (with threads=1 this is the plain serial loop).
  return exec::ParallelMap<double>(pairs.size(), [&](size_t k) {
    const auto& [i, j] = pairs[k];
    const QueryGroup merged = UnionGroups(groups[i], groups[j]);
    return group_cost[i] + group_cost[j] - model.GroupCost(ctx, merged);
  });
}

MergeOutcome PairMerger::MergeFrom(const MergeContext& ctx,
                                   const CostModel& model,
                                   Partition start) const {
  // The greedy loop over a lazy max-heap (DESIGN.md §8). Entries are
  // immutable once pushed; a merge marks its two groups dead, which
  // invalidates their entries lazily. Every entry whose endpoints are both
  // alive stays accurate, because a group's cost never changes after
  // creation (merges only create fresh indices). Non-positive benefits
  // are never pushed, so the loop stops when no merge helps. Only the
  // scoring differs between the modes (see the class comment):
  //  * with bounds, candidates come from a SpatialGrid over group bounding
  //    boxes — pairs outside a group's search window provably have a
  //    non-positive benefit bound — and the heap holds upper bounds.
  //    Refinement is inherently one-at-a-time, so this mode does not use
  //    the exec pool;
  //  * without bounds, every live pair is pushed with its exact benefit,
  //    evaluated in bulk by EvaluatePairBenefits and pushed serially in
  //    ascending (i, j) order.
  // A refined bound is the identical arithmetic expression
  // EvaluatePairBenefits computes, so both modes apply the same merges.
  MergeOutcome outcome;
  uint64_t merges_applied = 0;
  uint64_t stale_heap_pops = 0;
  std::optional<plan::BenefitBounder> bounder;
  if (pruning_ && model.SupportsBenefitBounds()) bounder.emplace(ctx, model);

  std::vector<QueryGroup> groups = std::move(start);
  std::vector<bool> alive(groups.size(), true);
  std::vector<double> group_cost;
  std::vector<plan::GroupSummary> summaries;  // With bounds only.
  double max_cost = 0.0;
  auto add_cost = [&](size_t i) {
    if (bounder) {
      summaries.push_back(bounder->Summarize(groups[i]));
      group_cost.push_back(summaries[i].cost);
      max_cost = std::max(max_cost, summaries[i].cost);
    } else {
      group_cost.push_back(model.GroupCost(ctx, groups[i]));
    }
  };
  for (size_t i = 0; i < groups.size(); ++i) add_cost(i);

  std::optional<SpatialGrid> grid;
  if (bounder) {
    std::vector<Rect> bboxes(groups.size());
    for (size_t i = 0; i < groups.size(); ++i) bboxes[i] = summaries[i].bbox;
    grid.emplace(SpatialGrid::ForRects(bboxes));
    for (size_t i = 0; i < groups.size(); ++i) {
      grid->Insert(static_cast<uint32_t>(i), bboxes[i]);
    }
  }

  std::priority_queue<HeapEntry> heap;
  size_t live_count = groups.size();

  // Scores the pairs (i, j) for every live partner j != i, keeping only
  // j > i when `above` (seeding covers each unordered pair once from its
  // smaller side; the fresh group is the largest index, so re-pairing
  // passes above = false and scores (j, i) instead). Without bounds the
  // pairs queue in `pending` for the bulk exact evaluation. With bounds
  // they are drawn from i's search window and bounded at once; pairs
  // skipped by the window or by a non-positive bound are counted against
  // `possible`, the number of live partners.
  std::vector<std::pair<size_t, size_t>> pending;
  std::vector<uint32_t> cands;
  auto score_pairs_of = [&](size_t i, bool above, size_t possible) {
    if (!bounder) {
      for (size_t j = above ? i + 1 : 0; j < groups.size(); ++j) {
        if (j != i && alive[j]) {
          pending.emplace_back(std::min(i, j), std::max(i, j));
        }
      }
      return;
    }
    cands.clear();
    grid->Query(bounder->SearchWindow(summaries[i], max_cost), &cands);
    size_t considered = 0;
    for (uint32_t j : cands) {
      if (j == i || !alive[j]) continue;
      if (above && j < i) continue;
      ++considered;
      const size_t lo = std::min<size_t>(i, j);
      const size_t hi = std::max<size_t>(i, j);
      const double ub = bounder->UpperBound(summaries[lo], summaries[hi]);
      if (ub > 0.0) {
        heap.push({ub, lo, hi, false});
      } else {
        ++outcome.bounds_pruned;
      }
    }
    outcome.bounds_pruned += possible - considered;
  };
  auto evaluate_pending = [&] {
    if (pending.empty()) return;
    const std::vector<double> benefits =
        EvaluatePairBenefits(ctx, model, groups, group_cost, pending);
    outcome.candidates += pending.size();
    for (size_t k = 0; k < pending.size(); ++k) {
      if (benefits[k] > 0.0) {
        heap.push({benefits[k], pending[k].first, pending[k].second, true});
      }
    }
    pending.clear();
  };

  for (size_t i = 0; i < groups.size(); ++i) {
    score_pairs_of(i, /*above=*/true, /*possible=*/groups.size() - 1 - i);
  }
  evaluate_pending();

  while (true) {
    std::optional<HeapEntry> best;
    while (!heap.empty()) {
      const HeapEntry top = heap.top();
      heap.pop();
      if (!alive[top.a] || !alive[top.b]) {
        ++stale_heap_pops;
        continue;
      }
      if (top.exact) {
        best = top;
        break;
      }
      // Refine a bound to the exact benefit and re-push it.
      ++outcome.bounds_refined;
      ++outcome.candidates;
      const QueryGroup merged = UnionGroups(groups[top.a], groups[top.b]);
      const double benefit =
          group_cost[top.a] + group_cost[top.b] - model.GroupCost(ctx, merged);
      if (benefit > 0.0) heap.push({benefit, top.a, top.b, true});
    }
    if (!best) break;

    ++merges_applied;
    QueryGroup merged = UnionGroups(groups[best->a], groups[best->b]);
    alive[best->a] = false;
    alive[best->b] = false;
    if (grid) {
      grid->Remove(static_cast<uint32_t>(best->a), summaries[best->a].bbox);
      grid->Remove(static_cast<uint32_t>(best->b), summaries[best->b].bbox);
    }
    --live_count;
    const size_t new_index = groups.size();
    groups.push_back(std::move(merged));
    alive.push_back(true);
    add_cost(new_index);
    if (grid) {
      grid->Insert(static_cast<uint32_t>(new_index),
                   summaries[new_index].bbox);
    }
    score_pairs_of(new_index, /*above=*/false, /*possible=*/live_count - 1);
    evaluate_pending();
  }

  for (size_t i = 0; i < groups.size(); ++i) {
    if (alive[i]) outcome.partition.push_back(groups[i]);
  }
  CanonicalizePartition(&outcome.partition);
  outcome.cost = model.PartitionCost(ctx, outcome.partition);
  obs::Count("merge.pair-merging.merges_applied", merges_applied);
  obs::Count("merge.pair-merging.stale_heap_pops", stale_heap_pops);
  obs::Count("plan.bounds.pruned", outcome.bounds_pruned);
  obs::Count("plan.bounds.refined", outcome.bounds_refined);
  return outcome;
}

Result<MergeOutcome> PairMerger::DoMerge(const MergeContext& ctx,
                                         const CostModel& model) const {
  return MergeFrom(ctx, model, SingletonPartition(ctx.num_queries()));
}

}  // namespace qsp

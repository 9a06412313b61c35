#ifndef QSP_MERGE_PAIR_MERGER_H_
#define QSP_MERGE_PAIR_MERGER_H_

#include <utility>
#include <vector>

#include "merge/merger.h"

namespace qsp {

/// The greedy Pair Merging Algorithm of Section 6.2.1. Starts from
/// singleton groups, repeatedly merges the pair of groups with the largest
/// positive benefit Cost_old - Cost_new, and stops when no merge helps.
/// The paper's Profit Table is kept as a lazy max-heap of pair benefits,
/// so only the pairs involving the freshly merged group are scored each
/// round. Ties go to the smallest (a, b) group-id pair, exactly as the
/// paper's ordered table scan picks them (the rescanned table survives as
/// the test oracle in tests/reference_pair_merger.h).
///
/// Two scoring modes share that one loop and apply the same merges:
///  * with bounds (`pruning` and CostModel::SupportsBenefitBounds()), each
///    group scores only the partners inside its search window with an
///    admissible upper bound, and a bound is refined to the exact benefit
///    only when it reaches the top of the heap (DESIGN.md §8);
///  * without bounds, every live pair's exact benefit is evaluated, in
///    bulk across the exec pool (EvaluatePairBenefits): C(n,2) evaluations
///    up front plus one per live partner of each merged group.
/// Partition and cost are bit-identical between the modes; only the
/// number of exact evaluations (`candidates`) differs.
///
/// O(|Q|^2) group evaluations without bounds; guaranteed optimal for
/// |Q| <= 2.
class PairMerger : public Merger {
 public:
  /// `pruning` selects the bounded scoring mode whenever the cost model
  /// admits benefit bounds; models with a negative coefficient always
  /// run unbounded.
  explicit PairMerger(bool pruning = true) : pruning_(pruning) {}

  /// Runs the same greedy loop starting from an arbitrary partition
  /// instead of singletons (used by the directed search and the channel
  /// allocator).
  MergeOutcome MergeFrom(const MergeContext& ctx, const CostModel& model,
                         Partition start) const;

  /// The unbounded mode's scoring kernel: the benefit of merging
  /// groups[i] with groups[j] for every requested (i, j), given each
  /// group's precomputed cost. Evaluations fan out across the qsp::exec
  /// default executor; result k corresponds to pairs[k] for any thread
  /// count. Exposed for bench_parallel_speedup, which measures exactly
  /// this kernel.
  static std::vector<double> EvaluatePairBenefits(
      const MergeContext& ctx, const CostModel& model,
      const std::vector<QueryGroup>& groups,
      const std::vector<double>& group_cost,
      const std::vector<std::pair<size_t, size_t>>& pairs);

  std::string name() const override { return "pair-merging"; }

 protected:
  Result<MergeOutcome> DoMerge(const MergeContext& ctx,
                               const CostModel& model) const override;

 private:
  bool pruning_;
};

}  // namespace qsp

#endif  // QSP_MERGE_PAIR_MERGER_H_

// Test oracle for PairMerger: the paper's Pair Merging Algorithm
// (Section 6.2.1) exactly as written — a Profit Table holding the benefit
// of every live pair, rescanned in full for the best pair after every
// merge. O(|Q|^3); it lives here, not in the library, because its only
// job is to say what the greedy loop must return. The library's heap loop
// must match it bit for bit (partition and cost in both scoring modes,
// and `candidates` in the unbounded mode, which evaluates the same pairs).

#ifndef QSP_TESTS_REFERENCE_PAIR_MERGER_H_
#define QSP_TESTS_REFERENCE_PAIR_MERGER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "merge/merger.h"
#include "query/merge_context.h"
#include "query/query.h"

namespace qsp {

/// The rescanned Profit Table, started from an arbitrary partition.
/// Benefits are evaluated serially with the same arithmetic expression
/// PairMerger uses, so the values are bit-identical.
inline MergeOutcome ReferencePairMergeFrom(const MergeContext& ctx,
                                           const CostModel& model,
                                           Partition start) {
  MergeOutcome outcome;
  std::vector<QueryGroup> groups = std::move(start);
  std::vector<bool> alive(groups.size(), true);
  std::vector<double> group_cost(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    group_cost[i] = model.GroupCost(ctx, groups[i]);
  }

  // Profit Table: benefit of merging each live pair (i, j), i < j.
  std::map<std::pair<size_t, size_t>, double> table;
  auto record_benefit = [&](size_t i, size_t j) {
    const QueryGroup merged = UnionGroups(groups[i], groups[j]);
    table[{i, j}] =
        group_cost[i] + group_cost[j] - model.GroupCost(ctx, merged);
    ++outcome.candidates;
  };
  for (size_t i = 0; i < groups.size(); ++i) {
    for (size_t j = i + 1; j < groups.size(); ++j) record_benefit(i, j);
  }

  while (true) {
    // std::map iterates keys in ascending (i, j) order, so the strict `>`
    // keeps the smallest pair among equal benefits.
    size_t best_a = 0, best_b = 0;
    double best_benefit = 0.0;
    for (const auto& [pair, benefit] : table) {
      if (benefit > best_benefit) {
        best_benefit = benefit;
        best_a = pair.first;
        best_b = pair.second;
      }
    }
    if (best_benefit <= 0.0) break;

    // Merge best_a and best_b into a fresh group; rows referencing the
    // two dead groups are erased eagerly, so the table never carries
    // stale rows into the next scan.
    QueryGroup merged = UnionGroups(groups[best_a], groups[best_b]);
    alive[best_a] = false;
    alive[best_b] = false;
    for (auto it = table.begin(); it != table.end();) {
      const auto& [i, j] = it->first;
      if (i == best_a || i == best_b || j == best_a || j == best_b) {
        it = table.erase(it);
      } else {
        ++it;
      }
    }
    const size_t new_index = groups.size();
    groups.push_back(std::move(merged));
    alive.push_back(true);
    group_cost.push_back(model.GroupCost(ctx, groups[new_index]));
    for (size_t i = 0; i < new_index; ++i) {
      if (alive[i]) record_benefit(i, new_index);
    }
  }

  for (size_t i = 0; i < groups.size(); ++i) {
    if (alive[i]) outcome.partition.push_back(groups[i]);
  }
  CanonicalizePartition(&outcome.partition);
  outcome.cost = model.PartitionCost(ctx, outcome.partition);
  return outcome;
}

/// The oracle behind the Merger interface, started from singletons.
class ReferencePairMerger : public Merger {
 public:
  std::string name() const override { return "reference-pair-merging"; }

 protected:
  Result<MergeOutcome> DoMerge(const MergeContext& ctx,
                               const CostModel& model) const override {
    return ReferencePairMergeFrom(ctx, model,
                                  SingletonPartition(ctx.num_queries()));
  }
};

}  // namespace qsp

#endif  // QSP_TESTS_REFERENCE_PAIR_MERGER_H_

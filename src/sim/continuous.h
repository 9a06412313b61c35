#ifndef QSP_SIM_CONTINUOUS_H_
#define QSP_SIM_CONTINUOUS_H_

#include <cstdint>
#include <vector>

#include "cost/cost_model.h"
#include "geom/rect.h"
#include "util/status.h"
#include "workload/query_gen.h"

namespace qsp {

/// How the merge plan is maintained as subscriptions churn — the design
/// question of the paper's Section 11 ("we already have a set of queries
/// that have been merged, and a new query arrives; can we incrementally
/// compute a new partition without starting from scratch?").
enum class PlanMaintenance {
  /// New queries are greedily placed, departures just removed; no other
  /// optimization (cheapest, drifts the most).
  kIncremental,
  /// As kIncremental, plus a local-search repair pass every round.
  kIncrementalRepair,
  /// Re-run the Pair Merging Algorithm from scratch every round
  /// (most expensive, best plans).
  kReplanEachRound,
};

/// Configuration of the continuous-query scenario: every round new
/// objects arrive in the database and subscriptions churn; continuous
/// queries are "run" against the round's *new* objects only (the paper's
/// objects-per-second reading of continuous dissemination).
struct ContinuousConfig {
  Rect domain = Rect(0, 0, 1000, 1000);
  int rounds = 20;
  /// Objects inserted per round (uniform over the domain, with a
  /// clustered fraction around fixed hot spots).
  size_t inserts_per_round = 500;
  double object_clustered_fraction = 0.6;
  int object_clusters = 5;
  /// Subscription churn per round.
  size_t initial_queries = 20;
  size_t arrivals_per_round = 3;
  size_t departures_per_round = 2;
  /// Shape of new subscriptions (num_queries ignored).
  QueryGenConfig query_shape;
  CostModel cost_model{10.0, 1.0, 0.5, 0.0};
  PlanMaintenance maintenance = PlanMaintenance::kIncrementalRepair;
  uint64_t seed = 42;
};

/// Per-round measurements.
struct ContinuousRoundStats {
  int round = 0;
  size_t active_queries = 0;
  size_t groups = 0;
  size_t messages = 0;
  /// New tuples transmitted this round (sum over merged deltas).
  size_t delta_rows = 0;
  /// Delta tuples delivered to some subscriber that none of its queries
  /// in that group needed.
  size_t irrelevant_rows = 0;
  /// Estimated plan cost after this round's maintenance.
  double plan_cost = 0.0;
  /// Candidate-group evaluations spent on plan maintenance this round.
  /// kReplanEachRound is charged the exhaustive greedy count of its
  /// replan, C(n,2) + sum_{k=1..m} (n-1-k) for n queries and m merges.
  uint64_t maintenance_evals = 0;
};

/// Result of a full run.
struct ContinuousOutcome {
  std::vector<ContinuousRoundStats> rounds;
  /// True when, for every round and every active query, the delivered
  /// delta exactly matched the new objects inside the query's rectangle.
  bool all_deltas_correct = false;
  /// Totals for quick comparison across maintenance policies.
  size_t total_messages = 0;
  size_t total_delta_rows = 0;
  size_t total_irrelevant_rows = 0;
  uint64_t total_maintenance_evals = 0;
};

/// Runs the dynamic scenario: maintains a merge plan under churn with the
/// configured policy, disseminates per-round deltas, and verifies that
/// every subscriber's delta is exact. Uses the bounding-rectangle merge
/// procedure and the uniform-density estimator (deltas are uniform in
/// expectation).
Result<ContinuousOutcome> RunContinuous(const ContinuousConfig& config);

}  // namespace qsp

#endif  // QSP_SIM_CONTINUOUS_H_

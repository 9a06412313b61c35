#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sim/continuous.h"

namespace qsp {
namespace {

ContinuousConfig SmallConfig(uint64_t seed) {
  ContinuousConfig config;
  config.rounds = 8;
  config.inserts_per_round = 200;
  config.initial_queries = 12;
  config.arrivals_per_round = 2;
  config.departures_per_round = 2;
  config.seed = seed;
  return config;
}

TEST(ContinuousTest, RejectsNonPositiveRounds) {
  ContinuousConfig config = SmallConfig(1);
  config.rounds = 0;
  EXPECT_FALSE(RunContinuous(config).ok());
}

TEST(ContinuousTest, ProducesOneStatsPerRound) {
  auto outcome = RunContinuous(SmallConfig(1));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rounds.size(), 8u);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(outcome->rounds[static_cast<size_t>(r)].round, r);
  }
}

TEST(ContinuousTest, ChurnTracksArrivalsAndDepartures) {
  auto outcome = RunContinuous(SmallConfig(2));
  ASSERT_TRUE(outcome.ok());
  // 12 initial, +2/-2 per round => constant 12.
  for (const auto& round : outcome->rounds) {
    EXPECT_EQ(round.active_queries, 12u);
  }
}

TEST(ContinuousTest, GrowingPopulationWhenArrivalsExceedDepartures) {
  ContinuousConfig config = SmallConfig(3);
  config.arrivals_per_round = 4;
  config.departures_per_round = 1;
  auto outcome = RunContinuous(config);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rounds.back().active_queries, 12u + 8u * 3u);
}

TEST(ContinuousTest, TotalsAggregateRounds) {
  auto outcome = RunContinuous(SmallConfig(4));
  ASSERT_TRUE(outcome.ok());
  size_t messages = 0, delta = 0;
  for (const auto& round : outcome->rounds) {
    messages += round.messages;
    delta += round.delta_rows;
  }
  EXPECT_EQ(outcome->total_messages, messages);
  EXPECT_EQ(outcome->total_delta_rows, delta);
}

TEST(ContinuousTest, DeterministicInSeed) {
  auto a = RunContinuous(SmallConfig(9));
  auto b = RunContinuous(SmallConfig(9));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_messages, b->total_messages);
  EXPECT_EQ(a->total_delta_rows, b->total_delta_rows);
  EXPECT_EQ(a->total_irrelevant_rows, b->total_irrelevant_rows);
}

/// The core correctness property: under every maintenance policy and
/// several seeds, every subscriber's per-round delta is exact.
class ContinuousCorrectness
    : public ::testing::TestWithParam<std::tuple<PlanMaintenance, uint64_t>> {
};

TEST_P(ContinuousCorrectness, AllDeltasExact) {
  ContinuousConfig config = SmallConfig(std::get<1>(GetParam()));
  config.maintenance = std::get<0>(GetParam());
  auto outcome = RunContinuous(config);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->all_deltas_correct);
  EXPECT_GT(outcome->total_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, ContinuousCorrectness,
    ::testing::Combine(
        ::testing::Values(PlanMaintenance::kIncremental,
                          PlanMaintenance::kIncrementalRepair,
                          PlanMaintenance::kReplanEachRound),
        ::testing::Values(100, 200, 300)));

TEST(ContinuousTest, ReplanSpendsMoreMaintenanceWorkThanIncremental) {
  ContinuousConfig incremental = SmallConfig(7);
  incremental.maintenance = PlanMaintenance::kIncremental;
  ContinuousConfig replan = SmallConfig(7);
  replan.maintenance = PlanMaintenance::kReplanEachRound;
  auto a = RunContinuous(incremental);
  auto b = RunContinuous(replan);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a->total_maintenance_evals, b->total_maintenance_evals);
}

// The naive baseline is charged the exhaustive greedy evaluation count,
// C(n,2) + sum_{k=1..m} (n-1-k) per round, whatever the replan actually
// evaluated. The pinned values are what the baseline reported when its
// replans ran the exhaustive pair merger and counted every evaluation,
// so the closed form can never drift from the work it stands for.
TEST(ContinuousTest, ReplanBaselineChargesExhaustiveGreedyEvaluations) {
  ContinuousConfig config = SmallConfig(7);
  config.maintenance = PlanMaintenance::kReplanEachRound;
  auto outcome = RunContinuous(config);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->total_maintenance_evals, 785u);
  const std::vector<uint64_t> per_round = {93, 106, 100, 100,
                                           100, 100, 93,  93};
  ASSERT_EQ(outcome->rounds.size(), per_round.size());
  for (size_t r = 0; r < per_round.size(); ++r) {
    EXPECT_EQ(outcome->rounds[r].maintenance_evals, per_round[r])
        << "round " << r;
  }
}

TEST(ContinuousTest, RepairPlansAreNoWorseThanPlainIncremental) {
  ContinuousConfig plain = SmallConfig(8);
  plain.maintenance = PlanMaintenance::kIncremental;
  ContinuousConfig repaired = SmallConfig(8);
  repaired.maintenance = PlanMaintenance::kIncrementalRepair;
  auto a = RunContinuous(plain);
  auto b = RunContinuous(repaired);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->rounds.back().plan_cost, a->rounds.back().plan_cost + 1e-9);
}

}  // namespace
}  // namespace qsp

// obs/plan_explain: the EXPLAIN must report exactly what the planner
// charged — per-group terms that sum to the group's GroupCost, group
// costs that sum to the plan's estimated cost (within 1e-9), bound stats
// from the BenefitBounder, and a JSON form that round-trips through
// util/json_parser.
#include "obs/plan_explain.h"

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "core/subscription_service.h"
#include "merge/pair_merger.h"
#include "relation/generator.h"
#include "relation/grid_index.h"
#include "stats/exact_estimator.h"
#include "util/json_parser.h"
#include "util/rng.h"

namespace qsp {
namespace {

constexpr double kTol = 1e-9;

/// The fig16 evaluation instance the qsp_explain CLI defaults to.
bench::Instance MakeFig16Instance(size_t n = 12, uint64_t seed = 12000) {
  return bench::Instance(bench::Fig16WorkloadConfig(n), seed,
                         bench::kFig16Density);
}

TEST(PlanExplain, GroupTermsSumToGroupCost) {
  bench::Instance instance = MakeFig16Instance();
  const CostModel model = bench::Fig16CostModel();
  PairMerger merger;
  Result<MergeOutcome> outcome = merger.Merge(*instance.ctx, model);
  ASSERT_TRUE(outcome.ok());

  obs::PlanExplainer explainer(instance.ctx.get(), model);
  const obs::PlanExplain explain = explainer.Explain(outcome->partition);

  ASSERT_EQ(outcome->partition.size(), explain.groups.size());
  for (const obs::GroupExplain& group : explain.groups) {
    const double term_sum = group.message_cost + group.check_cost +
                            group.size_cost + group.irrelevant_cost;
    EXPECT_NEAR(term_sum, group.total_cost, kTol);
    const GroupStats& stats = instance.ctx->Stats(group.members);
    EXPECT_NEAR(model.GroupCost(stats), group.total_cost, kTol);
    // Single-channel: no k_check share.
    EXPECT_DOUBLE_EQ(0.0, group.check_cost);
  }
}

TEST(PlanExplain, PlanTotalMatchesMergerCost) {
  bench::Instance instance = MakeFig16Instance();
  const CostModel model = bench::Fig16CostModel();
  PairMerger merger;
  Result<MergeOutcome> outcome = merger.Merge(*instance.ctx, model);
  ASSERT_TRUE(outcome.ok());

  obs::PlanExplainer explainer(instance.ctx.get(), model);
  const obs::PlanExplain explain = explainer.Explain(outcome->partition);

  EXPECT_NEAR(outcome->cost, explain.total_cost, kTol);
  EXPECT_EQ(1u, explain.num_channels);
  EXPECT_EQ(outcome->partition.size(), explain.num_groups);
  EXPECT_EQ(instance.queries.size(), explain.num_queries);
}

TEST(PlanExplain, BoundStatsAndMbr) {
  bench::Instance instance = MakeFig16Instance();
  const CostModel model = bench::Fig16CostModel();
  PairMerger merger(/*pruning=*/true);
  Result<MergeOutcome> outcome = merger.Merge(*instance.ctx, model);
  ASSERT_TRUE(outcome.ok());

  obs::PlanExplainer explainer(instance.ctx.get(), model);
  explainer.set_refinement(outcome->bounds_refined, outcome->bounds_pruned);
  const obs::PlanExplain explain = explainer.Explain(outcome->partition);

  EXPECT_EQ(outcome->bounds_refined, explain.bounds_refined);
  EXPECT_EQ(outcome->bounds_pruned, explain.bounds_pruned);
  EXPECT_GT(explain.bounds_pruned, 0u);

  for (const obs::GroupExplain& group : explain.groups) {
    // The admissible lower bound can never exceed the true merged size /
    // cost (that is what makes pruning on it safe).
    EXPECT_LE(group.size_lower_bound, group.est_size + kTol);
    EXPECT_LE(group.cost_lower_bound, group.total_cost + kTol);
    EXPECT_GT(group.size_lower_bound, 0.0);
    // The MBR must contain every member rectangle.
    for (QueryId id : group.members) {
      EXPECT_TRUE(group.mbr.Contains(instance.queries.rect(id)));
    }
  }
}

TEST(PlanExplain, ExactContextFillsExactSize) {
  bench::Instance instance = MakeFig16Instance();
  const CostModel model = bench::Fig16CostModel();
  PairMerger merger;
  Result<MergeOutcome> outcome = merger.Merge(*instance.ctx, model);
  ASSERT_TRUE(outcome.ok());

  Rng rng(7);
  TableGeneratorConfig tconfig;
  tconfig.domain = Rect(0, 0, 1000, 1000);
  tconfig.num_objects = 2000;
  Table table = GenerateTable(tconfig, &rng);
  GridIndex index(table, tconfig.domain);
  ExactEstimator exact(&index);
  MergeContext exact_ctx(&instance.queries, &exact, &instance.procedure);

  obs::PlanExplainer explainer(instance.ctx.get(), model);
  const obs::PlanExplain without = explainer.Explain(outcome->partition);
  for (const obs::GroupExplain& group : without.groups) {
    EXPECT_LT(group.exact_size, 0.0);  // Unavailable.
  }

  explainer.set_exact_context(&exact_ctx);
  const obs::PlanExplain with = explainer.Explain(outcome->partition);
  for (const obs::GroupExplain& group : with.groups) {
    EXPECT_GE(group.exact_size, 0.0);
    EXPECT_NEAR(exact_ctx.Stats(group.members).size, group.exact_size, kTol);
  }
}

TEST(PlanExplain, MultiChannelTotalsMatchServiceReport) {
  // A populated multi-channel service with a per-client k_check charge:
  // the explainer must reconstruct the same total the allocator reported.
  Rng rng(11);
  TableGeneratorConfig tconfig;
  tconfig.domain = Rect(0, 0, 1000, 1000);
  tconfig.num_objects = 3000;
  Table table = GenerateTable(tconfig, &rng);

  ServiceConfig config;
  config.cost_model = bench::AllocCostModel();
  config.cost_model.k_d = 5.0;
  config.num_channels = 3;
  config.estimator = EstimatorKind::kExact;
  SubscriptionService service(std::move(table), tconfig.domain, config);

  const QueryGenConfig workload = bench::Fig16WorkloadConfig(12);
  Rng qrng(23);
  const auto rects = GenerateQueries(workload, &qrng);
  for (int c = 0; c < 6; ++c) service.AddClient();
  for (size_t i = 0; i < rects.size(); ++i) {
    service.Subscribe(static_cast<ClientId>(i % 6), rects[i]);
  }
  Result<PlanReport> report = service.Plan();
  ASSERT_TRUE(report.ok());

  obs::PlanExplainer explainer(service.context(), config.cost_model);
  explainer.set_initial_cost(report->initial_cost);
  explainer.set_refinement(report->bounds_refined, report->bounds_pruned);
  const obs::PlanExplain explain =
      explainer.Explain(report->plan, service.clients());

  EXPECT_NEAR(report->estimated_cost, explain.total_cost, kTol);
  EXPECT_EQ(report->num_groups, explain.num_groups);
  EXPECT_EQ(report->bounds_refined, explain.bounds_refined);

  double group_and_channel_sum = 0.0;
  bool saw_check_cost = false;
  for (const obs::ChannelExplain& channel : explain.channels) {
    group_and_channel_sum += channel.total_cost;
    if (!channel.clients.empty()) {
      EXPECT_DOUBLE_EQ(config.cost_model.k_d, channel.channel_cost);
    }
  }
  for (const obs::GroupExplain& group : explain.groups) {
    const double term_sum = group.message_cost + group.check_cost +
                            group.size_cost + group.irrelevant_cost;
    EXPECT_NEAR(term_sum, group.total_cost, kTol);
    if (group.check_cost > 0.0) saw_check_cost = true;
  }
  EXPECT_NEAR(group_and_channel_sum, explain.total_cost, kTol);
  // k_check = 3 and populated channels: the header-check share must show.
  EXPECT_TRUE(saw_check_cost);
}

TEST(PlanExplain, JsonRoundTripsAndMatchesText) {
  bench::Instance instance = MakeFig16Instance();
  const CostModel model = bench::Fig16CostModel();
  PairMerger merger;
  Result<MergeOutcome> outcome = merger.Merge(*instance.ctx, model);
  ASSERT_TRUE(outcome.ok());

  obs::PlanExplainer explainer(instance.ctx.get(), model);
  explainer.AddLabel("scenario", "fig16");
  explainer.AddLabel("merger", "pair");
  explainer.set_initial_cost(model.InitialCost(*instance.ctx));
  const obs::PlanExplain explain = explainer.Explain(outcome->partition);

  Result<JsonValue> parsed = ParseJson(explain.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();

  EXPECT_EQ("fig16", doc.Find("labels")->Find("scenario")->AsString());
  EXPECT_NEAR(explain.total_cost, doc.Find("total_cost")->AsNumber(), kTol);
  const auto& groups = doc.Find("groups")->AsArray();
  ASSERT_EQ(explain.groups.size(), groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    const JsonValue& g = groups[i];
    const double term_sum = g.Find("message_cost")->AsNumber() +
                            g.Find("check_cost")->AsNumber() +
                            g.Find("size_cost")->AsNumber() +
                            g.Find("irrelevant_cost")->AsNumber();
    EXPECT_NEAR(term_sum, g.Find("total_cost")->AsNumber(), kTol);
    ASSERT_NE(nullptr, g.Find("members"));
    EXPECT_EQ(explain.groups[i].members.size(),
              g.Find("members")->AsArray().size());
  }

  // The text form carries the same headline numbers.
  const std::string text = explain.ToText();
  EXPECT_NE(std::string::npos, text.find("=== plan explain ==="));
  EXPECT_NE(std::string::npos, text.find("scenario"));
  EXPECT_NE(std::string::npos, text.find("bounds refined"));
}

TEST(PlanExplain, TextIsDeterministic) {
  bench::Instance instance = MakeFig16Instance();
  const CostModel model = bench::Fig16CostModel();
  PairMerger merger;
  Result<MergeOutcome> outcome = merger.Merge(*instance.ctx, model);
  ASSERT_TRUE(outcome.ok());
  obs::PlanExplainer explainer(instance.ctx.get(), model);
  const std::string a = explainer.Explain(outcome->partition).ToText();
  const std::string b = explainer.Explain(outcome->partition).ToText();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace qsp

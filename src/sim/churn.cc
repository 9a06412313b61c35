#include "sim/churn.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>

#include "merge/pair_merger.h"
#include "obs/clock.h"
#include "query/merge_context.h"
#include "stats/size_estimator.h"

namespace qsp {
namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t Bits(double value) {
  uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

double WallMicros() {
  // Real maintenance latency is the measurement (repair-SLO
  // percentiles); it is excluded from the determinism digest.
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now()  // qsp-lint: allow(nondeterminism) latency measurement, digest-exempt
                 .time_since_epoch())
      .count();
}

/// Structural invariants of the maintained plan. `drained` = the
/// admission queue is empty, so the partition must cover the live lease
/// set exactly; otherwise live ids must at least all be planned (a
/// kRetiring id may legitimately linger in the plan until its queued
/// removal applies).
std::string CheckInvariants(const LivePlanManager& live,
                            const MergeContext& ctx, const CostModel& model,
                            bool drained) {
  const Partition plan = live.PlanSnapshot();
  std::vector<QueryId> members;
  for (const QueryGroup& group : plan) {
    if (group.empty()) return "empty group in live partition";
    for (QueryId id : group) {
      if (id >= ctx.num_queries()) return "plan references unknown query id";
      members.push_back(id);
    }
  }
  std::sort(members.begin(), members.end());
  if (std::adjacent_find(members.begin(), members.end()) != members.end()) {
    return "query id appears in two groups";
  }
  const std::vector<QueryId> live_ids = live.LiveIds();
  if (drained) {
    if (members != live_ids) {
      return "drained partition does not cover exactly the live leases";
    }
  } else if (!std::includes(members.begin(), members.end(), live_ids.begin(),
                            live_ids.end())) {
    return "live lease missing from the partition";
  }
  double recomputed = 0.0;
  for (const QueryGroup& group : plan) {
    recomputed += model.GroupCost(ctx.Stats(group));
  }
  const double tolerance = 1e-6 * std::max(1.0, std::abs(recomputed));
  if (std::abs(recomputed - live.cost()) > tolerance) {
    return "maintained cost drifted from recomputed partition cost";
  }
  return "";
}

}  // namespace

Result<ChurnOutcome> RunServiceChurn(const ChurnConfig& config) {
  if (config.rounds <= 0) {
    return Status::InvalidArgument("rounds must be positive");
  }
  Rng rng(config.seed);
  // ChurnConfig::fault is harness input, not a ServiceConfig knob: the
  // injector is the experiment, resolved right here.
  FaultInjector injector(config.fault);  // qsp-lint: allow(ungated-knob) ChurnConfig, not ServiceConfig
  // tick 0 (default): reads do not advance time — the harness alone
  // moves the clock, which is what makes lease expiry exact and runs
  // repeatable. See ChurnConfig::clock_tick_us.
  obs::FakeClock control_clock(config.clock_tick_us);

  QuerySet queries;
  UniformDensityEstimator estimator(config.density);
  BoundingRectProcedure procedure;
  MergeContext ctx(&queries, &estimator, &procedure);

  LiveServiceConfig opts = config.service;
  opts.enabled = true;
  opts.default_ttl_ms = config.ttl_ms;
  opts.clock = &control_clock;
  LivePlanManager live(&queries, &ctx, config.cost_model, opts);

  QueryGenConfig shape = config.query_shape;
  shape.domain = config.domain;
  shape.num_queries = 1;

  // Harness-side lease bookkeeping: flag per id, arrival order for
  // voluntary departures, and a pool of departed rectangles that
  // late-joiners re-subscribe.
  std::vector<bool> held;
  std::deque<QueryId> arrival_order;
  std::deque<Rect> rejoin_pool;
  size_t held_count = 0;

  auto offer = [&](const Rect& rect) {
    Result<QueryId> id = live.Subscribe(rect, config.ttl_ms);
    if (!id.ok()) return;  // Shed under backpressure; counted by stats.
    if (held.size() <= id.value()) held.resize(id.value() + 1, false);
    held[id.value()] = true;
    arrival_order.push_back(id.value());
    ++held_count;
  };
  auto fresh_rect = [&]() { return GenerateQueries(shape, &rng)[0]; };

  // Seed the initial population, draining at half the queue limit so
  // seeding never trips the admission backpressure meant for
  // steady-state rounds. Each drain pays at least one repair scan per
  // batch, so the cadence is as coarse as the queue allows.
  const size_t seed_drain_every =
      std::max<size_t>(1, opts.admission_queue_limit / 2);
  for (size_t i = 0; i < config.initial_subs; ++i) {
    offer(fresh_rect());
    if ((i + 1) % seed_drain_every == 0) QSP_IGNORE_RESULT(live.DrainAll());
  }
  QSP_IGNORE_RESULT(live.DrainAll());

  ChurnOutcome outcome;
  uint64_t digest = kFnvOffset;
  const uint64_t seed_evals = live.evaluations();
  uint64_t evals_before = seed_evals;

  for (int round = 0; round < config.rounds; ++round) {
    ChurnRoundStats stats;
    stats.round = round;
    control_clock.AdvanceMicros(config.round_duration_us);

    // Expiry sweep before heartbeats: a client whose lease lapsed while
    // it was crashed must rejoin, not renew.
    stats.swept = live.SweepExpired();

    // Heartbeats, ascending id order (the injector's draw order). A
    // crashed client misses this round's renewal.
    for (QueryId id = 0; id < held.size(); ++id) {
      if (!held[id]) continue;
      if (injector.CrashesThisRound()) continue;
      if (!live.Renew(id, config.ttl_ms).ok()) ++stats.renew_failures;
    }

    // Voluntary departures, oldest leases first.
    for (size_t i = 0; i < config.departures_per_round;) {
      if (arrival_order.empty()) break;
      const QueryId id = arrival_order.front();
      arrival_order.pop_front();
      if (id >= held.size() || !held[id]) continue;  // Already retired.
      QSP_IGNORE_RESULT(live.Unsubscribe(id));
      ++i;
    }

    // Arrivals; a late joiner re-subscribes a departed rectangle.
    for (size_t i = 0; i < config.arrivals_per_round; ++i) {
      if (injector.JoinsLate() && !rejoin_pool.empty()) {
        offer(rejoin_pool.front());
        rejoin_pool.pop_front();
      } else {
        offer(fresh_rect());
      }
    }

    const double wall_start = WallMicros();
    const BatchReport report = live.ProcessBatch();
    stats.wall_batch_us = WallMicros() - wall_start;

    for (QueryId id : report.retired) {
      if (id < held.size() && held[id]) {
        held[id] = false;
        --held_count;
        rejoin_pool.push_back(queries.rect(id));
        if (rejoin_pool.size() > 4096) rejoin_pool.pop_front();
      }
    }

    const LiveStats snapshot = live.Stats();
    stats.held = held_count;
    stats.queue_depth = snapshot.queue_depth;
    stats.sheds_total = snapshot.sheds;
    stats.repair_moves = report.repair_moves;
    stats.repair_deadline_hit = report.repair_deadline_hit;
    stats.evaluations = live.evaluations() - evals_before;
    evals_before = live.evaluations();
    stats.cost = report.cost;
    stats.bound = report.bound;
    stats.drift = report.drift;
    stats.replan_triggered = report.replan_triggered;
    stats.replan_adopted = report.replan_adopted;
    stats.replan_abandoned = report.replan_abandoned;

    if (config.invariant_check_every > 0 &&
        static_cast<size_t>(round) % config.invariant_check_every == 0 &&
        outcome.invariant_error.empty()) {
      outcome.invariant_error =
          CheckInvariants(live, ctx, config.cost_model, /*drained=*/false);
    }

    digest = FnvMix(digest, static_cast<uint64_t>(stats.round));
    digest = FnvMix(digest, stats.held);
    digest = FnvMix(digest, stats.queue_depth);
    digest = FnvMix(digest, stats.sheds_total);
    digest = FnvMix(digest, stats.swept);
    digest = FnvMix(digest, stats.renew_failures);
    digest = FnvMix(digest, static_cast<uint64_t>(stats.repair_moves));
    digest = FnvMix(digest, stats.repair_deadline_hit ? 1 : 0);
    digest = FnvMix(digest, stats.evaluations);
    digest = FnvMix(digest, Bits(stats.cost));
    digest = FnvMix(digest, Bits(stats.bound));
    digest = FnvMix(digest, Bits(stats.drift));
    digest = FnvMix(digest, (stats.replan_triggered ? 1u : 0u) |
                                (stats.replan_adopted ? 2u : 0u) |
                                (stats.replan_abandoned ? 4u : 0u));
    outcome.rounds.push_back(stats);
  }

  // Settle: drain the backlog, then the partition must cover exactly the
  // live lease set.
  const BatchReport final_report = live.DrainAll();
  for (QueryId id : final_report.retired) {
    if (id < held.size() && held[id]) {
      held[id] = false;
      --held_count;
    }
  }
  if (outcome.invariant_error.empty()) {
    outcome.invariant_error =
        CheckInvariants(live, ctx, config.cost_model, /*drained=*/true);
  }

  outcome.final_stats = live.Stats();
  outcome.final_cost = live.cost();
  outcome.incremental_evals = live.evaluations();
  outcome.maintenance_evals = live.evaluations() - seed_evals;

  if (config.compare_fresh) {
    // From-scratch yardstick over the final population, on a dense
    // snapshot (same technique as the drift replans).
    QuerySet snap;
    for (QueryId id : live.LiveIds()) {
      QSP_IGNORE_RESULT(snap.Add(queries.rect(id)));
    }
    if (snap.size() > 0) {
      MergeContext snap_ctx(&snap, &estimator, &procedure);
      PairMerger merger(/*pruning=*/true);
      Result<MergeOutcome> fresh = merger.Merge(snap_ctx, config.cost_model);
      if (fresh.ok()) {
        outcome.fresh_cost = fresh.value().cost;
        outcome.fresh_evals = fresh.value().candidates;
      }
    }
  }

  digest = FnvMix(digest, Bits(outcome.final_cost));
  digest = FnvMix(digest, outcome.incremental_evals);
  digest = FnvMix(digest, outcome.maintenance_evals);
  digest = FnvMix(digest, outcome.final_stats.active);
  digest = FnvMix(digest, outcome.final_stats.sheds);
  digest = FnvMix(digest, outcome.final_stats.expired);
  digest = FnvMix(digest, outcome.final_stats.renewals);
  digest = FnvMix(digest, outcome.final_stats.replans_adopted);
  digest = FnvMix(digest, outcome.final_stats.replans_abandoned);
  digest = FnvMix(digest, Bits(outcome.fresh_cost));
  digest = FnvMix(digest, outcome.fresh_evals);
  outcome.digest = digest;
  return outcome;
}

}  // namespace qsp

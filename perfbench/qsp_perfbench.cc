// qsp_perfbench — drives one end-to-end benchmark workload through the
// qsp library and writes the raw measurements as one JSON object.
//
//   qsp_perfbench --workload NAME --seed N --seconds S --mode e2e|traced
//                 [--queries N] [--threads N] --out FILE [--spans FILE]
//   qsp_perfbench --mode selftest
//
// e2e     Runs the workload through the public SubscriptionService facade
//         with no tracing: set-up samples, plan time, round and placement
//         samples, failure counts and the work-counter fingerprint.
// traced  Runs the facade once for reference, then drives the same inputs
//         through each layer's public functions (relation, stats, query,
//         merge, channel, net, core), timing every call from outside with
//         spans. It must reproduce the facade's plan cost, group count and
//         RoundStats exactly.
// selftest Checks the harness's own pieces: the counting estimator is
//         transparent and the per-shard replica reproduces ShardStats.
//
// run.py turns the raw samples into the metrics of BENCHMARK.json.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel_cost.h"
#include "channel/client_set.h"
#include "channel/hill_climb_allocator.h"
#include "core/subscription_service.h"
#include "cost/cost_model.h"
#include "exec/thread_pool.h"
#include "geom/rect_soa.h"
#include "merge/shard_assign.h"
#include "merge/sharded_planner.h"
#include "net/message.h"
#include "net/server.h"
#include "net/sim_client.h"
#include "net/simulator.h"
#include "net/wire.h"
#include "query/merge_context.h"
#include "relation/generator.h"
#include "relation/grid_index.h"
#include "stats/histogram_estimator.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace {

using qsp::ClientId;
using qsp::QueryId;
using qsp::Rect;
using SteadyClock = std::chrono::steady_clock;

double SecondsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Moves the calling thread to the next CPU the process may use, round
/// robin. On a shared host the vCPUs run at different speeds (a busy
/// neighbour on a sibling hyperthread: up to 1.45x in one probe) and the
/// scheduler keeps a thread on one of them for seconds, so a run's
/// medians would depend on where it landed. Pinning each timed sample to
/// the next CPU gives every run the same mix of CPUs. Worker threads are
/// created before the first call and stay unpinned.
void NextCpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  static size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[next++ % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Workloads

const Rect kDomain(0, 0, 1000, 1000);
constexpr size_t kObjects = 200000;
// Set-up-only repetitions at the start of a one-shot run.
constexpr int kSetupReps = 5;
// One-shot workloads repeat episodes — set-up, Plan(), the shape's
// rounds_per_episode rounds — until the run's time is used; at least
// kMinEpisodes.
constexpr size_t kMinEpisodes = 2;
// live-churn: replacements per tick, and the fixed tick prefix over which
// the deterministic fingerprint (and plan_cost_ratio) is taken. A run does
// a fixed number of ticks, kTicksPerSecond per requested second, not as
// many as fit: every tick's round counts its verification, so the number
// of operations (and of failed ones) must not depend on the host's speed.
constexpr size_t kChurnPerTick = 32;
constexpr size_t kFingerprintTicks = 8;
constexpr double kTicksPerSecond = 2.5;
// live-churn: one extra set-up and seeding drain every this many ticks.
constexpr size_t kTicksPerReseed = 8;
constexpr size_t kMaxTicks = 2000;

size_t ChurnTicks(double seconds) {
  const auto ticks = static_cast<size_t>(std::llround(seconds * kTicksPerSecond));
  return std::clamp(ticks, kFingerprintTicks, kMaxTicks);
}
// Rounds the traced run replays per workload (live-churn: ticks).
constexpr size_t kTracedRounds = 3;

struct Shape {
  std::string name;
  size_t subs = 0;
  size_t clients = 0;
  int shards = 1;
  int threads = 1;
  int channels = 1;
  double k_check = 0.0;
  bool live = false;
  size_t rounds_per_episode = 4;
  // The population's queries are the same for every seed; the seed draws
  // only their arrival order, and so their ids and owners.
  bool fixed_population = false;
};

bool ShapeFor(const std::string& name, size_t queries, Shape* shape) {
  shape->name = name;
  if (name == "plan-unsharded") {
    shape->subs = shape->clients = 4000;
    // Rounds are cheap next to the plan; more of them per episode keep
    // the round figures from resting on a handful of samples.
    shape->rounds_per_episode = 12;
  } else if (name == "round-sharded") {
    shape->subs = shape->clients = 8000;
    shape->shards = 16;
    shape->threads = 2;
    shape->rounds_per_episode = 4;
    // Plan() waits for the costliest shard, whose size swings with which
    // queries a seed draws: 2.1 s on four seeds, 3.6 s on a fifth.
    shape->fixed_population = true;
  } else if (name == "live-churn") {
    shape->subs = shape->clients = 1000;
    shape->live = true;
  } else if (name == "alloc-multichannel") {
    // Each episode is a fresh instance of this size (see RunE2E).
    shape->subs = 160;
    shape->clients = 32;
    shape->channels = 4;
    shape->k_check = 0.5;
  } else {
    return false;
  }
  if (queries > 0) {
    // Scaling sweeps keep the shape's subscriptions-per-client ratio.
    shape->clients = std::max<size_t>(1, queries * shape->clients / shape->subs);
    shape->subs = queries;
  }
  return true;
}

qsp::CostModel ModelFor(const Shape& shape) {
  qsp::CostModel model;
  model.k_m = 10.0;
  model.k_t = 1.0;
  model.k_u = 0.5;
  model.k_d = 0.0;
  model.k_check = shape.k_check;
  return model;
}

qsp::ServiceConfig ConfigFor(const Shape& shape) {
  qsp::ServiceConfig config;
  config.cost_model = ModelFor(shape);
  config.merger = qsp::MergerKind::kPairMerging;
  config.procedure = qsp::ProcedureKind::kBoundingRect;
  config.estimator = qsp::EstimatorKind::kHistogram;
  config.histogram_buckets = 32;
  config.index = qsp::IndexKind::kGrid;
  config.num_channels = shape.channels;
  config.threads = shape.threads;
  config.shards = shape.shards;
  config.shard_assign = qsp::ShardAssign::kBalanced;
  if (shape.live) {
    config.live.enabled = true;
    config.live.admission_batch_max = 64;
    config.live.repair_max_moves = 2;
    config.live.replan_drift_factor = 0.0;
    config.live.sweep_interval_ms = 0;
  }
  return config;
}

qsp::TableGeneratorConfig TableConfig() {
  qsp::TableGeneratorConfig config;
  config.domain = kDomain;
  config.num_objects = kObjects;
  config.clustered_fraction = 0.5;
  config.num_clusters = 5;
  return config;
}

// The database and the layout of the query population are fixed: every
// run sees the same 200k objects and draws its subscriptions from the same
// pool of hybrid queries. With five dense object clusters and two query
// clusters, a fresh layout per seed moves the round's work by +-40%, which
// would swamp any code change; the seed instead draws which pool queries
// subscribe, in which order, and so which client owns each.
constexpr uint64_t kLayoutSeed = 20000;
constexpr size_t kPoolSize = size_t{1} << 17;

qsp::Table MakeTable() {
  qsp::Rng rng(kLayoutSeed);
  return qsp::GenerateTable(TableConfig(), &rng);
}

/// The generated subscription stream: rects[i] is subscribed by owner[i].
/// live-churn draws its replacements from the tail past `shape.subs`.
struct Inputs {
  std::vector<Rect> rects;
  std::vector<ClientId> owner;
};

/// The fixed query pool, ranked by estimated answer size.
class Pool {
 public:
  explicit Pool(const qsp::Table& table) {
    qsp::Rng layout(kLayoutSeed + 1);
    qsp::QueryGenConfig config;
    config.domain = kDomain;
    config.num_queries = kPoolSize;
    config.min_extent = 0.005;
    config.max_extent = 0.02;
    rects_ = qsp::GenerateQueries(config, &layout);
    const qsp::HistogramEstimator sizes(table, kDomain, 32, 32);
    std::vector<std::pair<double, uint32_t>> ranked(kPoolSize);
    for (size_t i = 0; i < kPoolSize; ++i) {
      ranked[i] = {sizes.EstimateSize(rects_[i]), static_cast<uint32_t>(i)};
    }
    std::sort(ranked.begin(), ranked.end());
    for (const auto& entry : ranked) by_size_.push_back(entry.second);
  }

  /// Stratified draw of the initial population: the pool, ordered by
  /// estimated answer size, is cut into `subs` equal strata and one query
  /// is drawn from each, so every seed's population carries the same
  /// spread of answer sizes (a small uniform draw does not). live-churn's
  /// replacement stream follows, drawn uniformly from the whole pool.
  Inputs Draw(const Shape& shape, uint64_t seed) const {
    qsp::Rng rng(seed);
    qsp::Rng fixed(kLayoutSeed + 2);
    qsp::Rng& picks = shape.fixed_population ? fixed : rng;
    Inputs inputs;
    for (size_t k = 0; k < shape.subs; ++k) {
      const size_t lo = k * kPoolSize / shape.subs;
      const size_t hi = (k + 1) * kPoolSize / shape.subs - 1;
      const auto pick = static_cast<size_t>(picks.UniformInt(
          static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
      inputs.rects.push_back(rects_[by_size_[pick]]);
    }
    rng.Shuffle(&inputs.rects);
    if (shape.live) {
      for (size_t i = 0; i < kChurnPerTick * kMaxTicks; ++i) {
        inputs.rects.push_back(rects_[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(kPoolSize - 1)))]);
      }
    }
    inputs.owner.resize(shape.subs);
    for (size_t i = 0; i < shape.subs; ++i) {
      inputs.owner[i] = static_cast<ClientId>(i % shape.clients);
    }
    return inputs;
  }

 private:
  std::vector<Rect> rects_;
  std::vector<uint32_t> by_size_;
};

/// alloc-multichannel draws a fresh instance per episode; episode 0 uses
/// the run's seed itself, so the traced run replays it.
uint64_t EpisodeSeed(uint64_t seed, size_t episode) {
  return episode == 0 ? seed : seed * 1000003ULL + episode;
}

// ---------------------------------------------------------------------------
// Result record

struct Fingerprint {
  double plan_cost_ratio = 0.0;
  uint64_t merge_groups = 0;
  uint64_t headers_checked = 0;
  uint64_t payload_rows = 0;
  uint64_t batch_evaluations = 0;
  // Only the traced run sees these (the facade does not expose them).
  uint64_t merge_candidates = 0;
  uint64_t channel_moves = 0;
};

struct Record {
  std::vector<double> setup_s;
  std::vector<double> plan_s;
  std::vector<double> round_ms;
  std::vector<double> placement_ms;
  uint64_t admit_ops = 0;
  double admit_seconds = 0.0;
  double plan_cost_ratio = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures;  // kind -> count
  std::vector<std::string> harness_errors;   // inconsistencies, not op failures
  Fingerprint fp;
  std::map<std::string, double> layer;       // traced mode only
};

void Fail(Record* rec, const std::string& kind) {
  ++rec->failed;
  ++rec->failures[kind];
}

/// Every query of `ids` sits in exactly one group of `partitions`.
bool CoversExactlyOnce(const std::vector<qsp::Partition>& partitions,
                       const std::vector<QueryId>& ids) {
  std::map<QueryId, int> seen;
  for (const qsp::Partition& partition : partitions) {
    for (const qsp::QueryGroup& group : partition) {
      for (QueryId id : group) ++seen[id];
    }
  }
  if (seen.size() != ids.size()) return false;
  for (QueryId id : ids) {
    auto it = seen.find(id);
    if (it == seen.end() || it->second != 1) return false;
  }
  return true;
}

/// Counts the round's work counters into the fingerprint and checks the
/// round's outcome.
void RecordRound(const qsp::Result<qsp::RoundStats>& round, Record* rec,
                 bool fingerprint) {
  ++rec->attempted;
  if (!round.ok()) {
    Fail(rec, "round_status");
    return;
  }
  if (!round.value().all_answers_correct) Fail(rec, "round_wrong_answer");
  if (fingerprint) {
    rec->fp.headers_checked += round.value().headers_checked;
    rec->fp.payload_rows += round.value().payload_rows;
  }
}

// ---------------------------------------------------------------------------
// Facade run (SubscriptionService only)

struct FacadeRun {
  std::unique_ptr<qsp::SubscriptionService> service;
  std::vector<QueryId> ids;                 // live: oldest first
  std::vector<ClientId> id_owner;           // parallel to ids
  std::vector<SteadyClock::time_point> subscribed_at;
  double registration_s = 0.0;  // the subscribe loop alone
  size_t next_rect = 0;
};

/// Table generation + service construction + client and subscription
/// registration: the set-up a user pays before the first plan.
FacadeRun SetUp(const Shape& shape, const Inputs& inputs, Record* rec,
                double* seconds) {
  NextCpu();
  const auto start = SteadyClock::now();
  FacadeRun run;
  run.service = std::make_unique<qsp::SubscriptionService>(
      MakeTable(), kDomain, ConfigFor(shape));
  for (size_t c = 0; c < shape.clients; ++c) run.service->AddClient();
  run.subscribed_at.reserve(shape.subs);
  const auto registration_start = SteadyClock::now();
  for (size_t i = 0; i < shape.subs; ++i) {
    run.subscribed_at.push_back(SteadyClock::now());
    ++rec->attempted;
    if (shape.live) {
      qsp::Result<QueryId> id =
          run.service->SubscribeLeased(inputs.owner[i], inputs.rects[i]);
      if (!id.ok()) {
        Fail(rec, "subscribe_shed");
        continue;
      }
      run.ids.push_back(id.value());
    } else {
      run.ids.push_back(
          run.service->Subscribe(inputs.owner[i], inputs.rects[i]));
    }
    run.id_owner.push_back(inputs.owner[i]);
  }
  run.next_rect = shape.subs;
  const auto end = SteadyClock::now();
  run.registration_s = SecondsBetween(registration_start, end);
  *seconds = SecondsBetween(start, end);
  return run;
}

double LiveUnmergedCost(const qsp::SubscriptionService& service,
                        const qsp::CostModel& model) {
  double cost = 0.0;
  for (QueryId id : service.live()->LiveIds()) {
    cost += model.GroupCost(*service.context(), qsp::QueryGroup{id});
  }
  return cost;
}

void CheckLivePartition(const qsp::SubscriptionService& service, Record* rec) {
  if (!CoversExactlyOnce({service.live()->PlanSnapshot()},
                         service.live()->LiveIds())) {
    Fail(rec, "partition_cover");
  }
}

/// One live-churn tick: 32 departures (oldest first), 32 arrivals for the
/// same clients, one drain, one round. Returns the drain's report.
qsp::BatchReport ChurnTick(const Inputs& inputs, FacadeRun* run, Record* rec,
                           double* drain_s, qsp::Result<qsp::RoundStats>* round,
                           double* round_s, double* subscribe_us) {
  qsp::SubscriptionService& service = *run->service;
  NextCpu();
  std::vector<ClientId> owners;
  for (size_t k = 0; k < kChurnPerTick; ++k) {
    ++rec->attempted;
    if (!service.Unsubscribe(run->ids.front()).ok()) Fail(rec, "unsubscribe");
    owners.push_back(run->id_owner.front());
    run->ids.erase(run->ids.begin());
    run->id_owner.erase(run->id_owner.begin());
  }
  std::vector<SteadyClock::time_point> called;
  double subscribe_total = 0.0;
  for (ClientId owner : owners) {
    const auto t = SteadyClock::now();
    called.push_back(t);
    ++rec->attempted;
    qsp::Result<QueryId> id =
        service.SubscribeLeased(owner, inputs.rects[run->next_rect++]);
    subscribe_total += SecondsBetween(t, SteadyClock::now());
    if (!id.ok()) {
      Fail(rec, "subscribe_shed");
      called.pop_back();
      continue;
    }
    run->ids.push_back(id.value());
    run->id_owner.push_back(owner);
  }
  if (subscribe_us != nullptr) {
    *subscribe_us = 1e6 * subscribe_total / static_cast<double>(owners.size());
  }
  const auto drain_start = SteadyClock::now();
  ++rec->attempted;
  qsp::BatchReport report = service.DrainAdmissions();
  const auto drain_end = SteadyClock::now();
  *drain_s = SecondsBetween(drain_start, drain_end);
  if (service.live_stats().pending != 0) Fail(rec, "drain_pending");
  CheckLivePartition(service, rec);
  for (const auto& t : called) {
    rec->placement_ms.push_back(1e3 * SecondsBetween(t, drain_end));
  }
  rec->admit_ops += 2 * kChurnPerTick;
  rec->admit_seconds += *drain_s;
  const auto round_start = SteadyClock::now();
  *round = service.RunRound();
  *round_s = SecondsBetween(round_start, SteadyClock::now());
  return report;
}

/// Plans (or, live, drains the seeding admissions) and records a plan_s
/// sample; one-shot plans also give placement samples. With
/// `fingerprint` it records plan quality and the plan's work counters.
void FacadePlan(const Shape& shape, FacadeRun* run, Record* rec,
                bool fingerprint) {
  qsp::SubscriptionService& service = *run->service;
  NextCpu();
  const auto start = SteadyClock::now();
  ++rec->attempted;
  if (shape.live) {
    const qsp::BatchReport report = service.DrainAdmissions();
    rec->plan_s.push_back(SecondsBetween(start, SteadyClock::now()));
    if (fingerprint) rec->fp.batch_evaluations += report.evaluations;
    if (service.live_stats().pending != 0) Fail(rec, "drain_pending");
    CheckLivePartition(service, rec);
    return;
  }
  qsp::Result<qsp::PlanReport> report = service.Plan();
  const auto end = SteadyClock::now();
  const double plan_s = SecondsBetween(start, end);
  rec->plan_s.push_back(plan_s);
  if (!report.ok()) {
    Fail(rec, "plan_status");
    return;
  }
  if (!CoversExactlyOnce(report.value().plan.channel_partitions, run->ids)) {
    Fail(rec, "partition_cover");
  }
  for (const auto& t : run->subscribed_at) {
    rec->placement_ms.push_back(1e3 * SecondsBetween(t, end));
  }
  rec->admit_ops += run->subscribed_at.size();
  rec->admit_seconds += plan_s;
  if (fingerprint) {
    rec->plan_cost_ratio =
        report.value().estimated_cost / report.value().initial_cost;
    rec->fp.plan_cost_ratio = rec->plan_cost_ratio;
    rec->fp.merge_groups = report.value().num_groups;
  }
}

double TimeRound(qsp::SubscriptionService* service,
                 qsp::Result<qsp::RoundStats>* round) {
  NextCpu();
  const auto start = SteadyClock::now();
  *round = service->RunRound();
  return SecondsBetween(start, SteadyClock::now());
}

/// The untraced end-to-end run. live-churn sets up and drains its seeding
/// admissions once, then runs ChurnTicks(seconds) churn ticks with a fresh
/// set-up and seeding drain every kTicksPerReseed ticks. The one-shot
/// workloads make kSetupReps set-ups, then run episodes of set-up, Plan()
/// and the shape's rounds until `seconds` are used. The
/// fingerprint, and plan_cost_ratio, come from a fixed prefix of the work
/// (the first episode; live-churn: the first kFingerprintTicks ticks), so
/// they do not depend on how much fits in the time.
void RunE2E(const Shape& shape, const Pool& pool, uint64_t seed,
            double seconds, Record* rec) {
  const auto start = SteadyClock::now();
  auto elapsed = [&start] { return SecondsBetween(start, SteadyClock::now()); };
  const Inputs inputs = pool.Draw(shape, seed);
  FacadeRun run;
  if (shape.live) {
    double setup = 0.0;
    run = SetUp(shape, inputs, rec, &setup);
    rec->setup_s.push_back(setup);
    FacadePlan(shape, &run, rec, true);
    const qsp::CostModel model = ModelFor(shape);
    const size_t ticks = ChurnTicks(seconds);
    for (size_t tick = 0; tick < ticks; ++tick) {
      if (tick % kTicksPerReseed == kTicksPerReseed - 1) {
        // A fresh service beside the live one gives one more set-up and
        // seeding-drain sample; spreading them over the run keeps plan_s
        // from resting on the host's state in its first seconds.
        FacadeRun fresh = SetUp(shape, inputs, rec, &setup);
        rec->setup_s.push_back(setup);
        FacadePlan(shape, &fresh, rec, false);
      }
      qsp::Result<qsp::RoundStats> round = qsp::Status::Internal("not run");
      double drain_s = 0.0, round_s = 0.0;
      const qsp::BatchReport report =
          ChurnTick(inputs, &run, rec, &drain_s, &round, &round_s, nullptr);
      const bool in_prefix = tick < kFingerprintTicks;
      if (in_prefix) rec->fp.batch_evaluations += report.evaluations;
      rec->round_ms.push_back(1e3 * round_s);
      RecordRound(round, rec, in_prefix);
      if (tick + 1 == kFingerprintTicks) {
        rec->plan_cost_ratio = run.service->live()->cost() /
                               LiveUnmergedCost(*run.service, model);
        rec->fp.plan_cost_ratio = rec->plan_cost_ratio;
        rec->fp.merge_groups = run.service->live()->PlanSnapshot().size();
      }
    }
    return;
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double setup = 0.0;
    SetUp(shape, inputs, rec, &setup);
    rec->setup_s.push_back(setup);
  }
  double last_episode_s = 0.0;
  for (size_t episode = 0;
       episode < kMinEpisodes || elapsed() + last_episode_s <= seconds;
       ++episode) {
    const double episode_start = elapsed();
    const Inputs episode_inputs =
        shape.channels > 1 ? pool.Draw(shape, EpisodeSeed(seed, episode))
                           : inputs;
    double setup = 0.0;
    run = FacadeRun{};
    run = SetUp(shape, episode_inputs, rec, &setup);
    rec->setup_s.push_back(setup);
    FacadePlan(shape, &run, rec, episode == 0);
    qsp::RoundStats first;
    for (size_t r = 0; r < shape.rounds_per_episode; ++r) {
      qsp::Result<qsp::RoundStats> round = qsp::Status::Internal("not run");
      rec->round_ms.push_back(1e3 * TimeRound(run.service.get(), &round));
      RecordRound(round, rec, episode == 0 && r == 0);
      if (!round.ok()) continue;
      // Under one plan with no client cache every round is identical.
      if (r == 0) first = round.value();
      if (!(round.value() == first)) {
        rec->harness_errors.push_back("rounds under one plan differ");
      }
    }
    last_episode_s = elapsed() - episode_start;
  }
}

// ---------------------------------------------------------------------------
// Traced run

/// In-memory span log. Spans nest strictly (the harness is single
/// threaded), so a layer's self time is its spans' durations minus the
/// durations of their direct children.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  explicit Tracer(uint64_t run_id) : run_id_(run_id), origin_(SteadyClock::now()) {}

  template <typename F>
  auto Time(const std::string& name, const std::string& layer, F&& body) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, layer, Now(), 0.0,
                          stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    struct Closer {
      Tracer* tracer;
      int id;
      ~Closer() {
        tracer->spans_[static_cast<size_t>(id)].end = tracer->Now();
        tracer->stack_.pop_back();
      }
    } closer{this, id};
    return body();
  }

  /// Duration of the most recently closed span named `name`.
  double Last(const std::string& name) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->name == name) return it->end - it->start;
    }
    return 0.0;
  }

  std::map<std::string, double> SelfTimeByLayer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].layer] += spans_[i].end - spans_[i].start - child[i];
    }
    return self;
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      qsp::JsonWriter w;
      w.BeginObject()
          .Key("run").UInt(run_id_)
          .Key("id").UInt(i)
          .Key("parent").Int(s.parent)
          .Key("name").String(s.name)
          .Key("layer").String(s.layer)
          .Key("start_s").Number(s.start)
          .Key("end_s").Number(s.end)
          .EndObject();
      std::fprintf(f, "%s\n", w.str().c_str());
    }
    return std::fclose(f) == 0;
  }

 private:
  double Now() const { return SecondsBetween(origin_, SteadyClock::now()); }

  uint64_t run_id_;
  SteadyClock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// SizeEstimator decorator that counts calls and forwards every one
/// unchanged, so plans made through it are identical to plans without it.
class CountingEstimator : public qsp::SizeEstimator {
 public:
  explicit CountingEstimator(std::unique_ptr<qsp::SizeEstimator> inner)
      : inner_(std::move(inner)) {}
  DensityFloor Floor() const override { return inner_->Floor(); }
  double EstimateSize(const Rect& rect) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->EstimateSize(rect);
  }
  double EstimateRegionSize(const std::vector<Rect>& pieces) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->EstimateRegionSize(pieces);
  }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<qsp::SizeEstimator> inner_;
  mutable std::atomic<uint64_t> calls_{0};
};

/// Replays MulticastSimulator::RunRound's lossless path one layer call at
/// a time (server execution, codec, broadcast, verification) so each can
/// be timed. Like the simulator, it rebuilds its clients only when the
/// allocation changes, so its RoundStats must equal the facade's.
class RoundReplica {
 public:
  RoundReplica(const qsp::Table* table, const qsp::SpatialIndex* index,
               const qsp::QuerySet* queries, const qsp::ClientSet* clients)
      : table_(table), queries_(queries), clients_(clients),
        server_(table, index, queries, clients) {}

  struct Timings {
    double execute_s = 0.0;
    double wire_s = 0.0;
    double broadcast_s = 0.0;
    double verify_s = 0.0;
    uint64_t wire_bytes = 0;
    uint64_t messages_processed = 0;
  };

  qsp::RoundStats Run(const qsp::DisseminationPlan& plan,
                      const qsp::MergeProcedure& procedure, Tracer* tracer,
                      Timings* t) {
    if (plan.allocation != last_allocation_) {
      clients_built_.clear();
      for (size_t ch = 0; ch < plan.allocation.size(); ++ch) {
        for (ClientId c : plan.allocation[ch]) {
          clients_built_.emplace_back(c, ch, queries_, clients_->QueriesOf(c));
        }
      }
      last_allocation_ = plan.allocation;
    }
    for (qsp::SimClient& client : clients_built_) client.StartRound();
    qsp::RoundStats stats;
    std::vector<qsp::Message> messages = tracer->Time("net.execute", "net", [&] {
      return server_.ExecuteRound(plan, procedure);
    });
    t->execute_s = tracer->Last("net.execute");
    const uint32_t round_id = round_counter_++;
    std::set<size_t> used_channels;
    for (qsp::Message& msg : messages) {
      msg.round_id = round_id;
      stats.payload_bytes += msg.PayloadBytes(*table_);
      stats.header_bytes += msg.HeaderBytes();
      stats.payload_rows += msg.payload.size();
      used_channels.insert(msg.channel);
    }
    stats.num_messages = messages.size();
    stats.channels_used = used_channels.size();
    // Off the service's round path: timed for the codec's own metric and
    // excluded from the overhead comparison.
    t->wire_bytes = tracer->Time("net.wire", "net", [&] {
      uint64_t bytes = 0;
      for (const qsp::Message& msg : messages) {
        auto frame = qsp::EncodeMessage(msg, *table_);
        if (!frame.ok()) continue;
        bytes += frame.value().size();
        auto decoded = qsp::DecodeMessage(frame.value(), table_->schema());
        if (!decoded.ok() || decoded.value().tuples.size() != msg.payload.size()) {
          codec_ok_ = false;
        }
      }
      return bytes;
    });
    t->wire_s = tracer->Last("net.wire");
    tracer->Time("net.broadcast", "net", [&] {
      for (const qsp::Message& msg : messages) {
        for (qsp::SimClient& client : clients_built_) {
          if (client.channel() == msg.channel) client.Receive(msg, *table_);
        }
      }
    });
    t->broadcast_s = tracer->Last("net.broadcast");
    tracer->Time("net.verify", "net", [&] {
      stats.all_answers_correct = true;
      for (const qsp::SimClient& client : clients_built_) {
        stats.irrelevant_rows += client.stats().rows_irrelevant;
        stats.rows_examined += client.stats().rows_examined;
        stats.headers_checked += client.stats().headers_checked;
        stats.cache_hits += client.stats().cache_hits;
        stats.duplicate_deliveries += client.stats().duplicates_ignored;
        t->messages_processed += client.stats().messages_processed;
        for (QueryId q : client.subscriptions()) {
          if (client.AnswerFor(q) != server_.DirectAnswer(q)) {
            stats.all_answers_correct = false;
          }
        }
      }
    });
    t->verify_s = tracer->Last("net.verify");
    return stats;
  }

  bool codec_ok() const { return codec_ok_; }

 private:
  const qsp::Table* table_;
  const qsp::QuerySet* queries_;
  const qsp::ClientSet* clients_;
  qsp::Server server_;
  std::vector<qsp::SimClient> clients_built_;
  qsp::Allocation last_allocation_;
  uint32_t round_counter_ = 0;
  bool codec_ok_ = true;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-shard replica: re-runs the sharded planner's independent shard
/// merges one at a time on the layout's sub-instances and times each.
struct ShardReplica {
  std::vector<double> seconds;     // per non-empty shard, in shard order
  std::vector<size_t> groups;      // per non-empty shard, in shard order
};

ShardReplica ReplayShards(const qsp::MergeContext& ctx,
                          const qsp::ShardLayout& layout,
                          const qsp::Merger& merger,
                          const qsp::CostModel& model, Tracer* tracer) {
  ShardReplica replica;
  std::vector<std::vector<QueryId>> members(
      static_cast<size_t>(layout.num_shards));
  for (QueryId id = 0; id < ctx.num_queries(); ++id) {
    const int32_t s = layout.shard_of[id] == qsp::RectSoA::kBoundlessShard
                          ? 0
                          : layout.shard_of[id];
    members[static_cast<size_t>(s)].push_back(id);
  }
  for (size_t s = 0; s < members.size(); ++s) {
    if (members[s].empty()) continue;
    qsp::QuerySet queries;
    for (QueryId id : members[s]) queries.Add(ctx.queries().rect(id));
    const qsp::MergeContext shard_ctx(&queries, &ctx.estimator(),
                                      &ctx.procedure());
    auto outcome = tracer->Time("merge.shard", "merge", [&] {
      return merger.Merge(shard_ctx, model);
    });
    replica.seconds.push_back(tracer->Last("merge.shard"));
    replica.groups.push_back(outcome.ok() ? outcome.value().partition.size()
                                          : 0);
  }
  return replica;
}

/// Compares the replica's ShardStats-equivalent with the planner's.
bool ShardGroupsMatch(const ShardReplica& replica,
                      const qsp::ShardedMergeOutcome& outcome) {
  if (replica.groups.size() != outcome.shards.size()) return false;
  for (size_t i = 0; i < replica.groups.size(); ++i) {
    if (replica.groups[i] != outcome.shards[i].groups) return false;
  }
  return true;
}

/// Module-level plan over the replica's own context. Fills the merge /
/// channel / query layer metrics and returns the plan.
struct ModulePlan {
  qsp::DisseminationPlan plan;
  double cost = 0.0;
  double initial_cost = 0.0;
  size_t groups = 0;
  bool ok = true;
};

ModulePlan PlanModules(const Shape& shape, const qsp::MergeContext& ctx,
                       const qsp::ClientSet& clients,
                       const CountingEstimator& estimator, Tracer* tracer,
                       Record* rec) {
  auto& L = rec->layer;
  const qsp::CostModel model = ModelFor(shape);
  const qsp::ServiceConfig config = ConfigFor(shape);
  ModulePlan result;
  result.initial_cost = model.InitialCost(ctx);
  if (shape.channels > 1) {
    result.initial_cost += model.k_check *
                           static_cast<double>(clients.num_clients()) *
                           static_cast<double>(ctx.num_queries());
  }
  const auto merger = qsp::MakeMerger(config.merger, config.seed, config.pruning);
  const uint64_t calls_before = estimator.calls();
  if (shape.channels > 1) {
    const qsp::ChannelCostEvaluator evaluator(&ctx, model, &clients);
    const qsp::HillClimbAllocator allocator(config.allocation_policy,
                                            config.seed);
    auto allocated = tracer->Time("channel.allocate", "channel", [&] {
      return allocator.Allocate(evaluator, shape.channels);
    });
    L["channel.allocate_s"] = tracer->Last("channel.allocate");
    if (!allocated.ok()) {
      result.ok = false;
      return result;
    }
    result.cost = allocated.value().cost;
    result.plan.allocation = allocated.value().allocation;
    L["channel.moves"] = static_cast<double>(allocated.value().candidates);
    rec->fp.channel_moves = allocated.value().candidates;
    double channels_used = 0.0;
    tracer->Time("merge.plan", "merge", [&] {
      for (const auto& channel_clients : result.plan.allocation) {
        qsp::MergeOutcome outcome = evaluator.Plan(channel_clients);
        rec->fp.merge_candidates += outcome.candidates;
        L["merge.bounds_refined"] += static_cast<double>(outcome.bounds_refined);
        L["merge.bounds_pruned"] += static_cast<double>(outcome.bounds_pruned);
        if (!channel_clients.empty()) channels_used += 1.0;
        result.plan.channel_partitions.push_back(std::move(outcome.partition));
      }
    });
    L["channel.channel_evals"] = static_cast<double>(evaluator.evaluations());
    L["channel.channels_used"] = channels_used;
  } else if (shape.shards > 1) {
    qsp::RectSoA soa;
    soa.Reserve(ctx.num_queries());
    for (QueryId id = 0; id < ctx.num_queries(); ++id) {
      soa.PushBack(ctx.queries().rect(id));
    }
    const qsp::ShardLayout layout = tracer->Time("merge.shard_assign", "merge", [&] {
      return qsp::AssignShards(soa, shape.shards, config.shard_assign);
    });
    L["merge.shard.assign_s"] = tracer->Last("merge.shard_assign");
    L["merge.shard.count"] = static_cast<double>(layout.num_shards);
    L["merge.shard.imbalance_est"] = layout.Imbalance();
    const ShardReplica replica = ReplayShards(ctx, layout, *merger, model, tracer);
    if (!replica.seconds.empty()) {
      double sum = 0.0, max = 0.0;
      for (double s : replica.seconds) {
        sum += s;
        max = std::max(max, s);
      }
      L["merge.shard.time_max_s"] = max;
      L["merge.shard.time_imbalance"] =
          max / (sum / static_cast<double>(replica.seconds.size()));
    }
    const uint64_t before_plan = estimator.calls();
    const qsp::ShardedPlanner planner(
        merger.get(), qsp::ShardedPlanner::Options{shape.shards,
                                                   config.shard_assign,
                                                   config.pruning});
    auto outcome = tracer->Time("merge.plan", "merge", [&] {
      return planner.Plan(ctx, model);
    });
    L["stats.estimate_calls"] =
        static_cast<double>(estimator.calls() - before_plan);
    if (!outcome.ok()) {
      result.ok = false;
      return result;
    }
    if (!ShardGroupsMatch(replica, outcome.value())) {
      rec->harness_errors.push_back(
          "per-shard replica does not reproduce ShardStats::groups");
    }
    L["merge.seam.groups_in"] = static_cast<double>(outcome.value().seam_groups_in);
    L["merge.seam.merges"] = static_cast<double>(outcome.value().seam_merges);
    const qsp::MergeOutcome& merged = outcome.value().outcome;
    result.cost = merged.cost;
    rec->fp.merge_candidates = merged.candidates;
    L["merge.bounds_refined"] = static_cast<double>(merged.bounds_refined);
    L["merge.bounds_pruned"] = static_cast<double>(merged.bounds_pruned);
    result.plan.allocation.push_back(clients.AllClients());
    result.plan.channel_partitions.push_back(merged.partition);
  } else {
    auto outcome = tracer->Time("merge.plan", "merge", [&] {
      return merger->Merge(ctx, model);
    });
    if (!outcome.ok()) {
      result.ok = false;
      return result;
    }
    result.cost = outcome.value().cost;
    rec->fp.merge_candidates = outcome.value().candidates;
    L["merge.bounds_refined"] = static_cast<double>(outcome.value().bounds_refined);
    L["merge.bounds_pruned"] = static_cast<double>(outcome.value().bounds_pruned);
    result.plan.allocation.push_back(clients.AllClients());
    result.plan.channel_partitions.push_back(outcome.value().partition);
  }
  if (shape.shards <= 1) {
    L["stats.estimate_calls"] =
        static_cast<double>(estimator.calls() - calls_before);
  }
  L["merge.plan_s"] = tracer->Last("merge.plan");
  for (const qsp::Partition& p : result.plan.channel_partitions) {
    result.groups += p.size();
  }
  L["merge.groups"] = static_cast<double>(result.groups);
  L["merge.candidates"] = static_cast<double>(rec->fp.merge_candidates);
  L["merge.useful_eval_ratio"] =
      rec->fp.merge_candidates == 0
          ? 0.0
          : static_cast<double>(ctx.num_queries() - result.groups) /
                static_cast<double>(rec->fp.merge_candidates);
  L["query.groups_evaluated"] = static_cast<double>(ctx.groups_evaluated());
  L["query.cached_groups"] = static_cast<double>(ctx.cached_groups());
  L["query.group_arena_bytes"] = static_cast<double>(ctx.group_arena_bytes());
  return result;
}

/// Accumulates the replica round's per-round net metrics.
struct NetTotals {
  std::vector<double> execute, wire, broadcast, verify, overhead, round;
  double messages = 0, payload_rows = 0, payload_bytes = 0, headers = 0,
         processed = 0, rows_examined = 0, irrelevant = 0, wire_bytes = 0;
  size_t rounds = 0;

  void Add(const qsp::RoundStats& s, const RoundReplica::Timings& t,
           double facade_round_s) {
    execute.push_back(t.execute_s);
    wire.push_back(t.wire_s);
    broadcast.push_back(t.broadcast_s);
    verify.push_back(t.verify_s);
    round.push_back(facade_round_s);
    overhead.push_back(facade_round_s - t.execute_s - t.broadcast_s - t.verify_s);
    messages += static_cast<double>(s.num_messages);
    payload_rows += static_cast<double>(s.payload_rows);
    payload_bytes += static_cast<double>(s.payload_bytes);
    headers += static_cast<double>(s.headers_checked);
    processed += static_cast<double>(t.messages_processed);
    rows_examined += static_cast<double>(s.rows_examined);
    irrelevant += static_cast<double>(s.irrelevant_rows);
    wire_bytes += static_cast<double>(t.wire_bytes);
    ++rounds;
  }

  void Publish(std::map<std::string, double>* L) const {
    const double n = rounds == 0 ? 1.0 : static_cast<double>(rounds);
    (*L)["net.execute_s"] = Median(execute);
    (*L)["net.wire_s"] = Median(wire);
    (*L)["net.broadcast_s"] = Median(broadcast);
    (*L)["net.verify_s"] = Median(verify);
    (*L)["net.messages"] = messages / n;
    (*L)["net.payload_rows"] = payload_rows / n;
    (*L)["net.payload_bytes"] = payload_bytes / n;
    (*L)["net.headers_checked"] = headers / n;
    (*L)["net.header_useful_ratio"] = headers == 0 ? 0.0 : processed / headers;
    (*L)["net.rows_examined"] = rows_examined / n;
    (*L)["net.irrelevant_rows"] = irrelevant / n;
    (*L)["net.wire_bytes"] = wire_bytes / n;
    (*L)["core.round_s"] = Median(round);
    (*L)["core.round_overhead_s"] = Median(overhead);
  }
};

void CompareRound(const qsp::Result<qsp::RoundStats>& facade,
                  const qsp::RoundStats& replica, Record* rec) {
  if (facade.ok() && !(facade.value() == replica)) {
    rec->harness_errors.push_back(
        "replica round does not reproduce the facade's RoundStats");
  }
}

/// Traced one-shot workload: a facade reference run, then the module-level
/// replica over identical inputs.
void RunTracedOneShot(const Shape& shape, const Inputs& inputs,
                      Tracer* tracer, Record* rec) {
  auto& L = rec->layer;
  // Facade reference (core layer).
  double setup = 0.0;
  FacadeRun run = tracer->Time("core.setup", "core", [&] {
    return SetUp(shape, inputs, rec, &setup);
  });
  rec->setup_s.push_back(setup);
  L["core.subscribe_us"] =
      1e6 * run.registration_s / static_cast<double>(shape.subs);
  tracer->Time("core.plan", "core", [&] { FacadePlan(shape, &run, rec, true); });
  L["core.plan_s"] = rec->plan_s.back();
  std::vector<qsp::Result<qsp::RoundStats>> facade_rounds;
  std::vector<double> facade_round_s;
  for (size_t r = 0; r < kTracedRounds; ++r) {
    facade_rounds.push_back(tracer->Time("core.round", "core", [&] {
      return run.service->RunRound();
    }));
    facade_round_s.push_back(tracer->Last("core.round"));
    rec->round_ms.push_back(1e3 * facade_round_s.back());
    RecordRound(facade_rounds.back(), rec, r == 0);
  }
  run = FacadeRun{};

  // Module-level replica.
  const qsp::Table table = tracer->Time("relation.table_gen", "relation", [&] {
    return MakeTable();
  });
  L["relation.table_gen_s"] = tracer->Last("relation.table_gen");
  const qsp::GridIndex index = tracer->Time("relation.index_build", "relation", [&] {
    return qsp::GridIndex(table, kDomain);
  });
  L["relation.index_build_s"] = tracer->Last("relation.index_build");
  const CountingEstimator estimator =
      tracer->Time("stats.estimator_build", "stats", [&] {
        return CountingEstimator(std::make_unique<qsp::HistogramEstimator>(
            table, kDomain, 32, 32));
      });
  L["stats.estimator_build_s"] = tracer->Last("stats.estimator_build");
  qsp::QuerySet queries;
  qsp::ClientSet clients;
  for (size_t c = 0; c < shape.clients; ++c) clients.AddClient();
  std::vector<QueryId> ids;
  for (size_t i = 0; i < shape.subs; ++i) {
    ids.push_back(queries.Add(inputs.rects[i]));
    clients.Subscribe(inputs.owner[i], ids.back());
  }
  const auto procedure = qsp::MakeProcedure(qsp::ProcedureKind::kBoundingRect);
  const qsp::MergeContext ctx(&queries, &estimator, procedure.get());
  const ModulePlan plan = PlanModules(shape, ctx, clients, estimator, tracer, rec);
  if (!plan.ok) {
    rec->harness_errors.push_back("module-level plan failed");
    return;
  }
  const double ratio = plan.cost / plan.initial_cost;
  if (ratio != rec->plan_cost_ratio || plan.groups != rec->fp.merge_groups) {
    rec->harness_errors.push_back(
        "module-level plan does not reproduce the facade's cost and groups");
  }
  if (!CoversExactlyOnce(plan.plan.channel_partitions, ids)) {
    rec->harness_errors.push_back("module-level plan misses a subscription");
  }
  RoundReplica replica(&table, &index, &queries, &clients);
  NetTotals net;
  for (size_t r = 0; r < kTracedRounds; ++r) {
    RoundReplica::Timings t;
    const qsp::RoundStats stats = tracer->Time("net.round", "net", [&] {
      return replica.Run(plan.plan, *procedure, tracer, &t);
    });
    CompareRound(facade_rounds[r], stats, rec);
    net.Add(stats, t, facade_round_s[r]);
  }
  if (!replica.codec_ok()) rec->harness_errors.push_back("codec round trip");
  net.Publish(&L);
  // Tracing overhead: the replica's plan + rounds (codec excluded) minus
  // the facade's, over the same inputs.
  double replica_round = 0.0, facade_round = 0.0;
  for (size_t r = 0; r < kTracedRounds; ++r) {
    replica_round += net.execute[r] + net.broadcast[r] + net.verify[r];
    facade_round += facade_round_s[r];
  }
  L["trace.overhead_s"] = (L["merge.plan_s"] + L["channel.allocate_s"] +
                           replica_round) -
                          (rec->plan_s.back() + facade_round);
}

/// Traced live-churn: the live facade calls, each timed, with the replica
/// round replayed on the facade's plan and client state after every tick.
void RunTracedLive(const Shape& shape, const Inputs& inputs, Tracer* tracer,
                   Record* rec) {
  auto& L = rec->layer;
  // The live service builds its table and estimator inside the facade,
  // and its estimator cannot be swapped for the counting one; these
  // stand-alone builds only time the relation and stats set-up.
  const qsp::Table table = tracer->Time("relation.table_gen", "relation", [&] {
    return MakeTable();
  });
  L["relation.table_gen_s"] = tracer->Last("relation.table_gen");
  tracer->Time("stats.estimator_build", "stats", [&] {
    const qsp::HistogramEstimator estimator(table, kDomain, 32, 32);
  });
  L["stats.estimator_build_s"] = tracer->Last("stats.estimator_build");
  double setup = 0.0;
  FacadeRun run = tracer->Time("core.setup", "core", [&] {
    return SetUp(shape, inputs, rec, &setup);
  });
  rec->setup_s.push_back(setup);
  qsp::SubscriptionService& service = *run.service;
  const qsp::GridIndex index = tracer->Time("relation.index_build", "relation", [&] {
    return qsp::GridIndex(service.table(), kDomain);
  });
  L["relation.index_build_s"] = tracer->Last("relation.index_build");
  tracer->Time("core.plan", "core", [&] { FacadePlan(shape, &run, rec, true); });
  L["core.plan_s"] = rec->plan_s.back();

  const qsp::CostModel model = ModelFor(shape);
  const auto procedure = qsp::MakeProcedure(qsp::ProcedureKind::kBoundingRect);
  RoundReplica replica(&service.table(), &index, &service.queries(),
                       &service.clients());
  NetTotals net;
  std::vector<double> drain_s, subscribe_us;
  double repair_moves = 0.0, evaluations = 0.0;
  for (size_t tick = 0; tick < kFingerprintTicks; ++tick) {
    qsp::Result<qsp::RoundStats> round = qsp::Status::Internal("not run");
    double drain = 0.0, round_s = 0.0, sub_us = 0.0;
    const qsp::BatchReport report = tracer->Time("core.tick", "core", [&] {
      return ChurnTick(inputs, &run, rec, &drain, &round, &round_s, &sub_us);
    });
    drain_s.push_back(drain);
    subscribe_us.push_back(sub_us);
    rec->round_ms.push_back(1e3 * round_s);
    RecordRound(round, rec, true);
    rec->fp.batch_evaluations += report.evaluations;
    evaluations += static_cast<double>(report.evaluations);
    repair_moves += report.repair_moves;
    qsp::DisseminationPlan plan;
    plan.allocation.push_back(service.clients().AllClients());
    plan.channel_partitions.push_back(service.live()->PlanSnapshot());
    RoundReplica::Timings t;
    const qsp::RoundStats stats = tracer->Time("net.round", "net", [&] {
      return replica.Run(plan, *procedure, tracer, &t);
    });
    CompareRound(round, stats, rec);
    net.Add(stats, t, round_s);
  }
  rec->plan_cost_ratio =
      service.live()->cost() / LiveUnmergedCost(service, model);
  rec->fp.plan_cost_ratio = rec->plan_cost_ratio;
  rec->fp.merge_groups = service.live()->PlanSnapshot().size();
  if (!replica.codec_ok()) rec->harness_errors.push_back("codec round trip");
  net.Publish(&L);
  const qsp::MergeContext& ctx = *service.context();
  L["query.groups_evaluated"] = static_cast<double>(ctx.groups_evaluated());
  L["query.cached_groups"] = static_cast<double>(ctx.cached_groups());
  L["query.group_arena_bytes"] = static_cast<double>(ctx.group_arena_bytes());
  L["merge.groups"] = static_cast<double>(rec->fp.merge_groups);
  L["core.drain_s"] = Median(drain_s);
  L["core.subscribe_us"] = Median(subscribe_us);
  L["core.batch.evaluations"] = evaluations / static_cast<double>(kFingerprintTicks);
  L["core.batch.repair_moves"] = repair_moves / static_cast<double>(kFingerprintTicks);
  const qsp::LiveStats live = service.live_stats();
  L["core.live.sheds"] = static_cast<double>(live.sheds);
  L["core.live.replans_adopted"] = static_cast<double>(live.replans_adopted);
  double replica_round = 0.0, facade_round = 0.0;
  for (size_t r = 0; r < net.rounds; ++r) {
    replica_round += net.execute[r] + net.broadcast[r] + net.verify[r];
    facade_round += net.round[r];
  }
  L["trace.overhead_s"] = replica_round - facade_round;
}

// ---------------------------------------------------------------------------
// Self-tests

int SelfTest() {
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  qsp::Rng table_rng(7);
  qsp::TableGeneratorConfig tconfig = TableConfig();
  tconfig.num_objects = 20000;
  const qsp::Table table = qsp::GenerateTable(tconfig, &table_rng);
  Shape shape;
  ShapeFor("round-sharded", 1200, &shape);
  const Inputs inputs = Pool(MakeTable()).Draw(shape, 11);
  qsp::QuerySet queries(inputs.rects);
  const auto procedure = qsp::MakeProcedure(qsp::ProcedureKind::kBoundingRect);
  const qsp::CostModel model = ModelFor(shape);
  const auto merger = qsp::MakeMerger(qsp::MergerKind::kPairMerging, 42, true);

  // 1. The counting decorator is transparent.
  const qsp::HistogramEstimator plain(table, kDomain, 32, 32);
  const CountingEstimator counted(
      std::make_unique<qsp::HistogramEstimator>(table, kDomain, 32, 32));
  bool same_estimates = true;
  for (size_t i = 0; i < 200; ++i) {
    same_estimates = same_estimates && plain.EstimateSize(inputs.rects[i]) ==
                                           counted.EstimateSize(inputs.rects[i]);
  }
  check(same_estimates && counted.calls() == 200,
        "counting estimator returns identical estimates and counts calls");
  const qsp::MergeContext plain_ctx(&queries, &plain, procedure.get());
  const qsp::MergeContext counted_ctx(&queries, &counted, procedure.get());
  auto a = merger->Merge(plain_ctx, model);
  auto b = merger->Merge(counted_ctx, model);
  check(a.ok() && b.ok() && a.value().partition == b.value().partition &&
            a.value().cost == b.value().cost &&
            a.value().candidates == b.value().candidates,
        "plans through the counting estimator are identical");

  // 2. The per-shard replica reproduces ShardStats::groups.
  const qsp::ShardedPlanner planner(
      merger.get(), qsp::ShardedPlanner::Options{8, qsp::ShardAssign::kBalanced,
                                                 true});
  auto sharded = planner.Plan(plain_ctx, model);
  Tracer tracer(0);
  const ShardReplica replica =
      ReplayShards(plain_ctx, sharded.value().layout, *merger, model, &tracer);
  check(sharded.ok() && sharded.value().shards.size() > 1 &&
            ShardGroupsMatch(replica, sharded.value()),
        "per-shard replica reproduces ShardStats::groups");

  // 3. The span log's self time subtracts direct children only.
  Tracer nested(1);
  nested.Time("outer", "a", [&] {
    nested.Time("inner", "b", [&] {
      nested.Time("leaf", "c", [] {});
    });
  });
  const auto self = nested.SelfTimeByLayer();
  const double total = nested.Last("outer");
  check(self.size() == 3 &&
            std::abs(self.at("a") + self.at("b") + self.at("c") - total) < 1e-9,
        "layer self times add up to the root span");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Output

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ExactNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ToJson(const Shape& shape, uint64_t seed, const std::string& mode,
                   const Record& rec) {
  auto numbers = [](qsp::JsonWriter& w, const std::vector<double>& v) {
    w.BeginArray();
    for (double x : v) w.Raw(ExactNumber(x));
    w.EndArray();
  };
  qsp::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(shape.name);
  w.Key("seed").UInt(seed);
  w.Key("mode").String(mode);
  w.Key("subs").UInt(shape.subs);
  w.Key("clients").UInt(shape.clients);
  w.Key("threads").Int(shape.threads);
  w.Key("shards").Int(shape.shards);
  w.Key("channels").Int(shape.channels);
  w.Key("compiler").String(__VERSION__);
  w.Key("build_type").String(QSP_PERFBENCH_BUILD_TYPE);
  w.Key("setup_s");
  numbers(w, rec.setup_s);
  w.Key("plan_s");
  numbers(w, rec.plan_s);
  w.Key("round_ms");
  numbers(w, rec.round_ms);
  w.Key("placement_ms");
  numbers(w, rec.placement_ms);
  w.Key("admit_ops").UInt(rec.admit_ops);
  w.Key("admit_seconds").Raw(ExactNumber(rec.admit_seconds));
  w.Key("plan_cost_ratio").Raw(ExactNumber(rec.plan_cost_ratio));
  w.Key("peak_rss_mb").Raw(ExactNumber(PeakRssMb()));
  w.Key("attempted").UInt(rec.attempted);
  w.Key("failed").UInt(rec.failed);
  w.Key("failures").BeginObject();
  for (const auto& [kind, n] : rec.failures) w.Key(kind).UInt(n);
  w.EndObject();
  w.Key("harness_errors").BeginArray();
  for (const std::string& e : rec.harness_errors) w.String(e);
  w.EndArray();
  w.Key("fingerprint").BeginObject();
  w.Key("plan_cost_ratio").String(ExactNumber(rec.fp.plan_cost_ratio));
  w.Key("merge.groups").UInt(rec.fp.merge_groups);
  w.Key("net.headers_checked").UInt(rec.fp.headers_checked);
  w.Key("net.payload_rows").UInt(rec.fp.payload_rows);
  w.Key("core.batch.evaluations").UInt(rec.fp.batch_evaluations);
  if (mode == "traced") {
    w.Key("merge.candidates").UInt(rec.fp.merge_candidates);
    w.Key("channel.moves").UInt(rec.fp.channel_moves);
  }
  w.EndObject();
  if (mode == "traced") {
    w.Key("layers").BeginObject();
    for (const auto& [name, value] : rec.layer) w.Key(name).Raw(ExactNumber(value));
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: qsp_perfbench --workload NAME --seed N --seconds S "
               "--mode e2e|traced [--queries N] [--threads N] --out FILE\n"
               "                     [--spans FILE]\n"
               "       qsp_perfbench --mode selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage();
  const std::string mode = args.count("mode") ? args["mode"] : "e2e";
  if (mode == "selftest") return SelfTest();
  if (mode != "e2e" && mode != "traced") return Usage();
  if (!args.count("workload") || !args.count("seed") || !args.count("out")) {
    return Usage();
  }
  Shape shape;
  const size_t queries =
      args.count("queries") ? std::strtoull(args["queries"].c_str(), nullptr, 10) : 0;
  if (!ShapeFor(args["workload"], queries, &shape)) {
    std::fprintf(stderr, "unknown workload: %s\n", args["workload"].c_str());
    return 2;
  }
  if (args.count("threads")) {
    // Thread-count probes (e.g. round-sharded at threads=1 vs 4); the
    // gated runs use the workload's own count.
    shape.threads = std::max(1, std::atoi(args["threads"].c_str()));
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  // Create the exec pool before NextCpu() first pins this thread, so the
  // workers inherit the full CPU set.
  qsp::exec::SetDefaultThreads(shape.threads);
  const double seconds =
      args.count("seconds") ? std::strtod(args["seconds"].c_str(), nullptr) : 10.0;

  const Pool pool(MakeTable());
  Record rec;
  if (mode == "e2e") {
    RunE2E(shape, pool, seed, seconds, &rec);
  } else {
    const Inputs inputs = pool.Draw(shape, seed);
    Tracer tracer(seed);
    if (shape.live) {
      RunTracedLive(shape, inputs, &tracer, &rec);
    } else {
      RunTracedOneShot(shape, inputs, &tracer, &rec);
    }
    for (const auto& [layer, self] : tracer.SelfTimeByLayer()) {
      rec.layer[layer + ".self_s"] = self;
    }
    if (args.count("spans") && !tracer.Write(args["spans"])) {
      std::fprintf(stderr, "cannot write %s\n", args["spans"].c_str());
      return 1;
    }
  }
  FILE* out = std::fopen(args["out"].c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args["out"].c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", ToJson(shape, seed, mode, rec).c_str());
  return std::fclose(out) == 0 ? 0 : 1;
}

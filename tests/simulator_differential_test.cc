#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "channel/client_set.h"
#include "exec/thread_pool.h"
#include "net/message.h"
#include "net/server.h"
#include "net/sim_client.h"
#include "net/simulator.h"
#include "query/merge_procedure.h"
#include "relation/generator.h"
#include "relation/grid_index.h"
#include "tests/reference_round.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace qsp {
namespace {

/// One random world: queries, clients with 0–4 subscriptions (some drawn
/// from a small hot set so queries are shared), and the round settings.
struct RoundDraw {
  Rect domain{0, 0, 100, 100};
  Table table{Schema::Geographic(0)};
  std::unique_ptr<GridIndex> index;
  QuerySet queries;
  ClientSet clients;
  size_t num_channels = 1;
  size_t procedure = 0;
  ExtractionMode mode = ExtractionMode::kSelfExtract;
  bool cache = false;
  int threads = 1;
  std::string label;

  explicit RoundDraw(uint64_t seed) {
    Rng rng(seed);
    TableGeneratorConfig tconfig;
    tconfig.domain = domain;
    tconfig.num_objects = static_cast<size_t>(rng.UniformInt(100, 800));
    tconfig.payload_fields = 0;
    table = GenerateTable(tconfig, &rng);
    index = std::make_unique<GridIndex>(table, domain);
    QueryGenConfig qconfig;
    qconfig.domain = domain;
    qconfig.num_queries = static_cast<size_t>(rng.UniformInt(20, 400));
    qconfig.max_extent = 0.2;
    queries = QuerySet(GenerateQueries(qconfig, &rng));

    const int64_t last_query = static_cast<int64_t>(queries.size()) - 1;
    const int64_t hot = std::min<int64_t>(4, last_query);
    const size_t num_clients = static_cast<size_t>(rng.UniformInt(5, 100));
    for (size_t i = 0; i < num_clients; ++i) {
      const ClientId c = clients.AddClient();
      const int64_t subs = rng.UniformInt(0, 4);
      for (int64_t s = 0; s < subs; ++s) {
        const int64_t q = rng.Bernoulli(0.3) ? rng.UniformInt(0, hot)
                                             : rng.UniformInt(0, last_query);
        clients.Subscribe(c, static_cast<QueryId>(q));
      }
    }
    num_channels = static_cast<size_t>(rng.UniformInt(1, 4));
    procedure = static_cast<size_t>(rng.UniformInt(0, 2));
    mode = rng.Bernoulli(0.5) ? ExtractionMode::kServerTags
                              : ExtractionMode::kSelfExtract;
    cache = rng.Bernoulli(0.5);
    threads = rng.Bernoulli(0.5) ? 2 : 1;

    std::ostringstream os;
    os << "seed=" << seed << " |Q|=" << queries.size()
       << " clients=" << num_clients << " channels=" << num_channels
       << " procedure=" << procedure
       << " tags=" << (mode == ExtractionMode::kServerTags)
       << " cache=" << cache << " threads=" << threads;
    label = os.str();
  }

  /// Clients spread over the channels at random. With probability 1/4
  /// the subscription-less clients get a channel of their own, which then
  /// carries no messages.
  Allocation RandomAllocation(Rng* rng) const {
    Allocation allocation(num_channels);
    const bool idle_channel = num_channels > 1 && rng->Bernoulli(0.25);
    const int64_t last_busy = static_cast<int64_t>(num_channels) -
                              (idle_channel ? 2 : 1);
    for (ClientId c : clients.AllClients()) {
      const size_t ch =
          idle_channel && clients.QueriesOf(c).empty()
              ? num_channels - 1
              : static_cast<size_t>(rng->UniformInt(0, last_busy));
      allocation[ch].push_back(c);
    }
    return allocation;
  }

  /// A plan over `allocation`: each channel's queries — plus, sometimes,
  /// a query none of its clients subscribed to — cut into random groups.
  DisseminationPlan RandomPlan(Allocation allocation, Rng* rng) const {
    DisseminationPlan plan;
    plan.allocation = std::move(allocation);
    const size_t max_group = procedure == 2 ? 6 : 40;
    for (const std::vector<ClientId>& channel_clients : plan.allocation) {
      std::vector<QueryId> served = clients.QueriesOfClients(channel_clients);
      if (!served.empty() && rng->Bernoulli(0.3)) {
        const QueryId extra = static_cast<QueryId>(
            rng->UniformInt(0, static_cast<int64_t>(queries.size()) - 1));
        if (!std::binary_search(served.begin(), served.end(), extra)) {
          served.push_back(extra);
        }
      }
      rng->Shuffle(&served);
      Partition partition;
      for (size_t i = 0; i < served.size();) {
        const int64_t cap = rng->Bernoulli(0.1) ? max_group : 4;
        const size_t size = std::min(
            served.size() - i, static_cast<size_t>(rng->UniformInt(1, cap)));
        QueryGroup group(served.begin() + i, served.begin() + i + size);
        std::sort(group.begin(), group.end());
        partition.push_back(std::move(group));
        i += size;
      }
      plan.channel_partitions.push_back(std::move(partition));
    }
    return plan;
  }
};

std::unique_ptr<MergeProcedure> MakeProcedure(size_t which) {
  switch (which) {
    case 0:
      return std::make_unique<BoundingRectProcedure>();
    case 1:
      return std::make_unique<BoundingPolygonProcedure>();
    default:
      return std::make_unique<ExactCoverProcedure>();
  }
}

using Extractor = std::tuple<ClientId, QueryId, double, double, double, double>;

std::vector<Extractor> Flatten(const std::vector<HeaderEntry>& entries) {
  std::vector<Extractor> out;
  for (const HeaderEntry& e : entries) {
    out.emplace_back(e.client, e.spec.query, e.spec.rect.x_lo(),
                     e.spec.rect.y_lo(), e.spec.rect.x_hi(),
                     e.spec.rect.y_hi());
  }
  return out;
}

void ExpectSameMessages(const std::vector<Message>& actual,
                        const std::vector<Message>& expected,
                        const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    const Message& a = actual[i];
    const Message& e = expected[i];
    const std::string where = label + " message " + std::to_string(i);
    EXPECT_EQ(a.channel, e.channel) << where;
    EXPECT_EQ(a.seq, e.seq) << where;
    EXPECT_EQ(a.round_id, e.round_id) << where;
    EXPECT_EQ(a.total_in_round, e.total_in_round) << where;
    EXPECT_EQ(a.recipients, e.recipients) << where;
    EXPECT_EQ(Flatten(a.extractors), Flatten(e.extractors)) << where;
    EXPECT_EQ(a.payload, e.payload) << where;
    EXPECT_EQ(a.members, e.members) << where;
    EXPECT_EQ(a.payload_tags, e.payload_tags) << where;
  }
}

void ExpectSameClients(const std::vector<SimClient>& actual,
                       const std::vector<SimClient>& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    const SimClient& a = actual[i];
    const SimClient& e = expected[i];
    const std::string where = label + " client " + std::to_string(e.id());
    ASSERT_EQ(a.id(), e.id()) << where;
    EXPECT_EQ(a.channel(), e.channel()) << where;
    EXPECT_TRUE(a.stats() == e.stats()) << where;
    EXPECT_EQ(a.stats().headers_checked, e.stats().headers_checked) << where;
    for (QueryId q : e.subscriptions()) {
      EXPECT_EQ(a.AnswerFor(q), e.AnswerFor(q)) << where << " query " << q;
    }
  }
}

// Randomised differential sweep: the recipient-indexed server and
// broadcast against the all-clients scan of tests/reference_round.h.
// Each draw runs three rounds under one plan, then a replan (keeping the
// allocation, and so the client caches, half the time) and one more
// round. Messages, RoundStats, every client's stats and every answer must
// be equal.
TEST(SimulatorDifferential, MatchesAllClientScanAtRandomScale) {
  struct ScopedThreads {
    ~ScopedThreads() { exec::SetDefaultThreads(1); }
  } threads;
  constexpr uint64_t kDraws = 120;
  uint64_t shared_queries = 0;     // Members with several recipients.
  uint64_t multi_extractors = 0;   // Recipients with several extractors.
  uint64_t unaddressed = 0;        // Messages with no recipient.
  uint64_t silent_channels = 0;    // Allocated channels with no message.
  uint64_t cached_rounds = 0;      // Rounds that hit a client cache.
  for (uint64_t seed = 1; seed <= kDraws; ++seed) {
    const RoundDraw draw(seed);
    exec::SetDefaultThreads(draw.threads);
    const std::unique_ptr<MergeProcedure> procedure =
        MakeProcedure(draw.procedure);
    const Server server(&draw.table, draw.index.get(), &draw.queries,
                        &draw.clients);
    MulticastSimulator sim(&draw.table, draw.index.get(), &draw.queries,
                           &draw.clients, draw.cache);
    ReferenceRound reference(&draw.table, draw.index.get(), &draw.queries,
                             &draw.clients, draw.cache);

    Rng plan_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    DisseminationPlan plan =
        draw.RandomPlan(draw.RandomAllocation(&plan_rng), &plan_rng);
    for (int round = 0; round < 4; ++round) {
      if (round == 3) {
        // Replan; keeping the allocation keeps the clients and their
        // caches.
        Allocation allocation = plan_rng.Bernoulli(0.5)
                                    ? plan.allocation
                                    : draw.RandomAllocation(&plan_rng);
        plan = draw.RandomPlan(std::move(allocation), &plan_rng);
      }
      const std::string label =
          draw.label + " round " + std::to_string(round);

      const std::vector<Message> messages =
          server.ExecuteRound(plan, *procedure, draw.mode);
      const std::vector<Message> expected = ReferenceExecuteRound(
          draw.table, *draw.index, draw.queries, draw.clients, plan,
          *procedure, draw.mode);
      ExpectSameMessages(messages, expected, label);

      const RoundStats stats = sim.RunRound(plan, *procedure, draw.mode);
      const RoundStats expected_stats =
          reference.RunRound(plan, *procedure, draw.mode);
      EXPECT_TRUE(stats == expected_stats) << label;
      EXPECT_EQ(stats.headers_checked, expected_stats.headers_checked)
          << label;
      ExpectSameClients(sim.sim_clients(), reference.sim_clients(), label);

      std::vector<bool> carries(plan.allocation.size(), false);
      for (const Message& msg : expected) {
        carries[msg.channel] = true;
        std::vector<QueryId> served;
        for (const HeaderEntry& e : msg.extractors) {
          served.push_back(e.spec.query);
        }
        std::sort(served.begin(), served.end());
        if (std::adjacent_find(served.begin(), served.end()) != served.end()) {
          ++shared_queries;
        }
        if (msg.recipients.empty()) ++unaddressed;
        if (msg.extractors.size() > msg.recipients.size()) ++multi_extractors;
      }
      for (size_t ch = 0; ch < plan.allocation.size(); ++ch) {
        if (!plan.allocation[ch].empty() && !carries[ch]) ++silent_channels;
      }
      if (stats.cache_hits > 0) ++cached_rounds;
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing draw: " << draw.label;
      break;
    }
  }
  // The sweep must actually reach the shapes the header index reorders.
  EXPECT_GT(shared_queries, 0u);
  EXPECT_GT(multi_extractors, 0u);
  EXPECT_GT(unaddressed, 0u);
  EXPECT_GT(silent_channels, 0u);
  EXPECT_GT(cached_rounds, 0u);
}

}  // namespace
}  // namespace qsp

#include "net/server.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/status.h"

namespace qsp {

Server::Server(const Table* table, const SpatialIndex* index,
               const QuerySet* queries, const ClientSet* clients)
    : table_(table), index_(index), queries_(queries), clients_(clients) {
  QSP_CHECK(table != nullptr);
  QSP_CHECK(index != nullptr);
  QSP_CHECK(queries != nullptr);
  QSP_CHECK(clients != nullptr);
}

namespace {

/// (query, position in the channel's allocation list) for every
/// subscription of one channel's clients, sorted, so the clients
/// subscribed to a query are one run in allocation order. Built once per
/// channel and round, so a message's header costs its recipients, not the
/// channel's clients.
using SubscriberIndex = std::vector<std::pair<QueryId, uint32_t>>;

SubscriberIndex IndexSubscribers(const std::vector<ClientId>& channel_clients,
                                 const ClientSet& clients) {
  SubscriberIndex subscribers;
  for (size_t pos = 0; pos < channel_clients.size(); ++pos) {
    for (QueryId q : clients.QueriesOf(channel_clients[pos])) {
      subscribers.emplace_back(q, static_cast<uint32_t>(pos));
    }
  }
  std::sort(subscribers.begin(), subscribers.end());
  return subscribers;
}

/// Builds the message for one merged query on one channel.
Message BuildMessage(size_t channel, const MergedQuery& merged,
                     const std::vector<ClientId>& channel_clients,
                     const SubscriberIndex& subscribers,
                     const SpatialIndex& index, const Table& table,
                     const QuerySet& queries, ExtractionMode mode) {
  Message msg;
  msg.channel = channel;

  // Evaluate the merged region. Pieces are interior-disjoint but share
  // boundaries; dedupe to keep each row once.
  for (const Rect& piece : merged.region) {
    const std::vector<RowId> rows = index.Query(piece);
    msg.payload.insert(msg.payload.end(), rows.begin(), rows.end());
  }
  std::sort(msg.payload.begin(), msg.payload.end());
  msg.payload.erase(std::unique(msg.payload.begin(), msg.payload.end()),
                    msg.payload.end());

  // Server-side tagging: mark which member queries each row serves.
  if (mode == ExtractionMode::kServerTags && merged.members.size() <= 32) {
    msg.members = merged.members;
    msg.payload_tags.reserve(msg.payload.size());
    for (RowId row : msg.payload) {
      uint32_t tags = 0;
      const Point position = table.PositionOf(row);
      for (size_t k = 0; k < merged.members.size(); ++k) {
        if (queries.rect(merged.members[k]).Contains(position)) {
          tags |= 1u << k;
        }
      }
      msg.payload_tags.push_back(tags);
    }
  }

  // Header: every channel client subscribed to a member query is a
  // recipient, with one extractor entry per such query. Sorting the
  // (client position, member index) hits lists recipients in allocation
  // order and each recipient's extractors in member order.
  std::vector<std::pair<uint32_t, uint32_t>> hits;
  for (size_t k = 0; k < merged.members.size(); ++k) {
    const QueryId member = merged.members[k];
    for (auto it = std::lower_bound(subscribers.begin(), subscribers.end(),
                                    std::pair<QueryId, uint32_t>(member, 0));
         it != subscribers.end() && it->first == member; ++it) {
      hits.emplace_back(it->second, static_cast<uint32_t>(k));
    }
  }
  std::sort(hits.begin(), hits.end());
  msg.extractors.reserve(hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    const auto [pos, k] = hits[i];
    const ClientId client = channel_clients[pos];
    const QueryId member = merged.members[k];
    msg.extractors.push_back({client, {member, queries.rect(member)}});
    if (i == 0 || hits[i - 1].first != pos) msg.recipients.push_back(client);
  }
  return msg;
}

}  // namespace

std::vector<Message> Server::ExecuteRound(const DisseminationPlan& plan,
                                          const MergeProcedure& procedure,
                                          ExtractionMode mode) const {
  QSP_CHECK(plan.channel_partitions.size() == plan.allocation.size());
  std::vector<std::vector<MergedQuery>> merged_per_channel(
      plan.allocation.size());
  for (size_t ch = 0; ch < plan.allocation.size(); ++ch) {
    for (const QueryGroup& group : plan.channel_partitions[ch]) {
      std::vector<MergedQuery> merged = procedure.Merge(*queries_, group);
      for (MergedQuery& m : merged) {
        merged_per_channel[ch].push_back(std::move(m));
      }
    }
  }
  return ExecuteRoundMerged(plan.allocation, merged_per_channel, mode);
}

std::vector<Message> Server::ExecuteRoundMerged(
    const Allocation& allocation,
    const std::vector<std::vector<MergedQuery>>& merged_per_channel,
    ExtractionMode mode) const {
  QSP_CHECK(merged_per_channel.size() == allocation.size());
  std::vector<Message> messages;
  for (size_t ch = 0; ch < allocation.size(); ++ch) {
    const uint32_t channel_total =
        static_cast<uint32_t>(merged_per_channel[ch].size());
    const SubscriberIndex subscribers =
        IndexSubscribers(allocation[ch], *clients_);
    uint32_t seq = 0;
    for (const MergedQuery& merged : merged_per_channel[ch]) {
      Message msg = BuildMessage(ch, merged, allocation[ch], subscribers,
                                 *index_, *table_, *queries_, mode);
      // Reliability header: contiguous per-channel sequence numbers and
      // the channel's announced round size, so clients can detect gaps
      // (including trailing losses) and NACK them.
      msg.seq = seq++;
      msg.total_in_round = channel_total;
      messages.push_back(std::move(msg));
    }
  }
  return messages;
}

std::vector<RowId> Server::DirectAnswer(QueryId query) const {
  return index_->Query(queries_->rect(query));
}

}  // namespace qsp

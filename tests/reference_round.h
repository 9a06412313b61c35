// Test oracle for the dissemination round: the server's header scan and
// the simulator's lossless broadcast as first written. The server checks
// every channel client against every member of every merged query, and
// every message is handed to every client on its channel, which checks
// the header and discards it unless addressed. That is O(|M|·|C|) per
// round; it lives here, not in the library, because its only job is to
// say what the recipient-indexed round must produce. The library must
// match it exactly: every Message field (recipient and extractor order
// included), RoundStats, each client's ClientStats and every answer.

#ifndef QSP_TESTS_REFERENCE_ROUND_H_
#define QSP_TESTS_REFERENCE_ROUND_H_

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "channel/client_set.h"
#include "net/message.h"
#include "net/sim_client.h"
#include "net/simulator.h"
#include "query/merge_procedure.h"
#include "query/query.h"
#include "relation/spatial_index.h"
#include "relation/table.h"

namespace qsp {

/// The message for one merged query on one channel, with the header
/// built by scanning every channel client's subscriptions.
inline Message ReferenceBuildMessage(size_t channel, const MergedQuery& merged,
                                     const std::vector<ClientId>& channel_clients,
                                     const SpatialIndex& index,
                                     const Table& table,
                                     const QuerySet& queries,
                                     const ClientSet& clients,
                                     ExtractionMode mode) {
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
  // recipient, with one extractor entry per such query.
  for (ClientId client : channel_clients) {
    bool is_recipient = false;
    for (QueryId member : merged.members) {
      const auto& subs = clients.QueriesOf(client);
      if (std::binary_search(subs.begin(), subs.end(), member)) {
        msg.extractors.push_back({client, {member, queries.rect(member)}});
        is_recipient = true;
      }
    }
    if (is_recipient) msg.recipients.push_back(client);
  }
  return msg;
}

/// Server::ExecuteRoundMerged over the all-clients header scan.
inline std::vector<Message> ReferenceExecuteRoundMerged(
    const Table& table, const SpatialIndex& index, const QuerySet& queries,
    const ClientSet& clients, const Allocation& allocation,
    const std::vector<std::vector<MergedQuery>>& merged_per_channel,
    ExtractionMode mode) {
  std::vector<Message> messages;
  for (size_t ch = 0; ch < allocation.size(); ++ch) {
    const uint32_t channel_total =
        static_cast<uint32_t>(merged_per_channel[ch].size());
    uint32_t seq = 0;
    for (const MergedQuery& merged : merged_per_channel[ch]) {
      Message msg = ReferenceBuildMessage(ch, merged, allocation[ch], index,
                                          table, queries, clients, mode);
      msg.seq = seq++;
      msg.total_in_round = channel_total;
      messages.push_back(std::move(msg));
    }
  }
  return messages;
}

/// Server::ExecuteRound over the all-clients header scan.
inline std::vector<Message> ReferenceExecuteRound(
    const Table& table, const SpatialIndex& index, const QuerySet& queries,
    const ClientSet& clients, const DisseminationPlan& plan,
    const MergeProcedure& procedure, ExtractionMode mode) {
  std::vector<std::vector<MergedQuery>> merged_per_channel(
      plan.allocation.size());
  for (size_t ch = 0; ch < plan.allocation.size(); ++ch) {
    for (const QueryGroup& group : plan.channel_partitions[ch]) {
      std::vector<MergedQuery> merged = procedure.Merge(queries, group);
      for (MergedQuery& m : merged) {
        merged_per_channel[ch].push_back(std::move(m));
      }
    }
  }
  return ReferenceExecuteRoundMerged(table, index, queries, clients,
                                     plan.allocation, merged_per_channel,
                                     mode);
}

/// The lossless MulticastSimulator round with the all-clients broadcast.
/// Like the simulator, it keeps its clients (and their caches) while the
/// allocation is unchanged between rounds. Telemetry and the optional
/// wire round trip are left out: neither feeds the compared results.
class ReferenceRound {
 public:
  ReferenceRound(const Table* table, const SpatialIndex* index,
                 const QuerySet* queries, const ClientSet* clients,
                 bool enable_client_cache)
      : table_(table),
        index_(index),
        queries_(queries),
        clients_(clients),
        enable_client_cache_(enable_client_cache) {}

  RoundStats RunRound(const DisseminationPlan& plan,
                      const MergeProcedure& procedure, ExtractionMode mode) {
    RoundStats stats;
    if (plan.allocation != last_allocation_) {
      sim_clients_.clear();
      for (size_t ch = 0; ch < plan.allocation.size(); ++ch) {
        for (ClientId c : plan.allocation[ch]) {
          sim_clients_.emplace_back(c, ch, queries_, clients_->QueriesOf(c),
                                    enable_client_cache_);
        }
      }
      last_allocation_ = plan.allocation;
    }
    for (SimClient& client : sim_clients_) client.StartRound();

    std::vector<Message> messages = ReferenceExecuteRound(
        *table_, *index_, *queries_, *clients_, plan, procedure, mode);
    const uint32_t round_id = round_counter_++;
    for (Message& msg : messages) msg.round_id = round_id;
    stats.num_messages = messages.size();
    std::set<size_t> used_channels;
    for (const Message& msg : messages) {
      stats.payload_bytes += msg.PayloadBytes(*table_);
      stats.header_bytes += msg.HeaderBytes();
      stats.payload_rows += msg.payload.size();
      used_channels.insert(msg.channel);
    }
    stats.channels_used = used_channels.size();

    // Broadcast: every client on a channel sees every message on it.
    for (const Message& msg : messages) {
      for (SimClient& client : sim_clients_) {
        if (client.channel() == msg.channel) client.Receive(msg, *table_);
      }
    }

    stats.all_answers_correct = true;
    for (const SimClient& client : sim_clients_) {
      stats.irrelevant_rows += client.stats().rows_irrelevant;
      stats.rows_examined += client.stats().rows_examined;
      stats.headers_checked += client.stats().headers_checked;
      stats.cache_hits += client.stats().cache_hits;
      stats.duplicate_deliveries += client.stats().duplicates_ignored;
      for (QueryId q : client.subscriptions()) {
        if (client.AnswerFor(q) != index_->Query(queries_->rect(q))) {
          stats.all_answers_correct = false;
        }
      }
    }
    return stats;
  }

  const std::vector<SimClient>& sim_clients() const { return sim_clients_; }

 private:
  const Table* table_;
  const SpatialIndex* index_;
  const QuerySet* queries_;
  const ClientSet* clients_;
  bool enable_client_cache_;
  std::vector<SimClient> sim_clients_;
  Allocation last_allocation_;
  uint32_t round_counter_ = 0;
};

}  // namespace qsp

#endif  // QSP_TESTS_REFERENCE_ROUND_H_

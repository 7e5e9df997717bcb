#include "accounting/sharding/shard_router.hpp"

#include "crypto/random.hpp"
#include "net/retry.hpp"
#include "net/rpc.hpp"

namespace rproxy::accounting::sharding {

net::Envelope ShardMapService::handle(const net::Envelope& request) {
  if (request.type != net::MsgType::kShardMapRequest) {
    return net::make_error_reply(
        request, util::fail(util::ErrorCode::kProtocolError,
                                    "unexpected message type for map service"));
  }
  const auto map = dir_.snapshot();
  if (!map) {
    return net::make_error_reply(
        request, util::fail(util::ErrorCode::kUnavailable,
                                    "no shard map installed"));
  }
  return net::make_reply(request, net::MsgType::kShardMapReply, map->map());
}

ShardRouter::ShardRouter(Config config, ShardMap initial_map)
    : config_(std::move(config)),
      client_(*config_.net, *config_.clock, config_.self,
              config_.identity_cert, config_.identity_key),
      next_check_number_(crypto::random_u64()) {
  if (initial_map.version != 0 || !initial_map.shards.empty()) {
    dir_.install(std::move(initial_map));
  }
}

util::Result<AccountReplyPayload> ShardRouter::query(
    const std::string& account) {
  for (int attempt = 0;; ++attempt) {
    const PrincipalName shard = dir_.home(account);
    if (shard.empty()) {
      return util::fail(util::ErrorCode::kUnavailable,
                                "no shard map installed in router");
    }
    auto result = client_.query(shard, account);
    if (result.is_ok() || attempt > 0) return result;
    if (result.status().code() == util::ErrorCode::kWrongShard) {
      redirects_.fetch_add(1);
      // If the refresh itself fails, surface the original kWrongShard: the
      // refresh error (e.g. kUnavailable with no map service configured)
      // must not trick a retry layer into blind-retrying a routing error.
      if (!refresh_map_(result.status().detail()).is_ok()) return result;
    } else if (!failover_reroute_(result.status(), shard, account)) {
      return result;
    }
  }
}

util::Status ShardRouter::transfer(const std::string& from,
                                   const std::string& to,
                                   const Currency& currency,
                                   std::uint64_t amount) {
  // One check number per logical transfer, allocated up front: a re-route
  // (kWrongShard or failover) re-presents the SAME numbered check, so the
  // shards' dedup tables make the transfer exactly-once even when the
  // first attempt's outcome is unknown.
  const std::uint64_t check_number = next_check_number_.fetch_add(1);
  for (int attempt = 0;; ++attempt) {
    const PrincipalName source = dir_.home(from);
    const PrincipalName target = dir_.home(to);
    if (source.empty() || target.empty()) {
      return util::fail(util::ErrorCode::kUnavailable,
                                "no shard map installed in router");
    }
    util::Status status;
    if (source == target) {
      status = client_.transfer(source, from, to, currency, amount);
      if (status.is_ok()) {
        intra_.fetch_add(1);
        return status;
      }
    } else {
      status = cross_shard_transfer_(source, target, from, to, currency,
                                     amount, check_number);
      if (status.is_ok()) {
        cross_.fetch_add(1);
        return status;
      }
    }
    // Exactly one refresh + re-route per operation: kWrongShard means the
    // routing decision was stale, not that the request can eventually
    // succeed where it was sent; a transport error means the shard may be
    // dead and already replaced by a promoted standby under a newer map
    // (DESIGN.md §5h).  Anything else — including a second failure after
    // the refresh — surfaces to the caller.
    if (attempt > 0) return status;
    if (status.code() == util::ErrorCode::kWrongShard) {
      redirects_.fetch_add(1);
      if (!refresh_map_(status.detail()).is_ok()) return status;
    } else if (!failover_reroute_(status, source == target ? source : target,
                                  source == target ? from : to)) {
      return status;
    }
  }
}

bool ShardRouter::failover_reroute_(const util::Status& status,
                                    const PrincipalName& shard,
                                    const std::string& account) {
  // Failover probe (DESIGN.md §5h): the per-shard retry policy already
  // exhausted its attempts against `shard`, so a transport error here
  // usually means the shard is down.  A standby promotion installs a
  // strictly-newer map at the map service; refresh and re-route once if
  // the account's home actually changed.  Safe against duplicate effects
  // for the same reason client-level retries are: deposits are dedup'd,
  // transfers are challenge-bound, queries are reads.
  if (!net::RetryPolicy::transport_error(status)) return false;
  if (!refresh_map_(0).is_ok()) return false;
  if (dir_.home(account) == shard) return false;  // no newer routing truth
  failovers_.fetch_add(1);
  return true;
}

util::Status ShardRouter::cross_shard_transfer_(
    const PrincipalName& source_shard, const PrincipalName& target_shard,
    const std::string& from, const std::string& to, const Currency& currency,
    std::uint64_t amount, std::uint64_t check_number) {
  // The transfer is a check drawn on the source shard, payable to the
  // router's principal, deposited at the target shard.  The target collects
  // through the source (the clearing chain of §4), which settles by
  // debiting `from` and crediting its inter-shard settlement account; the
  // target credits `to` when collection succeeds.  Dedup tables on both
  // shards plus the journal make re-drives of the same check exactly-once.
  const Check check = write_check(
      config_.self, config_.identity_key, AccountId{source_shard, from},
      /*payee=*/config_.self, currency, amount, check_number,
      config_.clock->now(), config_.check_lifetime);
  auto deposited = client_.endorse_and_deposit(target_shard, check, to);
  return deposited.status();
}

util::Status ShardRouter::attach_fanout(const PrincipalName& shard,
                                        const std::string& host,
                                        std::uint16_t port) {
  RPROXY_RETURN_IF_ERROR(fanout_.connect(shard, host, port));
  fanout_shards_.insert(shard);
  return util::Status::ok();
}

std::vector<util::Status> ShardRouter::transfer_many(
    const std::vector<TransferOp>& ops) {
  std::vector<util::Status> results(ops.size(), util::Status::ok());

  // Replies owed per connection, oldest first.  FanoutClient guarantees
  // per-connection replies arrive in request order, so each completion on
  // a key belongs to the FRONT of that key's queue; a challenge completion
  // turns into a deposit send and the leg re-queues at the back (deposits
  // are sent in challenge-arrival order, which on one connection IS leg
  // order, so the queue stays aligned with the wire).
  struct Pending {
    std::size_t index = 0;
    bool deposit = false;  ///< false: challenge reply owed; true: deposit
    Check check;
  };
  std::map<PrincipalName, std::deque<Pending>> owed;
  std::size_t inflight = 0;

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TransferOp& op = ops[i];
    const PrincipalName source = dir_.home(op.from);
    const PrincipalName target = dir_.home(op.to);
    if (source.empty() || target.empty() || source == target ||
        !fanout_shards_.contains(target)) {
      results[i] = transfer(op.from, op.to, op.currency, op.amount);
      continue;
    }
    // Same clearing shape as cross_shard_transfer_: a numbered check drawn
    // on the source shard, endorsed and deposited at the target, which
    // collects through the source.  Dedup on both shards keeps re-drives
    // of a failed leg exactly-once.
    Pending leg;
    leg.index = i;
    leg.check = write_check(config_.self, config_.identity_key,
                            AccountId{source, op.from},
                            /*payee=*/config_.self, op.currency, op.amount,
                            next_check_number_.fetch_add(1),
                            config_.clock->now(), config_.check_lifetime);
    results[i] = fanout_.send(target, client_.challenge_request(target));
    if (!results[i].is_ok()) continue;
    owed[target].push_back(std::move(leg));
    inflight += 1;
  }

  while (inflight > 0) {
    auto completion = fanout_.next(config_.fanout_timeout_ms);
    if (!completion.is_ok()) {
      // Timeout or dead peer: every reply still owed is wedged behind it.
      // Fail those legs rather than blocking the batch forever, and drop
      // each connection that still owes replies: a late reply left on it
      // would otherwise be taken by the next batch as its own.  Legs to
      // those shards take transfer() until attach_fanout() is called again.
      for (const auto& [shard, queue] : owed) {
        if (queue.empty()) continue;
        for (const Pending& leg : queue) {
          results[leg.index] = completion.status();
        }
        fanout_.close(shard);
        fanout_shards_.erase(shard);
      }
      return results;
    }
    // Every reply belongs to a leg of this batch: a batch ends owing
    // nothing, or with its owing connections closed above.
    const PrincipalName& shard = completion.value().key;
    std::deque<Pending>& queue = owed[shard];
    Pending leg = std::move(queue.front());
    queue.pop_front();
    inflight -= 1;

    if (!leg.deposit) {
      const util::Status advanced = [&]() -> util::Status {
        RPROXY_ASSIGN_OR_RETURN(
            core::ChallengeRegistry::Challenge challenge,
            AccountingClient::read_challenge_reply(completion.value().reply));
        RPROXY_ASSIGN_OR_RETURN(
            net::Envelope deposit,
            client_.deposit_request(shard, leg.check, ops[leg.index].to,
                                    challenge));
        return fanout_.send(shard, deposit);
      }();
      if (!advanced.is_ok()) {
        results[leg.index] = advanced;
        continue;
      }
      leg.deposit = true;
      queue.push_back(std::move(leg));
      inflight += 1;
    } else {
      const auto reply =
          AccountingClient::read_deposit_reply(completion.value().reply);
      results[leg.index] = reply.status();
      if (reply.is_ok()) {
        cross_.fetch_add(1);
        pipelined_.fetch_add(1);
      }
    }
  }
  return results;
}

util::Status ShardRouter::refresh_map() { return refresh_map_(0); }

util::Status ShardRouter::refresh_map_(std::uint64_t min_version) {
  if (config_.map_service.empty()) {
    return util::fail(
        util::ErrorCode::kUnavailable,
        "router has no map service to refresh from", min_version);
  }
  net::Envelope request;
  request.from = config_.self;
  request.to = config_.map_service;
  request.type = net::MsgType::kShardMapRequest;
  RPROXY_ASSIGN_OR_RETURN(const net::Envelope reply,
                          config_.net->rpc(std::move(request)));
  RPROXY_RETURN_IF_ERROR(net::status_of(reply));
  if (reply.type != net::MsgType::kShardMapReply) {
    return util::fail(util::ErrorCode::kProtocolError,
                              "unexpected reply type from map service");
  }
  RPROXY_ASSIGN_OR_RETURN(ShardMap map,
                          wire::decode_from_bytes<ShardMap>(reply.payload));
  refreshes_.fetch_add(1);
  // An older-or-equal map is fine (another thread may have refreshed
  // first); install() keeps the newest either way.
  dir_.install(std::move(map));
  return util::Status::ok();
}

}  // namespace rproxy::accounting::sharding

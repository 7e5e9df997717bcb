// Routing tier over sharded accounting servers (DESIGN.md §5g).
//
// The router is a thin client-side library (usable standalone, or embedded
// in a stateless router node) that owns a versioned shard map and steers
// each operation to the account's home shard.  Intra-shard transfers go to
// the one shard directly; cross-shard transfers ride the EXISTING clearing
// machinery — the payor's shard and the payee's shard are just two "banks"
// and the transfer is a check cleared between them (§4), so exactly-once
// dedup (PR 4) and the write-ahead journal (PR 5) already make the path
// retry- and crash-safe.
//
// Authorization stays client<->shard on purpose: possession proofs are
// bound to a per-shard challenge, so a forwarding middlebox CANNOT re-sign
// a request on the client's behalf.  The router therefore never proxies
// credentials — it only decides where the client-signed exchange happens
// (the capability-decentralization argument of the ICN paper in PAPERS.md).
//
// kWrongShard discipline: a shard that does not own the named account
// answers ErrorCode::kWrongShard with the deciding map version in
// Status::detail().  The router refreshes its map (from the map service)
// and re-routes ONCE.  It is deliberately NOT a transport error — the
// retry layer (net::RetryPolicy) never blind-retries it, because the same
// request at the same shard can only fail the same way.
#pragma once

#include <atomic>
#include <deque>
#include <set>
#include <vector>

#include "accounting/clearing.hpp"
#include "accounting/sharding/shard_map.hpp"
#include "net/fanout.hpp"

namespace rproxy::accounting::sharding {

/// Serves the current shard map over kShardMapRequest (read-only; installs
/// happen through the shared ShardDirectory, typically by the migration
/// driver).
class ShardMapService final : public net::Node {
 public:
  ShardMapService(PrincipalName name, const ShardDirectory& dir)
      : name_(std::move(name)), dir_(dir) {}

  net::Envelope handle(const net::Envelope& request) override;

  [[nodiscard]] const PrincipalName& name() const { return name_; }

 private:
  PrincipalName name_;
  const ShardDirectory& dir_;
};

/// Drives authenticated accounting operations for one principal across a
/// fleet of shards.  Thread-compatible like AccountingClient: share one
/// router across threads only for the map-refresh paths exercised by the
/// concurrency tests (map install/lookup are internally locked); the
/// underlying client operations themselves assume one caller at a time.
class ShardRouter {
 public:
  struct Config {
    net::SimNet* net = nullptr;
    const util::Clock* clock = nullptr;
    PrincipalName self;
    pki::IdentityCert identity_cert;
    crypto::SigningKeyPair identity_key;
    /// Node answering kShardMapRequest; empty disables refresh (the
    /// router then trusts its installed map and surfaces kWrongShard).
    PrincipalName map_service;
    /// Validity of the checks that carry cross-shard transfers.
    util::Duration check_lifetime = 5 * util::kMinute;
    /// Per-completion wait in transfer_many()'s collect loop; expiry fails
    /// every leg still owed a reply (see transfer_many()).
    int fanout_timeout_ms = 5000;
  };

  ShardRouter(Config config, ShardMap initial_map);

  /// Balances of `account`, routed to its home shard.
  [[nodiscard]] util::Result<AccountReplyPayload> query(
      const std::string& account);

  /// Moves funds `from` -> `to`.  Same home shard: one direct transfer.
  /// Different shards: a check drawn on the source shard, endorsed and
  /// deposited at the destination shard, which collects from the source
  /// through the clearing chain.
  [[nodiscard]] util::Status transfer(const std::string& from,
                                      const std::string& to,
                                      const Currency& currency,
                                      std::uint64_t amount);

  /// One leg of transfer_many().
  struct TransferOp {
    std::string from;
    std::string to;
    Currency currency;
    std::uint64_t amount = 0;
  };

  /// Opens (or replaces) a pipelined TCP connection to `shard`'s real
  /// endpoint.  Cross-shard legs in transfer_many() whose TARGET shard is
  /// attached ride this connection; all other operations keep using the
  /// Config::net transport.
  [[nodiscard]] util::Status attach_fanout(const PrincipalName& shard,
                                           const std::string& host,
                                           std::uint16_t port);

  /// Executes a batch of transfers, pipelining the cross-shard clearing
  /// legs over the attached fanout connections: every leg's challenge
  /// fetch goes out before any deposit is collected, each deposit follows
  /// its own challenge the moment it lands, and completions drain in
  /// ARRIVAL order across shards — a slow shard delays only its own legs
  /// (the PR 8 stall this path removes).  Intra-shard ops, unattached
  /// target shards, and routing gaps fall back to transfer() with its
  /// refresh/re-route discipline.  Returns one status per op,
  /// index-aligned.  A collect failure (timeout / dead peer) fails every
  /// leg still owed a reply and closes each connection that owes one;
  /// legs to those shards take transfer() until attach_fanout() is called
  /// again.
  [[nodiscard]] std::vector<util::Status> transfer_many(
      const std::vector<TransferOp>& ops);

  /// Installs a newer map directly (admin/test path; the kWrongShard path
  /// refreshes from the map service on its own).
  bool install_map(ShardMap map) { return dir_.install(std::move(map)); }

  /// Forces a map refresh from the map service now.
  [[nodiscard]] util::Status refresh_map();

  [[nodiscard]] std::uint64_t map_version() const { return dir_.version(); }
  [[nodiscard]] PrincipalName home(const std::string& account) const {
    return dir_.home(account);
  }

  /// Retry policy for the underlying per-shard operations (transport
  /// errors only; kWrongShard is handled above this layer).
  void set_retry_policy(net::RetryPolicy policy) {
    client_.set_retry_policy(policy);
  }

  // Observability.
  [[nodiscard]] std::uint64_t intra_shard_transfers() const {
    return intra_.load();
  }
  [[nodiscard]] std::uint64_t cross_shard_transfers() const {
    return cross_.load();
  }
  /// kWrongShard answers that triggered a refresh + re-route.
  [[nodiscard]] std::uint64_t wrong_shard_redirects() const {
    return redirects_.load();
  }
  /// Transport-error failovers that found a newer map and re-routed
  /// (DESIGN.md §5h: a standby promotion replaced the dead shard).
  [[nodiscard]] std::uint64_t failover_reroutes() const {
    return failovers_.load();
  }
  [[nodiscard]] std::uint64_t map_refreshes() const {
    return refreshes_.load();
  }
  /// Cross-shard transfers that cleared over the fanout path (also counted
  /// in cross_shard_transfers()).
  [[nodiscard]] std::uint64_t pipelined_transfers() const {
    return pipelined_.load();
  }

  [[nodiscard]] const PrincipalName& self() const { return client_.self(); }

 private:
  /// Refreshes from the map service because a shard decided with
  /// `min_version` (0 = unsolicited).
  [[nodiscard]] util::Status refresh_map_(std::uint64_t min_version);

  /// Transport-error failover: refresh the map and report whether
  /// `account`'s home moved off `shard` (true = re-route and try again).
  [[nodiscard]] bool failover_reroute_(const util::Status& status,
                                       const PrincipalName& shard,
                                       const std::string& account);

  [[nodiscard]] util::Status cross_shard_transfer_(
      const PrincipalName& source_shard, const PrincipalName& target_shard,
      const std::string& from, const std::string& to,
      const Currency& currency, std::uint64_t amount,
      std::uint64_t check_number);

  Config config_;
  ShardDirectory dir_;
  AccountingClient client_;
  /// Pipelined TCP connections by shard name.  Like the client ops, the
  /// fanout path assumes one caller at a time.
  net::FanoutClient fanout_;
  std::set<PrincipalName> fanout_shards_;
  std::atomic<std::uint64_t> next_check_number_;
  std::atomic<std::uint64_t> intra_{0};
  std::atomic<std::uint64_t> cross_{0};
  std::atomic<std::uint64_t> redirects_{0};
  std::atomic<std::uint64_t> refreshes_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> pipelined_{0};
};

}  // namespace rproxy::accounting::sharding

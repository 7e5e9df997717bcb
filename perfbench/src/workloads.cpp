#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "accounting/accounting_server.hpp"
#include "accounting/clearing.hpp"
#include "accounting/replication/journal_shipper.hpp"
#include "accounting/replication/standby.hpp"
#include "authz/capability.hpp"
#include "net/event_loop.hpp"
#include "server/file_server.hpp"
#include "stats.hpp"
#include "testing/env.hpp"

namespace perfbench {

namespace {

using namespace rproxy;
using accounting::AccountingServer;
using accounting::Balances;
using accounting::replication::JournalShipper;
using accounting::replication::StandbyReplayer;
using net::Envelope;
using net::MsgType;

constexpr std::size_t kMaxSamples = 512;
constexpr util::Duration kGrantLifetime = util::kHour;

/// Request inputs kept from a traced window for the isolated replays.
struct Sample {
  util::Bytes payload;
  MsgType type = MsgType::kError;
  util::Bytes nonce;  ///< challenge the proof is bound to (empty: none)
  util::TimePoint now = 0;
  std::size_t server = 0;
};

double elapsed_us(Nanos t0) { return static_cast<double>(now_ns() - t0) / 1e3; }

std::size_t scaled(std::size_t n, double scale) {
  const auto n_scaled = std::llround(static_cast<double>(n) * scale);
  return std::max<std::size_t>(1, static_cast<std::size_t>(n_scaled));
}

/// Total bytes of the regular files under `dir`.
std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// Group-commit and journal-growth metrics from counter deltas.
void add_storage_metrics(LayerMetrics& out, std::uint64_t fsyncs,
                         std::uint64_t committed, std::uint64_t waits,
                         std::uint64_t bytes, std::uint64_t ops) {
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  out["storage.records_per_fsync"] = ratio(committed, fsyncs);
  out["storage.parked_share"] = ratio(waits, committed);
  out["storage.journal_bytes_per_op"] = ratio(bytes, ops);
  out["storage.fsyncs"] = static_cast<double>(fsyncs);
}

Envelope challenge_request(const PrincipalName& from,
                           const PrincipalName& to) {
  Envelope e;
  e.from = from;
  e.to = to;
  e.type = MsgType::kPresentChallengeRequest;
  return e;
}

template <typename PayloadT>
Envelope request_envelope(const PrincipalName& from, const PrincipalName& to,
                          MsgType type, const PayloadT& payload) {
  Envelope e;
  e.from = from;
  e.to = to;
  e.type = type;
  e.payload = wire::encode_to_bytes(payload);
  return e;
}

/// Fails `op` with the reply's error (or `what` if it is not an error).
bool reject(Pending& op, const Envelope& reply, const std::string& what) {
  const util::Status st = net::status_of(reply);
  op.error = what + (st.is_ok() ? "" : ": " + st.to_string());
  op.ok = false;
  return true;
}

/// Shared fleet plumbing: the simulated world (clock, name server, KDC,
/// revocation registry) and the loopback server.  Derived fleets declare
/// their nodes, then start the loop last, so the loop stops before any
/// node it serves is destroyed.
class FleetBase : public Fleet {
 public:
  explicit FleetBase(const FleetOptions& options) : options_(options) {
    world_.net.set_default_latency(0);
  }
  /// Derived destructors call stop_loop_() first: the loop must stop
  /// before the nodes it serves are destroyed.
  ~FleetBase() override = default;

  std::uint16_t port() const override { return loop_->port(); }
  util::SimClock& clock() override { return world_.clock; }

 protected:
  void start_loop_(const std::vector<std::pair<std::string, net::Node*>>&
                       nodes) {
    loop_ = std::make_unique<net::EventLoopServer>(
        net::EventLoopServer::Options{.workers = options_.workers,
                                      .idle_timeout = 0,
                                      .max_pipeline = 128});
    for (const auto& [name, node] : nodes) loop_->attach(name, *node);
    const util::Status st = loop_->start();
    if (!st.is_ok()) throw std::runtime_error("loop start: " + st.to_string());
  }
  void stop_loop_() {
    if (loop_) loop_->stop();
  }
  void sample_(Sample s) {
    if (sampling_ && samples_.size() < kMaxSamples) {
      samples_.push_back(std::move(s));
    }
  }

  /// A stand-alone verifier for `server`'s isolated replays (pk
  /// realization, no replay cache, no revocation registry).
  core::ProxyVerifier::Config verifier_config_(const PrincipalName& server,
                                               std::size_t cache_capacity) {
    core::ProxyVerifier::Config config;
    config.server_name = server;
    config.resolver = &world_.resolver;
    config.pk_root = world_.name_server.root_key();
    config.verify_cache_capacity = cache_capacity;
    return config;
  }

  /// Isolated wire and identity-proof rows shared by the two accounting
  /// workloads: decode/encode the recorded payloads and re-verify their
  /// identity proofs with a fresh verifier.
  template <typename PayloadT>
  void isolated_accounting_(const PrincipalName& server, LayerMetrics& out,
                            std::vector<double>& decode_us,
                            std::vector<double>& encode_us,
                            std::vector<double>& possession_us,
                            const std::function<util::Bytes(const PayloadT&)>&
                                digest_of,
                            MsgType type) {
    const core::ProxyVerifier verifier(verifier_config_(server, 0));
    for (const Sample& s : samples_) {
      if (s.type != type) continue;
      Nanos t0 = now_ns();
      auto decoded = wire::decode_from_bytes<PayloadT>(s.payload);
      decode_us.push_back(elapsed_us(t0));
      if (!decoded.is_ok()) continue;
      t0 = now_ns();
      const util::Bytes again = wire::encode_to_bytes(decoded.value());
      encode_us.push_back(elapsed_us(t0));
      if (again.size() != s.payload.size()) ++isolated_errors_;
      const util::Bytes digest = digest_of(decoded.value());
      t0 = now_ns();
      auto who = verifier.verify_identity(decoded.value().identity, s.nonce,
                                          digest, s.now);
      possession_us.push_back(elapsed_us(t0));
      if (!who.is_ok()) ++isolated_errors_;
    }
    out["isolated.errors"] += static_cast<double>(isolated_errors_);
  }

  FleetOptions options_;
  testing::World world_;
  std::vector<Sample> samples_;
  std::size_t isolated_errors_ = 0;
  std::unique_ptr<net::EventLoopServer> loop_;
};

// ---------------------------------------------------------------------------
// capability_reads

class CapabilityReads final : public FleetBase {
 public:
  static constexpr std::size_t kServers = 4;
  static constexpr std::size_t kUsers = 2000;
  static constexpr std::size_t kObjects = 256;
  static constexpr std::size_t kRenewEvery = 200;

  explicit CapabilityReads(const FleetOptions& o)
      : FleetBase(o),
        users_count_(scaled(kUsers, o.scale)),
        users_(users_count_, 0.9),
        objects_(kObjects, 0.9) {
    for (std::size_t k = 0; k < kObjects; ++k) {
      objects_names_.push_back("/data/f" + std::to_string(k));
    }
    for (std::size_t s = 0; s < kServers; ++s) {
      Server srv;
      srv.name = "fs" + std::to_string(s);
      srv.owner = "owner" + std::to_string(s);
      world_.add_principal(srv.name);
      world_.add_principal(srv.owner);
      server::EndServer::Config config = world_.end_server_config(srv.name);
      config.verify_cache_capacity = 1024;
      srv.fs = std::make_unique<server::FileServer>(std::move(config));
      srv.fs->acl().add(authz::AclEntry{{srv.owner}, {}, {}, {}});
      for (const std::string& obj : objects_names_) {
        srv.fs->put_file(obj, srv.name + ":" + obj + ":v0");
      }
      srv.traced = std::make_unique<TracedNode>(*srv.fs, spans_,
                                                SpanKind::kHandle);
      servers_.push_back(std::move(srv));
    }
    // Every user's chain at every server, plus fresh grants for the
    // renewals the run can reach.  Minting is the bulk of set-up, so it
    // runs on one thread per core; chain k's depth depends only on
    // (seed, k).
    const std::size_t renewals = o.max_ops / kRenewEvery / kServers + 4;
    const std::size_t held = users_count_ * kServers;
    std::vector<core::Proxy> minted(held + renewals * kServers);
    const std::size_t threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t k = t; k < minted.size(); k += threads) {
          util::Rng rng = op_rng(o.seed ^ 0xcafe0001ULL, k);
          minted[k] = mint_(k % kServers, rng);
        }
      });
    }
    for (std::thread& th : pool) th.join();
    chains_.assign(std::make_move_iterator(minted.begin()),
                   std::make_move_iterator(minted.begin() + held));
    for (std::size_t k = held; k < minted.size(); ++k) {
      servers_[k % kServers].renewals.push_back(std::move(minted[k]));
    }
    std::vector<std::pair<std::string, net::Node*>> nodes;
    for (Server& srv : servers_) nodes.emplace_back(srv.name, srv.traced.get());
    start_loop_(nodes);
  }

  ~CapabilityReads() override { stop_loop_(); }

  void prepare(Pending& op) override {
    util::Rng rng = op_rng(options_.seed, op.index);
    const std::size_t u = users_.sample(rng);
    const std::size_t s = rng.below(kServers);
    const std::size_t obj = objects_.sample(rng);
    const bool write = rng.chance(0.2);
    Server& srv = servers_[s];
    core::Proxy& chain = chains_[u * kServers + s];
    if (op.index % kRenewEvery == kRenewEvery - 1) {
      // The user renews before this operation: a fresh grant, new bytes
      // for the server's verify cache.
      if (srv.next_renewal < srv.renewals.size()) {
        chain = std::move(srv.renewals[srv.next_renewal++]);
      } else {
        util::Rng mint_rng(op.index);
        chain = mint_(s, mint_rng);
      }
    }
    server::AppRequestPayload req;
    req.operation = write ? "write" : "read";
    req.object = objects_names_[obj];
    if (write) {
      req.args = util::to_bytes(srv.name + ":" + req.object + ":v" +
                                std::to_string(op.index));
    }
    req.challenge_id = 0;  // timestamp mode: one round trip
    const util::TimePoint now = world_.clock.now();
    core::PresentedCredential cred;
    cred.chain = chain.chain;
    cred.proof = core::prove_bearer(chain, {}, srv.name, now, req.digest());
    req.credentials.push_back(std::move(cred));
    op.request = request_envelope("user" + std::to_string(u), srv.name,
                                  MsgType::kAppRequest, req);
    op.conn = u;
    op.kind = write ? 1 : 0;
    op.a = static_cast<std::uint32_t>(s);
    op.b = static_cast<std::uint32_t>(obj);
    sample_(Sample{op.request.payload, MsgType::kAppRequest, {}, now, s});
  }

  bool on_reply(Pending& op, const Envelope& reply) override {
    if (reply.type != MsgType::kAppReply) {
      return reject(op, reply, "app request");
    }
    auto decoded =
        wire::decode_from_bytes<server::AppReplyPayload>(reply.payload);
    if (!decoded.is_ok()) return reject(op, reply, "app reply decode");
    const std::string result = util::to_string(decoded.value().result);
    const std::string prefix =
        servers_[op.a].name + ":" + objects_names_[op.b] + ":";
    const bool right = op.kind == 1 ? result.empty()
                                    : result.rfind(prefix, 0) == 0;
    if (!right) {
      return reject(op, reply, "reply is not for the requested object");
    }
    op.ok = true;
    return true;
  }

  void begin_counters() override {
    for (std::size_t s = 0; s < kServers; ++s) {
      before_[s] = servers_[s].fs->verifier().cache_stats();
    }
  }

  void end_counters(std::uint64_t, LayerMetrics& out) override {
    double hits = 0, misses = 0, evictions = 0;
    for (std::size_t s = 0; s < kServers; ++s) {
      const core::ChainCacheStats now =
          servers_[s].fs->verifier().cache_stats();
      hits += static_cast<double>(now.hits - before_[s].hits);
      misses += static_cast<double>(now.misses - before_[s].misses);
      evictions += static_cast<double>(now.evictions - before_[s].evictions);
    }
    out["core.verify_hits"] = hits;
    out["core.verify_misses"] = misses;
    out["core.verify_evictions"] = evictions;
    out["core.verify_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }

  void isolated(LayerMetrics& out) override {
    std::vector<double> decode_us, encode_us, cold_us, warm_us, possession_us,
        restriction_us;
    core::AcceptOnceCache accept_once;
    for (std::size_t s = 0; s < kServers; ++s) {
      const PrincipalName& name = servers_[s].name;
      const core::ProxyVerifier cold(verifier_config_(name, 0));
      const core::ProxyVerifier warm(verifier_config_(name, kMaxSamples * 2));
      for (const Sample& smp : samples_) {
        if (smp.server != s) continue;
        Nanos t0 = now_ns();
        auto decoded =
            wire::decode_from_bytes<server::AppRequestPayload>(smp.payload);
        decode_us.push_back(elapsed_us(t0));
        if (!decoded.is_ok()) {
          ++isolated_errors_;
          continue;
        }
        const server::AppRequestPayload& req = decoded.value();
        t0 = now_ns();
        const util::Bytes again = wire::encode_to_bytes(req);
        encode_us.push_back(elapsed_us(t0));
        const core::PresentedCredential& cred = req.credentials.front();
        t0 = now_ns();
        auto verified = cold.verify_chain(cred.chain, smp.now);
        cold_us.push_back(elapsed_us(t0));
        (void)warm.verify_chain(cred.chain, smp.now);  // fill
        t0 = now_ns();
        auto hit = warm.verify_chain(cred.chain, smp.now);
        warm_us.push_back(elapsed_us(t0));
        if (!verified.is_ok() || !hit.is_ok() ||
            again.size() != smp.payload.size()) {
          ++isolated_errors_;
          continue;
        }
        const util::Bytes digest = req.digest();
        t0 = now_ns();
        auto proven = cold.verify_possession(verified.value(), cred.proof, {},
                                             digest, smp.now);
        possession_us.push_back(elapsed_us(t0));
        core::RequestContext ctx;
        ctx.end_server = name;
        ctx.operation = req.operation;
        ctx.object = req.object;
        ctx.amounts = req.amounts;
        ctx.now = smp.now;
        ctx.grantor = verified.value().grantor;
        ctx.credential_expiry = verified.value().expires_at;
        ctx.accept_once = &accept_once;
        t0 = now_ns();
        const util::Status allowed =
            verified.value().effective_restrictions.evaluate(ctx);
        restriction_us.push_back(elapsed_us(t0));
        if (!proven.is_ok() || !allowed.is_ok()) ++isolated_errors_;
      }
    }
    add_timing(out, "wire.decode_us", decode_us);
    add_timing(out, "wire.encode_us", encode_us);
    add_timing(out, "core.verify_chain_cold_us", cold_us);
    add_timing(out, "core.verify_chain_warm_us", warm_us);
    add_timing(out, "core.possession_verify_us", possession_us);
    add_timing(out, "core.restriction_eval_us", restriction_us);
    out["isolated.errors"] += static_cast<double>(isolated_errors_);
  }

  std::vector<std::string> quiesce_and_check() override {
    stop_loop_();
    std::vector<std::string> violations;
    for (const Server& srv : servers_) {
      if (srv.fs->file_count() != kObjects) {
        violations.push_back(srv.name + ": file count changed");
      }
      for (const std::string& obj : objects_names_) {
        auto contents = srv.fs->file_contents(obj);
        if (!contents.is_ok() ||
            contents.value().rfind(srv.name + ":" + obj + ":", 0) != 0) {
          violations.push_back(srv.name + ": " + obj + " holds foreign data");
        }
      }
    }
    return violations;
  }

 private:
  struct Server {
    std::string name;
    std::string owner;
    std::unique_ptr<server::FileServer> fs;
    std::unique_ptr<TracedNode> traced;
    std::vector<core::Proxy> renewals;
    std::size_t next_renewal = 0;
  };

  /// A pk bearer capability for server `s`, depth 1-4: the owner's grant
  /// plus up to three bearer narrowings (restrictions only add).
  core::Proxy mint_(std::size_t s, util::Rng& rng) {
    const Server& srv = servers_[s];
    const std::vector<core::ObjectRights> rights{
        core::ObjectRights{"*", {"read", "write"}}};
    const util::TimePoint now = world_.clock.now();
    core::Proxy proxy = authz::make_capability_pk(
        srv.owner, world_.principal(srv.owner).identity, srv.name, rights,
        now, kGrantLifetime);
    const std::size_t depth = 1 + rng.below(4);
    for (std::size_t d = 1; d < depth; ++d) {
      auto narrowed =
          authz::narrow_capability(proxy, rights, now, kGrantLifetime);
      if (!narrowed.is_ok()) {
        throw std::runtime_error("narrow: " + narrowed.status().to_string());
      }
      proxy = std::move(narrowed).value();
    }
    return proxy;
  }

  std::size_t users_count_;
  Zipf users_;
  Zipf objects_;
  std::vector<std::string> objects_names_;
  std::vector<Server> servers_;
  std::vector<core::Proxy> chains_;  ///< [user * kServers + server]
  core::ChainCacheStats before_[kServers];
};

// ---------------------------------------------------------------------------
// ledger_mix

class LedgerMix final : public FleetBase {
 public:
  static constexpr std::size_t kOwners = 1000;
  static constexpr std::size_t kAccountsPerOwner = 10;
  static constexpr std::int64_t kOpening = 1'000'000'000;
  static constexpr const char* kBank = "bank";

  explicit LedgerMix(const FleetOptions& o)
      : FleetBase(o),
        owners_count_(scaled(kOwners, o.scale)),
        owners_(owners_count_, 0.9),
        storage_dir_(o.tmp_dir + "/ledger"),
        storage_key_(crypto::SymmetricKey::generate()) {
    world_.add_principal(kBank);
    for (std::size_t i = 0; i < owners_count_; ++i) {
      owner_names_.push_back("owner" + std::to_string(i));
      world_.add_principal(owner_names_.back());
    }
    bank_ = std::make_unique<AccountingServer>(bank_config_());
    const util::Status recovered = bank_->recover();
    if (!recovered.is_ok()) {
      throw std::runtime_error("recover: " + recovered.to_string());
    }
    for (std::size_t i = 0; i < owners_count_; ++i) {
      for (std::size_t j = 0; j < kAccountsPerOwner; ++j) {
        bank_->open_account(account_name_(i * kAccountsPerOwner + j),
                            owner_names_[i], Balances{{"usd", kOpening}});
      }
    }
    model_.assign(owners_count_ * kAccountsPerOwner, kOpening);
    traced_ = std::make_unique<TracedNode>(*bank_, spans_, SpanKind::kHandle);
    start_loop_({{kBank, traced_.get()}});
  }

  ~LedgerMix() override { stop_loop_(); }

  void prepare(Pending& op) override {
    util::Rng rng = op_rng(options_.seed, op.index);
    const std::size_t owner = owners_.sample(rng);
    const bool transfer = rng.chance(0.8);
    const std::size_t j1 = rng.below(kAccountsPerOwner);
    const std::size_t j2 = (j1 + 1 + rng.below(kAccountsPerOwner - 1)) %
                           kAccountsPerOwner;
    op.kind = transfer ? 1 : 0;
    op.a = static_cast<std::uint32_t>(owner * kAccountsPerOwner + j1);
    op.b = static_cast<std::uint32_t>(owner * kAccountsPerOwner + j2);
    op.c = static_cast<std::uint32_t>(owner);
    op.amount = 1 + rng.below(100);
    op.conn = owner;
    op.request = challenge_request(owner_names_[owner], kBank);
  }

  bool on_reply(Pending& op, const Envelope& reply) override {
    const PrincipalName& owner = owner_names_[op.c];
    if (op.step == 0) {
      auto challenge =
          accounting::AccountingClient::read_challenge_reply(reply);
      if (!challenge.is_ok()) return reject(op, reply, "challenge");
      const testing::Principal& p = world_.principal(owner);
      const util::TimePoint now = world_.clock.now();
      op.step = 1;
      if (op.kind == 1) {
        accounting::TransferPayload req;
        req.challenge_id = challenge.value().id;
        req.from_account = account_name_(op.a);
        req.to_account = account_name_(op.b);
        req.currency = "usd";
        req.amount = op.amount;
        const Nanos t0 = now_ns();
        req.identity = core::prove_delegate_pk(
            p.cert, p.identity, challenge.value().nonce, kBank, now,
            transfer_digest_(req));
        op.prove_us = elapsed_us(t0);
        op.request =
            request_envelope(owner, kBank, MsgType::kTransferRequest, req);
      } else {
        accounting::AccountQueryPayload req;
        req.challenge_id = challenge.value().id;
        req.account = account_name_(op.a);
        const Nanos t0 = now_ns();
        req.identity = core::prove_delegate_pk(
            p.cert, p.identity, challenge.value().nonce, kBank, now,
            query_digest_(req));
        op.prove_us = elapsed_us(t0);
        op.request =
            request_envelope(owner, kBank, MsgType::kAccountQuery, req);
      }
      sample_(Sample{op.request.payload, op.request.type,
                     challenge.value().nonce, now, 0});
      return false;
    }
    if (op.kind == 1) {
      if (reply.type != MsgType::kTransferReply) {
        return reject(op, reply, "transfer");
      }
      auto decoded = wire::decode_from_bytes<accounting::TransferReplyPayload>(
          reply.payload);
      if (!decoded.is_ok() || !decoded.value().ok) {
        return reject(op, reply, "transfer not applied");
      }
      model_[op.a] -= static_cast<std::int64_t>(op.amount);
      model_[op.b] += static_cast<std::int64_t>(op.amount);
    } else {
      if (reply.type != MsgType::kAccountReply) {
        return reject(op, reply, "query");
      }
      auto decoded = wire::decode_from_bytes<accounting::AccountReplyPayload>(
          reply.payload);
      if (!decoded.is_ok() || decoded.value().balances.balance("usd") <= 0) {
        return reject(op, reply, "query reply");
      }
    }
    op.ok = true;
    return true;
  }

  void begin_counters() override {
    stats_before_ = bank_->journal_group_stats();
    bytes_before_ = dir_bytes(storage_dir_);
  }

  void end_counters(std::uint64_t ops, LayerMetrics& out) override {
    const auto now = bank_->journal_group_stats();
    add_storage_metrics(out, now.fsyncs - stats_before_.fsyncs,
                        now.committed - stats_before_.committed,
                        now.waits - stats_before_.waits,
                        dir_bytes(storage_dir_) - bytes_before_, ops);
  }

  void isolated(LayerMetrics& out) override {
    std::vector<double> decode_us, encode_us, possession_us;
    isolated_accounting_<accounting::TransferPayload>(
        kBank, out, decode_us, encode_us, possession_us,
        [](const accounting::TransferPayload& r) {
          return transfer_digest_(r);
        },
        MsgType::kTransferRequest);
    isolated_accounting_<accounting::AccountQueryPayload>(
        kBank, out, decode_us, encode_us, possession_us,
        [](const accounting::AccountQueryPayload& r) {
          return query_digest_(r);
        },
        MsgType::kAccountQuery);
    add_timing(out, "wire.decode_us", decode_us);
    add_timing(out, "wire.encode_us", encode_us);
    add_timing(out, "core.possession_verify_us", possession_us);
  }

  std::vector<std::string> quiesce_and_check() override {
    stop_loop_();
    std::vector<std::string> violations;
    std::int64_t total = 0;
    for (std::size_t a = 0; a < model_.size(); ++a) {
      const accounting::Account* acct = bank_->account(account_name_(a));
      const std::int64_t live = acct ? acct->balances().balance("usd") : -1;
      total += live;
      if (live != model_[a] && violations.size() < 10) {
        violations.push_back(account_name_(a) + ": live " +
                             std::to_string(live) + " != acked " +
                             std::to_string(model_[a]));
      }
    }
    const std::int64_t expected =
        kOpening * static_cast<std::int64_t>(model_.size());
    if (total != expected) {
      violations.push_back("money not conserved: " + std::to_string(total) +
                           " != " + std::to_string(expected));
    }
    // acked <= durable: a fresh server recovered from the same directory
    // holds every live balance.
    AccountingServer fresh(bank_config_());
    const util::Status recovered = fresh.recover();
    if (!recovered.is_ok()) {
      violations.push_back("recovery failed: " + recovered.to_string());
      return violations;
    }
    for (std::size_t a = 0; a < model_.size(); ++a) {
      const accounting::Account* live = bank_->account(account_name_(a));
      const accounting::Account* back = fresh.account(account_name_(a));
      if (live == nullptr || back == nullptr ||
          live->balances().balance("usd") != back->balances().balance("usd")) {
        violations.push_back("recovered " + account_name_(a) +
                             " differs from live");
        if (violations.size() >= 10) break;
      }
    }
    return violations;
  }

 private:
  static std::string account_name_(std::size_t a) {
    return "acct" + std::to_string(a);
  }
  static util::Bytes transfer_digest_(const accounting::TransferPayload& r) {
    return core::request_digest("transfer",
                                r.from_account + "->" + r.to_account,
                                {{r.currency, r.amount}});
  }
  static util::Bytes query_digest_(const accounting::AccountQueryPayload& r) {
    return core::request_digest("query", r.account, {});
  }
  AccountingServer::Config bank_config_() {
    AccountingServer::Config config = world_.accounting_config(kBank);
    config.storage_dir = storage_dir_;
    config.storage_key = storage_key_;
    config.fsync_policy = storage::FsyncPolicy::kGroup;
    return config;
  }

  std::size_t owners_count_;
  Zipf owners_;
  std::string storage_dir_;
  crypto::SymmetricKey storage_key_;
  std::vector<PrincipalName> owner_names_;
  std::unique_ptr<AccountingServer> bank_;
  std::unique_ptr<TracedNode> traced_;
  std::vector<std::int64_t> model_;  ///< balance per account after acks
  storage::JournalWriter::GroupStats stats_before_;
  std::uint64_t bytes_before_ = 0;
};

// ---------------------------------------------------------------------------
// check_clearing

class CheckClearing final : public FleetBase {
 public:
  static constexpr std::size_t kPayors = 1000;
  static constexpr std::size_t kPayees = 200;
  static constexpr std::int64_t kOpening = 1'000'000'000'000;
  static constexpr const char* kPayeeBank = "payee-bank";
  static constexpr const char* kDrawee = "drawee-bank";
  static constexpr const char* kStandby = "drawee-standby";

  explicit CheckClearing(const FleetOptions& o)
      : FleetBase(o),
        payors_(scaled(kPayors, o.scale)),
        payees_(scaled(kPayees, o.scale)),
        drawee_dir_(o.tmp_dir + "/drawee"),
        payee_dir_(o.tmp_dir + "/payee"),
        storage_key_(crypto::SymmetricKey::generate()) {
    for (const char* bank : {kPayeeBank, kDrawee, kStandby}) {
      world_.add_principal(bank);
    }
    for (std::size_t i = 0; i < payors_; ++i) {
      world_.add_principal(payor_name_(i));
    }
    for (std::size_t i = 0; i < payees_; ++i) {
      world_.add_principal(payee_name_(i));
    }

    // Payors' bank: journaled, semi-synchronously replicated.
    AccountingServer::Config drawee = world_.accounting_config(kDrawee);
    drawee.storage_dir = drawee_dir_;
    drawee.storage_key = storage_key_;
    drawee.fsync_policy = storage::FsyncPolicy::kGroup;
    drawee.replication_barrier = traced_barrier(
        [this](std::uint64_t lsn) { return shipper_->ship_until(lsn); },
        spans_);
    drawee_ = std::make_unique<AccountingServer>(std::move(drawee));
    must(drawee_->recover(), "drawee recover");
    for (std::size_t i = 0; i < payors_; ++i) {
      drawee_->open_account(payor_account_(i), payor_name_(i),
                            Balances{{"usd", kOpening}});
    }
    standby_server_ =
        std::make_unique<AccountingServer>(world_.accounting_config(kStandby));
    StandbyReplayer::Config rc;
    rc.name = kStandby;
    rc.primary = kDrawee;
    rc.server = standby_server_.get();
    rc.clock = &world_.clock;
    rc.storage_key = storage_key_;
    replayer_ = std::make_unique<StandbyReplayer>(std::move(rc));
    standby_traced_ =
        std::make_unique<TracedNode>(*replayer_, spans_, SpanKind::kStandby);
    world_.net.attach(kStandby, *standby_traced_);
    JournalShipper::Config sc;
    sc.primary = drawee_.get();
    sc.net = &world_.net;
    sc.standbys = {kStandby};
    shipper_ = std::make_unique<JournalShipper>(std::move(sc));
    drawee_traced_ =
        std::make_unique<TracedNode>(*drawee_, spans_, SpanKind::kDrawee);
    world_.net.attach(kDrawee, *drawee_traced_);

    // Payees' bank: journaled, served on the socket, collects over SimNet.
    AccountingServer::Config payee = world_.accounting_config(kPayeeBank);
    payee.storage_dir = payee_dir_;
    payee.storage_key = storage_key_;
    payee.fsync_policy = storage::FsyncPolicy::kGroup;
    payee_bank_ = std::make_unique<AccountingServer>(std::move(payee));
    must(payee_bank_->recover(), "payee bank recover");
    for (std::size_t i = 0; i < payees_; ++i) {
      payee_bank_->open_account(payee_account_(i), payee_name_(i));
    }

    // Checks written ahead: what payors do before payees deposit.
    checks_.reserve(o.max_ops);
    for (std::uint64_t k = 0; k < o.max_ops; ++k) checks_.push_back(write_(k));
    payor_debit_.assign(payors_, 0);
    payee_credit_.assign(payees_, 0);

    payee_traced_ =
        std::make_unique<TracedNode>(*payee_bank_, spans_, SpanKind::kHandle);
    start_loop_({{kPayeeBank, payee_traced_.get()}});
  }

  ~CheckClearing() override { stop_loop_(); }

  void prepare(Pending& op) override {
    if (op.index >= checks_.size()) checks_.push_back(write_(op.index));
    const Written& w = checks_[op.index];
    op.a = static_cast<std::uint32_t>(op.index);
    op.b = w.payee;
    op.c = w.payor;
    op.amount = w.check.amount;
    op.conn = w.payee;
    op.request = challenge_request(payee_name_(w.payee), kPayeeBank);
  }

  bool on_reply(Pending& op, const Envelope& reply) override {
    const PrincipalName payee = payee_name_(op.b);
    if (op.step == 0) {
      auto challenge =
          accounting::AccountingClient::read_challenge_reply(reply);
      if (!challenge.is_ok()) return reject(op, reply, "challenge");
      const testing::Principal& p = world_.principal(payee);
      const util::TimePoint now = world_.clock.now();
      Nanos t0 = now_ns();
      auto endorsed = accounting::endorse_check(checks_[op.a].check, payee,
                                                p.identity, kPayeeBank, now);
      op.endorse_us = elapsed_us(t0);
      if (!endorsed.is_ok()) {
        op.error = "endorse: " + endorsed.status().to_string();
        return true;
      }
      accounting::DepositPayload req;
      req.challenge_id = challenge.value().id;
      req.check = std::move(endorsed).value();
      req.collect_account = payee_account_(op.b);
      req.amount = op.amount;
      t0 = now_ns();
      req.identity = core::prove_delegate_pk(
          p.cert, p.identity, challenge.value().nonce, kPayeeBank, now,
          deposit_digest_(req));
      op.prove_us = elapsed_us(t0);
      op.request =
          request_envelope(payee, kPayeeBank, MsgType::kCheckDeposit, req);
      op.step = 1;
      sample_(Sample{op.request.payload, MsgType::kCheckDeposit,
                     challenge.value().nonce, now, 0});
      return false;
    }
    if (reply.type != MsgType::kDepositReply) {
      return reject(op, reply, "deposit");
    }
    auto decoded =
        wire::decode_from_bytes<accounting::DepositReplyPayload>(reply.payload);
    if (!decoded.is_ok() || !decoded.value().cleared ||
        decoded.value().hops != 1) {
      return reject(op, reply, "deposit did not clear in one hop");
    }
    const auto amount = static_cast<std::int64_t>(op.amount);
    payor_debit_[op.c] += amount;
    payee_credit_[op.b] += amount;
    acked_total_ += amount;
    acked_count_ += 1;
    op.ok = true;
    return true;
  }

  void begin_counters() override {
    drawee_before_ = drawee_->journal_group_stats();
    payee_before_ = payee_bank_->journal_group_stats();
    bytes_before_ = dir_bytes(drawee_dir_) + dir_bytes(payee_dir_);
    net_before_ = world_.net.stats();
  }

  void end_counters(std::uint64_t ops, LayerMetrics& out) override {
    const auto d = drawee_->journal_group_stats();
    const auto p = payee_bank_->journal_group_stats();
    add_storage_metrics(
        out,
        d.fsyncs - drawee_before_.fsyncs + p.fsyncs - payee_before_.fsyncs,
        d.committed - drawee_before_.committed + p.committed -
            payee_before_.committed,
        d.waits - drawee_before_.waits + p.waits - payee_before_.waits,
        dir_bytes(drawee_dir_) + dir_bytes(payee_dir_) - bytes_before_, ops);
    const net::NetStats net = world_.net.stats();
    const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
    out["accounting.simnet_msgs_per_op"] =
        static_cast<double>(net.messages - net_before_.messages) / n;
    out["accounting.simnet_bytes_per_op"] =
        static_cast<double>(net.bytes - net_before_.bytes) / n;
  }

  void isolated(LayerMetrics& out) override {
    std::vector<double> decode_us, encode_us, possession_us, cold_us, warm_us;
    isolated_accounting_<accounting::DepositPayload>(
        kPayeeBank, out, decode_us, encode_us, possession_us,
        [](const accounting::DepositPayload& r) { return deposit_digest_(r); },
        MsgType::kCheckDeposit);
    const core::ProxyVerifier cold(verifier_config_(kPayeeBank, 0));
    const core::ProxyVerifier warm(
        verifier_config_(kPayeeBank, kMaxSamples * 2));
    for (const Sample& s : samples_) {
      auto decoded =
          wire::decode_from_bytes<accounting::DepositPayload>(s.payload);
      if (!decoded.is_ok()) continue;
      const core::ProxyChain& chain = decoded.value().check.chain;
      Nanos t0 = now_ns();
      auto verified = cold.verify_chain(chain, s.now);
      cold_us.push_back(elapsed_us(t0));
      (void)warm.verify_chain(chain, s.now);
      t0 = now_ns();
      auto hit = warm.verify_chain(chain, s.now);
      warm_us.push_back(elapsed_us(t0));
      if (!verified.is_ok() || !hit.is_ok()) ++isolated_errors_;
    }
    add_timing(out, "wire.decode_us", decode_us);
    add_timing(out, "wire.encode_us", encode_us);
    add_timing(out, "core.possession_verify_us", possession_us);
    add_timing(out, "core.verify_chain_cold_us", cold_us);
    add_timing(out, "core.verify_chain_warm_us", warm_us);
    out["isolated.errors"] += static_cast<double>(isolated_errors_);
  }

  std::vector<std::string> quiesce_and_check() override {
    stop_loop_();
    std::vector<std::string> violations;
    const auto balance = [](const AccountingServer& bank,
                            const std::string& name) -> std::int64_t {
      const accounting::Account* acct = bank.account(name);
      return acct ? acct->balances().balance("usd") : -1;
    };
    const auto expect = [&](bool ok, const std::string& what) {
      if (!ok && violations.size() < 10) violations.push_back(what);
    };
    const std::string peer = std::string("peer:") + kPayeeBank;
    std::int64_t drawee_total = balance(*drawee_, peer);
    for (std::size_t i = 0; i < payors_; ++i) {
      const std::int64_t b = balance(*drawee_, payor_account_(i));
      drawee_total += b;
      expect(kOpening - b == payor_debit_[i],
             payor_account_(i) + " debited " + std::to_string(kOpening - b) +
                 " != acked checks " + std::to_string(payor_debit_[i]));
    }
    expect(drawee_total == kOpening * static_cast<std::int64_t>(payors_),
           "money not conserved at the drawee");
    expect(balance(*drawee_, peer) == acked_total_,
           "drawee settled " + std::to_string(balance(*drawee_, peer)) +
               " != acked " + std::to_string(acked_total_));
    std::int64_t credited = 0;
    for (std::size_t i = 0; i < payees_; ++i) {
      const std::int64_t b = balance(*payee_bank_, payee_account_(i));
      credited += b;
      expect(b == payee_credit_[i], payee_account_(i) + " credit mismatch");
    }
    expect(credited == acked_total_,
           "payee credits " + std::to_string(credited) +
               " != deposited checks " + std::to_string(acked_total_));
    expect(drawee_->checks_cleared() == acked_count_,
           "drawee cleared " + std::to_string(drawee_->checks_cleared()) +
               " checks, acked " + std::to_string(acked_count_));
    expect(payee_bank_->uncollected_total() == 0, "uncollected funds left");
    // Every standby balance equals the primary's after the last barrier.
    const util::Status shipped =
        shipper_->ship_until(drawee_->journal_durable_lsn());
    expect(shipped.is_ok(), "final barrier: " + shipped.to_string());
    expect(balance(*standby_server_, peer) == balance(*drawee_, peer),
           "standby settlement account differs");
    for (std::size_t i = 0; i < payors_; ++i) {
      expect(balance(*standby_server_, payor_account_(i)) ==
                 balance(*drawee_, payor_account_(i)),
             "standby " + payor_account_(i) + " differs from primary");
    }
    return violations;
  }

 private:
  struct Written {
    accounting::Check check;
    std::uint32_t payor = 0;
    std::uint32_t payee = 0;
  };

  static void must(const util::Status& st, const char* what) {
    if (!st.is_ok()) {
      throw std::runtime_error(std::string(what) + ": " + st.to_string());
    }
  }
  static std::string payor_name_(std::size_t i) {
    return "payor" + std::to_string(i);
  }
  static std::string payee_name_(std::size_t i) {
    return "payee" + std::to_string(i);
  }
  static std::string payor_account_(std::size_t i) {
    return "p" + std::to_string(i);
  }
  static std::string payee_account_(std::size_t i) {
    return "m" + std::to_string(i);
  }
  static util::Bytes deposit_digest_(const accounting::DepositPayload& r) {
    return core::request_digest("deposit", r.collect_account,
                                {{r.check.currency, r.amount}});
  }

  Written write_(std::uint64_t k) {
    util::Rng rng = op_rng(options_.seed, k);
    Written w;
    w.payor = static_cast<std::uint32_t>(rng.below(payors_));
    w.payee = static_cast<std::uint32_t>(rng.below(payees_));
    const std::uint64_t amount = 1 + rng.below(1000);
    w.check = accounting::write_check(
        payor_name_(w.payor), world_.principal(payor_name_(w.payor)).identity,
        AccountId{kDrawee, payor_account_(w.payor)}, payee_name_(w.payee),
        "usd", amount, k + 1, world_.clock.now(), kGrantLifetime);
    return w;
  }

  std::size_t payors_;
  std::size_t payees_;
  std::string drawee_dir_;
  std::string payee_dir_;
  crypto::SymmetricKey storage_key_;
  std::unique_ptr<AccountingServer> drawee_;
  std::unique_ptr<AccountingServer> standby_server_;
  std::unique_ptr<StandbyReplayer> replayer_;
  std::unique_ptr<JournalShipper> shipper_;
  std::unique_ptr<TracedNode> standby_traced_;
  std::unique_ptr<TracedNode> drawee_traced_;
  std::unique_ptr<AccountingServer> payee_bank_;
  std::unique_ptr<TracedNode> payee_traced_;
  std::vector<Written> checks_;
  std::vector<std::int64_t> payor_debit_;
  std::vector<std::int64_t> payee_credit_;
  std::int64_t acked_total_ = 0;
  std::uint64_t acked_count_ = 0;
  storage::JournalWriter::GroupStats drawee_before_;
  storage::JournalWriter::GroupStats payee_before_;
  std::uint64_t bytes_before_ = 0;
  net::NetStats net_before_;
};

}  // namespace

Zipf::Zipf(std::size_t n, double s) {
  cdf_.reserve(n);
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::sample(rproxy::util::Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

rproxy::util::Rng op_rng(std::uint64_t seed, std::uint64_t index) {
  return rproxy::util::Rng(seed * 0x9e3779b97f4a7c15ULL +
                           index * 0xbf58476d1ce4e5b9ULL + 1);
}

const std::vector<std::string>& Fleet::names() {
  static const std::vector<std::string> kNames{"capability_reads",
                                               "ledger_mix", "check_clearing"};
  return kNames;
}

std::unique_ptr<Fleet> Fleet::create(const FleetOptions& options) {
  std::filesystem::create_directories(options.tmp_dir);
  if (options.workload == "capability_reads") {
    return std::make_unique<CapabilityReads>(options);
  }
  if (options.workload == "ledger_mix") {
    return std::make_unique<LedgerMix>(options);
  }
  if (options.workload == "check_clearing") {
    return std::make_unique<CheckClearing>(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench

// Chain-verification cache correctness.
//
// The cache may elide signature/MAC/ticket re-verification for
// byte-identical chains, and NOTHING else: expiry, proof freshness,
// challenge single-use, replay protection, accept-once and restriction
// evaluation must behave identically with the cache on or off.  Most tests
// here run the same scenario against a cached and an uncached verifier (or
// end-server) and assert the outcomes agree.
#include <gtest/gtest.h>

#include "authz/capability.hpp"
#include "core/revocation_id.hpp"
#include "core/verifier.hpp"
#include "crypto/random.hpp"
#include "server/file_server.hpp"
#include "testing/env.hpp"

namespace rproxy {
namespace {

using testing::World;

core::RestrictionSet one_quota(std::uint64_t n) {
  core::RestrictionSet set;
  set.add(core::QuotaRestriction{"usd", n});
  return set;
}

class VerifyCacheTest : public ::testing::Test {
 protected:
  VerifyCacheTest() {
    world_.add_principal("alice");
    world_.add_principal("file-server");
  }

  core::ProxyVerifier make_verifier(std::size_t capacity,
                                    util::Duration ttl = 5 * util::kMinute,
                                    bool with_revocation = false) {
    core::ProxyVerifier::Config vc;
    vc.server_name = "file-server";
    vc.server_key = world_.principal("file-server").krb_key;
    vc.resolver = &world_.resolver;
    vc.pk_root = world_.name_server.root_key();
    vc.verify_cache_capacity = capacity;
    vc.verify_cache_ttl = ttl;
    if (with_revocation) vc.revocation = &world_.revocation;
    return core::ProxyVerifier(std::move(vc));
  }

  core::Proxy pk_chain(std::size_t depth, util::Duration lifetime) {
    core::Proxy proxy =
        core::grant_pk_proxy("alice", world_.principal("alice").identity,
                             one_quota(100), world_.clock.now(), lifetime);
    for (std::size_t i = 1; i < depth; ++i) {
      proxy = core::extend_bearer(proxy, one_quota(100 - i),
                                  world_.clock.now(), lifetime)
                  .value();
    }
    return proxy;
  }

  World world_;
};

TEST_F(VerifyCacheTest, WarmHitSkipsReverification) {
  const core::Proxy proxy = pk_chain(4, util::kHour);
  const core::ProxyVerifier verifier = make_verifier(1024);

  auto first = verifier.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_TRUE(first.is_ok()) << first.status();
  auto second = verifier.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_TRUE(second.is_ok()) << second.status();

  const core::ChainCacheStats stats = verifier.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);

  // The cached result is indistinguishable from the fresh one.
  EXPECT_EQ(first.value().grantor, second.value().grantor);
  EXPECT_EQ(first.value().expires_at, second.value().expires_at);
  EXPECT_EQ(first.value().chain_length, second.value().chain_length);
  EXPECT_EQ(wire::encode_to_bytes(first.value().effective_restrictions),
            wire::encode_to_bytes(second.value().effective_restrictions));
}

TEST_F(VerifyCacheTest, ExpiredChainRejectedAfterWarmHit) {
  const core::Proxy proxy = pk_chain(2, 10 * util::kMinute);
  // TTL longer than the chain lifetime so expiry, not the TTL, triggers.
  const core::ProxyVerifier cached = make_verifier(1024, util::kHour);
  const core::ProxyVerifier uncached = make_verifier(0);

  ASSERT_TRUE(cached.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  ASSERT_TRUE(cached.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(cached.cache_stats().hits, 1u);

  world_.clock.advance(util::kHour);
  auto with_cache = cached.verify_chain(proxy.chain, world_.clock.now());
  auto without = uncached.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_FALSE(with_cache.is_ok());
  ASSERT_FALSE(without.is_ok());
  EXPECT_EQ(with_cache.status().code(), util::ErrorCode::kExpired);
  // Exact parity: the cached path falls through to full verification, so
  // even the message matches the uncached verifier's.
  EXPECT_EQ(with_cache.status().to_string(), without.status().to_string());
  EXPECT_EQ(cached.cache_stats().expired_drops, 1u);
}

TEST_F(VerifyCacheTest, TamperedChainMissesCacheAndFails) {
  const core::Proxy proxy = pk_chain(3, util::kHour);
  const core::ProxyVerifier cached = make_verifier(1024);
  const core::ProxyVerifier uncached = make_verifier(0);

  ASSERT_TRUE(cached.verify_chain(proxy.chain, world_.clock.now()).is_ok());

  // Flip one bit of a middle certificate's signature.
  core::ProxyChain tampered = proxy.chain;
  tampered.certs[1].signature[5] ^= 0x01;
  auto with_cache = cached.verify_chain(tampered, world_.clock.now());
  auto without = uncached.verify_chain(tampered, world_.clock.now());
  ASSERT_FALSE(with_cache.is_ok());
  ASSERT_FALSE(without.is_ok());
  EXPECT_EQ(with_cache.status().code(), without.status().code());

  // The tampered bytes hash to a different key: a miss, never a hit, and
  // the failed verification is not cached afterwards.
  const core::ChainCacheStats stats = cached.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 1u);
}

TEST_F(VerifyCacheTest, TtlLapseForcesReverification) {
  const core::Proxy proxy = pk_chain(2, util::kHour);
  const core::ProxyVerifier verifier =
      make_verifier(1024, /*ttl=*/util::kMinute);

  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  world_.clock.advance(2 * util::kMinute);
  // Chain still valid but the reuse window lapsed: full re-verification.
  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());

  const core::ChainCacheStats stats = verifier.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.expired_drops, 1u);
}

TEST_F(VerifyCacheTest, CapacityBoundEvicts) {
  const core::ProxyVerifier verifier = make_verifier(2);
  std::vector<core::Proxy> proxies;
  for (int i = 0; i < 3; ++i) proxies.push_back(pk_chain(1, util::kHour));

  for (const core::Proxy& p : proxies) {
    ASSERT_TRUE(verifier.verify_chain(p.chain, world_.clock.now()).is_ok());
  }
  const core::ChainCacheStats stats = verifier.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // The evicted (least recently used) chain re-verifies fine — as a miss.
  ASSERT_TRUE(
      verifier.verify_chain(proxies[0].chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().misses, 4u);
}

TEST_F(VerifyCacheTest, SymmetricChainWarmHit) {
  world_.net.set_default_latency(0);
  kdc::KdcClient client = world_.kdc_client("alice");
  auto tgt = client.authenticate(8 * util::kHour);
  ASSERT_TRUE(tgt.is_ok()) << tgt.status();
  auto creds =
      client.get_ticket(tgt.value(), "file-server", 8 * util::kHour);
  ASSERT_TRUE(creds.is_ok()) << creds.status();
  const core::Proxy proxy = core::grant_krb_proxy(
      client, creds.value(), one_quota(7), world_.clock.now());

  const core::ProxyVerifier verifier = make_verifier(1024);
  auto first = verifier.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_TRUE(first.is_ok()) << first.status();
  auto second = verifier.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_TRUE(second.is_ok()) << second.status();
  EXPECT_EQ(verifier.cache_stats().hits, 1u);
  EXPECT_EQ(first.value().grantor, second.value().grantor);
}

TEST_F(VerifyCacheTest, ClearCacheDropsEntries) {
  const core::Proxy proxy = pk_chain(2, util::kHour);
  core::ProxyVerifier verifier = make_verifier(1024);
  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  verifier.clear_cache();
  EXPECT_EQ(verifier.cache_stats().size, 0u);
  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().misses, 2u);
}

TEST_F(VerifyCacheTest, DisabledCacheReportsZeroStats) {
  const core::Proxy proxy = pk_chain(2, util::kHour);
  const core::ProxyVerifier verifier = make_verifier(0);
  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  const core::ChainCacheStats stats = verifier.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.size, 0u);
}

// --- Revocation epochs: warm entries must not outlive ground truth ---

TEST_F(VerifyCacheTest, RevocationBumpDropsOnlyAffectedEntries) {
  world_.add_principal("carol");
  const core::Proxy from_alice = pk_chain(2, util::kHour);
  const core::Proxy from_carol =
      core::grant_pk_proxy("carol", world_.principal("carol").identity,
                           one_quota(5), world_.clock.now(), util::kHour);
  const core::ProxyVerifier verifier =
      make_verifier(1024, util::kHour, /*with_revocation=*/true);

  // Warm both grantors' entries.
  ASSERT_TRUE(
      verifier.verify_chain(from_alice.chain, world_.clock.now()).is_ok());
  ASSERT_TRUE(
      verifier.verify_chain(from_carol.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().size, 2u);

  world_.revocation.bump("alice");

  // Alice's entry is dropped (stale epoch) and re-verified in full.  A
  // bare bump revokes nothing by itself, so the fresh verify still
  // succeeds and re-caches under the current epoch.
  auto realice = verifier.verify_chain(from_alice.chain, world_.clock.now());
  ASSERT_TRUE(realice.is_ok()) << realice.status();
  core::ChainCacheStats stats = verifier.cache_stats();
  EXPECT_EQ(stats.revocation_stale_drops, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Carol's entry survived the targeted invalidation: a hit, not a drop.
  ASSERT_TRUE(
      verifier.verify_chain(from_carol.chain, world_.clock.now()).is_ok());
  stats = verifier.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.revocation_stale_drops, 1u);

  // And the refreshed alice entry hits again on the next presentation.
  ASSERT_TRUE(
      verifier.verify_chain(from_alice.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().hits, 2u);
}

TEST_F(VerifyCacheTest, RevokedGrantorRejectedDespiteWarmCache) {
  const core::Proxy proxy = pk_chain(3, util::kHour);
  // TTL and capacity deliberately generous: the registry, not the TTL,
  // must be what unseats the warm entry.
  const core::ProxyVerifier cached =
      make_verifier(1024, util::kHour, /*with_revocation=*/true);
  const core::ProxyVerifier uncached =
      make_verifier(0, util::kHour, /*with_revocation=*/true);

  ASSERT_TRUE(cached.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  ASSERT_TRUE(cached.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(cached.cache_stats().hits, 1u);

  world_.clock.advance(util::kMinute);
  world_.revocation.revoke_grants_before("alice", world_.clock.now());

  // The very next presentation fails — warm cache included — and the
  // cached verifier's outcome is byte-identical to the uncached one's.
  auto with_cache = cached.verify_chain(proxy.chain, world_.clock.now());
  auto without = uncached.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_FALSE(with_cache.is_ok());
  ASSERT_FALSE(without.is_ok());
  EXPECT_EQ(with_cache.status().code(), util::ErrorCode::kRevoked);
  EXPECT_EQ(with_cache.status().to_string(), without.status().to_string());
  EXPECT_EQ(cached.cache_stats().revocation_stale_drops, 1u);
  // The failed re-verification must not be re-cached.
  EXPECT_EQ(cached.cache_stats().size, 0u);
}

TEST_F(VerifyCacheTest, CertRevocationKillsOneChainNotTheGrantor) {
  const core::Proxy narrow = pk_chain(1, util::kHour);
  const core::Proxy other = pk_chain(1, util::kHour);
  const core::ProxyVerifier verifier =
      make_verifier(1024, util::kHour, /*with_revocation=*/true);
  ASSERT_TRUE(
      verifier.verify_chain(narrow.chain, world_.clock.now()).is_ok());
  ASSERT_TRUE(verifier.verify_chain(other.chain, world_.clock.now()).is_ok());

  world_.revocation.revoke_cert(
      "alice", core::revocation_id_of(narrow.chain.certs[0]));

  auto revoked = verifier.verify_chain(narrow.chain, world_.clock.now());
  EXPECT_EQ(revoked.status().code(), util::ErrorCode::kRevoked);
  // The sibling grant re-verifies in full (same grantor ⇒ its entry also
  // went stale) but remains valid.
  auto alive = verifier.verify_chain(other.chain, world_.clock.now());
  ASSERT_TRUE(alive.is_ok()) << alive.status();
  EXPECT_EQ(verifier.cache_stats().revocation_stale_drops, 2u);
}

TEST_F(VerifyCacheTest, RevocationDuringVerificationIsNotCached) {
  // A revocation that lands after a link's revocation check but before the
  // outcome is cached must not be stamped current.  The resolver fires it
  // deterministically: the root link (alice) has been checked by the time
  // the delegate link's signer (bob) is resolved.
  world_.add_principal("bob");
  core::RestrictionSet named;
  named.add(core::GranteeRestriction{{"bob"}, 1});
  const util::TimePoint granted = world_.clock.now();
  const core::Proxy root = core::grant_pk_proxy(
      "alice", world_.principal("alice").identity, named, granted,
      util::kHour);
  const core::Proxy chain =
      core::extend_delegate(root, "bob", world_.principal("bob").identity,
                            one_quota(5), granted, util::kHour)
          .value();

  class RevokingResolver final : public core::KeyResolver {
   public:
    RevokingResolver(World& world, util::TimePoint cutoff)
        : world_(world), cutoff_(cutoff) {}
    util::Result<crypto::VerifyKey> resolve(
        const PrincipalName& name) const override {
      if (name == "bob" && armed_) {
        armed_ = false;
        world_.revocation.revoke_grants_before("alice", cutoff_);
      }
      return world_.resolver.resolve(name);
    }
    mutable bool armed_ = true;

   private:
    World& world_;
    util::TimePoint cutoff_;
  };
  const RevokingResolver resolver(world_, granted + 1);

  core::ProxyVerifier::Config vc;
  vc.server_name = "file-server";
  vc.resolver = &resolver;
  vc.verify_cache_capacity = 1024;
  vc.verify_cache_ttl = util::kHour;
  vc.revocation = &world_.revocation;
  const core::ProxyVerifier verifier(std::move(vc));

  // The racing verification itself may pass: alice's link was checked
  // before the cut.
  ASSERT_TRUE(verifier.verify_chain(chain.chain, world_.clock.now()).is_ok());
  ASSERT_FALSE(resolver.armed_);
  EXPECT_EQ(verifier.cache_stats().size, 0u);

  // But the next presentation sees the cut.
  auto again = verifier.verify_chain(chain.chain, world_.clock.now());
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.status().code(), util::ErrorCode::kRevoked);
  EXPECT_EQ(verifier.cache_stats().hits, 0u);
}

// --- Identity-certificate memo: skips only the name server's signature ---

class IdentityMemoTest : public VerifyCacheTest {
 protected:
  IdentityMemoTest() { world_.add_principal("mallory"); }

  core::PossessionProof prove(const pki::IdentityCert& cert,
                              const crypto::SigningKeyPair& key,
                              util::TimePoint at,
                              const PrincipalName& server = "file-server") {
    return core::prove_delegate_pk(cert, key, challenge_, server, at,
                                   rdigest_);
  }

  util::Result<std::vector<PrincipalName>> check(
      const core::ProxyVerifier& verifier, const core::PossessionProof& proof,
      util::TimePoint at) {
    return verifier.verify_identity(proof, challenge_, rdigest_, at);
  }

  /// The same proof against a memo-warm and a memo-less verifier: both
  /// must reject, with the same code.
  void expect_both_reject(const core::PossessionProof& proof,
                          util::TimePoint at, util::ErrorCode code) {
    auto warm = check(cached_, proof, at);
    auto cold = check(uncached_, proof, at);
    ASSERT_FALSE(warm.is_ok());
    ASSERT_FALSE(cold.is_ok());
    EXPECT_EQ(warm.status().code(), code) << warm.status();
    EXPECT_EQ(warm.status().to_string(), cold.status().to_string());
  }

  void warm_memo() {
    const core::PossessionProof proof =
        prove(alice().cert, alice().identity, world_.clock.now());
    ASSERT_TRUE(check(cached_, proof, world_.clock.now()).is_ok());
    ASSERT_EQ(cached_.cache_stats().identity_size, 1u);
  }

  const testing::Principal& alice() { return world_.principal("alice"); }

  util::Bytes challenge_ = crypto::random_bytes(32);
  util::Bytes rdigest_ = crypto::random_bytes(32);
  core::ProxyVerifier cached_ = make_verifier(1024);
  core::ProxyVerifier uncached_ = make_verifier(0);
};

TEST_F(IdentityMemoTest, WarmHitSkipsCertificateSignature) {
  for (int i = 0; i < 3; ++i) {
    const core::PossessionProof proof =
        prove(alice().cert, alice().identity, world_.clock.now());
    auto who = check(cached_, proof, world_.clock.now());
    ASSERT_TRUE(who.is_ok()) << who.status();
    EXPECT_EQ(who.value(), std::vector<PrincipalName>{"alice"});
  }
  const core::ChainCacheStats stats = cached_.cache_stats();
  EXPECT_EQ(stats.identity_misses, 1u);
  EXPECT_EQ(stats.identity_hits, 2u);
  EXPECT_EQ(stats.identity_size, 1u);
  // The chain cache's own counters are untouched.
  EXPECT_EQ(stats.hits + stats.misses, 0u);
}

TEST_F(IdentityMemoTest, TamperedCertificateRejectedOnWarmMemo) {
  warm_memo();
  const crypto::SigningKeyPair& mallory = world_.principal("mallory").identity;
  // Each field of alice's certificate, altered; the proof is signed with
  // the key the altered certificate names, so only the certificate's
  // issuer signature stands between the attacker and acceptance.
  std::vector<std::pair<pki::IdentityCert, const crypto::SigningKeyPair*>>
      forged;
  pki::IdentityCert cert = alice().cert;
  cert.subject = "alicf";
  forged.emplace_back(cert, &alice().identity);
  cert = alice().cert;
  cert.public_key = mallory.public_key();
  forged.emplace_back(cert, &mallory);
  cert = alice().cert;
  cert.issuer = cert.issuer + "x";
  forged.emplace_back(cert, &alice().identity);
  cert = alice().cert;
  cert.issued_at -= 1;
  forged.emplace_back(cert, &alice().identity);
  cert = alice().cert;
  cert.expires_at += util::kHour;
  forged.emplace_back(cert, &alice().identity);
  cert = alice().cert;
  cert.signature[7] ^= 0x01;
  forged.emplace_back(cert, &alice().identity);

  for (const auto& [bad, key] : forged) {
    expect_both_reject(prove(bad, *key, world_.clock.now()),
                       world_.clock.now(), util::ErrorCode::kBadSignature);
  }
  const core::ChainCacheStats stats = cached_.cache_stats();
  EXPECT_EQ(stats.identity_hits, 0u);
  EXPECT_EQ(stats.identity_misses, 1u + forged.size());
  // Failed checks are never remembered.
  EXPECT_EQ(stats.identity_size, 1u);
}

TEST_F(IdentityMemoTest, ValidityWindowCheckedOnEveryHit) {
  warm_memo();
  // Not yet valid: an instant before the certificate was issued.
  const util::TimePoint early = alice().cert.issued_at - util::kMinute;
  expect_both_reject(prove(alice().cert, alice().identity, early), early,
                     util::ErrorCode::kExpired);
  // Expired: past the name server's 8-hour lifetime.
  world_.clock.advance(9 * util::kHour);
  const util::TimePoint late = world_.clock.now();
  expect_both_reject(prove(alice().cert, alice().identity, late), late,
                     util::ErrorCode::kExpired);
  // Both rejections came from memo hits, not from re-checking the
  // issuer signature.
  EXPECT_EQ(cached_.cache_stats().identity_hits, 2u);
  EXPECT_EQ(cached_.cache_stats().identity_misses, 1u);
}

TEST_F(IdentityMemoTest, ProofCheckedOnEveryHit) {
  warm_memo();
  const util::TimePoint now = world_.clock.now();
  // Wrong challenge.
  {
    const core::PossessionProof proof = core::prove_delegate_pk(
        alice().cert, alice().identity, crypto::random_bytes(32),
        "file-server", now, rdigest_);
    expect_both_reject(proof, now, util::ErrorCode::kBadSignature);
  }
  // Made for another server.
  expect_both_reject(prove(alice().cert, alice().identity, now, "other"), now,
                     util::ErrorCode::kBadSignature);
  // Stale.
  expect_both_reject(
      prove(alice().cert, alice().identity, now - 10 * util::kMinute), now,
      util::ErrorCode::kExpired);
  // Alice's genuine certificate, signed by mallory's key.
  expect_both_reject(
      prove(alice().cert, world_.principal("mallory").identity, now), now,
      util::ErrorCode::kBadSignature);
  // The genuine certificate hit the memo wherever the proof got that far.
  EXPECT_GE(cached_.cache_stats().identity_hits, 3u);
}

TEST_F(IdentityMemoTest, CapacityBoundsTheMemo) {
  const core::ProxyVerifier small = make_verifier(2);
  for (const char* name : {"alice", "mallory", "file-server"}) {
    const testing::Principal& p = world_.principal(name);
    ASSERT_TRUE(
        check(small, prove(p.cert, p.identity, world_.clock.now()),
              world_.clock.now())
            .is_ok());
  }
  EXPECT_EQ(small.cache_stats().identity_size, 2u);
  // The least recently used certificate (alice's) was evicted: a miss.
  ASSERT_TRUE(check(small,
                    prove(alice().cert, alice().identity, world_.clock.now()),
                    world_.clock.now())
                  .is_ok());
  EXPECT_EQ(small.cache_stats().identity_misses, 4u);
  EXPECT_EQ(small.cache_stats().identity_hits, 0u);
}

TEST_F(IdentityMemoTest, DisabledCacheKeepsMemoEmpty) {
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(check(uncached_,
                      prove(alice().cert, alice().identity,
                            world_.clock.now()),
                      world_.clock.now())
                    .is_ok());
  }
  const core::ChainCacheStats stats = uncached_.cache_stats();
  EXPECT_EQ(stats.identity_hits, 0u);
  EXPECT_EQ(stats.identity_misses, 0u);
  EXPECT_EQ(stats.identity_size, 0u);
}

TEST_F(IdentityMemoTest, ClearCacheDropsRememberedCertificates) {
  warm_memo();
  cached_.clear_cache();
  EXPECT_EQ(cached_.cache_stats().identity_size, 0u);
  ASSERT_TRUE(check(cached_,
                    prove(alice().cert, alice().identity, world_.clock.now()),
                    world_.clock.now())
                  .is_ok());
  EXPECT_EQ(cached_.cache_stats().identity_misses, 2u);
}

// --- End-server level: per-presentation checks still bite on cache hits ---

class VerifyCacheEndServerTest : public ::testing::Test {
 protected:
  VerifyCacheEndServerTest() {
    world_.add_principal("alice");
    world_.add_principal("bob");
    world_.add_principal("file-server");
  }

  std::unique_ptr<server::FileServer> make_server(std::size_t capacity) {
    server::EndServer::Config config =
        world_.end_server_config("file-server");
    config.verify_cache_capacity = capacity;
    auto server = std::make_unique<server::FileServer>(std::move(config));
    server->put_file("/doc", "contents");
    server->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
    return server;
  }

  core::Proxy alice_capability() {
    return authz::make_capability_pk(
        "alice", world_.principal("alice").identity, "file-server",
        {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
        util::kHour);
  }

  World world_;
};

TEST_F(VerifyCacheEndServerTest, ReplayedChallengeRejectedOnCacheHit) {
  auto server = make_server(1024);
  world_.net.attach("file-server", *server);
  const core::Proxy cap = alice_capability();
  server::AppClient bob(world_.net, world_.clock, "bob");

  // Warm the cache with a successful presentation.
  ASSERT_TRUE(
      bob.invoke_with_proxy("file-server", cap, "read", "/doc").is_ok());
  ASSERT_GE(server->verifier().cache_stats().size, 1u);

  // Replay an already-consumed challenge with the (cached) chain: the
  // single-use challenge check runs before and regardless of the cache.
  auto challenge = bob.get_challenge("file-server");
  ASSERT_TRUE(challenge.is_ok());
  server::AppRequestPayload req;
  req.operation = "read";
  req.object = "/doc";
  req.challenge_id = challenge.value().id;
  req.credentials.push_back(core::PresentedCredential{
      cap.chain, core::prove_bearer(cap, challenge.value().nonce,
                                    "file-server", world_.clock.now(),
                                    req.digest())});
  auto first = world_.net.rpc("bob", "file-server",
                              net::MsgType::kAppRequest,
                              wire::encode_to_bytes(req));
  ASSERT_TRUE(first.is_ok());
  EXPECT_TRUE(net::status_of(first.value()).is_ok());
  EXPECT_GE(server->verifier().cache_stats().hits, 1u);

  auto replayed = world_.net.rpc("bob", "file-server",
                                 net::MsgType::kAppRequest,
                                 wire::encode_to_bytes(req));
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(net::status_of(replayed.value()).code(),
            util::ErrorCode::kProtocolError);
}

TEST_F(VerifyCacheEndServerTest, TimestampProofReplayRejectedOnCacheHit) {
  auto server = make_server(1024);
  world_.net.attach("file-server", *server);
  const core::Proxy cap = alice_capability();

  server::AppRequestPayload req;
  req.operation = "read";
  req.object = "/doc";
  req.credentials.push_back(core::PresentedCredential{
      cap.chain, core::prove_bearer(cap, {}, "file-server",
                                    world_.clock.now(), req.digest())});
  const util::Bytes encoded = wire::encode_to_bytes(req);

  auto first = world_.net.rpc("bob", "file-server",
                              net::MsgType::kAppRequest, encoded);
  ASSERT_TRUE(first.is_ok());
  EXPECT_TRUE(net::status_of(first.value()).is_ok());

  // Byte-identical re-presentation: chain would hit the cache, but the
  // replay cache rejects the reused proof first.
  auto replayed = world_.net.rpc("bob", "file-server",
                                 net::MsgType::kAppRequest, encoded);
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(net::status_of(replayed.value()).code(),
            util::ErrorCode::kReplay);
}

TEST_F(VerifyCacheEndServerTest, AcceptOnceSingleUseThroughCache) {
  // Identical scenario against a cached and an uncached server: an
  // accept-once credential works exactly once on both.
  for (const std::size_t capacity : {std::size_t{1024}, std::size_t{0}}) {
    World world;
    world.add_principal("alice");
    world.add_principal("bob");
    world.add_principal("file-server");
    server::EndServer::Config config = world.end_server_config("file-server");
    config.verify_cache_capacity = capacity;
    server::FileServer server(std::move(config));
    server.put_file("/doc", "contents");
    server.acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
    world.net.attach("file-server", server);

    core::RestrictionSet set;
    set.add(core::AuthorizedRestriction{
        {core::ObjectRights{"/doc", {"read"}}}});
    set.add(core::AcceptOnceRestriction{42});
    const core::Proxy proxy =
        core::grant_pk_proxy("alice", world.principal("alice").identity, set,
                             world.clock.now(), util::kHour);

    server::AppClient bob(world.net, world.clock, "bob");
    auto first = bob.invoke_with_proxy("file-server", proxy, "read", "/doc");
    ASSERT_TRUE(first.is_ok()) << "capacity=" << capacity << ": "
                               << first.status();
    // Fresh challenge and proof, same chain (cache hit when enabled): the
    // accept-once identifier is already burned.
    auto second = bob.invoke_with_proxy("file-server", proxy, "read", "/doc");
    ASSERT_FALSE(second.is_ok()) << "capacity=" << capacity;
    EXPECT_EQ(second.code(), util::ErrorCode::kReplay)
        << "capacity=" << capacity;
    if (capacity > 0) {
      EXPECT_GE(server.verifier().cache_stats().hits, 1u);
    }
  }
}

TEST_F(VerifyCacheEndServerTest, CacheOnOffDecisionParity) {
  // One scenario battery, two servers differing only in cache capacity;
  // every outcome must agree.
  auto cached = make_server(1024);
  auto uncached = make_server(0);
  // Distinct node names so both can live on one SimNet.
  world_.net.attach("file-server", *cached);

  const core::Proxy good = alice_capability();
  core::ProxyChain tampered_chain = good.chain;
  tampered_chain.certs[0].signature[0] ^= 0x80;

  // Delegate identity proofs (§3.5 direct ACL users): alice's genuine
  // certificate, her certificate re-bound to bob's key, and her genuine
  // certificate with a proof signed by bob.
  const testing::Principal& alice = world_.principal("alice");
  const testing::Principal& bob = world_.principal("bob");
  pki::IdentityCert rebound = alice.cert;
  rebound.public_key = bob.identity.public_key();
  enum class Identity { kNone, kAlice, kRebound, kWrongKey };

  const auto outcome = [&](server::EndServer& srv,
                           const core::ProxyChain& chain,
                           const Operation& op,
                           Identity identity = Identity::kNone) {
    server::AppRequestPayload req;
    req.operation = op;
    req.object = "/doc";
    const util::Bytes digest = req.digest();
    const util::TimePoint now = world_.clock.now();
    if (identity == Identity::kNone) {
      req.credentials.push_back(core::PresentedCredential{
          chain, core::prove_bearer(good, {}, "file-server", now, digest)});
    } else {
      const pki::IdentityCert& cert =
          identity == Identity::kRebound ? rebound : alice.cert;
      const crypto::SigningKeyPair& key =
          identity == Identity::kAlice ? alice.identity : bob.identity;
      req.identity =
          core::prove_delegate_pk(cert, key, {}, "file-server", now, digest);
    }
    net::Envelope env;
    env.from = "bob";
    env.to = "file-server";
    env.type = net::MsgType::kAppRequest;
    env.payload = wire::encode_to_bytes(req);
    return net::status_of(srv.handle(env)).code();
  };

  // Twice each so the second cached round goes through hits.
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(outcome(*cached, good.chain, "read"),
              outcome(*uncached, good.chain, "read"));
    EXPECT_EQ(outcome(*cached, tampered_chain, "read"),
              outcome(*uncached, tampered_chain, "read"));
    EXPECT_EQ(outcome(*cached, good.chain, "delete"),
              outcome(*uncached, good.chain, "delete"));
    // Read only: alice's ACL entry would let her identity delete /doc.
    for (const Identity id :
         {Identity::kAlice, Identity::kRebound, Identity::kWrongKey}) {
      EXPECT_EQ(outcome(*cached, good.chain, "read", id),
                outcome(*uncached, good.chain, "read", id));
    }
  }
  EXPECT_EQ(outcome(*cached, good.chain, "read", Identity::kAlice),
            util::ErrorCode::kOk);
  EXPECT_EQ(outcome(*cached, good.chain, "read", Identity::kRebound),
            util::ErrorCode::kBadSignature);
  EXPECT_GE(cached->verifier().cache_stats().hits, 1u);
  EXPECT_GE(cached->verifier().cache_stats().identity_hits, 1u);
  EXPECT_EQ(uncached->verifier().cache_stats().hits, 0u);
  EXPECT_EQ(uncached->verifier().cache_stats().identity_hits, 0u);
}

}  // namespace
}  // namespace rproxy

// Robustness: every decoder in the system must survive arbitrary attacker
// bytes — returning a parse error, never crashing, hanging, or silently
// succeeding on garbage.  Also mutation-fuzzes valid encodings.
#include <gtest/gtest.h>

#include "accounting/accounting_server.hpp"
#include "authz/authorization_server.hpp"
#include "baseline/dssa_roles.hpp"
#include "baseline/sollins.hpp"
#include "core/proxy_certificate.hpp"
#include "crypto/random.hpp"
#include "kdc/kdc_server.hpp"
#include "server/end_server.hpp"

namespace rproxy {
namespace {

using crypto::DeterministicRng;

template <typename T>
void expect_no_crash_on_random(DeterministicRng& rng, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const util::Bytes junk = rng.next_bytes(rng.next_below(512));
    auto result = wire::decode_from_bytes<T>(junk);
    // Either a parse error or, astronomically rarely, a structurally valid
    // decode — which is fine; it must simply not crash.  Decoding garbage
    // must never loop forever either (bounded by input size).
    (void)result;
  }
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, AllDecodersSurviveRandomBytes) {
  DeterministicRng rng(GetParam());
  expect_no_crash_on_random<core::Restriction>(rng, 50);
  expect_no_crash_on_random<core::RestrictionSet>(rng, 50);
  expect_no_crash_on_random<core::ProxyCertificate>(rng, 50);
  expect_no_crash_on_random<core::ProxyChain>(rng, 50);
  expect_no_crash_on_random<core::PossessionProof>(rng, 50);
  expect_no_crash_on_random<kdc::TicketBody>(rng, 50);
  expect_no_crash_on_random<kdc::ApRequest>(rng, 50);
  expect_no_crash_on_random<kdc::AsRequestPayload>(rng, 50);
  expect_no_crash_on_random<kdc::TgsRequestPayload>(rng, 50);
  expect_no_crash_on_random<authz::AuthzRequestPayload>(rng, 50);
  expect_no_crash_on_random<authz::ProxyGrantReplyPayload>(rng, 50);
  expect_no_crash_on_random<server::AppRequestPayload>(rng, 50);
  expect_no_crash_on_random<accounting::Check>(rng, 50);
  expect_no_crash_on_random<accounting::DepositPayload>(rng, 50);
  expect_no_crash_on_random<accounting::CertifyPayload>(rng, 50);
  expect_no_crash_on_random<baseline::SollinsPassport>(rng, 50);
  expect_no_crash_on_random<baseline::DssaRoleRecord>(rng, 50);
  expect_no_crash_on_random<pki::IdentityCert>(rng, 50);
  expect_no_crash_on_random<pki::PkAuthProof>(rng, 50);
}

TEST_P(FuzzTest, MutatedValidChainNeverVerifies) {
  DeterministicRng rng(GetParam());
  const crypto::SigningKeyPair alice = crypto::SigningKeyPair::generate();
  core::RestrictionSet set;
  set.add(core::QuotaRestriction{"usd", 7});
  set.add(core::IssuedForRestriction{{"file-server"}});
  const core::Proxy proxy = core::grant_pk_proxy(
      "alice", alice, set, 1000 * util::kSecond, util::kHour);
  const util::Bytes valid = wire::encode_to_bytes(proxy.chain);

  core::MapKeyResolver resolver;
  resolver.add("alice", alice.public_key());
  core::ProxyVerifier::Config vc;
  vc.server_name = "file-server";
  vc.resolver = &resolver;
  const core::ProxyVerifier verifier(std::move(vc));

  // Sanity: the unmodified encoding verifies.
  {
    auto chain = wire::decode_from_bytes<core::ProxyChain>(valid);
    ASSERT_TRUE(chain.is_ok());
    ASSERT_TRUE(
        verifier.verify_chain(chain.value(), 1000 * util::kSecond).is_ok());
  }

  // Single-byte mutations: every decodable mutant must FAIL verification
  // (any bit of a signed certificate matters).
  for (int i = 0; i < 200; ++i) {
    util::Bytes mutated = valid;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    auto chain = wire::decode_from_bytes<core::ProxyChain>(mutated);
    if (!chain.is_ok()) continue;  // structural damage: fine
    auto verified =
        verifier.verify_chain(chain.value(), 1000 * util::kSecond);
    if (verified.is_ok()) {
      // The only benign mutations are within the holder-side cleartext the
      // signature does not cover — but ProxyChain has none: everything is
      // either signed or the signature itself.
      FAIL() << "mutation at some byte left the chain verifiable";
    }
  }
}

TEST_P(FuzzTest, MutatedIdentityProofNeverVerifies) {
  // A delegate identity proof (§6 public-key personal authentication)
  // against a verifier whose identity-certificate memo already holds the
  // genuine certificate: a mutant certificate must miss the memo and fail
  // its issuer signature, and every other mutant must fail the proof.
  DeterministicRng rng(GetParam());
  const util::TimePoint now = 1000 * util::kSecond;
  const crypto::SigningKeyPair root = crypto::SigningKeyPair::generate();
  const crypto::SigningKeyPair bob = crypto::SigningKeyPair::generate();
  const pki::IdentityCert cert = pki::issue_identity_cert(
      "bob", bob.public_key(), "name-server", root, now, util::kHour);
  const util::Bytes challenge = rng.next_bytes(32);
  const util::Bytes digest = rng.next_bytes(32);
  const core::PossessionProof proof = core::prove_delegate_pk(
      cert, bob, challenge, "file-server", now, digest);
  const util::Bytes valid = wire::encode_to_bytes(proof);

  core::ProxyVerifier::Config vc;
  vc.server_name = "file-server";
  vc.pk_root = root.public_key();
  const core::ProxyVerifier verifier(std::move(vc));

  // Sanity, and the memo warm-up: the unmodified encoding verifies.
  {
    auto decoded = wire::decode_from_bytes<core::PossessionProof>(valid);
    ASSERT_TRUE(decoded.is_ok());
    ASSERT_TRUE(
        verifier.verify_identity(decoded.value(), challenge, digest, now)
            .is_ok());
    ASSERT_EQ(verifier.cache_stats().identity_size, 1u);
  }

  for (int i = 0; i < 200; ++i) {
    util::Bytes mutated = valid;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    auto decoded = wire::decode_from_bytes<core::PossessionProof>(mutated);
    if (!decoded.is_ok()) continue;  // structural damage: fine
    if (verifier.verify_identity(decoded.value(), challenge, digest, now)
            .is_ok()) {
      // Every byte is signed (by the name server or by bob) or is a
      // signature: no mutant may verify.
      FAIL() << "mutation at some byte left the identity proof verifiable";
    }
  }
  // Only the genuine certificate was ever remembered.
  EXPECT_EQ(verifier.cache_stats().identity_size, 1u);
}

TEST_P(FuzzTest, TruncatedEnvelopesHandledByServers) {
  // Fire random payloads at a live KDC node: every reply must be a
  // well-formed error envelope, never a crash.
  DeterministicRng rng(GetParam());
  util::SimClock clock;
  net::SimNet net(clock);
  kdc::PrincipalDb db;
  db.register_with_password("kdc", "x");
  kdc::KdcServer kdc_server("kdc", std::move(db), clock);
  net.attach("kdc", kdc_server);

  for (int i = 0; i < 100; ++i) {
    const net::MsgType type = rng.next_below(2) == 0
                                  ? net::MsgType::kAsRequest
                                  : net::MsgType::kTgsRequest;
    auto reply = net.rpc("fuzzer", "kdc", type,
                         rng.next_bytes(rng.next_below(256)));
    ASSERT_TRUE(reply.is_ok());
    EXPECT_FALSE(net::status_of(reply.value()).is_ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(0xfeed, 0xbeef, 0xcafe, 0xf00d));

}  // namespace
}  // namespace rproxy

#include <gtest/gtest.h>

#include "crypto/random.hpp"
#include "testing/env.hpp"

namespace rproxy {
namespace {

using testing::World;

class PkiTest : public ::testing::Test {
 protected:
  PkiTest() { world_.add_principal("alice"); }
  World world_;
};

TEST_F(PkiTest, IdentityCertVerifies) {
  const testing::Principal& alice = world_.principal("alice");
  EXPECT_TRUE(pki::verify_identity_cert(alice.cert,
                                        world_.name_server.root_key(),
                                        world_.clock.now())
                  .is_ok());
}

TEST_F(PkiTest, CertRejectsWrongRoot) {
  const testing::Principal& alice = world_.principal("alice");
  EXPECT_EQ(
      pki::verify_identity_cert(alice.cert,
                                crypto::SigningKeyPair::generate()
                                    .public_key(),
                                world_.clock.now())
          .code(),
      util::ErrorCode::kBadSignature);
}

TEST_F(PkiTest, CertExpires) {
  const testing::Principal& alice = world_.principal("alice");
  world_.clock.advance(9 * util::kHour);
  EXPECT_EQ(pki::verify_identity_cert(alice.cert,
                                      world_.name_server.root_key(),
                                      world_.clock.now())
                .code(),
            util::ErrorCode::kExpired);
}

TEST_F(PkiTest, CertTamperedSubjectRejected) {
  pki::IdentityCert cert = world_.principal("alice").cert;
  cert.subject = "mallory";
  EXPECT_EQ(pki::verify_identity_cert(cert, world_.name_server.root_key(),
                                      world_.clock.now())
                .code(),
            util::ErrorCode::kBadSignature);
}

TEST_F(PkiTest, NetworkLookupReturnsVerifiedCert) {
  auto cert = world_.lookup("bob", "alice");
  ASSERT_TRUE(cert.is_ok()) << cert.status();
  EXPECT_EQ(cert.value().subject, "alice");
  EXPECT_TRUE(cert.value().public_key ==
              world_.principal("alice").identity.public_key());
}

TEST_F(PkiTest, LookupUnknownSubjectFails) {
  EXPECT_EQ(world_.lookup("bob", "ghost").code(),
            util::ErrorCode::kNotFound);
}

TEST_F(PkiTest, RemovedKeyNoLongerServed) {
  world_.name_server.remove("alice");
  EXPECT_EQ(world_.lookup("bob", "alice").code(),
            util::ErrorCode::kNotFound);
}

TEST_F(PkiTest, CertCodecRoundTrip) {
  const pki::IdentityCert cert = world_.principal("alice").cert;
  auto decoded =
      wire::decode_from_bytes<pki::IdentityCert>(wire::encode_to_bytes(cert));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().subject, cert.subject);
  EXPECT_TRUE(decoded.value().public_key == cert.public_key);
  EXPECT_EQ(decoded.value().signature, cert.signature);
}

class PkAuthTest : public PkiTest {
 protected:
  util::Bytes challenge_ = crypto::random_bytes(32);
};

TEST_F(PkAuthTest, ProofVerifies) {
  const testing::Principal& alice = world_.principal("alice");
  const pki::PkAuthProof proof =
      pki::pk_authenticate(alice.cert, alice.identity, challenge_,
                           "file-server", world_.clock.now());
  auto who = pki::verify_pk_auth(proof, world_.name_server.root_key(),
                                 challenge_, "file-server",
                                 world_.clock.now());
  ASSERT_TRUE(who.is_ok());
  EXPECT_EQ(who.value(), "alice");
}

TEST_F(PkAuthTest, ProofBoundToChallenge) {
  const testing::Principal& alice = world_.principal("alice");
  const pki::PkAuthProof proof =
      pki::pk_authenticate(alice.cert, alice.identity, challenge_,
                           "file-server", world_.clock.now());
  const util::Bytes other = crypto::random_bytes(32);
  EXPECT_EQ(pki::verify_pk_auth(proof, world_.name_server.root_key(), other,
                                "file-server", world_.clock.now())
                .code(),
            util::ErrorCode::kBadSignature);
}

TEST_F(PkAuthTest, ProofBoundToServer) {
  const testing::Principal& alice = world_.principal("alice");
  const pki::PkAuthProof proof =
      pki::pk_authenticate(alice.cert, alice.identity, challenge_,
                           "file-server", world_.clock.now());
  EXPECT_EQ(pki::verify_pk_auth(proof, world_.name_server.root_key(),
                                challenge_, "other-server",
                                world_.clock.now())
                .code(),
            util::ErrorCode::kBadSignature);
}

TEST_F(PkAuthTest, StaleProofRejected) {
  const testing::Principal& alice = world_.principal("alice");
  const pki::PkAuthProof proof =
      pki::pk_authenticate(alice.cert, alice.identity, challenge_,
                           "file-server", world_.clock.now());
  world_.clock.advance(10 * util::kMinute);
  EXPECT_EQ(pki::verify_pk_auth(proof, world_.name_server.root_key(),
                                challenge_, "file-server",
                                world_.clock.now())
                .code(),
            util::ErrorCode::kExpired);
}

TEST_F(PkAuthTest, ForeignKeyCannotImpersonate) {
  // Mallory signs with her own key but presents alice's certificate.
  const testing::Principal& alice = world_.principal("alice");
  const crypto::SigningKeyPair mallory = crypto::SigningKeyPair::generate();
  const pki::PkAuthProof proof = pki::pk_authenticate(
      alice.cert, mallory, challenge_, "file-server", world_.clock.now());
  EXPECT_EQ(pki::verify_pk_auth(proof, world_.name_server.root_key(),
                                challenge_, "file-server",
                                world_.clock.now())
                .code(),
            util::ErrorCode::kBadSignature);
}

TEST_F(PkiTest, WindowHalfChecksOnlyTheDates) {
  // check_identity_cert_window is the part of verify_identity_cert a
  // verifier re-runs for a certificate whose signature it already checked.
  pki::IdentityCert cert = world_.principal("alice").cert;
  cert.signature[0] ^= 0x01;
  EXPECT_TRUE(
      pki::check_identity_cert_window(cert, world_.clock.now()).is_ok());
  EXPECT_EQ(pki::check_identity_cert_window(cert, cert.issued_at - 1).code(),
            util::ErrorCode::kExpired);
  EXPECT_EQ(pki::check_identity_cert_window(cert, cert.expires_at + 1).code(),
            util::ErrorCode::kExpired);
  EXPECT_TRUE(
      pki::check_identity_cert_window(cert, cert.expires_at).is_ok());
}

TEST_F(PkAuthTest, ProofHalfLeavesTheCertificateToTheCaller) {
  // A proof over alice's certificate re-bound to mallory's key: the proof
  // half alone accepts it (mallory did sign), the whole check does not.
  const crypto::SigningKeyPair mallory = crypto::SigningKeyPair::generate();
  pki::IdentityCert forged = world_.principal("alice").cert;
  forged.public_key = mallory.public_key();
  const pki::PkAuthProof proof = pki::pk_authenticate(
      forged, mallory, challenge_, "file-server", world_.clock.now());
  EXPECT_TRUE(pki::verify_pk_proof(proof, challenge_, "file-server",
                                   world_.clock.now())
                  .is_ok());
  EXPECT_EQ(pki::verify_pk_auth(proof, world_.name_server.root_key(),
                                challenge_, "file-server",
                                world_.clock.now())
                .code(),
            util::ErrorCode::kBadSignature);
}

TEST_F(PkAuthTest, WholeCheckIsCertificateThenProof) {
  // verify_pk_auth == verify_identity_cert, then verify_pk_proof: the same
  // verdict and the same diagnosis on every case.
  const testing::Principal& alice = world_.principal("alice");
  const crypto::SigningKeyPair mallory = crypto::SigningKeyPair::generate();
  const util::TimePoint now = world_.clock.now();
  pki::IdentityCert tampered = alice.cert;
  tampered.subject = "mallory";
  const std::vector<pki::PkAuthProof> proofs = {
      pki::pk_authenticate(alice.cert, alice.identity, challenge_,
                           "file-server", now),
      pki::pk_authenticate(alice.cert, alice.identity, challenge_, "other",
                           now),
      pki::pk_authenticate(alice.cert, alice.identity, challenge_,
                           "file-server", now - 10 * util::kMinute),
      pki::pk_authenticate(alice.cert, mallory, challenge_, "file-server",
                           now),
      pki::pk_authenticate(tampered, alice.identity, challenge_,
                           "file-server", now),
  };
  for (const util::TimePoint at : {now, now + 9 * util::kHour}) {
    for (const pki::PkAuthProof& proof : proofs) {
      const util::Result<PrincipalName> whole =
          pki::verify_pk_auth(proof, world_.name_server.root_key(),
                              challenge_, "file-server", at);
      util::Status halves = pki::verify_identity_cert(
          proof.cert, world_.name_server.root_key(), at);
      if (halves.is_ok()) {
        halves = pki::verify_pk_proof(proof, challenge_, "file-server", at);
      }
      EXPECT_EQ(whole.status().to_string(), halves.to_string());
    }
  }
}

}  // namespace
}  // namespace rproxy

#include "kdc/ticket.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "kdc/authenticator.hpp"

namespace rproxy::kdc {
namespace {

TicketBody sample_body() {
  TicketBody body;
  body.client = "alice";
  body.server = "file-server";
  body.session_key = crypto::SymmetricKey::generate();
  body.auth_time = 100 * util::kSecond;
  body.expires_at = 200 * util::kSecond;
  body.authorization_data = {util::Bytes{1, 2}, util::Bytes{3}};
  return body;
}

TEST(Ticket, SealOpenRoundTrip) {
  const crypto::SymmetricKey server_key = crypto::SymmetricKey::generate();
  const TicketBody body = sample_body();
  const Ticket ticket = seal_ticket(body, server_key);
  EXPECT_EQ(ticket.server, "file-server");

  auto opened = open_ticket(ticket, server_key);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value().client, "alice");
  EXPECT_EQ(opened.value().server, "file-server");
  EXPECT_TRUE(opened.value().session_key == body.session_key);
  EXPECT_EQ(opened.value().expires_at, body.expires_at);
  EXPECT_EQ(opened.value().authorization_data, body.authorization_data);
}

TEST(Ticket, WrongServerKeyFails) {
  const Ticket ticket =
      seal_ticket(sample_body(), crypto::SymmetricKey::generate());
  EXPECT_EQ(open_ticket(ticket, crypto::SymmetricKey::generate()).code(),
            util::ErrorCode::kBadSignature);
}

TEST(Ticket, TamperedSealedBodyFails) {
  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  Ticket ticket = seal_ticket(sample_body(), key);
  ticket.sealed_body[ticket.sealed_body.size() / 2] ^= 1;
  EXPECT_FALSE(open_ticket(ticket, key).is_ok());
}

TEST(Ticket, RelabeledOuterServerNameRejected) {
  // An attacker cannot redirect a ticket by editing the cleartext server
  // name: the sealed body's copy is authoritative.
  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  Ticket ticket = seal_ticket(sample_body(), key);
  ticket.server = "other-server";
  EXPECT_EQ(open_ticket(ticket, key).code(),
            util::ErrorCode::kProtocolError);
}

TEST(Authenticator, SealOpenRoundTrip) {
  const crypto::SymmetricKey session = crypto::SymmetricKey::generate();
  AuthenticatorBody body;
  body.client = "alice";
  body.timestamp = 42 * util::kSecond;
  body.nonce = 7;
  body.subkey = crypto::SymmetricKey::generate().bytes();
  body.authorization_data = {util::Bytes{9}};

  const util::Bytes sealed = seal_authenticator(body, session);
  auto opened = open_authenticator(sealed, session);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value().client, "alice");
  EXPECT_EQ(opened.value().timestamp, 42 * util::kSecond);
  EXPECT_EQ(opened.value().nonce, 7u);
  EXPECT_EQ(opened.value().subkey, body.subkey);
}

TEST(Authenticator, WrongSessionKeyFails) {
  AuthenticatorBody body;
  body.client = "alice";
  const util::Bytes sealed =
      seal_authenticator(body, crypto::SymmetricKey::generate());
  EXPECT_FALSE(
      open_authenticator(sealed, crypto::SymmetricKey::generate()).is_ok());
}

class ApRequestTest : public ::testing::Test {
 protected:
  ApRequestTest() {
    body_ = sample_body();
    ticket_ = seal_ticket(body_, server_key_);
  }

  ApRequest make_request(util::TimePoint timestamp,
                         const PrincipalName& client = "alice") {
    AuthenticatorBody auth;
    auth.client = client;
    auth.timestamp = timestamp;
    auth.nonce = next_nonce_++;
    ApRequest req;
    req.ticket = ticket_;
    req.sealed_authenticator = seal_authenticator(auth, body_.session_key);
    return req;
  }

  crypto::SymmetricKey server_key_ = crypto::SymmetricKey::generate();
  TicketBody body_;
  Ticket ticket_;
  std::uint64_t next_nonce_ = 1;
};

TEST_F(ApRequestTest, ValidRequestAccepted) {
  const util::TimePoint now = 150 * util::kSecond;
  auto verified =
      verify_ap_request(make_request(now), server_key_, now, {});
  ASSERT_TRUE(verified.is_ok());
  EXPECT_EQ(verified.value().ticket.client, "alice");
  EXPECT_EQ(verified.value().authenticator.client, "alice");
}

TEST_F(ApRequestTest, ExpiredTicketRejected) {
  const util::TimePoint now = 201 * util::kSecond;
  EXPECT_EQ(
      verify_ap_request(make_request(now), server_key_, now, {}).code(),
      util::ErrorCode::kExpired);
}

TEST_F(ApRequestTest, StaleAuthenticatorRejected) {
  const util::TimePoint now = 150 * util::kSecond;
  const ApRequest req = make_request(now - 10 * util::kMinute);
  EXPECT_EQ(verify_ap_request(req, server_key_, now, {}).code(),
            util::ErrorCode::kExpired);
}

TEST_F(ApRequestTest, ExtremeAuthenticatorTimestampsRejected) {
  // The freshness check must bound the timestamp rather than compute
  // |timestamp - now|, which overflows at either end of the range.
  const util::TimePoint now = 150 * util::kSecond;
  for (const util::TimePoint extreme :
       {std::numeric_limits<util::TimePoint>::min(),
        std::numeric_limits<util::TimePoint>::max()}) {
    EXPECT_EQ(verify_ap_request(make_request(extreme), server_key_, now, {})
                  .code(),
              util::ErrorCode::kExpired)
        << "timestamp " << extreme;
  }
}

TEST_F(ApRequestTest, ClientMismatchRejected) {
  const util::TimePoint now = 150 * util::kSecond;
  const ApRequest req = make_request(now, "mallory");
  EXPECT_EQ(verify_ap_request(req, server_key_, now, {}).code(),
            util::ErrorCode::kProtocolError);
}

TEST_F(ApRequestTest, ReplayRejected) {
  const util::TimePoint now = 150 * util::kSecond;
  ReplayCache cache;
  ApVerifyOptions options;
  options.replay_cache = &cache;
  const ApRequest req = make_request(now);
  EXPECT_TRUE(verify_ap_request(req, server_key_, now, options).is_ok());
  EXPECT_EQ(verify_ap_request(req, server_key_, now, options).code(),
            util::ErrorCode::kReplay);
}

TEST_F(ApRequestTest, DistinctRequestsNotFlaggedAsReplay) {
  const util::TimePoint now = 150 * util::kSecond;
  ReplayCache cache;
  ApVerifyOptions options;
  options.replay_cache = &cache;
  EXPECT_TRUE(
      verify_ap_request(make_request(now), server_key_, now, options)
          .is_ok());
  EXPECT_TRUE(
      verify_ap_request(make_request(now), server_key_, now, options)
          .is_ok());
}

}  // namespace
}  // namespace rproxy::kdc

// Real-socket transport: the same Node objects served over TCP loopback by
// net::EventLoopServer, end to end — Kerberos exchanges and a full proxy
// presentation included.
#include <gtest/gtest.h>

#include "net/event_loop.hpp"
#include "testing/env.hpp"
#include "testing/socket_rpc.hpp"

namespace rproxy {
namespace {

using testing::World;

class TcpWorld : public ::testing::Test {
 protected:
  TcpWorld() {
    world_.add_principal("alice");
    world_.add_principal("file-server");
    file_server_ = std::make_unique<server::FileServer>(
        world_.end_server_config("file-server"));
    file_server_->put_file("/doc", "over tcp");
    file_server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});

    server_.attach("kdc", *world_.kdc_server);
    server_.attach("file-server", *file_server_);
    const util::Status started = server_.start();
    EXPECT_TRUE(started.is_ok()) << started;
  }

  /// Typed round trip over TCP (mirrors net::call).
  template <typename ReplyT, typename RequestT>
  util::Result<ReplyT> call(const PrincipalName& from,
                            const PrincipalName& to, net::MsgType req_type,
                            net::MsgType reply_type,
                            const RequestT& request) {
    net::Envelope e;
    e.from = from;
    e.to = to;
    e.type = req_type;
    e.payload = wire::encode_to_bytes(request);
    RPROXY_ASSIGN_OR_RETURN(net::Envelope reply,
                            testing::socket_rpc(server_.port(), e));
    RPROXY_RETURN_IF_ERROR(net::expect_type(reply, reply_type));
    return wire::decode_from_bytes<ReplyT>(reply.payload);
  }

  World world_;
  std::unique_ptr<server::FileServer> file_server_;
  net::EventLoopServer server_;
};

TEST_F(TcpWorld, KerberosAsExchangeOverTcp) {
  kdc::AsRequestPayload req;
  req.client = "alice";
  req.nonce = 42;
  req.requested_lifetime = util::kHour;
  auto reply = call<kdc::KdcReplyPayload>("alice", "kdc",
                                          net::MsgType::kAsRequest,
                                          net::MsgType::kAsReply, req);
  ASSERT_TRUE(reply.is_ok()) << reply.status();

  // Decrypt with alice's key: genuine KDC reply.
  auto plain = crypto::aead_open(
      world_.principal("alice").krb_key.derive_subkey(
          kdc::kAsReplySealPurpose),
      reply.value().sealed_enc_part);
  ASSERT_TRUE(plain.is_ok());
  auto enc_part = wire::decode_from_bytes<kdc::KdcReplyEncPart>(
      plain.value());
  ASSERT_TRUE(enc_part.is_ok());
  EXPECT_EQ(enc_part.value().nonce, 42u);
}

TEST_F(TcpWorld, FullProxyPresentationOverTcp) {
  const core::Proxy cap = authz::make_capability_pk(
      "alice", world_.principal("alice").identity, "file-server",
      {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
      util::kHour);

  // Challenge.
  struct Empty {
    void encode(wire::Encoder&) const {}
    static Empty decode(wire::Decoder&) { return {}; }
  };
  auto challenge = call<server::ChallengePayload>(
      "bob", "file-server", net::MsgType::kPresentChallengeRequest,
      net::MsgType::kPresentChallengeReply, Empty{});
  ASSERT_TRUE(challenge.is_ok()) << challenge.status();

  // Presentation.
  server::AppRequestPayload req;
  req.operation = "read";
  req.object = "/doc";
  req.challenge_id = challenge.value().id;
  core::PresentedCredential cred;
  cred.chain = cap.chain;
  cred.proof =
      core::prove_bearer(cap, challenge.value().nonce, "file-server",
                         world_.clock.now(), req.digest());
  req.credentials.push_back(cred);

  auto reply = call<server::AppReplyPayload>("bob", "file-server",
                                             net::MsgType::kAppRequest,
                                             net::MsgType::kAppReply, req);
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_EQ(util::to_string(reply.value().result), "over tcp");
  EXPECT_GE(server_.requests_served(), 2u);
}

TEST_F(TcpWorld, UnknownNodeOverTcp) {
  net::Envelope e;
  e.from = "bob";
  e.to = "ghost";
  e.type = net::MsgType::kAppRequest;
  auto reply = testing::socket_rpc(server_.port(), e);
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(net::status_of(reply.value()).code(),
            util::ErrorCode::kNotFound);
}

TEST_F(TcpWorld, MalformedFrameAnswersParseError) {
  // A well-framed envelope whose payload is garbage to a live node.
  net::Envelope bad;
  bad.from = "bob";
  bad.to = "file-server";
  bad.type = net::MsgType::kAppRequest;
  bad.payload = {0xde, 0xad};
  auto reply = testing::socket_rpc(server_.port(), bad);
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(net::status_of(reply.value()).code(),
            util::ErrorCode::kParseError);
}

TEST_F(TcpWorld, ConnectionRefusedSurfacesCleanly) {
  net::Envelope e;
  e.from = "bob";
  e.to = "file-server";
  e.type = net::MsgType::kAppRequest;
  // Port 1 is essentially never listening.
  auto reply = testing::socket_rpc(1, e);
  EXPECT_EQ(reply.code(), util::ErrorCode::kNotFound);
}

TEST_F(TcpWorld, ManySequentialRequests) {
  struct Empty {
    void encode(wire::Encoder&) const {}
    static Empty decode(wire::Decoder&) { return {}; }
  };
  for (int i = 0; i < 50; ++i) {
    auto challenge = call<server::ChallengePayload>(
        "bob", "file-server", net::MsgType::kPresentChallengeRequest,
        net::MsgType::kPresentChallengeReply, Empty{});
    ASSERT_TRUE(challenge.is_ok());
  }
  EXPECT_GE(server_.requests_served(), 50u);
}

TEST_F(TcpWorld, PersistentConnectionServesManyRequests) {
  net::FanoutClient client;
  ASSERT_TRUE(client.connect("fs", "127.0.0.1", server_.port()).is_ok());
  net::Envelope e;
  e.from = "bob";
  e.to = "file-server";
  e.type = net::MsgType::kPresentChallengeRequest;
  for (int i = 0; i < 50; ++i) {
    auto reply = testing::round_trips(client, "fs", {e});
    ASSERT_TRUE(reply.is_ok()) << reply.status();
    EXPECT_EQ(reply.value().front().type,
              net::MsgType::kPresentChallengeReply);
  }
  // All 50 rounds rode ONE connection.
  EXPECT_EQ(server_.active_connections(), 1u);
  client.close();
  EXPECT_GE(server_.requests_served(), 50u);
}

}  // namespace
}  // namespace rproxy

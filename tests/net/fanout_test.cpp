// FanoutClient: pipelined connections to several servers at once, where a
// slow server must not stall replies that fast servers already produced,
// and where a peer sending an unusable reply frame costs only its own
// connection.
#include "net/fanout.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "net/event_loop.hpp"
#include "net/rpc.hpp"

namespace rproxy::net {
namespace {

/// Echoes the payload back; sleeps `delay` first (a slow shard).
class EchoNode final : public Node {
 public:
  explicit EchoNode(std::chrono::milliseconds delay = {}) : delay_(delay) {}

  Envelope handle(const Envelope& request) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    Envelope reply = request;
    reply.from = request.to;
    reply.to = request.from;
    reply.type = MsgType::kAppReply;
    return reply;
  }

 private:
  std::chrono::milliseconds delay_;
};

Envelope request_to(const std::string& server, std::uint8_t tag) {
  Envelope e;
  e.from = "client";
  e.to = server;
  e.type = MsgType::kAppRequest;
  e.payload = {tag};
  return e;
}

TEST(FanoutClient, CollectsFromSeveralServers) {
  EchoNode a, b;
  EventLoopServer server_a, server_b;
  server_a.attach("a", a);
  server_b.attach("b", b);
  ASSERT_TRUE(server_a.start().is_ok());
  ASSERT_TRUE(server_b.start().is_ok());

  FanoutClient fanout;
  ASSERT_TRUE(fanout.connect("a", "127.0.0.1", server_a.port()).is_ok());
  ASSERT_TRUE(fanout.connect("b", "127.0.0.1", server_b.port()).is_ok());
  ASSERT_TRUE(fanout.send("a", request_to("a", 1)).is_ok());
  ASSERT_TRUE(fanout.send("b", request_to("b", 2)).is_ok());
  ASSERT_TRUE(fanout.send("a", request_to("a", 3)).is_ok());
  EXPECT_EQ(fanout.inflight(), 3u);

  int got_a = 0, got_b = 0;
  std::uint8_t last_a_tag = 0;
  for (int i = 0; i < 3; ++i) {
    auto completion = fanout.next(/*timeout_ms=*/5000);
    ASSERT_TRUE(completion.is_ok()) << completion.status();
    if (completion.value().key == "a") {
      got_a += 1;
      // Per-connection ordering: a's replies arrive 1 then 3.
      EXPECT_GT(completion.value().reply.payload[0], last_a_tag);
      last_a_tag = completion.value().reply.payload[0];
    } else {
      got_b += 1;
      EXPECT_EQ(completion.value().reply.payload[0], 2);
    }
  }
  EXPECT_EQ(got_a, 2);
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(fanout.inflight(), 0u);
}

TEST(FanoutClient, SlowServerDoesNotStallFastReplies) {
  // The satellite's point: request 1 goes to a server that sleeps 300ms,
  // requests 2..4 to a fast server.  next() must hand back the fast
  // replies while the slow one is still cooking — a client collecting in
  // send order across connections would make them wait.
  EchoNode slow(std::chrono::milliseconds(300));
  EchoNode fast;
  EventLoopServer slow_server, fast_server;
  slow_server.attach("slow", slow);
  fast_server.attach("fast", fast);
  ASSERT_TRUE(slow_server.start().is_ok());
  ASSERT_TRUE(fast_server.start().is_ok());

  FanoutClient fanout;
  ASSERT_TRUE(fanout.connect("slow", "127.0.0.1", slow_server.port()).is_ok());
  ASSERT_TRUE(fanout.connect("fast", "127.0.0.1", fast_server.port()).is_ok());
  ASSERT_TRUE(fanout.send("slow", request_to("slow", 1)).is_ok());
  for (std::uint8_t tag = 2; tag <= 4; ++tag) {
    ASSERT_TRUE(fanout.send("fast", request_to("fast", tag)).is_ok());
  }

  // All three fast replies must complete before the slow one.
  for (int i = 0; i < 3; ++i) {
    auto completion = fanout.next(/*timeout_ms=*/5000);
    ASSERT_TRUE(completion.is_ok()) << completion.status();
    EXPECT_EQ(completion.value().key, "fast") << "stalled behind slow server";
  }
  auto last = fanout.next(/*timeout_ms=*/5000);
  ASSERT_TRUE(last.is_ok()) << last.status();
  EXPECT_EQ(last.value().key, "slow");
}

TEST(FanoutClient, NextWithNothingInFlightIsAProtocolError) {
  FanoutClient fanout;
  auto completion = fanout.next(10);
  ASSERT_FALSE(completion.is_ok());
  EXPECT_EQ(completion.status().code(), util::ErrorCode::kProtocolError);
}

TEST(FanoutClient, TimeoutSurfacesWhenNoReplyArrives) {
  // A server that never answers within the window: next() must report
  // kTimeout, leaving the request in flight for a later next().
  EchoNode slow(std::chrono::milliseconds(500));
  EventLoopServer server;
  server.attach("slow", slow);
  ASSERT_TRUE(server.start().is_ok());

  FanoutClient fanout;
  ASSERT_TRUE(fanout.connect("slow", "127.0.0.1", server.port()).is_ok());
  ASSERT_TRUE(fanout.send("slow", request_to("slow", 1)).is_ok());
  auto timed_out = fanout.next(/*timeout_ms=*/20);
  ASSERT_FALSE(timed_out.is_ok());
  EXPECT_EQ(timed_out.status().code(), util::ErrorCode::kTimeout);
  EXPECT_EQ(fanout.inflight(), 1u);

  auto eventually = fanout.next(/*timeout_ms=*/5000);
  ASSERT_TRUE(eventually.is_ok()) << eventually.status();
  EXPECT_EQ(eventually.value().key, "slow");
}

TEST(FanoutClient, SendToUnknownKeyFails) {
  FanoutClient fanout;
  EXPECT_FALSE(fanout.send("nope", request_to("nope", 1)).is_ok());
}

TEST(FanoutClient, PeerHangupWithRepliesOwedIsUnavailable) {
  EchoNode node;
  auto server = std::make_unique<EventLoopServer>();
  server->attach("a", node);
  ASSERT_TRUE(server->start().is_ok());

  FanoutClient fanout;
  ASSERT_TRUE(fanout.connect("a", "127.0.0.1", server->port()).is_ok());
  ASSERT_TRUE(fanout.send("a", request_to("a", 1)).is_ok());
  // Drain the first reply so the connection is quiescent, then kill the
  // server and queue another request.
  ASSERT_TRUE(fanout.next(5000).is_ok());
  server.reset();
  if (fanout.send("a", request_to("a", 2)).is_ok()) {
    auto completion = fanout.next(/*timeout_ms=*/5000);
    ASSERT_FALSE(completion.is_ok());
    EXPECT_EQ(completion.status().code(), util::ErrorCode::kUnavailable);
  }
  // Either the send already failed (connection reset) or next() reported
  // the hangup — both surface the dead peer instead of hanging.
}

/// A raw loopback listener that answers its first connection with a
/// length prefix of 0xFFFFFFFF and then keeps trickling bytes until the
/// client goes away (or two seconds pass): a peer whose reply can never
/// be a valid frame, yet whose socket never stays quiet long enough for a
/// poll timeout.
class HostileReplier {
 public:
  HostileReplier() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    thread_ = std::thread([this] { serve_(); });
  }
  ~HostileReplier() {
    thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve_() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    const std::uint8_t prefix[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    bool alive = ::send(fd, prefix, 4, MSG_NOSIGNAL) == 4;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (alive && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::uint8_t byte = 0x42;
      alive = ::send(fd, &byte, 1, MSG_NOSIGNAL) == 1;
    }
    ::close(fd);
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(FanoutClient, OversizedReplyFrameClosesThatConnection) {
  HostileReplier hostile;
  EchoNode node;
  EventLoopServer server;
  server.attach("good", node);
  ASSERT_TRUE(server.start().is_ok());

  FanoutClient fanout;
  ASSERT_TRUE(fanout.connect("hostile", "127.0.0.1", hostile.port()).is_ok());
  ASSERT_TRUE(fanout.connect("good", "127.0.0.1", server.port()).is_ok());
  ASSERT_TRUE(fanout.send("hostile", request_to("hostile", 1)).is_ok());

  // The hostile peer never goes quiet for 500 ms, so only recognizing the
  // prefix as unusable can end this call early.
  const auto start = std::chrono::steady_clock::now();
  auto completion = fanout.next(/*timeout_ms=*/500);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(completion.is_ok());
  EXPECT_NE(completion.status().code(), util::ErrorCode::kTimeout);
  EXPECT_NE(completion.status().message().find("hostile"), std::string::npos)
      << completion.status();
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));

  // That connection is gone; the other one still works.
  EXPECT_EQ(fanout.inflight(), 0u);
  EXPECT_FALSE(fanout.send("hostile", request_to("hostile", 2)).is_ok());
  ASSERT_TRUE(fanout.send("good", request_to("good", 3)).is_ok());
  auto good = fanout.next(/*timeout_ms=*/5000);
  ASSERT_TRUE(good.is_ok()) << good.status();
  EXPECT_EQ(good.value().key, "good");
}

}  // namespace
}  // namespace rproxy::net

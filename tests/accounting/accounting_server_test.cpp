// Accounting server protocol tests (§4, Fig 5): queries, transfers,
// same-server clearing, cross-server clearing, certified checks,
// double-spend rejection, bounced checks.
#include "accounting/accounting_server.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "testing/env.hpp"

namespace rproxy {
namespace {

using accounting::Check;
using testing::World;

class AccountingServerTest : public ::testing::Test {
 protected:
  AccountingServerTest() {
    world_.add_principal("client");
    world_.add_principal("app-server");
    world_.add_principal("bank1");
    world_.add_principal("bank2");

    bank1_ = std::make_unique<accounting::AccountingServer>(
        world_.accounting_config("bank1"));
    bank2_ = std::make_unique<accounting::AccountingServer>(
        world_.accounting_config("bank2"));
    world_.net.attach("bank1", *bank1_);
    world_.net.attach("bank2", *bank2_);

    bank2_->open_account("client-account", "client",
                         accounting::Balances{{"usd", 100}});
    bank1_->open_account("server-account", "app-server");
  }

  Check write_check(std::uint64_t amount, std::uint64_t number) {
    return accounting::write_check(
        "client", world_.principal("client").identity,
        AccountId{"bank2", "client-account"}, "app-server", "usd", amount,
        number, world_.clock.now(), util::kHour);
  }

  World world_;
  std::unique_ptr<accounting::AccountingServer> bank1_;
  std::unique_ptr<accounting::AccountingServer> bank2_;
};

TEST_F(AccountingServerTest, OwnerQueriesBalance) {
  auto client = world_.accounting_client("client");
  auto reply = client.query("bank2", "client-account");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_EQ(reply.value().balances.balance("usd"), 100);
}

TEST_F(AccountingServerTest, StrangerCannotQuery) {
  auto stranger = world_.accounting_client("app-server");
  EXPECT_EQ(stranger.query("bank2", "client-account").code(),
            util::ErrorCode::kPermissionDenied);
}

TEST_F(AccountingServerTest, UnknownAccountQueryFails) {
  auto client = world_.accounting_client("client");
  EXPECT_EQ(client.query("bank2", "ghost").code(),
            util::ErrorCode::kNotFound);
}

TEST_F(AccountingServerTest, LocalTransfer) {
  bank2_->open_account("savings", "client");
  auto client = world_.accounting_client("client");
  ASSERT_TRUE(
      client.transfer("bank2", "client-account", "savings", "usd", 30)
          .is_ok());
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            70);
  EXPECT_EQ(bank2_->account("savings")->balances().balance("usd"), 30);
}

TEST_F(AccountingServerTest, TransferRequiresDebitRight) {
  bank2_->open_account("other", "someone-else");
  auto client = world_.accounting_client("client");
  EXPECT_EQ(
      client.transfer("bank2", "other", "client-account", "usd", 1).code(),
      util::ErrorCode::kPermissionDenied);
}

TEST_F(AccountingServerTest, TransferInsufficientFunds) {
  bank2_->open_account("savings", "client");
  auto client = world_.accounting_client("client");
  EXPECT_EQ(client.transfer("bank2", "client-account", "savings", "usd", 101)
                .code(),
            util::ErrorCode::kInsufficientFunds);
}

TEST_F(AccountingServerTest, SameServerCheckClears) {
  // Payee also banks at bank2: single-server settlement, zero hops.
  bank2_->open_account("server-account", "app-server");
  const Check check = write_check(50, 1);
  auto payee = world_.accounting_client("app-server");
  auto reply = payee.endorse_and_deposit("bank2", check, "server-account");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_TRUE(reply.value().cleared);
  EXPECT_EQ(reply.value().hops, 0u);
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            50);
  EXPECT_EQ(bank2_->account("server-account")->balances().balance("usd"),
            50);
}

TEST_F(AccountingServerTest, CrossServerCheckClears) {
  // Fig 5 exactly: C banks at $2, S banks at $1, clearing crosses once.
  const Check check = write_check(50, 2);
  auto payee = world_.accounting_client("app-server");
  auto reply = payee.endorse_and_deposit("bank1", check, "server-account");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_TRUE(reply.value().cleared);
  EXPECT_EQ(reply.value().hops, 1u);

  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            50);
  EXPECT_EQ(bank1_->account("server-account")->balances().balance("usd"),
            50);
  // bank1's settlement account at bank2 received the funds.
  ASSERT_NE(bank2_->account("peer:bank1"), nullptr);
  EXPECT_EQ(bank2_->account("peer:bank1")->balances().balance("usd"), 50);
  EXPECT_EQ(bank1_->uncollected_total(), 0);
}

TEST_F(AccountingServerTest, DuplicateCheckNumberRepliesIdempotently) {
  // §4: "If, within that period, another check with the same number is
  // seen, it is rejected."  With exactly-once clearing the rejection is
  // invisible to the payee — the dedup table replays the original reply —
  // but the money still moves exactly once.
  const Check check = write_check(10, 3);
  auto payee = world_.accounting_client("app-server");
  ASSERT_TRUE(
      payee.endorse_and_deposit("bank1", check, "server-account").is_ok());
  auto again = payee.endorse_and_deposit("bank1", check, "server-account");
  ASSERT_TRUE(again.is_ok()) << again.status();
  EXPECT_TRUE(again.value().cleared);
  EXPECT_EQ(bank1_->deduped_replies(), 1u);
  // The replayed duplicate did not double-credit.
  EXPECT_EQ(bank1_->account("server-account")->balances().balance("usd"),
            10);
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            90);
}

TEST_F(AccountingServerTest, DuplicateCheckNumberRejectedWithoutDedup) {
  // The paper's own accept-once rejection is still underneath: disable the
  // dedup layer and the duplicate bounces as a replay.  Same-server settle
  // so no dedup-enabled peer can mask the rejection.
  auto config = world_.accounting_config("bank2");
  config.enable_dedup = false;
  accounting::AccountingServer plain_bank(std::move(config));
  world_.net.attach("bank2", plain_bank);
  plain_bank.open_account("client-account", "client",
                          accounting::Balances{{"usd", 100}});
  plain_bank.open_account("server-account", "app-server");

  const Check check = write_check(10, 3);
  auto payee = world_.accounting_client("app-server");
  ASSERT_TRUE(
      payee.endorse_and_deposit("bank2", check, "server-account").is_ok());
  auto again = payee.endorse_and_deposit("bank2", check, "server-account");
  EXPECT_EQ(again.code(), util::ErrorCode::kReplay);
  EXPECT_EQ(plain_bank.account("server-account")->balances().balance("usd"),
            10);
  EXPECT_EQ(plain_bank.account("client-account")->balances().balance("usd"),
            90);
  EXPECT_EQ(plain_bank.deduped_replies(), 0u);
}

TEST_F(AccountingServerTest, InsufficientFundsCheckBounces) {
  const Check check = write_check(500, 4);  // account holds only 100
  auto payee = world_.accounting_client("app-server");
  auto reply = payee.endorse_and_deposit("bank1", check, "server-account");
  EXPECT_EQ(reply.code(), util::ErrorCode::kInsufficientFunds);
  // The provisional uncollected credit was reverted.
  EXPECT_EQ(bank1_->account("server-account")->balances().balance("usd"), 0);
  EXPECT_EQ(bank1_->uncollected_total(), 0);
  EXPECT_EQ(bank1_->checks_bounced(), 1u);
}

/// Stands in for a drawee bank on the net: runs `before_deposit` when a
/// check deposit arrives, then forwards everything to the real bank.
class InterposedDrawee final : public net::Node {
 public:
  InterposedDrawee(net::Node& drawee, std::function<void()> before_deposit)
      : drawee_(drawee), before_deposit_(std::move(before_deposit)) {}

  net::Envelope handle(const net::Envelope& request) override {
    if (request.type == net::MsgType::kCheckDeposit) before_deposit_();
    return drawee_.handle(request);
  }

 private:
  net::Node& drawee_;
  std::function<void()> before_deposit_;
};

TEST_F(AccountingServerTest, CheckInCollectionCannotBeSpentBeforeItBounces) {
  // While bank1 collects a 500 check from bank2, the payee tries to move
  // 500 out of the collection account.  The check then bounces (the payor
  // holds only 100).  A provisional credit in the balance would let the
  // payee spend money bank1 never receives.
  bank1_->open_account("payee-savings", "app-server");
  const auto bank1_total = [&] {
    return bank1_->account("server-account")->balances().balance("usd") +
           bank1_->account("payee-savings")->balances().balance("usd");
  };
  const std::int64_t before = bank1_total();
  auto spender = world_.accounting_client("app-server");
  util::Status spend;
  InterposedDrawee interposed(*bank2_, [&] {
    spend = spender.transfer("bank1", "server-account", "payee-savings",
                             "usd", 500);
  });
  world_.net.attach("bank2", interposed);

  const Check check = write_check(500, 40);
  auto payee = world_.accounting_client("app-server");
  EXPECT_EQ(payee.endorse_and_deposit("bank1", check, "server-account").code(),
            util::ErrorCode::kInsufficientFunds);
  EXPECT_EQ(spend.code(), util::ErrorCode::kInsufficientFunds);
  EXPECT_EQ(bank1_total(), before);
  EXPECT_EQ(bank1_->uncollected_total(), 0);
}

TEST_F(AccountingServerTest, PartialDraw) {
  // "the payee transfers up to that limit" — draw 30 of a 50 check.
  const Check check = write_check(50, 5);
  auto payee = world_.accounting_client("app-server");
  auto endorsed = accounting::endorse_check(
      check, "app-server", world_.principal("app-server").identity, "bank1",
      world_.clock.now());
  ASSERT_TRUE(endorsed.is_ok());
  auto reply =
      payee.deposit("bank1", endorsed.value(), "server-account", 30);
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            70);
}

TEST_F(AccountingServerTest, DrawBeyondLimitRejected) {
  const Check check = write_check(50, 6);
  auto payee = world_.accounting_client("app-server");
  auto endorsed = accounting::endorse_check(
      check, "app-server", world_.principal("app-server").identity, "bank1",
      world_.clock.now());
  ASSERT_TRUE(endorsed.is_ok());
  EXPECT_EQ(
      payee.deposit("bank1", endorsed.value(), "server-account", 60).code(),
      util::ErrorCode::kRestrictionViolated);
}

TEST_F(AccountingServerTest, ExpiredCheckRejected) {
  const Check check = write_check(10, 7);
  world_.clock.advance(2 * util::kHour);
  auto payee = world_.accounting_client("app-server");
  // Re-issue the payee's identity cert (the old one also expired? no — 8h
  // lifetime; only the check's 1h lifetime passed).
  EXPECT_EQ(
      payee.endorse_and_deposit("bank1", check, "server-account").code(),
      util::ErrorCode::kExpired);
}

TEST_F(AccountingServerTest, MisdrawnCheckRejected) {
  // Mallory writes a check on client's account.
  world_.add_principal("mallory");
  const Check forged = accounting::write_check(
      "mallory", world_.principal("mallory").identity,
      AccountId{"bank2", "client-account"}, "app-server", "usd", 10, 8,
      world_.clock.now(), util::kHour);
  auto payee = world_.accounting_client("app-server");
  EXPECT_EQ(
      payee.endorse_and_deposit("bank1", forged, "server-account").code(),
      util::ErrorCode::kPermissionDenied);
}

TEST_F(AccountingServerTest, MultiHopClearingViaRoute) {
  // Three banks: payee at bank1, drawee bank3, routed via bank2.
  world_.add_principal("bank3");
  auto bank3 = std::make_unique<accounting::AccountingServer>(
      world_.accounting_config("bank3"));
  world_.net.attach("bank3", *bank3);
  bank3->open_account("client3", "client",
                      accounting::Balances{{"usd", 100}});
  bank1_->set_route("bank3", "bank2");

  const Check check = accounting::write_check(
      "client", world_.principal("client").identity,
      AccountId{"bank3", "client3"}, "app-server", "usd", 25, 9,
      world_.clock.now(), util::kHour);
  auto payee = world_.accounting_client("app-server");
  auto reply = payee.endorse_and_deposit("bank1", check, "server-account");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_EQ(reply.value().hops, 2u);
  EXPECT_EQ(bank3->account("client3")->balances().balance("usd"), 75);
  EXPECT_EQ(bank1_->account("server-account")->balances().balance("usd"),
            25);
}

class CertifiedCheckTest : public AccountingServerTest {};

TEST_F(CertifiedCheckTest, CertificationPlacesHold) {
  auto client = world_.accounting_client("client");
  auto cert = client.certify("bank2", "client-account", "app-server", "usd",
                             40, 100, "app-server");
  ASSERT_TRUE(cert.is_ok()) << cert.status();
  EXPECT_EQ(bank2_->account("client-account")->held("usd"), 40);
  EXPECT_EQ(bank2_->account("client-account")->available("usd"), 60);
}

TEST_F(CertifiedCheckTest, CertificationVerifiableByEndServer) {
  auto client = world_.accounting_client("client");
  auto cert = client.certify("bank2", "client-account", "app-server", "usd",
                             40, 101, "app-server");
  ASSERT_TRUE(cert.is_ok());

  const Check check = write_check(40, 101);
  core::ProxyVerifier::Config vc;
  vc.server_name = "app-server";
  vc.resolver = &world_.resolver;
  vc.pk_root = world_.name_server.root_key();
  core::ProxyVerifier verifier(std::move(vc));
  EXPECT_TRUE(accounting::verify_certification(
                  verifier, cert.value().certification, check, "bank2",
                  "client", world_.clock.now())
                  .is_ok());
  // A different check number is not covered.
  const Check other = write_check(40, 999);
  EXPECT_FALSE(accounting::verify_certification(
                   verifier, cert.value().certification, other, "bank2",
                   "client", world_.clock.now())
                   .is_ok());
}

TEST_F(CertifiedCheckTest, CertifiedCheckSettlesFromHold) {
  auto client = world_.accounting_client("client");
  ASSERT_TRUE(client
                  .certify("bank2", "client-account", "app-server", "usd",
                           40, 102, "app-server")
                  .is_ok());
  // Further spending is limited by the hold...
  EXPECT_EQ(bank2_->account("client-account")->available("usd"), 60);

  const Check check = write_check(40, 102);
  auto payee = world_.accounting_client("app-server");
  auto reply = payee.endorse_and_deposit("bank1", check, "server-account");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  // Hold consumed, funds moved.
  EXPECT_EQ(bank2_->account("client-account")->held("usd"), 0);
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            60);
}

TEST_F(CertifiedCheckTest, DuplicateCertificationRepliesIdempotently) {
  // A re-certify of the same check number (a retry after a lost reply)
  // gets the ORIGINAL certification back; the hold is not doubled.
  auto client = world_.accounting_client("client");
  auto first = client.certify("bank2", "client-account", "app-server",
                              "usd", 10, 103, "app-server");
  ASSERT_TRUE(first.is_ok()) << first.status();
  auto again = client.certify("bank2", "client-account", "app-server",
                              "usd", 10, 103, "app-server");
  ASSERT_TRUE(again.is_ok()) << again.status();
  EXPECT_EQ(wire::encode_to_bytes(first.value()),
            wire::encode_to_bytes(again.value()));
  EXPECT_EQ(bank2_->deduped_replies(), 1u);
  EXPECT_EQ(bank2_->account("client-account")->held("usd"), 10);
}

TEST_F(CertifiedCheckTest, DuplicateCertificationRejectedWithoutDedup) {
  auto config = world_.accounting_config("bank2");
  config.enable_dedup = false;
  accounting::AccountingServer plain_bank(std::move(config));
  world_.net.attach("bank2", plain_bank);
  plain_bank.open_account("client-account", "client",
                          accounting::Balances{{"usd", 100}});

  auto client = world_.accounting_client("client");
  ASSERT_TRUE(client
                  .certify("bank2", "client-account", "app-server", "usd",
                           10, 103, "app-server")
                  .is_ok());
  EXPECT_EQ(client
                .certify("bank2", "client-account", "app-server", "usd", 10,
                         103, "app-server")
                .code(),
            util::ErrorCode::kReplay);
}

TEST_F(CertifiedCheckTest, CertificationBeyondFundsRejected) {
  auto client = world_.accounting_client("client");
  EXPECT_EQ(client
                .certify("bank2", "client-account", "app-server", "usd",
                         500, 104, "app-server")
                .code(),
            util::ErrorCode::kInsufficientFunds);
}

TEST_F(CertifiedCheckTest, ExpiredHoldReleased) {
  auto client = world_.accounting_client("client");
  ASSERT_TRUE(client
                  .certify("bank2", "client-account", "app-server", "usd",
                           40, 105, "app-server",
                           world_.clock.now() + 10 * util::kMinute)
                  .is_ok());
  EXPECT_EQ(bank2_->account("client-account")->available("usd"), 60);
  world_.clock.advance(20 * util::kMinute);
  // Any request triggers the purge; query our own account.
  ASSERT_TRUE(client.query("bank2", "client-account").is_ok());
  EXPECT_EQ(bank2_->account("client-account")->available("usd"), 100);
}

TEST_F(CertifiedCheckTest, DueHoldPurgedAmongManyLiveEntries) {
  // Hundreds of live holds and dedup entries, one due: the first request
  // after the due time must release that hold and drop its dedup entry,
  // and leave every live one alone.
  constexpr int kLive = 300;
  bank2_->open_account("big-account", "client",
                       accounting::Balances{{"usd", 10'000}});
  auto client = world_.accounting_client("client");
  for (int i = 0; i < kLive; ++i) {
    ASSERT_TRUE(client
                    .certify("bank2", "big-account", "app-server", "usd", 1,
                             1000 + static_cast<std::uint64_t>(i),
                             "app-server", world_.clock.now() + util::kHour)
                    .is_ok());
  }
  auto due = client.certify("bank2", "big-account", "app-server", "usd", 40,
                            999, "app-server",
                            world_.clock.now() + 10 * util::kMinute);
  ASSERT_TRUE(due.is_ok()) << due.status();
  EXPECT_EQ(bank2_->account("big-account")->held("usd"), kLive + 40);

  // Not yet due: requests leave everything in place.
  world_.clock.advance(5 * util::kMinute);
  ASSERT_TRUE(client.query("bank2", "big-account").is_ok());
  EXPECT_EQ(bank2_->account("big-account")->held("usd"), kLive + 40);

  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  const util::Bytes before = bank2_->snapshot(key);
  world_.clock.advance(10 * util::kMinute);
  ASSERT_TRUE(client.query("bank2", "big-account").is_ok());
  EXPECT_EQ(bank2_->account("big-account")->held("usd"), kLive);
  // The certified entry and its remembered reply left the snapshot.
  const util::Bytes after = bank2_->snapshot(key);
  ASSERT_LT(after.size(), before.size());
  EXPECT_GT(before.size() - after.size(),
            wire::encode_to_bytes(due.value()).size());

  // A retry of the purged certification is a new one, not a replay.
  ASSERT_TRUE(client
                  .certify("bank2", "big-account", "app-server", "usd", 7,
                           999, "app-server",
                           world_.clock.now() + util::kHour)
                  .is_ok());
  EXPECT_EQ(bank2_->deduped_replies(), 0u);
  EXPECT_EQ(bank2_->account("big-account")->held("usd"), kLive + 7);
}

}  // namespace
}  // namespace rproxy

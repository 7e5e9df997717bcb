// Property: one mutation path.  A random op sequence that writes every
// record type a primary journals — failures included — leaves three
// byte-identical books: the live primary, a fresh server recover()ed from
// the primary's directory (snapshot + journal tail, because a checkpoint
// runs midway), and a hot standby fed by the journal shipper.  The sealed
// snapshots are opened and compared as plaintexts; only the server-name
// field and the trailing replication-watermark section (which only a
// standby has) may differ.  The clock never moves: hold and dedup expiry
// is time-driven and deliberately not journaled.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accounting/clearing.hpp"
#include "accounting/replication/journal_shipper.hpp"
#include "accounting/replication/standby.hpp"
#include "crypto/aead.hpp"
#include "crypto/random.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using accounting::AccountingServer;
using accounting::Balances;
using accounting::Check;
using accounting::MigratedAccount;
using accounting::MigrationSpec;
using accounting::replication::JournalShipper;
using accounting::replication::StandbyReplayer;
using crypto::DeterministicRng;
using testing::World;

/// The snapshot plaintext of `server` with its version + name header and
/// its watermark section cut off.  `watermarks` must be exactly the
/// section the server holds (asserted), so nothing else can hide there.
util::Bytes books_of(
    const AccountingServer& server, const crypto::SymmetricKey& key,
    const std::vector<std::pair<PrincipalName, std::uint64_t>>& watermarks) {
  auto plain = crypto::aead_open(key.derive_subkey("accounting:snapshot"),
                                 server.snapshot(key));
  EXPECT_TRUE(plain.is_ok()) << plain.status();
  if (!plain.is_ok()) return {};
  const util::Bytes& bytes = plain.value();

  wire::Encoder head;
  head.str("accounting-snapshot-v6");
  head.str(server.name());
  wire::Encoder tail;
  tail.u32(static_cast<std::uint32_t>(watermarks.size()));
  for (const auto& [source, lsn] : watermarks) {
    tail.str(source);
    tail.u64(lsn);
  }
  const util::BytesView h = head.view();
  const util::BytesView t = tail.view();
  EXPECT_GE(bytes.size(), h.size() + t.size());
  if (bytes.size() < h.size() + t.size()) return {};
  EXPECT_TRUE(std::equal(h.begin(), h.end(), bytes.begin()));
  EXPECT_TRUE(std::equal(t.begin(), t.end(), bytes.end() - t.size()));
  return util::Bytes(bytes.begin() + static_cast<std::ptrdiff_t>(h.size()),
                     bytes.end() - static_cast<std::ptrdiff_t>(t.size()));
}

class LedgerReplayProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LedgerReplayProperty, LiveEqualsRecoveredEqualsStandby) {
  DeterministicRng rng(GetParam());
  World world;
  testing::TempDir tmp;
  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  for (const char* name :
       {"alice", "bob", "dave", "erin", "bank", "bank2", "bankb"}) {
    world.add_principal(name);
  }

  auto primary_config = world.accounting_config("bank");
  primary_config.storage_dir = tmp.sub("bank");
  primary_config.storage_key = key;
  primary_config.fsync_policy = storage::FsyncPolicy::kEveryRecord;
  auto primary = std::make_unique<AccountingServer>(primary_config);
  ASSERT_TRUE(primary->recover().is_ok());
  world.net.attach("bank", *primary);

  // The drawee of foreign checks; unjournaled, it only has to pay or bounce.
  AccountingServer drawee(world.accounting_config("bank2"));
  world.net.attach("bank2", drawee);
  drawee.open_account("alice2", "alice", Balances{{"usd", 20000}});

  AccountingServer replica(world.accounting_config("bankb"));
  StandbyReplayer::Config standby_config;
  standby_config.name = "bankb";
  standby_config.primary = "bank";
  standby_config.server = &replica;
  standby_config.clock = &world.clock;
  standby_config.storage_key = key;
  StandbyReplayer standby(std::move(standby_config));
  world.net.attach("bankb", standby);
  JournalShipper::Config shipper_config;
  shipper_config.primary = primary.get();
  shipper_config.net = &world.net;
  shipper_config.standbys = {"bankb"};
  auto shipper = std::make_unique<JournalShipper>(std::move(shipper_config));

  primary->open_account("alice-acct", "alice", Balances{{"usd", 20000}});
  primary->open_account("bob-acct", "bob", Balances{{"usd", 200}});
  primary->open_account("dave-acct", "dave", Balances{{"usd", 100}});

  auto alice = world.accounting_client("alice");
  auto bob = world.accounting_client("bob");
  const auto write = [&](const AccountId& on, std::uint64_t amount,
                         std::uint64_t number) {
    return accounting::write_check("alice", world.principal("alice").identity,
                                   on, "bob", "usd", amount, number,
                                   world.clock.now(), util::kHour);
  };
  const auto small = [&] { return 2 + rng.next_below(200); };
  constexpr std::uint64_t kUncoverable = 1'000'000;
  std::uint64_t next_peer = 0;
  const auto fresh_peer = [&] {
    return "peer:bank" + std::to_string(100 + next_peer++);
  };
  const auto collect_account = [&] {
    return rng.next_below(2) == 0 ? fresh_peer() : std::string("bob-acct");
  };
  // Outcome tally, so the property cannot pass on a run that never
  // reached the paths it is about.
  std::map<std::string, int> seen;
  const auto tally = [&](const std::string& what, bool ok) {
    seen[what + (ok ? "" : " failed")] += 1;
    return ok;
  };

  const MigrationSpec dave_range{
      .migration_id = 1,
      .lo = accounting::sharding::stable_hash64("dave-acct"),
      .hi = accounting::sharding::stable_hash64("dave-acct"),
      .source = "bank",
      .target = "bank-east"};
  const MigrationSpec erin_import{.migration_id = 2,
                                  .lo = 0,
                                  .hi = ~std::uint64_t{0},
                                  .source = "bank-west",
                                  .target = "bank"};
  MigratedAccount erin;
  erin.name = "erin-acct";
  erin.owner = "erin";
  erin.balances = Balances{{"usd", 300}};
  erin.holds.push_back(
      {"erin", 77, "usd", 50, world.clock.now() + util::kHour});
  // Setup-style mutations, one per admin step, in order.
  const std::vector<std::function<void()>> admin = {
      [&] { primary->set_route("bank9", "bank2"); },
      [&] { ASSERT_TRUE(primary->migration_freeze(dave_range).is_ok()); },
      [&] { ASSERT_TRUE(primary->adopt_identity("bank-old").is_ok()); },
      [&] {
        ASSERT_TRUE(primary->migration_import(erin_import, {erin}).is_ok());
      },
      [&] { ASSERT_TRUE(primary->migration_evacuate(dave_range).is_ok()); },
  };
  std::size_t next_admin = 0;

  enum Op {
    kTransfer,
    kOverdraw,
    kSettle,
    kSettleBounce,
    kForeign,
    kForeignBounce,
    kDuplicate,
    kCertifiedSettle,
    kCertify,
    kCashier,
    kAdmin,
    kOpCount
  };
  std::vector<Check> deposited;
  std::uint64_t next_number = 1;
  constexpr int kRounds = 8;
  static_assert(kRounds >= 5, "every admin step must run");
  for (int round = 0; round < kRounds; ++round) {
    if (round == kRounds / 2) ASSERT_TRUE(primary->checkpoint().is_ok());
    // Every round deals each op kind once, in a random order.
    std::vector<int> deck(kOpCount);
    for (int i = 0; i < kOpCount; ++i) deck[i] = i;
    for (std::size_t i = deck.size() - 1; i > 0; --i) {
      std::swap(deck[i], deck[rng.next_below(i + 1)]);
    }
    for (const int op : deck) {
      switch (op) {
        case kTransfer: {  // fails once dave-acct is frozen or gone
          const bool from_alice = rng.next_below(2) == 0;
          tally("transfer",
                (from_alice ? alice : bob)
                    .transfer("bank", from_alice ? "alice-acct" : "bob-acct",
                              from_alice ? "bob-acct" : "dave-acct", "usd",
                              small())
                    .is_ok());
          break;
        }
        case kOverdraw:
          tally("transfer", alice
                                .transfer("bank", "alice-acct", "bob-acct",
                                          "usd", kUncoverable)
                                .is_ok());
          break;
        case kSettle:
        case kSettleBounce:
        case kForeign:
        case kForeignBounce: {
          const bool local = op == kSettle || op == kSettleBounce;
          const bool bounce = op == kSettleBounce || op == kForeignBounce;
          const Check check =
              write(local ? AccountId{"bank", "alice-acct"}
                          : AccountId{"bank2", "alice2"},
                    bounce ? kUncoverable : small(), next_number++);
          // A bounce into a never-seen settlement account must not leave
          // an (unjournaled) empty account behind.
          if (tally(local ? "settle" : "foreign",
                    bob.endorse_and_deposit("bank", check,
                                            bounce ? fresh_peer()
                                                   : collect_account())
                        .is_ok())) {
            deposited.push_back(check);
          }
          break;
        }
        case kDuplicate: {  // replayed from the dedup table
          if (deposited.empty()) break;
          const Check& check = deposited[rng.next_below(deposited.size())];
          tally("duplicate",
                bob.endorse_and_deposit("bank", check, "bob-acct").is_ok());
          break;
        }
        case kCertifiedSettle: {  // settled for less than the hold
          const std::uint64_t held = small();
          const std::uint64_t number = next_number++;
          if (!tally("certify", alice
                                    .certify("bank", "alice-acct", "bob",
                                             "usd", held, number, "bob")
                                    .is_ok())) {
            break;
          }
          auto endorsed = accounting::endorse_check(
              write(AccountId{"bank", "alice-acct"}, held, number), "bob",
              world.principal("bob").identity, "bank", world.clock.now());
          ASSERT_TRUE(endorsed.is_ok());
          tally("partial certified settle",
                bob.deposit("bank", endorsed.value(), collect_account(),
                            held - 1 - rng.next_below(held - 1))
                    .is_ok());
          break;
        }
        case kCertify:  // left outstanding; sometimes uncoverable
          tally("certify",
                alice
                    .certify("bank", "alice-acct", "bob", "usd",
                             rng.next_below(3) == 0 ? kUncoverable : small(),
                             next_number++, "bob")
                    .is_ok());
          break;
        case kCashier: {  // sometimes deposited back at the bank
          auto bought = alice.buy_cashier_check("bank", "alice-acct", "bob",
                                                "usd", small());
          if (tally("cashier", bought.is_ok()) && rng.next_below(2) == 0) {
            tally("cashier settle",
                  bob.endorse_and_deposit("bank", bought.value(), "bob-acct")
                      .is_ok());
          }
          break;
        }
        default:
          if (next_admin < admin.size()) admin[next_admin++]();
          break;
      }
      (void)shipper->ship_once();
    }
  }
  for (const char* what :
       {"transfer", "transfer failed", "settle", "settle failed", "foreign",
        "foreign failed", "duplicate", "certify", "certify failed",
        "partial certified settle", "cashier", "cashier settle"}) {
    EXPECT_GT(seen[what], 0) << "never reached: " << what;
  }
  ASSERT_EQ(primary->uncollected_total(), 0);
  ASSERT_EQ(standby.apply_failures(), 0u);
  ASSERT_EQ(standby.received_lsn(), primary->journal_durable_lsn());

  const util::Bytes live = books_of(*primary, key, {});
  const util::Bytes standby_books = books_of(
      replica, key, {{"bank", replica.replication_watermark("bank")}});
  shipper.reset();
  world.net.detach("bank");
  primary.reset();

  AccountingServer recovered(primary_config);
  ASSERT_TRUE(recovered.recover().is_ok());
  const util::Bytes recovered_books = books_of(recovered, key, {});

  ASSERT_FALSE(live.empty());
  EXPECT_EQ(recovered_books, live) << "journal replay diverged from live";
  EXPECT_EQ(standby_books, live) << "standby apply diverged from live";
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerReplayProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace rproxy

// T9 — cost of crash durability (DESIGN.md §5e, EXPERIMENTS.md T9).
//
// Four questions: (1) raw write-ahead journal append throughput under each
// fsync policy — the disk tax every durable mutation pays; (2) what a
// served mutation costs end-to-end with the journal off, batched, and
// fsync-per-record — the policy knob a deployment actually turns; (3) how
// long recovery takes as a function of journal length — the price of a
// long tail between checkpoints, and the reason checkpoint() exists; (4)
// what one replication tail read costs as the journal grows.
#include <filesystem>
#include <string>

#include "bench_util.hpp"
#include "storage/log_dir.hpp"
#include "testing/tempdir.hpp"

namespace {

using namespace rproxy;

storage::FsyncPolicy policy_for(std::int64_t arg) {
  switch (arg) {
    case 0:
      return storage::FsyncPolicy::kNever;
    case 1:
      return storage::FsyncPolicy::kBatch;
    default:
      return storage::FsyncPolicy::kEveryRecord;
  }
}

const char* policy_name(std::int64_t arg) {
  switch (arg) {
    case 0:
      return "never";
    case 1:
      return "batch";
    default:
      return "every_record";
  }
}

/// Raw journal appends of a 256-byte payload.  Arg 0/1/2 = fsync policy
/// never/batch(8)/every_record.
void BM_JournalAppend(benchmark::State& state) {
  rproxy::testing::TempDir dir;
  storage::JournalWriter::Config config;
  config.fsync_policy = policy_for(state.range(0));
  config.batch_records = 8;
  auto writer =
      storage::JournalWriter::create(dir.sub("bench.wal"), 1, config);
  if (!writer.is_ok()) {
    state.SkipWithError("journal create failed");
    return;
  }
  const util::Bytes payload(256, 0x5A);
  for (auto _ : state) {
    auto status = writer.value().append(1, payload);
    benchmark::DoNotOptimize(status);
    if (!status.is_ok()) {
      state.SkipWithError("append failed");
      return;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
  state.SetLabel(policy_name(state.range(0)));
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(1)->Arg(2);

/// A served local transfer (full challenge + signed request + journaled
/// mutation + reply).  Arg -1 = storage off; 0/1/2 = fsync policy.  The
/// delta against -1 is the total durability tax on the serving path.
void BM_DurableTransfer(benchmark::State& state) {
  testing::World world;
  world.add_principal("alice");
  world.add_principal("bank");
  world.net.set_default_latency(0);
  rproxy::testing::TempDir dir;
  auto config = world.accounting_config("bank");
  if (state.range(0) >= 0) {
    config.storage_dir = dir.sub("bank");
    config.storage_key = crypto::SymmetricKey::generate();
    config.fsync_policy = policy_for(state.range(0));
  }
  accounting::AccountingServer bank(std::move(config));
  if (!bank.recover().is_ok()) {
    state.SkipWithError("recover failed");
    return;
  }
  world.net.attach("bank", bank);
  bank.open_account("a", "alice",
                    accounting::Balances{{"usd", 1LL << 40}});
  bank.open_account("b", "alice");
  auto alice = world.accounting_client("alice");
  for (auto _ : state) {
    auto status = alice.transfer("bank", "a", "b", "usd", 1);
    benchmark::DoNotOptimize(status);
    if (!status.is_ok()) {
      state.SkipWithError("transfer failed");
      return;
    }
  }
  state.SetLabel(state.range(0) < 0 ? "no_journal"
                                    : policy_name(state.range(0)));
}
BENCHMARK(BM_DurableTransfer)->Arg(-1)->Arg(0)->Arg(1)->Arg(2);

/// Full AccountingServer::recover() against a journal of N records (no
/// snapshot): scan + CRC + decode + re-apply.  Linear in N — this is what
/// bounds restart time and why checkpoints truncate the tail.
void BM_RecoveryReplay(benchmark::State& state) {
  const auto records = static_cast<int>(state.range(0));
  testing::World world;
  world.add_principal("bank");
  rproxy::testing::TempDir dir;
  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  const auto config_for = [&] {
    auto config = world.accounting_config("bank");
    config.storage_dir = dir.sub("bank");
    config.storage_key = key;
    config.fsync_policy = storage::FsyncPolicy::kNever;
    return config;
  };
  {
    // Seed the journal: N account-open records, no checkpoint.
    accounting::AccountingServer bank(config_for());
    if (!bank.recover().is_ok()) {
      state.SkipWithError("seed recover failed");
      return;
    }
    for (int i = 0; i < records; ++i) {
      bank.open_account("acct-" + std::to_string(i), "bank",
                        accounting::Balances{{"usd", 1}});
    }
  }
  for (auto _ : state) {
    accounting::AccountingServer bank(config_for());
    auto status = bank.recover();
    benchmark::DoNotOptimize(status);
    if (!status.is_ok()) {
      state.SkipWithError("recover failed");
      return;
    }
  }
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(records));
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_RecoveryReplay)->Arg(64)->Arg(512)->Arg(4096);

/// One replication tail read — the newest committed record — from a
/// journal of N records (128-byte payloads, all committed).  This is what
/// every semi-sync ship pays on the primary; it must not grow with N.
void BM_ReadCommittedTail(benchmark::State& state) {
  const auto records = static_cast<std::uint64_t>(state.range(0));
  rproxy::testing::TempDir dir;
  storage::LogDir::Config config;
  config.dir = dir.sub("log");
  config.journal.fsync_policy = storage::FsyncPolicy::kGroup;
  auto log = storage::LogDir::open(config, nullptr);
  if (!log.is_ok()) {
    state.SkipWithError("log open failed");
    return;
  }
  const util::Bytes payload(128, 0x5A);
  for (std::uint64_t i = 0; i < records; ++i) {
    if (!log.value().append(1, payload).is_ok()) {
      state.SkipWithError("append failed");
      return;
    }
  }
  if (!log.value().commit(records).is_ok()) {
    state.SkipWithError("commit failed");
    return;
  }
  for (auto _ : state) {
    auto tail = log.value().read_committed(records, 1);
    benchmark::DoNotOptimize(tail);
    if (!tail.is_ok() || tail.value().records.size() != 1) {
      state.SkipWithError("tail read failed");
      return;
    }
  }
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(records));
}
BENCHMARK(BM_ReadCommittedTail)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace

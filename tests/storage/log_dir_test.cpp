// LogDir::read_committed, the replication tail read, checked differentially:
// every read must equal a full JournalReader scan of the directory filtered
// to [from, min(durable, from + max - 1)] — over group commits, a reopen
// across a torn tail, a checkpoint rotation and a corrupted durable frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "storage/journal.hpp"
#include "storage/log_dir.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using storage::FsyncPolicy;
using storage::JournalReader;
using storage::JournalRecord;
using storage::LogDir;
using testing::TempDir;

constexpr std::size_t kFileHeaderBytes = 20;  // magic ver lsn crc
constexpr std::size_t kFrameHeaderBytes = 10;  // len type crc

LogDir::Config group_config(const std::string& dir) {
  LogDir::Config config;
  config.dir = dir;
  config.journal.fsync_policy = FsyncPolicy::kGroup;
  return config;
}

std::vector<std::string> journal_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());  // zero-padded base LSNs
  return files;
}

/// Every intact record on disk, oldest first: the reference a tail read
/// is held against.
std::vector<JournalRecord> scan_all(const std::string& dir) {
  std::vector<JournalRecord> all;
  for (const std::string& path : journal_files(dir)) {
    auto scan = JournalReader::read(path);
    EXPECT_TRUE(scan.is_ok()) << scan.status().to_string();
    if (!scan.is_ok()) continue;
    for (JournalRecord& record : scan.value().records) {
      all.push_back(std::move(record));
    }
  }
  return all;
}

/// read_committed(from, max) against the full scan filtered to its window.
void expect_matches_scan(const LogDir& log, const std::string& dir,
                         std::uint64_t from, std::size_t max) {
  SCOPED_TRACE("from " + std::to_string(from) + " max " +
               std::to_string(max));
  const std::uint64_t durable = log.durable_lsn();
  auto tail = log.read_committed(from, max);
  ASSERT_TRUE(tail.is_ok()) << tail.status().to_string();
  EXPECT_EQ(tail.value().durable_lsn, durable);
  std::vector<JournalRecord> want;
  for (const JournalRecord& record : scan_all(dir)) {
    if (record.lsn >= std::max<std::uint64_t>(from, 1) &&
        record.lsn <= durable && want.size() < max) {
      want.push_back(record);
    }
  }
  ASSERT_EQ(tail.value().records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(tail.value().records[i].lsn, want[i].lsn);
    EXPECT_EQ(tail.value().records[i].type, want[i].type);
    EXPECT_EQ(tail.value().records[i].payload, want[i].payload);
  }
}

class Appender {
 public:
  explicit Appender(std::uint64_t seed) : rng_(seed) {}

  /// Appends `n` records of random type and size (empty payloads included).
  void append(LogDir& log, int n) {
    for (int i = 0; i < n; ++i) {
      util::Bytes payload(pick(0, 300));
      for (std::uint8_t& byte : payload) {
        byte = static_cast<std::uint8_t>(pick(0, 255));
      }
      const auto type = static_cast<std::uint16_t>(pick(1, 9));
      ASSERT_TRUE(log.append(type, payload).is_ok());
    }
  }

  /// Random reads, `from` reaching past both ends of the log.
  void check_reads(const LogDir& log, const std::string& dir, int reads) {
    for (int i = 0; i < reads; ++i) {
      const std::uint64_t from = pick(0, log.next_lsn() + 2);
      const std::size_t max = pick(0, 3) == 0
                                  ? std::numeric_limits<std::size_t>::max()
                                  : pick(0, 9);
      expect_matches_scan(log, dir, from, max);
    }
  }

  std::uint64_t pick(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng_);
  }

 private:
  std::mt19937_64 rng_;
};

/// Byte offset of the frame holding `lsn` in a journal file.
std::uint64_t frame_offset(const std::string& path, std::uint64_t lsn) {
  auto scan = JournalReader::read(path);
  EXPECT_TRUE(scan.is_ok());
  std::uint64_t offset = kFileHeaderBytes;
  for (const JournalRecord& record : scan.value().records) {
    if (record.lsn == lsn) return offset;
    offset += kFrameHeaderBytes + record.payload.size();
  }
  ADD_FAILURE() << "no frame for LSN " << lsn;
  return offset;
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

TEST(LogDirTailTest, GroupCommitsNeverExposeUncommittedRecords) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir dir;
    auto log = LogDir::open(group_config(dir.path()), nullptr);
    ASSERT_TRUE(log.is_ok()) << log.status().to_string();
    Appender app(seed);
    for (int round = 0; round < 20; ++round) {
      app.append(log.value(), static_cast<int>(app.pick(0, 6)));
      // Commit about two rounds in three: the rest leave appended but
      // uncommitted records above the watermark.
      if (app.pick(0, 2) != 0) {
        ASSERT_TRUE(
            log.value().commit(log.value().next_lsn() - 1).is_ok());
      }
      app.check_reads(log.value(), dir.path(), 6);
    }
  }
}

TEST(LogDirTailTest, ReopenOverATornTailSeedsTheIndexFromTheScan) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir dir;
    Appender app(seed);
    std::uint64_t last_lsn = 0;
    {
      auto log = LogDir::open(group_config(dir.path()), nullptr);
      ASSERT_TRUE(log.is_ok());
      app.append(log.value(), static_cast<int>(app.pick(2, 30)));
      ASSERT_TRUE(log.value().commit(log.value().next_lsn() - 1).is_ok());
      last_lsn = log.value().next_lsn() - 1;
    }
    // Tear the final frame: cut it anywhere short of its end.
    const std::string path = journal_files(dir.path()).back();
    const std::uint64_t size = std::filesystem::file_size(path);
    const std::uint64_t start = frame_offset(path, last_lsn);
    std::filesystem::resize_file(path, app.pick(start + 1, size - 1));

    LogDir::Recovered recovered;
    auto log = LogDir::open(group_config(dir.path()), &recovered);
    ASSERT_TRUE(log.is_ok()) << log.status().to_string();
    EXPECT_TRUE(recovered.tail_truncated);
    EXPECT_EQ(log.value().next_lsn(), last_lsn);
    EXPECT_EQ(log.value().durable_lsn(), last_lsn - 1);
    app.check_reads(log.value(), dir.path(), 20);
    // Appends after the reopen land behind the seeded index.
    for (int round = 0; round < 5; ++round) {
      app.append(log.value(), static_cast<int>(app.pick(1, 4)));
      ASSERT_TRUE(log.value().commit(log.value().next_lsn() - 1).is_ok());
      app.check_reads(log.value(), dir.path(), 6);
    }
  }
}

TEST(LogDirTailTest, CheckpointRotationCompactsBelowTheNewBase) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir dir;
    auto log = LogDir::open(group_config(dir.path()), nullptr);
    ASSERT_TRUE(log.is_ok());
    Appender app(seed);
    app.append(log.value(), static_cast<int>(app.pick(1, 20)));
    ASSERT_TRUE(log.value().commit(log.value().next_lsn() - 1).is_ok());
    const std::uint64_t covered = log.value().next_lsn() - 1;
    ASSERT_TRUE(log.value().checkpoint(util::to_bytes("state")).is_ok());

    // Below the new base: compacted away, bootstrap from the snapshot.
    auto compacted = log.value().read_committed(app.pick(0, covered), 8);
    ASSERT_FALSE(compacted.is_ok());
    EXPECT_EQ(compacted.code(), util::ErrorCode::kNotFound);
    // A follower caught up at the snapshot gets an empty batch.
    auto caught_up = log.value().read_committed(covered + 1, 8);
    ASSERT_TRUE(caught_up.is_ok()) << caught_up.status().to_string();
    EXPECT_TRUE(caught_up.value().records.empty());
    EXPECT_EQ(caught_up.value().durable_lsn, covered);

    for (int round = 0; round < 8; ++round) {
      app.append(log.value(), static_cast<int>(app.pick(0, 5)));
      if (app.pick(0, 2) != 0) {
        ASSERT_TRUE(
            log.value().commit(log.value().next_lsn() - 1).is_ok());
      }
      // Only reads at or above the new base: below it is kNotFound.
      for (int i = 0; i < 6; ++i) {
        const std::uint64_t from =
            app.pick(covered + 1, log.value().next_lsn() + 2);
        expect_matches_scan(log.value(), dir.path(), from, app.pick(0, 9));
      }
    }
  }
}

TEST(LogDirTailTest, CorruptDurableFrameFailsTheReadThatCoversIt) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir dir;
    auto log = LogDir::open(group_config(dir.path()), nullptr);
    ASSERT_TRUE(log.is_ok());
    Appender app(seed);
    app.append(log.value(), static_cast<int>(app.pick(3, 25)));
    ASSERT_TRUE(log.value().commit(log.value().next_lsn() - 1).is_ok());
    const std::uint64_t durable = log.value().durable_lsn();
    // Two uncommitted records above the watermark.
    app.append(log.value(), 2);
    const std::string path = journal_files(dir.path()).back();

    // Damage above the watermark is invisible: it is never read.
    flip_byte(path, frame_offset(path, durable + 2) + 4);
    app.check_reads(log.value(), dir.path(), 10);

    // A flipped byte anywhere in a durable frame (header or payload).
    const std::uint64_t bad = app.pick(1, durable);
    const std::uint64_t start = frame_offset(path, bad);
    const std::uint64_t next =
        bad == durable ? frame_offset(path, durable + 1)
                       : frame_offset(path, bad + 1);
    flip_byte(path, app.pick(start, next - 1));
    for (int i = 0; i < 30; ++i) {
      const std::uint64_t from = app.pick(1, durable + 1);
      const std::size_t max = app.pick(1, 9);
      const std::uint64_t last =
          std::min<std::uint64_t>(durable, from + max - 1);
      auto tail = log.value().read_committed(from, max);
      if (from <= bad && bad <= last) {
        ASSERT_FALSE(tail.is_ok()) << "read [" << from << ", " << last
                                   << "] covers corrupt LSN " << bad;
        EXPECT_EQ(tail.code(), util::ErrorCode::kParseError);
      } else {
        ASSERT_TRUE(tail.is_ok()) << tail.status().to_string();
        EXPECT_EQ(tail.value().records.size(),
                  from > durable ? 0 : last - from + 1);
      }
    }
  }
}

}  // namespace
}  // namespace rproxy

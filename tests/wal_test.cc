// WAL tests: record codec, framing, torn-tail and corruption tolerance,
// group commit, file round trips, and recovery replay.

#include <gtest/gtest.h>

#include <cstdio>

#include "wal/recovery.h"
#include "wal/wal.h"

namespace htap {
namespace {

WalRecord MakeDml(WalRecordType type, uint64_t txn, uint32_t table, Key key) {
  WalRecord r;
  r.type = type;
  r.txn_id = txn;
  r.table_id = table;
  r.key = key;
  r.row = Row{Value(key), Value("payload"), Value(1.5)};
  return r;
}

TEST(WalRecordTest, CodecRoundTrip) {
  WalRecord r = MakeDml(WalRecordType::kUpdate, 42, 7, 123);
  r.csn = 99;
  std::string buf;
  r.EncodeTo(&buf);
  size_t pos = 0;
  WalRecord got;
  ASSERT_TRUE(WalRecord::DecodeFrom(buf, &pos, &got));
  EXPECT_EQ(got.type, WalRecordType::kUpdate);
  EXPECT_EQ(got.txn_id, 42u);
  EXPECT_EQ(got.table_id, 7u);
  EXPECT_EQ(got.key, 123);
  EXPECT_EQ(got.csn, 99u);
  EXPECT_EQ(got.row, r.row);
}

TEST(WalWriterTest, AppendAndParse) {
  WalWriter w({});
  for (int i = 0; i < 10; ++i)
    w.Append(MakeDml(WalRecordType::kInsert, 1, 2, i));
  ASSERT_TRUE(w.Sync().ok());
  const auto records = WalReader::Parse(w.ContentsForTest());
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(records[3].key, 3);
}

TEST(WalWriterTest, LsnsAreMonotonic) {
  WalWriter w({});
  uint64_t prev = 0;
  for (int i = 0; i < 5; ++i) {
    const uint64_t lsn = w.Append(MakeDml(WalRecordType::kInsert, 1, 1, i));
    if (i > 0) EXPECT_GT(lsn, prev);
    prev = lsn;
  }
  EXPECT_EQ(w.TailLsn(), prev + (w.TailLsn() - prev));
}

TEST(WalWriterTest, GroupCommitBatchesFlushes) {
  WalWriter w({});
  for (int i = 0; i < 100; ++i)
    w.Append(MakeDml(WalRecordType::kInsert, 1, 1, i));
  ASSERT_TRUE(w.Sync().ok());  // one flush for the whole group
  EXPECT_EQ(w.sync_count(), 1u);
  ASSERT_TRUE(w.Sync().ok());  // nothing buffered: no-op
  EXPECT_EQ(w.sync_count(), 1u);
}

TEST(WalReaderTest, ToleratesTornTail) {
  WalWriter w({});
  w.Append(MakeDml(WalRecordType::kInsert, 1, 1, 1));
  w.Append(MakeDml(WalRecordType::kInsert, 1, 1, 2));
  w.Sync();
  std::string contents = w.ContentsForTest();
  contents.resize(contents.size() - 5);  // torn final record
  const auto records = WalReader::Parse(contents);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, 1);
}

TEST(WalReaderTest, StopsAtChecksumCorruption) {
  WalWriter w({});
  w.Append(MakeDml(WalRecordType::kInsert, 1, 1, 1));
  w.Append(MakeDml(WalRecordType::kInsert, 1, 1, 2));
  w.Sync();
  std::string contents = w.ContentsForTest();
  contents[12] ^= 0x5a;  // flip a byte inside the first record payload
  const auto records = WalReader::Parse(contents);
  EXPECT_EQ(records.size(), 0u);
}

TEST(WalWriterTest, FileBackendRoundTrip) {
  const std::string path = "/tmp/htap_wal_test.wal";
  std::remove(path.c_str());
  {
    WalWriter::Options o;
    o.path = path;
    WalWriter w(o);
    for (int i = 0; i < 20; ++i)
      w.Append(MakeDml(WalRecordType::kInsert, 5, 3, i * 10));
    WalRecord commit;
    commit.type = WalRecordType::kCommit;
    commit.txn_id = 5;
    w.Append(commit);
    ASSERT_TRUE(w.Sync().ok());
  }
  auto res = WalReader::ReadFile(path);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 21u);
  EXPECT_EQ((*res)[20].type, WalRecordType::kCommit);
  std::remove(path.c_str());
}

// A file-backed writer keeps no resident copy of what it flushed, across
// many group commits, and the file still round-trips every record.
TEST(WalWriterTest, FileBackendKeepsNoResidentCopy) {
  const std::string path = ::testing::TempDir() + "htap_wal_resident.wal";
  std::remove(path.c_str());
  {
    WalWriter::Options o;
    o.path = path;
    WalWriter w(o);
    for (int group = 0; group < 50; ++group) {
      for (int i = 0; i < 10; ++i)
        w.Append(MakeDml(WalRecordType::kUpdate, group, 3, group * 10 + i));
      ASSERT_TRUE(w.Sync().ok());
      EXPECT_TRUE(w.ContentsForTest().empty());
    }
    w.Append(MakeDml(WalRecordType::kInsert, 99, 3, 12345));
    EXPECT_FALSE(w.ContentsForTest().empty());  // the unflushed group only
  }  // the destructor flushes the last group
  auto res = WalReader::ReadFile(path);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 501u);
  for (int k = 0; k < 500; ++k) EXPECT_EQ((*res)[k].key, k);
  EXPECT_EQ((*res)[500].key, 12345);
  std::remove(path.c_str());
}

TEST(RecoveryTest, ReplaysOnlyCommittedInCommitOrder) {
  WalWriter w({});
  // Txn 1 commits, txn 2 aborts, txn 3 never finishes, txn 4 commits after 1.
  w.Append(MakeDml(WalRecordType::kInsert, 1, 1, 100));
  w.Append(MakeDml(WalRecordType::kInsert, 2, 1, 200));
  w.Append(MakeDml(WalRecordType::kInsert, 3, 1, 300));
  WalRecord c1;
  c1.type = WalRecordType::kCommit;
  c1.txn_id = 1;
  w.Append(c1);
  WalRecord a2;
  a2.type = WalRecordType::kAbort;
  a2.txn_id = 2;
  w.Append(a2);
  w.Append(MakeDml(WalRecordType::kUpdate, 4, 1, 100));
  WalRecord c4;
  c4.type = WalRecordType::kCommit;
  c4.txn_id = 4;
  w.Append(c4);
  w.Sync();

  std::vector<std::pair<Key, CSN>> applied;
  const auto records = WalReader::Parse(w.ContentsForTest());
  const RecoveryStats stats = ReplayWal(records, [&](const WalRecord& r,
                                                     CSN csn) {
    applied.emplace_back(r.key, csn);
  });
  EXPECT_EQ(stats.txns_committed, 2u);
  EXPECT_EQ(stats.txns_discarded, 2u);
  EXPECT_EQ(stats.changes_applied, 2u);
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0].first, 100);  // txn 1 first
  EXPECT_EQ(applied[1].first, 100);  // then txn 4's update
  EXPECT_LT(applied[0].second, applied[1].second);
}

TEST(RecoveryTest, EmptyLog) {
  const RecoveryStats stats =
      ReplayWal({}, [](const WalRecord&, CSN) { FAIL(); });
  EXPECT_EQ(stats.changes_applied, 0u);
}

}  // namespace
}  // namespace htap

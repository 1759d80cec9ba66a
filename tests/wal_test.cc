// WAL tests: record codec, the in-place DML encoder, the CRC32C checksum,
// framing, torn-tail and corruption tolerance, group commit, file round
// trips, and recovery replay.

#include <gtest/gtest.h>

#include <cstdio>

#include "common/crc32c.h"
#include "common/random.h"
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

// The payload format is pinned: these are the bytes the record encoded to
// before the checksum changed to CRC32C, which framing does not touch.
TEST(WalRecordTest, PayloadBytesArePinned) {
  WalRecord r;
  r.type = WalRecordType::kUpdate;
  r.txn_id = 42;
  r.table_id = 7;
  r.key = 123;
  r.row = Row{Value(int64_t{123}), Value("payload"), Value::Null(), Value(1.5)};
  std::string buf;
  r.EncodeTo(&buf);
  std::string hex;
  for (const char c : buf) {
    char h[3];
    std::snprintf(h, sizeof(h), "%02x", static_cast<uint8_t>(c));
    hex += h;
  }
  EXPECT_EQ(hex,
            "02012a00000000000000010700000000000000017b0000000000000001000000"
            "0000000000010400000000000000017b00000000000000030700000000000000"
            "7061796c6f61640002000000000000f83f");
}

// AppendDml encodes from the caller's row into a reused per-thread buffer;
// the log it writes must be byte-identical to Append(WalRecord) for every
// DML kind, whatever the previous record left in that buffer.
TEST(WalWriterTest, AppendDmlMatchesWalRecordEncoding) {
  struct Dml {
    WalRecordType type;
    Key key;
    Row row;
  };
  const std::vector<Dml> dmls = {
      {WalRecordType::kInsert, 1,
       Row{Value(int64_t{1}), Value(std::string(300, 'w')), Value::Null()}},
      {WalRecordType::kUpdate, 1,
       Row{Value(int64_t{1}), Value("short"), Value(2.25)}},
      {WalRecordType::kDelete, 1, Row{}},
      {WalRecordType::kInsert, -5,
       Row{Value(int64_t{-5}), Value::Null(), Value("")}},
      {WalRecordType::kUpdate, -5,
       Row{Value(int64_t{-5}), Value::Null(), Value::Null()}},
  };
  WalWriter in_place({});
  WalWriter reference({});
  uint64_t txn = 9;
  for (const Dml& d : dmls) {
    WalRecord rec;
    rec.type = d.type;
    rec.txn_id = txn;
    rec.table_id = 3;
    rec.key = d.key;
    rec.row = d.row;
    EXPECT_EQ(in_place.AppendDml(d.type, txn, 3, d.key, d.row),
              reference.Append(rec));
    ++txn;
  }
  EXPECT_EQ(in_place.ContentsForTest(), reference.ContentsForTest());
  const auto records = WalReader::Parse(in_place.ContentsForTest());
  ASSERT_EQ(records.size(), dmls.size());
  for (size_t i = 0; i < dmls.size(); ++i) {
    EXPECT_EQ(records[i].type, dmls[i].type);
    EXPECT_EQ(records[i].key, dmls[i].key);
    EXPECT_EQ(records[i].row, dmls[i].row);
    EXPECT_EQ(records[i].csn, 0u);
  }
}

TEST(Crc32cTest, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(Crc32cTable(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(WalChecksum(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  // RFC 3720 (iSCSI) B.4 vectors.
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32cTable(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32cTable(ones.data(), ones.size()), 0x62A8AB43u);
}

// The SSE4.2 path (when this CPU has it) and the table path agree on every
// length and alignment, including the byte tail after the 8-byte words.
TEST(Crc32cTest, HardwareAndTablePathsAgree) {
  RecordProperty("hardware", Crc32cHardware() ? "sse4.2" : "none");
  Random rng(5);
  std::string buf(600, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (size_t offset = 0; offset < 8; ++offset)
    for (size_t len = 0; offset + len <= 300; ++len)
      ASSERT_EQ(Crc32c(buf.data() + offset, len),
                Crc32cTable(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
}

// A torn or corrupt final record of an in-place-encoded log stops the
// reader after the intact prefix, wherever the cut or the flipped byte is.
TEST(WalReaderTest, StopsAtTornOrCorruptDmlTail) {
  WalWriter w({});
  const Row row{Value(int64_t{4}), Value("tail row"), Value::Null()};
  w.AppendDml(WalRecordType::kInsert, 1, 1, 2, row);
  w.AppendDml(WalRecordType::kUpdate, 1, 1, 3, row);
  const uint64_t last = w.AppendDml(WalRecordType::kInsert, 1, 1, 4, row);
  ASSERT_TRUE(w.Sync().ok());
  const std::string full = w.ContentsForTest();
  ASSERT_EQ(WalReader::Parse(full).size(), 3u);
  for (size_t cut = last; cut < full.size(); ++cut)
    EXPECT_EQ(WalReader::Parse(full.substr(0, cut)).size(), 2u)
        << "cut at " << cut;
  // Flip a byte in the checksum field and in each payload byte.
  for (size_t at = last + 4; at < full.size(); ++at) {
    std::string corrupt = full;
    corrupt[at] ^= 0x01;
    EXPECT_EQ(WalReader::Parse(corrupt).size(), 2u) << "flip at " << at;
  }
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

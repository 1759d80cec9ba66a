// WAL tests: record codec, the in-place DML encoder, the CRC32C checksum,
// framing, torn-tail and corruption tolerance, group commit, segment files
// and their read-back, and recovery replay.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/crc32c.h"
#include "common/random.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace htap {
namespace {

/// A fresh directory for the running test's logs under the test temp dir,
/// removed with this object.
class LogDir {
 public:
  LogDir() {
    const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "htap_wal_" + test->test_suite_name() +
            "_" + test->name() + "_" + std::to_string(getpid());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~LogDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  const std::string& path() const { return path_; }

  /// Opens an empty log `stem` here.
  std::unique_ptr<WalWriter> Open(const std::string& stem = "log",
                                  bool sync_on_commit = false) const {
    auto w = WalWriter::Open(
        {.dir = path_, .stem = stem, .sync_on_commit = sync_on_commit});
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return w.ok() ? std::move(w).ValueOrDie() : nullptr;
  }

  /// The segment files of log `stem`, in order.
  std::vector<std::string> Segments(const std::string& stem = "log") const {
    auto paths = WalSegmentPaths(path_, stem);
    EXPECT_TRUE(paths.ok()) << paths.status().ToString();
    return paths.value_or({});
  }

  /// Log `stem`'s bytes as written so far: its segments concatenated.
  std::string Bytes(const std::string& stem = "log") const {
    std::string out;
    for (const std::string& seg : Segments(stem)) {
      std::ifstream in(seg, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      out += ss.str();
    }
    return out;
  }

 private:
  std::string path_;
};

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
  const LogDir dir;
  auto in_place = dir.Open("in_place");
  auto reference = dir.Open("reference");
  uint64_t txn = 9;
  for (const Dml& d : dmls) {
    WalRecord rec;
    rec.type = d.type;
    rec.txn_id = txn;
    rec.table_id = 3;
    rec.key = d.key;
    rec.row = d.row;
    EXPECT_EQ(in_place->AppendDml(d.type, txn, 3, d.key, d.row),
              reference->Append(rec));
    ++txn;
  }
  in_place.reset();  // flushes and closes
  reference.reset();
  EXPECT_EQ(dir.Bytes("in_place"), dir.Bytes("reference"));
  const auto records = WalReader::Parse(dir.Bytes("in_place"));
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
  const LogDir dir;
  auto w = dir.Open();
  const Row row{Value(int64_t{4}), Value("tail row"), Value::Null()};
  w->AppendDml(WalRecordType::kInsert, 1, 1, 2, row);
  w->AppendDml(WalRecordType::kUpdate, 1, 1, 3, row);
  const uint64_t last = w->AppendDml(WalRecordType::kInsert, 1, 1, 4, row);
  w.reset();
  const std::string full = dir.Bytes();
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
  const LogDir dir;
  auto w = dir.Open();
  for (int i = 0; i < 10; ++i)
    w->Append(MakeDml(WalRecordType::kInsert, 1, 2, i));
  ASSERT_TRUE(w->Sync().ok());
  w.reset();
  const auto records = WalReader::Parse(dir.Bytes());
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(records[3].key, 3);
}

TEST(WalWriterTest, LsnsAreMonotonic) {
  const LogDir dir;
  auto w = dir.Open();
  uint64_t prev = 0;
  WalRecord rec;
  for (int i = 0; i < 5; ++i) {
    rec = MakeDml(WalRecordType::kInsert, 1, 1, i);
    const uint64_t lsn = w->Append(rec);
    if (i > 0) {
      EXPECT_GT(lsn, prev);
    }
    prev = lsn;
  }
  std::string payload;
  rec.EncodeTo(&payload);
  EXPECT_EQ(w->TailLsn(), prev + 8 + payload.size());
}

TEST(WalWriterTest, GroupCommitBatchesFlushes) {
  const LogDir dir;
  auto w = dir.Open();
  for (int i = 0; i < 100; ++i)
    w->Append(MakeDml(WalRecordType::kInsert, 1, 1, i));
  ASSERT_TRUE(w->Sync().ok());  // one flush for the whole group
  EXPECT_EQ(w->sync_count(), 1u);
  ASSERT_TRUE(w->Sync().ok());  // nothing buffered: no-op
  EXPECT_EQ(w->sync_count(), 1u);
}

TEST(WalReaderTest, ToleratesTornTail) {
  const LogDir dir;
  auto w = dir.Open();
  w->Append(MakeDml(WalRecordType::kInsert, 1, 1, 1));
  w->Append(MakeDml(WalRecordType::kInsert, 1, 1, 2));
  w.reset();
  std::string contents = dir.Bytes();
  contents.resize(contents.size() - 5);  // torn final record
  const auto records = WalReader::Parse(contents);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, 1);
}

TEST(WalReaderTest, StopsAtChecksumCorruption) {
  const LogDir dir;
  auto w = dir.Open();
  w->Append(MakeDml(WalRecordType::kInsert, 1, 1, 1));
  w->Append(MakeDml(WalRecordType::kInsert, 1, 1, 2));
  w.reset();
  std::string contents = dir.Bytes();
  contents[12] ^= 0x5a;  // flip a byte inside the first record payload
  const auto records = WalReader::Parse(contents);
  EXPECT_EQ(records.size(), 0u);
}

TEST(WalWriterTest, ReadLogRoundTrip) {
  const LogDir dir;
  {
    auto w = dir.Open();
    for (int i = 0; i < 20; ++i)
      w->Append(MakeDml(WalRecordType::kInsert, 5, 3, i * 10));
    WalRecord commit;
    commit.type = WalRecordType::kCommit;
    commit.txn_id = 5;
    w->Append(commit);
    ASSERT_TRUE(w->Sync().ok());
  }
  auto res = WalReader::ReadLog(dir.path(), "log");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 21u);
  EXPECT_EQ((*res)[20].type, WalRecordType::kCommit);
}

// Each Sync writes its group to the segment (with sync_on_commit, through
// to the OS), so the writer holds no copy of what it flushed; the segment
// round-trips every record across many group commits.
TEST(WalWriterTest, SyncedGroupsReachTheSegment) {
  const LogDir dir;
  {
    auto w = dir.Open("log", /*sync_on_commit=*/true);
    for (int group = 0; group < 50; ++group) {
      for (int i = 0; i < 10; ++i)
        w->Append(MakeDml(WalRecordType::kUpdate, group, 3, group * 10 + i));
      ASSERT_TRUE(w->Sync().ok());
      EXPECT_EQ(dir.Bytes().size(), w->TailLsn());
    }
    w->Append(MakeDml(WalRecordType::kInsert, 99, 3, 12345));
    EXPECT_LT(dir.Bytes().size(), w->TailLsn());  // the unflushed group
  }  // the destructor flushes the last group
  auto res = WalReader::ReadLog(dir.path(), "log");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 501u);
  for (int k = 0; k < 500; ++k) EXPECT_EQ((*res)[k].key, k);
  EXPECT_EQ((*res)[500].key, 12345);
}

/// Writes `groups` groups of `per_group` DML records, each carrying a
/// `row_bytes` string, keyed 0, 1, 2, ... in log order. Returns the bytes
/// one group takes.
uint64_t WriteGroups(WalWriter* w, int groups, int per_group,
                     size_t row_bytes) {
  const uint64_t start = w->TailLsn();
  Key key = 0;
  for (int g = 0; g < groups; ++g) {
    const Value body(std::string(row_bytes, static_cast<char>('a' + g % 26)));
    for (int i = 0; i < per_group; ++i, ++key)
      w->AppendDml(WalRecordType::kInsert, static_cast<uint64_t>(g), 1, key,
                   Row{Value(key), body});
    EXPECT_TRUE(w->Sync().ok());
  }
  return (w->TailLsn() - start) / static_cast<uint64_t>(groups);
}

// A log of several segments: each stays within kWalSegmentBytes and is
// rolled only when the next group would not fit, and reading the segments
// in order gives back every record, in order.
TEST(WalWriterTest, ManySegmentsReadBackRecordForRecord) {
  const LogDir dir;
  constexpr int kGroups = 70;
  constexpr int kPerGroup = 16;
  constexpr size_t kRowBytes = 64 << 10;
  auto w = dir.Open();
  const uint64_t group_bytes = WriteGroups(w.get(), kGroups, kPerGroup,
                                           kRowBytes);
  w.reset();
  const std::vector<std::string> segments = dir.Segments();
  ASSERT_GT(segments.size(), 3u);
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i], WalSegmentPath(dir.path(), "log", i));
    const uint64_t size = std::filesystem::file_size(segments[i]);
    EXPECT_LE(size, kWalSegmentBytes) << segments[i];
    EXPECT_EQ(size % group_bytes, 0u) << "a group straddles " << segments[i];
    if (i + 1 < segments.size()) {
      EXPECT_GT(size + group_bytes, kWalSegmentBytes) << "rolled early";
    }
  }
  auto res = WalReader::ReadLog(dir.path(), "log");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->size(), static_cast<size_t>(kGroups * kPerGroup));
  for (size_t k = 0; k < res->size(); ++k) {
    const WalRecord& r = (*res)[k];
    ASSERT_EQ(r.key, static_cast<Key>(k));
    ASSERT_EQ(r.txn_id, k / kPerGroup);
    ASSERT_EQ(r.row.Get(1).AsString().size(), kRowBytes);
  }
}

// A group larger than a segment goes whole into a segment of its own; the
// next group starts the next segment.
TEST(WalWriterTest, OversizedGroupTakesASegmentOfItsOwn) {
  const LogDir dir;
  auto w = dir.Open();
  WriteGroups(w.get(), 1, 1, 4 << 10);
  WriteGroups(w.get(), 1, 17, 1 << 20);  // ~17 MiB in one group
  WriteGroups(w.get(), 1, 1, 4 << 10);
  w.reset();
  const std::vector<std::string> segments = dir.Segments();
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_GT(std::filesystem::file_size(segments[1]), kWalSegmentBytes);
  auto res = WalReader::ReadLog(dir.path(), "log");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), 19u);
}

// A torn last segment (a crash mid-write) keeps every record before the
// torn one, including all of the earlier segments'.
TEST(WalReaderTest, TornLastSegmentKeepsThePrefix) {
  const LogDir dir;
  constexpr int kPerGroup = 16;
  auto w = dir.Open();
  const uint64_t group_bytes = WriteGroups(w.get(), 20, kPerGroup, 64 << 10);
  w.reset();
  const std::vector<std::string> segments = dir.Segments();
  ASSERT_EQ(segments.size(), 2u);
  const uint64_t first = std::filesystem::file_size(segments[0]);
  const uint64_t last = std::filesystem::file_size(segments[1]);
  ASSERT_EQ(last % group_bytes, 0u);
  const uint64_t record_bytes = group_bytes / kPerGroup;
  // Cut the last record of the last segment in half.
  std::filesystem::resize_file(segments[1], last - record_bytes / 2);
  auto res = WalReader::ReadLog(dir.path(), "log");
  ASSERT_TRUE(res.ok());
  const size_t intact = (first + last) / record_bytes - 1;
  ASSERT_EQ(res->size(), intact);
  for (size_t k = 0; k < intact; ++k)
    ASSERT_EQ((*res)[k].key, static_cast<Key>(k));
}

// Opening a stem removes its old segments, whatever their numbers, and
// leaves other stems' logs alone.
TEST(WalWriterTest, ReopeningAStemStartsAnEmptyLog) {
  const LogDir dir;
  {
    auto w = dir.Open();
    auto other = dir.Open("other");
    WriteGroups(w.get(), 3, 4, 100);
    WriteGroups(other.get(), 1, 2, 100);
  }
  std::ofstream(WalSegmentPath(dir.path(), "log", 7)) << "stale";
  ASSERT_EQ(dir.Segments().size(), 2u);
  auto w = dir.Open();
  EXPECT_EQ(dir.Segments(),
            std::vector<std::string>{WalSegmentPath(dir.path(), "log", 0)});
  auto res = WalReader::ReadLog(dir.path(), "log");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->empty());
  auto kept = WalReader::ReadLog(dir.path(), "other");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->size(), 2u);
}

// A log cannot be opened in a directory that does not exist or in a
// regular file, and a stem with no segments has no log to read.
TEST(WalWriterTest, OpenFailsWithoutADirectory) {
  const LogDir dir;
  const std::string missing = dir.path() + "/missing";
  const std::string file = dir.path() + "/file";
  std::ofstream(file) << "not a directory";
  for (const std::string& bad : {missing, file}) {
    auto w = WalWriter::Open({.dir = bad, .stem = "log"});
    ASSERT_FALSE(w.ok()) << bad;
    EXPECT_TRUE(w.status().IsIOError()) << w.status().ToString();
  }
  auto res = WalReader::ReadLog(dir.path(), "log");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsIOError());
}

TEST(RecoveryTest, ReplaysOnlyCommittedInCommitOrder) {
  const LogDir dir;
  auto writer = dir.Open("log", /*sync_on_commit=*/true);
  WalWriter& w = *writer;
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
  auto read = WalReader::ReadLog(dir.path(), "log");
  ASSERT_TRUE(read.ok());
  const std::vector<WalRecord>& records = *read;
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

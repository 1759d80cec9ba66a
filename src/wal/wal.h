// Write-ahead log: record format, writer (with group commit), and reader.
//
// The WAL is the durability substrate for the MVCC+logging technique family
// (Table 2, TP row) and the source for log-shipped replication. Records are
// framed [u32 length][u32 checksum][payload]; payload uses the Value codec.
//
// The writer supports two backends: a real file (used by the disk
// architectures and recovery tests) and an in-memory buffer (used by the
// simulator and by benchmarks that isolate CPU cost from I/O). Nothing here
// calls fsync: with sync_on_commit a group reaches the OS page cache at
// commit, not the disk.
//
// The checksum is CRC32C over the payload. The log carries no format
// version, so a log is read back only by a build with the same checksum.

#ifndef HTAP_WAL_WAL_H_
#define HTAP_WAL_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "txn/types.h"

namespace htap {

/// Kinds of WAL records.
enum class WalRecordType : uint8_t {
  kBegin = 0,
  kInsert = 1,
  kUpdate = 2,
  kDelete = 3,
  kCommit = 4,
  kAbort = 5,
  kCheckpoint = 6,
};

/// One log record. DML records carry the table, key, and new row image
/// (redo-only logging; undo lives in memory).
struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  uint64_t txn_id = 0;
  uint32_t table_id = 0;
  Key key = 0;
  Row row;       // insert/update payload
  CSN csn = 0;   // commit record: the commit CSN

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(const std::string& in, size_t* pos, WalRecord* out);
};

/// Append-only log writer. Thread-safe. Flush policy: DML appends buffer in
/// memory; Sync() (called at commit) flushes the group to the backend, so
/// concurrent committers share one flush (group commit).
class WalWriter {
 public:
  struct Options {
    std::string path;        // empty = in-memory only
    // fflush each group to the OS at Sync (off: stdio buffering). Not an
    // fsync: a crash of the host can still lose flushed groups.
    bool sync_on_commit = false;
  };

  explicit WalWriter(Options options);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends a record to the in-memory group buffer. Returns the LSN (byte
  /// offset the record will land at).
  uint64_t Append(const WalRecord& rec);

  /// Appends an insert, update or delete record for `row` without building
  /// a WalRecord: the payload is encoded from the caller's row into a
  /// buffer the calling thread reuses, and only the framed bytes are copied
  /// under the writer's mutex. Same bytes and LSN as Append.
  uint64_t AppendDml(WalRecordType type, uint64_t txn_id, uint32_t table_id,
                     Key key, const Row& row);

  /// Flushes all buffered records to the backend (group commit point).
  Status Sync();

  /// Bytes appended so far (buffered + flushed).
  uint64_t TailLsn() const;
  /// Number of Sync() calls that performed real work (diagnostic).
  uint64_t sync_count() const {
    MutexLock lk(&mu_);
    return sync_count_;
  }

  /// Copy of the log contents: the whole log for the in-memory backend;
  /// only the unflushed group for a file backend, whose log is read back
  /// with WalReader::ReadFile.
  std::string ContentsForTest() const;

 private:
  /// Frames `payload` as [len][crc32c][payload] onto the group buffer.
  uint64_t AppendPayload(const std::string& payload);

  const Options options_;
  mutable Mutex mu_{LockRank::kWal, "wal-writer"};
  std::string buffer_ GUARDED_BY(mu_);      // unflushed group
  // The in-memory backend: flushed groups of a writer with no open file.
  // A file-backed writer keeps no resident copy of what it wrote.
  std::string memory_log_ GUARDED_BY(mu_);
  uint64_t tail_lsn_ GUARDED_BY(mu_) = 0;
  uint64_t flushed_lsn_ GUARDED_BY(mu_) = 0;
  uint64_t sync_count_ GUARDED_BY(mu_) = 0;
  FILE* file_ GUARDED_BY(mu_) = nullptr;
};

/// Reads a WAL file (or in-memory image) back into records. Tolerates a
/// truncated tail (torn final record), as crash recovery requires.
class WalReader {
 public:
  /// Parses `contents`; stops cleanly at corruption/truncation.
  static std::vector<WalRecord> Parse(const std::string& contents);

  /// Reads and parses a WAL file from disk.
  static Result<std::vector<WalRecord>> ReadFile(const std::string& path);
};

/// 32-bit checksum used to frame WAL records: CRC32C (common/crc32c.h).
uint32_t WalChecksum(const char* data, size_t n);

}  // namespace htap

#endif  // HTAP_WAL_WAL_H_

// Write-ahead log: record format, writer (with group commit), and reader.
//
// The WAL is the durability substrate for the MVCC+logging technique family
// (Table 2, TP row) and the source for log-shipped replication. Records are
// framed [u32 length][u32 checksum][payload]; payload uses the Value codec.
//
// A log is a directory of segment files, <dir>/<stem>.<seq>.wal, numbered
// from 0. The writer starts the next segment at a group-commit boundary,
// before a group would take the current, non-empty segment past
// kWalSegmentBytes. A record never straddles two files, so the segments
// read in order are the log's byte stream, and a checkpoint can drop a
// prefix of the log by deleting whole segments. Only a group larger than a
// segment makes a file larger than one. Nothing here calls fsync: with
// sync_on_commit a group reaches the OS page cache at commit, not the
// disk.
//
// The checksum is CRC32C over the payload. The log carries no format
// version, so a log is read back only by a build with the same checksum.

#ifndef HTAP_WAL_WAL_H_
#define HTAP_WAL_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
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

/// Size the writer keeps a segment under (PostgreSQL's default).
inline constexpr uint64_t kWalSegmentBytes = uint64_t{16} << 20;

/// Path of segment `seq` of the log `stem` in `dir`.
std::string WalSegmentPath(const std::string& dir, const std::string& stem,
                           uint64_t seq);

/// Paths of the log `stem`'s segments in `dir`, in sequence order.
Result<std::vector<std::string>> WalSegmentPaths(const std::string& dir,
                                                 const std::string& stem);

/// Append-only log writer. Thread-safe. Flush policy: DML appends buffer in
/// memory; Sync() (called at commit) writes the group to the current
/// segment, so concurrent committers share one write (group commit).
class WalWriter {
 public:
  struct Options {
    std::string dir;   // directory holding the segments
    std::string stem;  // segment files are <dir>/<stem>.<seq>.wal
    // fflush each group to the OS at Sync (off: stdio buffering). Not an
    // fsync: a crash of the host can still lose flushed groups.
    bool sync_on_commit = false;
  };

  /// Opens an empty log: removes the stem's old segments and creates
  /// segment 0. IOError if `dir` cannot hold it.
  static Result<std::unique_ptr<WalWriter>> Open(Options options);
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

  /// Writes all buffered records to the log (group commit point), first
  /// starting the next segment if the group would overfill this one.
  Status Sync();

  /// Bytes appended so far (buffered + flushed).
  uint64_t TailLsn() const;
  /// Number of Sync() calls that performed real work (diagnostic).
  uint64_t sync_count() const {
    MutexLock lk(&mu_);
    return sync_count_;
  }

 private:
  WalWriter(Options options, FILE* segment);

  /// Frames `payload` as [len][crc32c][payload] onto the group buffer.
  uint64_t AppendPayload(const std::string& payload);
  /// Closes the current segment and creates the next one.
  Status RollSegment() REQUIRES(mu_);

  const Options options_;
  mutable Mutex mu_{LockRank::kWal, "wal-writer"};
  std::string buffer_ GUARDED_BY(mu_);  // unflushed group
  uint64_t tail_lsn_ GUARDED_BY(mu_) = 0;
  uint64_t sync_count_ GUARDED_BY(mu_) = 0;
  uint64_t segment_seq_ GUARDED_BY(mu_) = 0;
  uint64_t segment_bytes_ GUARDED_BY(mu_) = 0;  // written to file_
  FILE* file_ GUARDED_BY(mu_);                   // the current segment
};

/// Reads a log back into records. Tolerates a truncated tail (torn final
/// record), as crash recovery requires.
class WalReader {
 public:
  /// Parses `contents`; stops cleanly at corruption/truncation.
  static std::vector<WalRecord> Parse(const std::string& contents);

  /// Reads the log `stem`'s segments in `dir`, in order, and parses their
  /// concatenation. IOError if the log has no segment.
  static Result<std::vector<WalRecord>> ReadLog(const std::string& dir,
                                                const std::string& stem);
};

/// 32-bit checksum used to frame WAL records: CRC32C (common/crc32c.h).
uint32_t WalChecksum(const char* data, size_t n);

}  // namespace htap

#endif  // HTAP_WAL_WAL_H_

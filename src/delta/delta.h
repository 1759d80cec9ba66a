// Delta stores: the write-side staging areas that give HTAP architectures
// their freshness/efficiency trade-offs (Table 2, AP + DS rows).
//
// Three designs from the survey, behind one DeltaStore interface:
//  * InMemoryDeltaStore — row-wise in-memory delta (Oracle SMU, SQL Server
//    delta rowgroups, DB2 BLU shadow tables).
//  * L1L2DeltaStore     — SAP HANA's two-stage delta: L1 keeps raw rows,
//    spilling into a dictionary-encoded columnar L2, which merges into Main.
//  * LogDeltaStore      — TiDB/TiFlash-style: changes accumulate in encoded
//    "delta files" indexed by a B+-tree; reads must decode the files.

#ifndef HTAP_DELTA_DELTA_H_
#define HTAP_DELTA_DELTA_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "columnar/column_vector.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/btree.h"
#include "txn/types.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// One committed change staged in a delta store.
struct DeltaEntry {
  ChangeOp op = ChangeOp::kInsert;
  Key key = 0;
  Row row;  // empty for deletes
  CSN csn = 0;
};

/// Uniform read interface the HTAP scan path uses to union a delta with the
/// main column store.
class DeltaReader {
 public:
  virtual ~DeltaReader() = default;

  /// Visits entries with csn <= snapshot in commit order.
  virtual void ScanVisible(
      CSN snapshot, const std::function<void(const DeltaEntry&)>& visit)
      const = 0;

  /// Number of staged entries (all CSNs).
  virtual size_t EntryCount() const = 0;

  /// Approximate heap footprint.
  virtual size_t MemoryBytes() const = 0;
};

/// A delta store: commit fan-out appends one table's changes, the merge
/// pipeline drains them, and scans read them through DeltaReader.
class DeltaStore : public DeltaReader {
 public:
  /// Stages one commit's changes to this store's table, in commit order.
  /// The rows are moved out of `events`.
  virtual void AppendBatch(std::span<ChangeEvent> events) = 0;

  /// Removes and returns all entries with csn <= csn, in commit order (the
  /// merge pipeline consumes these).
  virtual std::vector<DeltaEntry> DrainUpTo(CSN csn) = 0;
};

/// Calls `fn(table_id, run)` once per table that one commit's `events`
/// touch, where `run` holds that table's events in commit order. Reorders
/// `events` in place and copies no row; a single-table batch is one run
/// with no reordering.
template <typename Fn>
void ForEachTableRun(std::vector<ChangeEvent>& events, Fn&& fn) {
  auto first = events.begin();
  while (first != events.end()) {
    const uint32_t tid = first->table_id;
    const auto last = std::stable_partition(
        first, events.end(),
        [tid](const ChangeEvent& ev) { return ev.table_id == tid; });
    fn(tid, std::span<ChangeEvent>(first, last));
    first = last;
  }
}

// ---------------------------------------------------------------------------
// In-memory row-wise delta
// ---------------------------------------------------------------------------

class InMemoryDeltaStore : public DeltaStore {
 public:
  void Append(const DeltaEntry& e);
  void AppendBatch(std::span<ChangeEvent> events) override;

  void ScanVisible(CSN snapshot,
                   const std::function<void(const DeltaEntry&)>& visit)
      const override;
  size_t EntryCount() const override;
  size_t MemoryBytes() const override;

  std::vector<DeltaEntry> DrainUpTo(CSN csn) override;

  /// CSN of the newest staged entry (0 if empty).
  CSN max_csn() const;

 private:
  mutable Mutex mu_{LockRank::kDeltaStore, "delta-inmemory"};
  std::deque<DeltaEntry> entries_ GUARDED_BY(mu_);
  size_t mem_bytes_ GUARDED_BY(mu_) = 0;
};

// ---------------------------------------------------------------------------
// SAP HANA-style L1 (rows) -> L2 (columnar) delta
// ---------------------------------------------------------------------------

class L1L2DeltaStore : public DeltaStore {
 public:
  /// `l1_spill_threshold`: entries held row-wise before converting to L2.
  L1L2DeltaStore(Schema schema, size_t l1_spill_threshold = 4096);

  void Append(const DeltaEntry& e);
  void AppendBatch(std::span<ChangeEvent> events) override;

  void ScanVisible(CSN snapshot,
                   const std::function<void(const DeltaEntry&)>& visit)
      const override;
  size_t EntryCount() const override;
  size_t MemoryBytes() const override;

  /// Force L1 -> L2 conversion regardless of threshold.
  void SpillL1();

  /// L2 chunks drain first, then the remaining L1, for the merge into Main.
  std::vector<DeltaEntry> DrainUpTo(CSN csn) override;

  size_t l1_size() const;
  size_t l2_size() const;

 private:
  /// One dictionary-encoded columnar chunk of spilled entries.
  struct L2Chunk {
    std::vector<ChangeOp> ops;
    std::vector<Key> keys;
    std::vector<CSN> csns;
    std::vector<ColumnVector> columns;  // one per schema column; row i valid
                                        // only when ops[i] != kDelete
    size_t num_rows = 0;
    CSN max_csn = 0;
    size_t MemoryBytes() const;
  };

  void SpillL1Locked() REQUIRES(mu_);
  DeltaEntry L2Entry(const L2Chunk& c, size_t i) const;

  const Schema schema_;
  const size_t l1_spill_threshold_;
  mutable Mutex mu_{LockRank::kDeltaStore, "delta-l1l2"};
  std::deque<DeltaEntry> l1_ GUARDED_BY(mu_);
  std::deque<L2Chunk> l2_ GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// TiDB-style log-based (disk) delta files
// ---------------------------------------------------------------------------

class LogDeltaStore : public DeltaStore {
 public:
  LogDeltaStore() = default;

  /// Seals a batch of changes into one encoded delta file.
  void AppendFile(const std::vector<DeltaEntry>& entries);
  /// Seals one commit's changes into one file.
  void AppendBatch(std::span<ChangeEvent> events) override;

  void ScanVisible(CSN snapshot,
                   const std::function<void(const DeltaEntry&)>& visit)
      const override;
  size_t EntryCount() const override;
  size_t MemoryBytes() const override;

  /// Point lookup of the newest entry for a key (uses the B+-tree index —
  /// the survey's "delta items efficiently located with key lookups").
  bool LookupLatest(Key key, DeltaEntry* out) const;

  /// Removes only whole files, those whose max csn <= csn.
  std::vector<DeltaEntry> DrainUpTo(CSN csn) override;

  size_t num_files() const;
  /// Cumulative bytes decoded by reads — the "expensive delta read" cost the
  /// survey attributes to this design.
  uint64_t bytes_decoded() const { return bytes_decoded_; }

 private:
  struct DeltaFile {
    std::string blob;  // encoded entries
    size_t count = 0;
    CSN min_csn = 0, max_csn = 0;
  };

  static void EncodeEntry(const DeltaEntry& e, std::string* out);
  static bool DecodeEntry(const std::string& in, size_t* pos, DeltaEntry* out);

  mutable Mutex mu_{LockRank::kDeltaStore, "delta-log"};
  std::deque<DeltaFile> files_ GUARDED_BY(mu_);
  // key -> (file_seq << 32 | entry_idx), newest wins. The B+-tree has its
  // own internal latch (rank kBtree, acquired under mu_).
  BTree key_index_;
  uint64_t file_seq_base_ GUARDED_BY(mu_) = 0;  // seq of files_.front()
  mutable std::atomic<uint64_t> bytes_decoded_{0};
};

}  // namespace htap

#endif  // HTAP_DELTA_DELTA_H_

// ColumnTable: the main column store. An append-only sequence of immutable
// row groups (IMCUs), each holding one Segment per column, a delete bitmap,
// and the primary keys decoded for fast delta-override checks. Updates are
// delete-old-position + append-new-row, applied by the sync pipeline.
//
// `merged_csn` is the freshness cursor: every committed change with
// CSN <= merged_csn is reflected here; newer changes still live in a delta
// store and must be unioned in by the scan (the in-memory delta and column
// scan technique, Table 2 AP row).

#ifndef HTAP_COLUMNAR_COLUMN_TABLE_H_
#define HTAP_COLUMNAR_COLUMN_TABLE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "columnar/segment.h"
#include "common/bitmap.h"
#include "common/latch.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "txn/types.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// One immutable horizontal slice of the table.
struct RowGroup {
  std::vector<Segment> columns;  // one per schema column
  std::vector<Key> keys;         // decoded PK per row (hot path)
  Bitmap deleted;                // positional delete bitmap
  size_t num_rows = 0;

  size_t MemoryBytes() const {
    size_t b = sizeof(*this) + keys.capacity() * sizeof(Key) +
               deleted.MemoryBytes();
    for (const auto& s : columns) b += s.MemoryBytes();
    return b;
  }
};

class ColumnTable {
 public:
  explicit ColumnTable(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  // ---- Sync-pipeline write API (single writer; scans may run concurrently)

  /// Appends a batch of rows as one new row group, in the given order. Rows
  /// whose key already exists are treated as updates: the old position is
  /// delete-marked first. Takes the rows by value: callers done with them
  /// move them in.
  void AppendBatch(std::vector<Row> rows, CSN up_to_csn);
  /// AppendBatch for a caller that already holds latch() exclusive, so a
  /// delta drain and its apply form one step no scan can see between.
  void AppendBatchLocked(std::vector<Row> rows, CSN up_to_csn)
      REQUIRES(latch_);

  /// Positionally delete-marks the row with this key. Returns false if the
  /// key is not present.
  bool DeleteKey(Key key, CSN csn);
  /// DeleteKey for a caller that already holds latch() exclusive.
  bool DeleteKeyLocked(Key key, CSN csn) REQUIRES(latch_);

  /// Compacts groups: drops deleted rows and rebuilds segments. Returns
  /// bytes reclaimed (approximate).
  size_t Compact();

  // ---- Read API -----------------------------------------------------------

  size_t num_groups() const;
  /// Stable pointer to group i (groups are never removed, only compacted in
  /// place under the write latch; readers take the shared latch).
  const RowGroup* group(size_t i) const;

  /// Unlatched variants: caller must hold latch() shared for the duration
  /// of use (the scan path holds it across the whole pass).
  size_t num_groups_unlocked() const REQUIRES_SHARED(latch_) {
    return groups_.size();
  }
  const RowGroup* group_unlocked(size_t i) const REQUIRES_SHARED(latch_) {
    return groups_[i].get();
  }

  /// Reconstructs a full row from group/offset (for hybrid plans).
  Row MaterializeRow(const RowGroup& g, size_t offset) const;

  /// Looks up a key's position. Returns false if absent or deleted.
  bool FindKey(Key key, size_t* group_idx, size_t* offset) const;

  /// Rows not delete-marked.
  size_t live_rows() const;
  /// Row groups plus the key index: its bucket array and one heap node per
  /// key (KeyIndexBytes).
  size_t MemoryBytes() const;

  /// Per-encoding segment counts and bytes across all row groups — the
  /// "where did the memory go" view Database stats surface.
  EncodingBreakdown EncodingStats() const;

  /// Freshness cursor: all committed changes at or below this CSN are
  /// reflected in this column store.
  CSN merged_csn() const { return merged_csn_; }
  void set_merged_csn(CSN csn) { merged_csn_ = csn; }

  /// The scan latch: scans hold shared, the sync pipeline holds exclusive.
  RWLatch& latch() const RETURN_CAPABILITY(latch_) { return latch_; }

 private:
  /// Appends `rows` as one new row group (no-op when empty).
  void AppendGroupLocked(std::vector<Row> rows) REQUIRES(latch_);

  // key -> (group, offset) of its live row.
  using KeyIndex = std::unordered_map<Key, std::pair<uint32_t, uint32_t>>;
  /// Heap bytes of a key index holding `entries` keys over `buckets`
  /// buckets: one pointer per bucket, and per key a node with a next
  /// pointer and the (key, position) pair, rounded up to its malloc chunk.
  static size_t KeyIndexBytes(size_t entries, size_t buckets);

  const Schema schema_;
  std::vector<std::unique_ptr<RowGroup>> groups_ GUARDED_BY(latch_);
  KeyIndex key_index_ GUARDED_BY(latch_);
  std::atomic<CSN> merged_csn_{0};
  mutable RWLatch latch_{LockRank::kTableLatch, "column-table"};
};

}  // namespace htap

#endif  // HTAP_COLUMNAR_COLUMN_TABLE_H_

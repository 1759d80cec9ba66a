// In-memory MVCC row store (Hekaton-style) — the primary store for
// architecture (a), the per-shard store for architecture (b), and the delta
// row store for architecture (d).
//
// Each key owns a version chain (newest first). Version begin/end fields
// hold a CSN or, while the writing transaction is in flight, its txn id
// (see txn/types.h). Conflict rule: first-updater-wins — touching a version
// whose end is already claimed aborts the later writer.

#ifndef HTAP_STORAGE_MVCC_ROW_STORE_H_
#define HTAP_STORAGE_MVCC_ROW_STORE_H_

#include <atomic>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/latch.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "index/btree.h"
#include "txn/transaction.h"
#include "txn/types.h"
#include "types/row.h"
#include "types/schema.h"
#include "wal/wal.h"

namespace htap {

class TransactionManager;

/// One version of a row, packed into a single allocation (DESIGN.md §21):
/// this 24-byte header, a 4-byte cell count, one tag byte per cell padded
/// to 8, then one 8-byte payload per cell (Value's packed-cell form; a
/// string cell's payload is its owned std::string*). begin/end encode
/// lifetime per txn/types.h. Only MvccRowStore creates and frees versions;
/// readers decode them into a Row.
struct RowVersion {
  std::atomic<uint64_t> begin{0};
  std::atomic<uint64_t> end{kMaxCSN};
  RowVersion* older = nullptr;

  /// Bytes of the block that holds a version of `cells` cells.
  static constexpr size_t BlockBytes(size_t cells) {
    return PayloadOffset(cells) + cells * sizeof(uint64_t);
  }

  /// Decodes the cells into *out. A row that already has num_cells() cells
  /// is assigned in place, reusing its string buffers.
  void DecodeTo(Row* out) const;

 private:
  friend class MvccRowStore;

  static constexpr size_t kCountOffset = 24;  // == sizeof(RowVersion)
  static constexpr size_t kTagOffset = kCountOffset + sizeof(uint32_t);
  static constexpr size_t PayloadOffset(size_t cells) {
    return (kTagOffset + cells + 7) & ~size_t{7};
  }

  size_t num_cells() const {
    uint32_t n;
    std::memcpy(&n, bytes() + kCountOffset, sizeof(n));
    return n;
  }

  /// Allocates a version holding a copy of `row`'s cells.
  static RowVersion* Make(const Row& row);
  /// Frees the strings `v` owns, then its block.
  static void Free(RowVersion* v);
  /// Replaces the cells with a copy of `row`'s (same arity), freeing the
  /// old strings first.
  void Overwrite(const Row& row);
  /// The block plus every string cell's Value::StringHeapBytes.
  size_t HeapBytes() const;

  RowVersion() = default;
  ~RowVersion() = default;

  const char* bytes() const { return reinterpret_cast<const char*>(this); }
  char* bytes() { return reinterpret_cast<char*>(this); }
  const uint8_t* tags() const {
    return reinterpret_cast<const uint8_t*>(bytes() + kTagOffset);
  }
  uint8_t* tags() { return reinterpret_cast<uint8_t*>(bytes() + kTagOffset); }
  const uint64_t* payloads() const {
    return reinterpret_cast<const uint64_t*>(bytes() +
                                             PayloadOffset(num_cells()));
  }
  uint64_t* payloads() {
    return reinterpret_cast<uint64_t*>(bytes() + PayloadOffset(num_cells()));
  }
};
static_assert(sizeof(RowVersion) == 24, "the cell count follows the header");

/// Per-key chain of versions, newest first. Stored in place in its
/// stripe's deque, which never moves an element.
struct VersionChain {
  explicit VersionChain(Key k) : key(k) {}
  const Key key;  // chain identity, fixed at creation
  RowVersion* latest GUARDED_BY(latch) = nullptr;
  SpinLatch latch{LockRank::kVersionChain, "version-chain"};
};

/// A single-table MVCC row store with a B+-tree primary-key index.
class MvccRowStore {
 public:
  /// `wal` may be null (e.g. replica apply path logs elsewhere).
  MvccRowStore(uint32_t table_id, Schema schema, TransactionManager* txn_mgr,
               WalWriter* wal);
  ~MvccRowStore();

  MvccRowStore(const MvccRowStore&) = delete;
  MvccRowStore& operator=(const MvccRowStore&) = delete;

  const Schema& schema() const { return schema_; }
  uint32_t table_id() const { return table_id_; }

  // ---- Transactional DML ----------------------------------------------

  /// Inserts a new row. Fails with AlreadyExists if a visible version
  /// exists, Conflict on a concurrent uncommitted writer.
  Status Insert(Transaction* txn, const Row& row);

  /// Replaces the row at `row`'s key. NotFound if no visible version.
  Status Update(Transaction* txn, const Row& row);

  /// Deletes the row with the given key.
  Status Delete(Transaction* txn, Key key);

  // ---- Reads ------------------------------------------------------------

  /// Point read at a snapshot. Decodes the visible version into *out.
  Status Get(const Snapshot& snap, Key key, Row* out) const;

  /// Full scan at a snapshot, in key order. Return false to stop. Each
  /// visible version is decoded into one scratch row per scan, so the Row
  /// reference `visit` gets is valid only during that call: copy what you
  /// keep. `visit` runs with no chain latch held.
  void Scan(const Snapshot& snap,
            const std::function<bool(Key, const Row&)>& visit) const;

  /// Key-range scan [lo, hi] at a snapshot; `visit` as for Scan.
  void ScanRange(const Snapshot& snap, Key lo, Key hi,
                 const std::function<bool(Key, const Row&)>& visit) const;

  /// Splits the indexed key space into up to `n` contiguous [lo, hi] ranges
  /// of roughly equal key counts, covering the whole key domain (parallel
  /// scans partition work with these; keys inserted after the split still
  /// fall in some range). Returns a single full-domain range when the store
  /// is too small to be worth partitioning.
  std::vector<std::pair<Key, Key>> SplitKeyRanges(size_t n) const;

  // ---- Non-transactional apply (recovery, replica catch-up) -------------

  /// Applies an already-committed change at the given CSN, bypassing
  /// concurrency control.
  void ApplyCommitted(ChangeOp op, Key key, const Row& row, CSN csn);

  // ---- Maintenance -------------------------------------------------------

  /// Frees `chain`'s versions that no snapshot at or after `watermark` can
  /// see: the first non-latest version whose end CSN is <= `watermark`, and
  /// everything older. They are unlinked under the chain latch and freed
  /// after it is released. Returns the number of versions reclaimed.
  /// TransactionManager calls this on the chains each commit retires.
  size_t PruneChain(VersionChain* chain, CSN watermark);

  /// PruneChain over every chain of the store. Returns number of versions
  /// reclaimed.
  size_t Vacuum(CSN watermark);

  /// Number of live (latest, non-deleted) rows — approximate under
  /// concurrency, exact when quiesced.
  size_t ApproxRowCount() const {
    return live_rows_.load(std::memory_order_relaxed);
  }
  size_t VersionCount() const {
    return versions_.load(std::memory_order_relaxed);
  }
  /// What the store has allocated for rows: each version's block
  /// (RowVersion::BlockBytes) plus its strings' Value::StringHeapBytes, and
  /// sizeof(VersionChain) per key. The B+-tree is not counted.
  size_t MemoryBytes() const {
    return mem_bytes_.load(std::memory_order_relaxed);
  }

  // ---- TransactionManager internal hooks ---------------------------------
  // Not part of the public API; called during commit/abort processing.

  /// Settles live-row accounting for a committed undo entry.
  void AccountCommittedEntry(const UndoEntry& u);
  /// Physically rolls back one undo entry (latches the chain).
  void RollbackEntry(const UndoEntry& u);

 private:
  VersionChain* GetOrCreateChain(Key key);
  VersionChain* FindChain(Key key) const;

  /// Is `v` visible to `snap`? Resolves in-flight txn ids through the
  /// transaction manager.
  bool Visible(const RowVersion* v, const Snapshot& snap) const;

  void LogDml(Transaction* txn, WalRecordType type, Key key, const Row& row);

  /// Allocates a version holding `row` and counts it.
  RowVersion* NewVersion(const Row& row);
  /// Uncounts and frees a version: the one path every free takes.
  void Destroy(RowVersion* v);

  /// Subtracts a freed footprint from mem_bytes_, saturating at 0.
  void ReleaseBytes(size_t bytes);

  const uint32_t table_id_;
  const Schema schema_;
  TransactionManager* const txn_mgr_;
  WalWriter* const wal_;

  BTree index_;  // key -> VersionChain* (optimistic latch coupling)

  // Chain directory, striped by key hash so concurrent writers creating
  // chains for different keys rarely contend (a same-key race serializes on
  // its stripe and double-checks the index under the latch). Each chain is
  // stored in place in its stripe's deque: appending to a deque never moves
  // an element, so the index, undo entries and the transaction manager's
  // retire lists may hold chain pointers. Chains live until the store dies
  // (keys are never unindexed; fully-dead chains are invisible to scans).
  static constexpr size_t kChainStripes = 64;
  struct alignas(64) ChainStripe {
    SpinLatch latch{LockRank::kStoreChains, "row-store-chains"};
    std::deque<VersionChain> chains GUARDED_BY(latch);
  };
  ChainStripe& stripe(Key key) const {
    return stripes_[static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL >>
                    58];  // top 6 bits of a Fibonacci hash
  }
  mutable ChainStripe stripes_[kChainStripes];

  std::atomic<size_t> live_rows_{0};
  std::atomic<size_t> versions_{0};
  std::atomic<size_t> mem_bytes_{0};
};

}  // namespace htap

#endif  // HTAP_STORAGE_MVCC_ROW_STORE_H_

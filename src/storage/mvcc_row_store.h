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
#include <deque>
#include <functional>
#include <memory>
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

/// One version of a row. begin/end encode lifetime per txn/types.h.
struct RowVersion {
  std::atomic<uint64_t> begin{0};
  std::atomic<uint64_t> end{kMaxCSN};
  Row data;
  RowVersion* older = nullptr;
};

/// Per-key chain of versions, newest first.
struct VersionChain {
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

  /// Point read at a snapshot.
  Status Get(const Snapshot& snap, Key key, Row* out) const;

  /// Full scan at a snapshot, in key order. Return false to stop.
  void Scan(const Snapshot& snap,
            const std::function<bool(Key, const Row&)>& visit) const;

  /// Key-range scan [lo, hi] at a snapshot.
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

  /// Subtracts a freed version's footprint from mem_bytes_, saturating at 0.
  void ReleaseBytes(size_t bytes);

  const uint32_t table_id_;
  const Schema schema_;
  TransactionManager* const txn_mgr_;
  WalWriter* const wal_;

  BTree index_;  // key -> VersionChain* (optimistic latch coupling)

  // Chain ownership directory, striped by key hash so concurrent writers
  // creating chains for different keys rarely contend (a same-key race
  // serializes on its stripe and double-checks the index under the latch).
  // Chains are owned here and never freed until the store dies (keys are
  // never unindexed; fully-dead chains are invisible to scans), so the
  // transaction manager's retire lists may hold chain pointers.
  static constexpr size_t kChainStripes = 64;
  struct alignas(64) ChainStripe {
    SpinLatch latch{LockRank::kStoreChains, "row-store-chains"};
    std::deque<std::unique_ptr<VersionChain>> chains GUARDED_BY(latch);
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

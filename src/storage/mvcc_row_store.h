// In-memory MVCC row store (Hekaton-style) — the primary store for
// architecture (a), the per-shard store for architecture (b), the delta
// row store for architecture (d), and for architecture (c) a version cache
// over the disk heap (DESIGN.md §22).
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
#include "storage/disk_row_store.h"
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
  /// Heap-backed stores only: odd while the chain's one live version is
  /// evicted (latest is null and the image lives only in the heap), even
  /// otherwise. Each eviction and each restore bumps it, so a reader that
  /// read the image with no latch held can tell whether it is still the
  /// chain's image.
  uint32_t heap_epoch GUARDED_BY(latch) = 0;
};

/// A single-table MVCC row store with a B+-tree primary-key index.
class MvccRowStore {
 public:
  /// `wal` may be null (e.g. replica apply path logs elsewhere). With a
  /// `heap` (architecture (c)), the store is a version cache over it: the GC
  /// step evicts a chain's only version once the heap holds its image
  /// (HeapWritten), and reads of that chain go through the heap's buffer
  /// pool. The heap must outlive the store.
  MvccRowStore(uint32_t table_id, Schema schema, TransactionManager* txn_mgr,
               WalWriter* wal, DiskRowStore* heap = nullptr);
  ~MvccRowStore();

  MvccRowStore(const MvccRowStore&) = delete;
  MvccRowStore& operator=(const MvccRowStore&) = delete;

  const Schema& schema() const { return schema_; }
  uint32_t table_id() const { return table_id_; }

  // ---- Transactional DML ----------------------------------------------

  /// Inserts a new row. Fails with AlreadyExists if a visible version
  /// exists, Conflict on a concurrent uncommitted writer, InvalidArgument if
  /// the store has a heap and the row does not fit in a heap page.
  Status Insert(Transaction* txn, const Row& row);

  /// Replaces the row at `row`'s key. NotFound if no visible version;
  /// InvalidArgument as for Insert.
  Status Update(Transaction* txn, const Row& row);

  /// Deletes the row with the given key.
  Status Delete(Transaction* txn, Key key);

  // ---- Reads ------------------------------------------------------------

  /// Point read at a snapshot. Decodes the visible version into *out.
  Status Get(const Snapshot& snap, Key key, Row* out) const;

  /// Full scan at a snapshot, in key order. Return false to stop. Each
  /// visible version is decoded into one scratch row per scan, so the Row
  /// reference `visit` gets is valid only during that call: copy what you
  /// keep. `visit` runs with no chain latch held. Fails only on a heap read
  /// error (heap-backed stores).
  Status Scan(const Snapshot& snap,
              const std::function<bool(Key, const Row&)>& visit) const;

  /// Key-range scan [lo, hi] at a snapshot; `visit` as for Scan.
  Status ScanRange(const Snapshot& snap, Key lo, Key hi,
                   const std::function<bool(Key, const Row&)>& visit) const;

  /// Splits the indexed key space into up to `n` contiguous [lo, hi] ranges
  /// of roughly equal key counts, covering the whole key domain (parallel
  /// scans partition work with these; keys inserted after the split still
  /// fall in some range). Returns a single full-domain range when the store
  /// is too small to be worth partitioning.
  std::vector<std::pair<Key, Key>> SplitKeyRanges(size_t n) const;

  // ---- Non-transactional apply (recovery, replica catch-up) -------------

  /// Applies an already-committed change at the given CSN, bypassing
  /// concurrency control. Not for a heap-backed store.
  void ApplyCommitted(ChangeOp op, Key key, const Row& row, CSN csn);

  // ---- Maintenance -------------------------------------------------------

  /// Frees `chain`'s versions that no snapshot at or after `watermark` can
  /// see: the first non-latest version whose end CSN is <= `watermark`, and
  /// everything older. They are unlinked under the chain latch and freed
  /// after it is released. Returns the number of versions reclaimed.
  /// TransactionManager calls this on the chains each commit retires.
  ///
  /// A heap-backed store also frees a latest version left alone in its
  /// chain: a delete committed at or below `watermark`, or a live version
  /// committed at or below both `watermark` and HeapCsn(), which it evicts.
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

  // ---- The heap a store caches (architecture (c)) ------------------------

  /// Whether the GC step evicts this store's versions: it has a heap, and
  /// no heap write has failed (HeapWritten).
  bool evicting() const {
    return heap_ != nullptr && !heap_failed_.load(std::memory_order_relaxed);
  }

  /// The change sink's report, in CSN order, that it wrote every change of
  /// this table committed at or below `csn` to the heap (`ok`), or that a
  /// heap write failed (`!ok`). A failure stops eviction for good: the
  /// versions whose images the heap may lack, and every later one, stay in
  /// memory, and the store's versions are reclaimed as in a store without
  /// a heap.
  void HeapWritten(CSN csn, bool ok);

  /// The highest CSN whose versions the GC step may evict (their images are
  /// in the heap); kMaxCSN for a store without a heap.
  CSN HeapCsn() const {
    // order: acquire pairs with HeapWritten's release: an evictor that
    // reads this bound also sees the heap writes below it.
    return heap_ == nullptr ? kMaxCSN
                            : heap_csn_.load(std::memory_order_acquire);
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

  /// Update and Delete once the chain's versions are in memory.
  Status UpdateLocked(Transaction* txn, VersionChain* chain, Key key,
                      const Row& row) REQUIRES(chain->latch);
  Status DeleteLocked(Transaction* txn, VersionChain* chain, Key key)
      REQUIRES(chain->latch);

  /// For a writer: whether `chain`'s versions are in memory, restoring an
  /// evicted chain's image as its only version if `image` was read at the
  /// chain's current heap_epoch (`*image_epoch`). Returns false, and notes
  /// the epoch, when the caller must read the image from the heap first.
  bool MakeResident(VersionChain* chain, const Row& image,
                    uint32_t* image_epoch) REQUIRES(chain->latch);

  /// Reads the image of `chain`, evicted at heap_epoch `epoch`, from the
  /// heap. Called with no latch held; the caller re-checks the epoch under
  /// the latch before trusting *out. A failed read is an error only while
  /// the chain is still at `epoch`: once it moved on, the heap may rightly
  /// lack the image, and the call returns OK for the caller to start again.
  Status ReadImage(VersionChain* chain, uint32_t epoch, Row* out) const;

  /// The version of `chain` visible to `snap`, or null.
  const RowVersion* VisibleVersion(const VersionChain* chain,
                                   const Snapshot& snap) const
      REQUIRES(chain->latch) {
    const RowVersion* v = chain->latest;
    while (v != nullptr && !Visible(v, snap)) v = v->older;
    return v;
  }

  /// Decodes the version of `chain` visible to `snap` into *out, or the
  /// chain's image if it is evicted; *found is false if none is visible.
  /// Takes the chain latch; reads the heap with it released. Returns false
  /// only when that read fails, with the reason in *error. ScanRange runs
  /// the resident half inline, as it pays it per key.
  bool ReadVisible(VersionChain* chain, const Snapshot& snap, Row* out,
                   bool* found, Status* error) const;
  /// ReadVisible for a chain found evicted: reads the image from the heap
  /// with no latch held, then re-checks that the chain is still evicted at
  /// the same epoch, and starts again if not.
  bool ReadEvicted(VersionChain* chain, const Snapshot& snap, Row* out,
                   bool* found, Status* error) const;

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
  DiskRowStore* const heap_;  // null: every version stays in memory
  std::atomic<CSN> heap_csn_{0};  // see HeapCsn()
  std::atomic<bool> heap_failed_{false};  // a heap write failed; no eviction

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

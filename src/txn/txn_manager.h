// TransactionManager: timestamp oracle, snapshot provider, commit/abort
// protocol, and commit-ordered change publication.
//
// This is the "MVCC + logging" technique of Table 2 (TP row): every DML
// writes a redo record into the WAL (via the row store), commit appends a
// commit record and group-syncs the log, then stamps versions with the
// commit CSN and hands the change events to the manager's sink in strict
// CSN order. Events are recorded without rows; commit copies each row from
// the version it names, once, before it allocates the CSN (DESIGN.md §20).
//
// Commit structures are sharded (DESIGN.md §15): CSNs come from a single
// atomic counter, but the set of in-flight (allocated, not yet fully
// stamped) CSNs is partitioned across `commit_shards` mutexes keyed by txn
// id. The published committed CSN — what snapshots read — is the min over
// all shard frontiers minus one, capped by the allocation counter, so a
// snapshot can never observe a CSN whose versions are still being stamped.
// Sink publication stays globally CSN-ordered via a small pending queue
// drained under `publish_mu_`; no commit ever holds a global mutex across
// WAL sync, stamping, and publication the way the old `commit_mu_` did.
//
// Commits also drive version reclamation (DESIGN.md §17): each update
// commit records the chains it superseded a version on in its shard's
// retire list, and every kGcEveryCommits-th commit of a shard prunes the
// chains whose superseding CSN the GC watermark covers. For a store that
// evicts to its heap (architecture (c), DESIGN.md §22) every written chain
// is retired, and waits until the heap holds the write, so the step can
// evict it; a commit that wrote one runs the step itself.

#ifndef HTAP_TXN_TXN_MANAGER_H_
#define HTAP_TXN_TXN_MANAGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "txn/transaction.h"
#include "txn/types.h"
#include "wal/wal.h"

namespace htap {

class TransactionManager {
 public:
  /// `wal` may be null (no durability; used by pure in-memory configs).
  /// `commit_shards` partitions the commit frontier + active-txn maps;
  /// values are clamped to [1, 64]. `sink`, if not null, receives every
  /// commit's change events; it must outlive the manager's last commit.
  explicit TransactionManager(WalWriter* wal = nullptr,
                              size_t commit_shards = kDefaultCommitShards,
                              ChangeSink* sink = nullptr);

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  static constexpr size_t kDefaultCommitShards = 8;

  /// A shard runs a GC step on every kGcEveryCommits-th of its commits. So
  /// with no reader holding the watermark back, a chain carries at most
  /// about commit_shard_count() * kGcEveryCommits superseded versions. A
  /// commit that wrote a heap-backed store runs one as well.
  static constexpr uint32_t kGcEveryCommits = 32;

  /// Starts a transaction with a snapshot of everything committed so far.
  /// Its begin CSN holds the GC watermark down until it commits or aborts.
  std::unique_ptr<Transaction> Begin();

  /// Commits: row copy into the change events, WAL commit record + group
  /// sync, CSN assignment, version stamping, ordered change publication.
  /// After return the Transaction object may be destroyed.
  ///
  /// Return does not make the commit visible to the caller's next Begin():
  /// while a commit with a lower CSN is still in flight, the published
  /// watermark stays below this one's CSN, so that snapshot can miss it,
  /// and a write to a key only this client writes can fail with a
  /// Conflict that a retry clears (DESIGN.md §15).
  Status Commit(Transaction* txn);

  /// Rolls back all of the transaction's writes.
  Status Abort(Transaction* txn);

  /// Hands every pending change batch whose CSN is covered by committed_
  /// to the sink, in CSN order, and drops it from the queue. Commit calls it
  /// after it advances the frontier, so a snapshot can cover a commit whose
  /// events have not reached the sink yet; a reader that needs the sink's
  /// side to hold every commit its snapshot covers calls it after taking
  /// the snapshot.
  void DrainPublishQueue();

  /// Read-only snapshot at "now". Every version with a CSN at or below the
  /// snapshot is guaranteed fully stamped (min-frontier invariant).
  ///
  /// It does not pin the GC watermark: once later commits run, the
  /// versions it needs may be reclaimed. Use it for a quiesced store (tests,
  /// benches) or for its CSN alone (column scans); a row-store read that
  /// may overlap commits takes a ReadView.
  Snapshot CurrentSnapshot() const {
    // order: acquire pairs with the watermark CAS release in
    // RecomputeCommitted — stamps covered by the snapshot are visible.
    return Snapshot{committed_.load(std::memory_order_acquire), 0};
  }

  /// Latest committed CSN (the published min-frontier watermark).
  CSN LastCommittedCsn() const {
    return committed_.load(std::memory_order_acquire);  // order: ^
  }

  /// Highest CSN handed out so far (>= LastCommittedCsn; test hook).
  CSN LastAllocatedCsn() const {
    // order: acquire for symmetry with the seq_cst allocation site; callers
    // compare against the committed watermark read above.
    return allocated_.load(std::memory_order_acquire);
  }

  /// Commit state of an in-flight-or-committing transaction by id. Returns
  /// false if unknown (i.e. fully finished and stamped — caller re-reads the
  /// version stamp).
  bool GetCommitInfo(uint64_t txn_id, CSN* commit_csn, TxnState* state) const;

  /// Oldest begin CSN among active transactions and read views (or the
  /// committed CSN if none): versions dead before this are unreachable and
  /// can be vacuumed.
  CSN Watermark() const;

  /// Drops every retire-list entry that names `store` (called by its
  /// destructor; the store must be quiescent).
  void ForgetStore(const MvccRowStore* store);

  // Counters (diagnostics & benchmarks).
  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }
  uint64_t aborts() const { return aborts_.load(std::memory_order_relaxed); }
  uint64_t conflicts() const {
    return conflicts_.load(std::memory_order_relaxed);
  }
  void RecordConflict() { conflicts_.fetch_add(1, std::memory_order_relaxed); }

  WalWriter* wal() const { return wal_; }
  size_t commit_shard_count() const { return shards_.size(); }

  /// Entries on the shards' retire lists, waiting for a GC step.
  size_t RetiredEntries() const;

 private:
  friend class ReadView;

  /// A chain on which the commit at `csn` superseded a version, or wrote
  /// one that the GC step may evict.
  struct RetireEntry {
    CSN csn;
    MvccRowStore* store;
    VersionChain* chain;
  };

  /// In-flight commit frontier for one shard: CSNs allocated to committing
  /// transactions whose versions are not yet fully stamped. Allocation and
  /// insertion happen atomically under `mu` so a frontier scan can never
  /// miss an allocated-but-uninserted CSN.
  struct alignas(64) CommitShard {
    Mutex mu{LockRank::kTxnShard, "txn-commit-shard"};
    std::set<CSN> inflight GUARDED_BY(mu);
    std::vector<RetireEntry> retired GUARDED_BY(mu);
    uint32_t commits GUARDED_BY(mu) = 0;
    CSN pruned_to GUARDED_BY(mu) = 0;  // watermark of the last GC step
  };

  struct alignas(64) ActiveShard {
    mutable Mutex mu{LockRank::kTxnActive, "txn-active"};
    std::unordered_map<uint64_t, Transaction*> txns GUARDED_BY(mu);
  };

  CommitShard& commit_shard(uint64_t txn_id) {
    return *shards_[txn_id % shards_.size()];
  }
  ActiveShard& active_shard(uint64_t txn_id) const {
    return *active_[txn_id % active_.size()];
  }

  void EraseActive(uint64_t txn_id);

  /// One GC step for `cs`: prunes every retired chain whose CSN the current
  /// Watermark() covers.
  void CollectGarbage(CommitShard& cs);

  /// Recomputes committed_ = min over shards of (min inflight - 1), capped
  /// by allocated_, and publishes it monotonically (CAS-max).
  void RecomputeCommitted();

  void RollbackWrites(Transaction* txn);

  WalWriter* const wal_;
  ChangeSink* const sink_;
  std::atomic<CSN> allocated_{1};   // last CSN handed to a committer
  std::atomic<CSN> committed_{1};   // published min-frontier watermark
  std::atomic<uint64_t> next_txn_id_{kTxnIdBit | 1};

  std::vector<std::unique_ptr<CommitShard>> shards_;
  std::vector<std::unique_ptr<ActiveShard>> active_;

  // Orders sink publication by CSN across concurrent committers. Pending
  // batches wait here until the watermark covers them.
  mutable Mutex publish_mu_{LockRank::kTxnCommit, "txn-publish"};
  std::map<CSN, std::vector<ChangeEvent>> pending_ GUARDED_BY(publish_mu_);

  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
  std::atomic<uint64_t> conflicts_{0};
};

/// A registered read-only snapshot for row-store reads outside a
/// transaction. It is Begin()-registered, so its begin CSN holds the GC
/// watermark down until the view is destroyed; it writes nothing and its
/// end is not counted as a commit.
class ReadView {
 public:
  explicit ReadView(TransactionManager* mgr)
      : mgr_(mgr), txn_(mgr->Begin()) {}
  ~ReadView() { mgr_->EraseActive(txn_->id()); }

  ReadView(const ReadView&) = delete;
  ReadView& operator=(const ReadView&) = delete;

  /// txn_id 0: the view has no own writes to see.
  Snapshot snapshot() const { return Snapshot{txn_->begin_csn(), 0}; }

 private:
  TransactionManager* const mgr_;
  const std::unique_ptr<Transaction> txn_;
};

}  // namespace htap

#endif  // HTAP_TXN_TXN_MANAGER_H_

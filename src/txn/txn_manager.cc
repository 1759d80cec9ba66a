#include "txn/txn_manager.h"

#include <algorithm>

#include "storage/mvcc_row_store.h"

namespace htap {

TransactionManager::TransactionManager(WalWriter* wal, size_t commit_shards,
                                       ChangeSink* sink)
    : wal_(wal), sink_(sink) {
  const size_t n = std::clamp<size_t>(commit_shards, 1, 64);
  shards_.reserve(n);
  active_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<CommitShard>());
    active_.push_back(std::make_unique<ActiveShard>());
  }
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  const uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  ActiveShard& as = active_shard(id);
  MutexLock lk(&as.mu);
  // Read the snapshot CSN inside the critical section that registers the
  // transaction. A Watermark() scan either finds it here, or scanned this
  // shard before we locked it, and so loaded committed_ before this load:
  // either way its result is <= our begin CSN (DESIGN.md §17).
  // order: acquire pairs with the acq_rel CAS in RecomputeCommitted — every
  // version stamped at or below this watermark is fully published before we
  // read at it.
  const CSN begin = committed_.load(std::memory_order_acquire);
  auto txn = std::make_unique<Transaction>(id, begin);
  as.txns.emplace(id, txn.get());
  return txn;
}

void TransactionManager::EraseActive(uint64_t txn_id) {
  ActiveShard& as = active_shard(txn_id);
  MutexLock lk(&as.mu);
  as.txns.erase(txn_id);
}

Status TransactionManager::Commit(Transaction* txn) {
  if (!txn->active()) return Status::Aborted("transaction not active");

  if (txn->undo().empty()) {
    // Read-only: nothing to stamp, log, or publish.
    txn->set_state(TxnState::kCommitted);
    EraseActive(txn->id());
    commits_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  // Decode each event's row from the version it names. The versions are
  // still this transaction's (begin/end hold its id), so no writer or GC
  // step can change or free them, and no lock is needed. Filling here rather
  // than at each DML keeps a batch's rows together in memory.
  if (sink_ != nullptr) {
    for (size_t i = 0; i < txn->changes_.size(); ++i)
      if (txn->change_sources_[i] != nullptr)
        txn->change_sources_[i]->DecodeTo(&txn->changes_[i].row);
  }

  if (wal_ != nullptr) {
    WalRecord rec;
    rec.type = WalRecordType::kCommit;
    rec.txn_id = txn->id();
    wal_->Append(rec);
    HTAP_RETURN_NOT_OK(wal_->Sync());  // group commit point
  }

  // Allocate the CSN and enter it into our shard's in-flight frontier in
  // one critical section: a concurrent frontier scan either sees this CSN
  // in the shard or runs before the allocation counter covered it — never
  // an allocated-but-invisible gap.
  CommitShard& cs = commit_shard(txn->id());
  CSN csn;
  {
    MutexLock lk(&cs.mu);
    // order: seq_cst — this increment and RecomputeCommitted's bound load
    // must agree on a single total order so an allocated CSN can never be
    // both past the bound and missing from every shard's frontier.
    csn = allocated_.fetch_add(1, std::memory_order_seq_cst) + 1;
    cs.inflight.insert(csn);
  }
  txn->set_commit_csn(csn);

  // Stamp versions: begin fields of created versions, end fields of
  // superseded/deleted ones; let the owning store settle its counters.
  // No lock needed — the fields are atomic and this CSN stays above the
  // published watermark until it leaves the frontier below.
  for (const UndoEntry& u : txn->undo()) {
    // order: release pairs with the acquire stamp loads in
    // MvccRowStore::Visible — a reader that sees the commit CSN also sees
    // the row data the transaction wrote.
    if (u.new_version != nullptr)
      u.new_version->begin.store(csn, std::memory_order_release);
    if (u.old_version != nullptr)
      u.old_version->end.store(csn, std::memory_order_release);  // order: ^
    u.store->AccountCommittedEntry(u);
  }
  txn->set_state(TxnState::kCommitted);

  // Queue change events before retiring the CSN so publication can never
  // run ahead of enqueue. The batch is moved out: the Transaction may be
  // destroyed as soon as we return, possibly before a later committer
  // drains this CSN from the queue.
  if (sink_ != nullptr && !txn->changes_.empty()) {
    for (ChangeEvent& ev : txn->changes_) ev.csn = csn;
    MutexLock lk(&publish_mu_);
    pending_.emplace(csn, std::move(txn->changes_));
  }

  // Retire the CSN from the frontier: every version is stamped, so the
  // watermark may now advance past it. The versions this commit superseded
  // go on the shard's retire list in the same critical section, and so
  // does every chain it wrote in a store that evicts, which the GC step may
  // evict or drop once the heap holds the write. Such a commit runs the
  // step at once, while its versions are still in cache.
  bool gc_due;
  {
    MutexLock lk(&cs.mu);
    cs.inflight.erase(csn);
    bool evicts = false;
    for (const UndoEntry& u : txn->undo()) {
      const bool evicting = u.store->evicting();
      if (u.kind == UndoEntry::Kind::kUpdate || evicting)
        cs.retired.push_back(RetireEntry{csn, u.store, u.chain});
      evicts |= evicting;
    }
    gc_due = ++cs.commits % kGcEveryCommits == 0 || evicts;
  }
  RecomputeCommitted();
  DrainPublishQueue();

  EraseActive(txn->id());
  commits_.fetch_add(1, std::memory_order_relaxed);
  if (gc_due) CollectGarbage(cs);
  return Status::OK();
}

void TransactionManager::CollectGarbage(CommitShard& cs) {
  const CSN w = Watermark();
  std::vector<RetireEntry> due;
  {
    MutexLock lk(&cs.mu);
    if (w <= cs.pruned_to) return;  // a reader still pins the last bound
    cs.pruned_to = w;
    // An entry waits until the watermark covers it and, for a store that
    // evicts, until the heap holds its write. Once a heap write failed the
    // store's HeapCsn() stops for good, so its entries wait only for the
    // watermark, as a store without a heap's do.
    const auto live = std::partition(
        cs.retired.begin(), cs.retired.end(), [w](const RetireEntry& e) {
          return e.csn > (e.store->evicting() ? std::min(w, e.store->HeapCsn())
                                              : w);
        });
    due.assign(live, cs.retired.end());
    cs.retired.erase(live, cs.retired.end());
  }
  // Outside the shard mutex: pruning takes each chain latch and frees.
  for (const RetireEntry& e : due) e.store->PruneChain(e.chain, w);
}

size_t TransactionManager::RetiredEntries() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock lk(&shard->mu);
    n += shard->retired.size();
  }
  return n;
}

void TransactionManager::ForgetStore(const MvccRowStore* store) {
  for (const auto& shard : shards_) {
    MutexLock lk(&shard->mu);
    std::erase_if(shard->retired,
                  [store](const RetireEntry& e) { return e.store == store; });
  }
}

void TransactionManager::RecomputeCommitted() {
  // Load the allocation counter *before* scanning shards: a CSN allocated
  // after this load is > `bound` and cannot be missed; one allocated before
  // it is either still in its shard (we lock each shard, so we see it) or
  // already retired (fully stamped — safe to cover).
  // order: seq_cst — the other side of the total-order argument at the
  // fetch_add in Commit; see the comment block above.
  const CSN bound = allocated_.load(std::memory_order_seq_cst);
  CSN w = bound;
  for (const auto& shard : shards_) {
    MutexLock lk(&shard->mu);
    if (!shard->inflight.empty())
      w = std::min(w, *shard->inflight.begin() - 1);
  }
  CSN cur = committed_.load(std::memory_order_relaxed);
  // order: acq_rel — release publishes all version stamps at or below `w`
  // to Begin()'s acquire load; acquire keeps the monotonic-advance loop
  // from acting on a stale frontier.
  while (cur < w && !committed_.compare_exchange_weak(
                        cur, w, std::memory_order_acq_rel,
                        std::memory_order_relaxed)) {
  }
}

void TransactionManager::DrainPublishQueue() {
  MutexLock lk(&publish_mu_);
  while (!pending_.empty()) {
    const auto it = pending_.begin();
    // order: acquire pairs with the watermark CAS release — change events
    // drain only after every covered version stamp is visible.
    if (it->first > committed_.load(std::memory_order_acquire)) break;
    // Holding publish_mu_ across OnCommit keeps the global CSN order even
    // when several committers race to drain.
    sink_->OnCommit(std::move(it->second));
    pending_.erase(it);
  }
}

Status TransactionManager::Abort(Transaction* txn) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  RollbackWrites(txn);
  if (wal_ != nullptr && !txn->undo().empty()) {
    WalRecord rec;
    rec.type = WalRecordType::kAbort;
    rec.txn_id = txn->id();
    wal_->Append(rec);  // no sync needed: abort is the default outcome
  }
  txn->set_state(TxnState::kAborted);
  EraseActive(txn->id());
  aborts_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void TransactionManager::RollbackWrites(Transaction* txn) {
  auto& undo = txn->undo();
  for (auto it = undo.rbegin(); it != undo.rend(); ++it)
    it->store->RollbackEntry(*it);
}

bool TransactionManager::GetCommitInfo(uint64_t txn_id, CSN* commit_csn,
                                       TxnState* state) const {
  const ActiveShard& as = active_shard(txn_id);
  MutexLock lk(&as.mu);
  const auto it = as.txns.find(txn_id);
  if (it == as.txns.end()) return false;
  *state = it->second->state();
  *commit_csn = it->second->commit_csn();
  return true;
}

CSN TransactionManager::Watermark() const {
  // committed_ is loaded first and only grows. A transaction missing from
  // the scan registered in its shard after we scanned that shard, and
  // Begin() reads its begin CSN under the same shard mutex, so that read
  // comes after our load and begin_csn >= wm. Hence the result is a valid
  // lower bound even though shards are scanned one at a time. (Reading
  // committed_ before taking the shard mutex in Begin() would break this.)
  // order: acquire pairs with the watermark CAS release (same edge as
  // Begin()); a vacuum driven by this bound must see the covered stamps.
  CSN wm = committed_.load(std::memory_order_acquire);
  for (const auto& shard : active_) {
    MutexLock lk(&shard->mu);
    for (const auto& [id, txn] : shard->txns) wm = std::min(wm, txn->begin_csn());
  }
  return wm;
}

}  // namespace htap

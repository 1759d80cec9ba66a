// RowTxnLayer: the shared OLTP substrate of the three single-process
// architectures (a), (c), (d) — a TransactionManager plus one MVCC row
// store per table, all writing one WAL. Engines compose this and add their
// architecture-specific AP side.

#ifndef HTAP_CORE_ROW_TXN_LAYER_H_
#define HTAP_CORE_ROW_TXN_LAYER_H_

#include <atomic>
#include <map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "storage/mvcc_row_store.h"
#include "sync/sync.h"
#include "txn/txn_manager.h"
#include "wal/wal.h"

namespace htap {

class RowTxnLayer {
 public:
  explicit RowTxnLayer(WalWriter* wal,
                       size_t commit_shards =
                           TransactionManager::kDefaultCommitShards)
      : txn_mgr_(wal, commit_shards) {}

  Status AddTable(const TableInfo& info, WalWriter* wal) {
    if (stores_.count(info.id) != 0)
      return Status::AlreadyExists("table id in use");
    stores_[info.id] = std::make_unique<MvccRowStore>(info.id, info.schema,
                                                      &txn_mgr_, wal);
    return Status::OK();
  }

  MvccRowStore* store(uint32_t table_id) {
    const auto it = stores_.find(table_id);
    return it == stores_.end() ? nullptr : it->second.get();
  }
  const MvccRowStore* store(uint32_t table_id) const {
    const auto it = stores_.find(table_id);
    return it == stores_.end() ? nullptr : it->second.get();
  }

  TransactionManager* txn_mgr() { return &txn_mgr_; }

  std::unique_ptr<TxnContext> Begin() {
    auto ctx = std::make_unique<TxnContext>();
    ctx->local = txn_mgr_.Begin();
    return ctx;
  }

  Status Insert(TxnContext* txn, const TableInfo& table, const Row& row) {
    MvccRowStore* s = store(table.id);
    if (s == nullptr) return Status::NotFound("no such table");
    return s->Insert(txn->local.get(), row);
  }
  Status Update(TxnContext* txn, const TableInfo& table, const Row& row) {
    MvccRowStore* s = store(table.id);
    if (s == nullptr) return Status::NotFound("no such table");
    return s->Update(txn->local.get(), row);
  }
  Status Delete(TxnContext* txn, const TableInfo& table, Key key) {
    MvccRowStore* s = store(table.id);
    if (s == nullptr) return Status::NotFound("no such table");
    return s->Delete(txn->local.get(), key);
  }
  Status Get(TxnContext* txn, const TableInfo& table, Key key, Row* out) {
    MvccRowStore* s = store(table.id);
    if (s == nullptr) return Status::NotFound("no such table");
    return s->Get(txn->local->snapshot(), key, out);
  }
  Status Read(const TableInfo& table, Key key, Row* out) {
    const MvccRowStore* s = store(table.id);
    if (s == nullptr) return Status::NotFound("no such table");
    const ReadView view(&txn_mgr_);
    return s->Get(view.snapshot(), key, out);
  }
  Status Commit(TxnContext* txn) {
    txn->finished = true;
    return txn_mgr_.Commit(txn->local.get());
  }
  Status Abort(TxnContext* txn) {
    txn->finished = true;
    return txn_mgr_.Abort(txn->local.get());
  }

  size_t TotalRowStoreBytes() const {
    size_t b = 0;
    for (const auto& [id, s] : stores_) b += s->MemoryBytes();
    return b;
  }

 private:
  TransactionManager txn_mgr_;
  std::map<uint32_t, std::unique_ptr<MvccRowStore>> stores_;
};

/// Background merge driver shared by the local engines: one thread syncing
/// every registered synchronizer on interval/threshold triggers.
class SyncDaemon {
 public:
  SyncDaemon(TransactionManager* txn_mgr, Micros interval_micros,
             size_t entry_threshold)
      : txn_mgr_(txn_mgr),
        interval_micros_(interval_micros),
        entry_threshold_(entry_threshold) {}

  ~SyncDaemon() { Stop(); }

  void AddTask(DataSynchronizer* sync) {
    MutexLock lk(&tasks_mu_);
    tasks_.push_back(sync);
  }

  void Start() {
    if (thread_.joinable()) return;
    // order: relaxed — the std::thread constructor below synchronizes-with
    // the new thread, so the reset needs no edge of its own.
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { Loop(); });
  }

  void Stop() {
    // order: release pairs with Loop()'s acquire — everything written
    // before the stop request is visible to the loop's final iteration.
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  Status SyncAllNow() {
    const CSN target = txn_mgr_->LastCommittedCsn();
    MutexLock lk(&tasks_mu_);
    for (DataSynchronizer* t : tasks_) HTAP_RETURN_NOT_OK(t->SyncTo(target));
    return Status::OK();
  }

 private:
  void Loop() {
    Micros slept = 0;
    const Micros tick = 1000;
    // order: acquire pairs with Stop()'s release store.
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(tick));
      slept += tick;
      bool threshold_hit = false;
      if (entry_threshold_ != 0) {
        MutexLock lk(&tasks_mu_);
        for (DataSynchronizer* t : tasks_)
          threshold_hit |= t->PendingEntries() >= entry_threshold_;
      }
      if (slept >= interval_micros_ || threshold_hit) {
        SyncAllNow();
        slept = 0;
      }
    }
  }

  TransactionManager* const txn_mgr_;
  const Micros interval_micros_;
  const size_t entry_threshold_;
  // Outermost lock in the system: held across SyncTo(), which reaches the
  // sync, table-latch, delta, and catalog locks (DESIGN.md §11).
  Mutex tasks_mu_{LockRank::kSyncDaemon, "sync-daemon-tasks"};
  std::vector<DataSynchronizer*> tasks_ GUARDED_BY(tasks_mu_);
  std::atomic<bool> stop_{false};
  // htap-lint: guarded-by — touched only from Start()/Stop()/dtor, which
  // the owning engine serializes; never from the daemon thread itself.
  std::thread thread_;
};

}  // namespace htap

#endif  // HTAP_CORE_ROW_TXN_LAYER_H_

// Transaction object: snapshot, state, undo log, and pending change events.

#ifndef HTAP_TXN_TRANSACTION_H_
#define HTAP_TXN_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "txn/types.h"

namespace htap {

class MvccRowStore;
struct VersionChain;
struct RowVersion;

enum class TxnState : uint8_t { kActive = 0, kCommitted = 1, kAborted = 2 };

/// One entry in a transaction's undo log; enough to stamp on commit or roll
/// back on abort.
struct UndoEntry {
  enum class Kind : uint8_t { kInsert, kUpdate, kDelete };
  Kind kind;
  MvccRowStore* store = nullptr;
  VersionChain* chain = nullptr;
  RowVersion* new_version = nullptr;  // insert/update
  RowVersion* old_version = nullptr;  // update/delete (version whose end we set)
};

/// A transaction handle. Created by TransactionManager::Begin; must end in
/// exactly one Commit or Abort. Not thread-safe: one thread drives a txn.
class Transaction {
 public:
  Transaction(uint64_t id, CSN begin_csn) : id_(id), begin_csn_(begin_csn) {}

  uint64_t id() const { return id_; }
  CSN begin_csn() const { return begin_csn_; }
  // order: acquire pairs with set_commit_csn/set_state release — a scan
  // that observes kCommitted + CSN through GetCommitInfo must also see the
  // version stamps the committer wrote first.
  CSN commit_csn() const { return commit_csn_.load(std::memory_order_acquire); }

  TxnState state() const { return state_.load(std::memory_order_acquire); }  // order: ^
  bool active() const { return state() == TxnState::kActive; }

  Snapshot snapshot() const { return Snapshot{begin_csn_, id_}; }

  /// Undo log (row-store internal).
  std::vector<UndoEntry>& undo() { return undo_; }

  /// Records a change to publish on commit, without its row: commit decodes
  /// the row from `source`, the version this transaction wrote (null for a
  /// delete). The transaction owns that version until it commits, so no
  /// other writer and no GC step can change or free it before the copy.
  void RecordChange(uint32_t table_id, ChangeOp op, Key key,
                    const RowVersion* source) {
    changes_.push_back(ChangeEvent{table_id, op, key, Row{}, 0});
    change_sources_.push_back(source);
  }

  size_t num_writes() const { return undo_.size(); }

 private:
  friend class TransactionManager;

  // order: release pairs with the acquire accessors above — publishes the
  // commit outcome (and the stamps written before it) to concurrent scans.
  void set_state(TxnState s) { state_.store(s, std::memory_order_release); }
  // Atomic like state_: the committing thread stamps it under commit_mu_
  // while concurrent scans resolve it through GetCommitInfo, which holds
  // only active_mu_.
  void set_commit_csn(CSN csn) {
    commit_csn_.store(csn, std::memory_order_release);  // order: ^
  }

  const uint64_t id_;
  const CSN begin_csn_;
  std::atomic<CSN> commit_csn_{0};
  std::atomic<TxnState> state_{TxnState::kActive};
  std::vector<UndoEntry> undo_;
  std::vector<ChangeEvent> changes_;  // rows filled in at commit
  std::vector<const RowVersion*> change_sources_;  // parallel to changes_
};

}  // namespace htap

#endif  // HTAP_TXN_TRANSACTION_H_

// HtapEngine: the interface every architecture preset implements. The
// Database facade routes all table/transaction/query traffic through it.

#ifndef HTAP_CORE_ENGINE_H_
#define HTAP_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/encoding.h"
#include "common/clock.h"
#include "common/status.h"
#include "core/plan.h"
#include "sim/dist_db.h"
#include "txn/transaction.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

class ThreadPool;

struct TableInfo {
  uint32_t id = 0;
  std::string name;
  Schema schema;
};

/// Per-transaction state. Local engines use the MVCC transaction; the
/// distributed engine buffers writes for 2PC at commit.
struct TxnContext {
  std::unique_ptr<Transaction> local;
  std::vector<sim::WriteOp> dist_writes;
  bool finished = false;
};

/// Freshness report for one table (the survey's central metric).
///
/// Two visibility frontiers matter: `visible_csn` is what a *merged-only*
/// (stale/column-only) scan reflects; `fresh_visible_csn` is what a
/// delta-unioning fresh scan reflects. For the single-process architectures
/// the latter equals the committed frontier (the in-memory delta is always
/// scannable); for the distributed architecture it is bounded by log
/// replication to the learner — the survey's "low freshness" for TiDB.
struct FreshnessInfo {
  CSN committed_csn = 0;  // newest commit in the system
  CSN visible_csn = 0;    // newest commit a merged-only scan reflects
  uint64_t csn_lag = 0;   // committed - visible
  Micros time_lag_micros = 0;
  CSN fresh_visible_csn = 0;  // newest commit a delta-union scan reflects
  Micros fresh_time_lag_micros = 0;
  size_t pending_delta_entries = 0;
};

/// Aggregate engine statistics (Stats() on the Database).
struct EngineStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t conflicts = 0;
  uint64_t merges = 0;
  uint64_t entries_merged = 0;
  size_t row_store_bytes = 0;
  size_t column_store_bytes = 0;
  size_t delta_bytes = 0;
  /// Column-store footprint by segment encoding (indexed by EncodingType),
  /// summed across the engine's tables. Shows what the compression advisor
  /// actually picked and where the column memory lives.
  EncodingBreakdown column_encodings;
  uint64_t buffer_pool_hits = 0;    // architecture (c)
  uint64_t buffer_pool_misses = 0;  // architecture (c)
  uint64_t sim_messages = 0;        // architecture (b)
};

class HtapEngine {
 public:
  virtual ~HtapEngine() = default;

  virtual Status CreateTable(const TableInfo& info) = 0;

  // ---- OLTP -----------------------------------------------------------
  virtual std::unique_ptr<TxnContext> Begin() = 0;
  virtual Status Insert(TxnContext* txn, const TableInfo& table,
                        const Row& row) = 0;
  virtual Status Update(TxnContext* txn, const TableInfo& table,
                        const Row& row) = 0;
  virtual Status Delete(TxnContext* txn, const TableInfo& table, Key key) = 0;
  /// Snapshot read within the transaction (reads its own writes where the
  /// architecture supports it).
  virtual Status Get(TxnContext* txn, const TableInfo& table, Key key,
                     Row* out) = 0;
  /// Commits. A transaction begun after this returns may still miss the
  /// commit (and conflict on its keys, retryably) while a commit with a
  /// lower CSN is in flight (TransactionManager::Commit, DESIGN.md §15).
  virtual Status Commit(TxnContext* txn) = 0;
  virtual Status Abort(TxnContext* txn) = 0;

  /// Latest-committed point read (no explicit transaction).
  virtual Status Read(const TableInfo& table, Key key, Row* out) = 0;

  // ---- OLAP -----------------------------------------------------------
  virtual Result<QueryResult> Execute(const QueryPlan& plan,
                                      QueryExecInfo* info) = 0;

  // ---- HTAP maintenance -------------------------------------------------
  virtual Status ForceSync(const TableInfo& table) = 0;
  virtual FreshnessInfo Freshness(const TableInfo& table) = 0;
  virtual EngineStats Stats() = 0;

  /// The pool executing parallel-scan morsels, or null when this engine
  /// runs analytics serially. The resource scheduler throttles analytical
  /// CPU through this pool's SetConcurrencyQuota.
  virtual ThreadPool* ApScanPool() { return nullptr; }
};

}  // namespace htap

#endif  // HTAP_CORE_ENGINE_H_

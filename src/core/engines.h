// The four architecture presets of the survey's taxonomy (Figure 1 /
// Table 1), as two HtapEngines:
//
//  LocalHtapEngine       — one process, built from parts a LocalPreset picks:
//                          (a) primary row store + in-memory column store
//                          (Oracle dual-format / SQL Server CSI style),
//                          (c) disk row store + in-memory column store
//                          (MySQL Heatwave style), and (d) primary column
//                          store + delta row store (SAP HANA style).
//  DistributedHtapEngine — (b) distributed row store + column replica
//                          (TiDB style; wraps sim::DistributedDb).

#ifndef HTAP_CORE_ENGINES_H_
#define HTAP_CORE_ENGINES_H_

#include <map>
#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/catalog.h"
#include "core/options.h"
#include "core/query_runner.h"
#include "opt/column_advisor.h"
#include "opt/optimizer.h"
#include "storage/disk_row_store.h"
#include "storage/mvcc_row_store.h"
#include "sync/sync.h"
#include "txn/txn_manager.h"
#include "wal/wal.h"

namespace htap {

/// The engine-owned AP pool powering morsel-driven parallel scans,
/// aggregations, and hash joins. No pool is created when the effective
/// thread count is 1 (serial).
struct ApScanRuntime {
  std::unique_ptr<ThreadPool> pool;
  size_t threads = 1;
  size_t min_join_build = 4096;
  size_t spill_budget = 0;
  std::string spill_dir;
  uint64_t stats_staleness = 65536;
  size_t batch_rows = 4096;  // rows per ColumnBatch (DESIGN.md §12)
  bool vectorized = true;    // engine offers its batch scan to the runner
  bool vectorized_join = true;  // batch-native joins (DESIGN.md §13)

  explicit ApScanRuntime(const DatabaseOptions& options)
      : threads(EffectiveParallelScanThreads(options)),
        min_join_build(options.parallel_join_min_build_rows),
        spill_budget(options.join_spill_budget_bytes),
        spill_dir(options.join_spill_dir),
        stats_staleness(options.stats_staleness_csns),
        batch_rows(options.vectorized_batch_rows),
        vectorized(options.vectorized_exec),
        vectorized_join(options.vectorized_join) {
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads, "ap-scan");
  }

  /// `committed_csn` is the engine's commit frontier at query start — the
  /// reference point for the planner's stats-staleness check.
  ExecContext ctx(CSN committed_csn = 0) const {
    ExecContext exec;
    exec.pool = pool.get();
    exec.max_parallelism = threads;
    exec.min_parallel_join_build = min_join_build;
    exec.join_spill_budget_bytes = spill_budget;
    exec.join_spill_dir = spill_dir;
    exec.committed_csn = committed_csn;
    exec.stats_staleness_csns = stats_staleness;
    exec.batch_rows = batch_rows;
    exec.vectorized_join = vectorized_join;
    return exec;
  }
};

class SyncDaemon;

/// The parts a LocalHtapEngine is built from (DESIGN.md §2). Database::Open
/// derives one from ArchitectureKind; nothing else chooses it. Every preset
/// keeps the MVCC row store as the transactional and recovery anchor (for
/// (d) it plays HANA's persisted row images; DESIGN.md §6).
struct LocalPreset {
  const char* wal_name = "";  // WAL file stem under DatabaseOptions::data_dir
  /// Delta part: HANA's L1 (rows) -> L2 (columnar) delta instead of the
  /// row-wise in-memory delta.
  bool l1l2_delta = false;
  /// Access-path rule: the column side serves every scan except a forced
  /// row scan, instead of the cost-based choice.
  bool column_primary = false;
  /// (c)'s parts: commits write through to a disk heap that serves row
  /// scans, and the column side holds only the columns the advisor loaded,
  /// merged lazily on scan instead of by the sync daemon.
  bool disk_heap = false;
  /// QueryExecInfo::access_path when the column side / row side serves.
  const char* column_scan_desc = "";
  const char* row_scan_desc = "";
};

/// Architectures (a), (c) and (d): one transaction manager, one WAL and one
/// MVCC row store per table, plus the per-table delta and column parts the
/// preset picks.
class LocalHtapEngine : public HtapEngine, public ChangeSink {
 public:
  LocalHtapEngine(const LocalPreset& preset, const DatabaseOptions& options,
                  Catalog* catalog);
  ~LocalHtapEngine() override;

  Status CreateTable(const TableInfo& info) override;
  std::unique_ptr<TxnContext> Begin() override;
  Status Insert(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Update(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Delete(TxnContext* t, const TableInfo& tbl, Key key) override;
  Status Get(TxnContext* t, const TableInfo& tbl, Key key, Row* out) override;
  Status Commit(TxnContext* t) override;
  Status Abort(TxnContext* t) override;
  Status Read(const TableInfo& tbl, Key key, Row* out) override;
  Result<QueryResult> Execute(const QueryPlan& plan,
                              QueryExecInfo* info) override;
  Status ForceSync(const TableInfo& tbl) override;
  FreshnessInfo Freshness(const TableInfo& tbl) override;
  EngineStats Stats() override;

  void OnCommit(const std::vector<ChangeEvent>& events) override;
  ThreadPool* ApScanPool() override { return ap_.pool.get(); }

  /// Re-runs the column advisor and reloads the column side with the
  /// selected columns under the configured memory budget. Returns the
  /// selection; NotSupported unless the preset loads columns (disk_heap).
  Result<ColumnAdvisor::Selection> RefreshColumnSelection(
      const TableInfo& tbl);

  /// Columns currently loaded in the column side for a table (base indexes).
  std::vector<int> LoadedColumns(uint32_t table_id) const;

 private:
  struct TableState {
    /// Every column starts loaded; RefreshColumnSelection applies the
    /// advisor + budget once a workload has been observed.
    TableState(const TableInfo& table, std::unique_ptr<DeltaStore> staged,
               std::unique_ptr<DiskRowStore> disk_heap,
               std::shared_ptr<ColumnTable> column_side);

    const TableInfo info;
    const std::unique_ptr<DeltaStore> delta;  // staged changes for the columns
    const std::unique_ptr<DiskRowStore> heap;  // durable row heap (disk_heap)
    // The column side. Only RefreshColumnSelection replaces it, wholesale,
    // as a new generation: readers copy the shared_ptr + loaded vector out
    // under tables_mu_, and the old store stays alive until the last scan
    // drops it (a scan must never dereference a generation it did not pin).
    std::shared_ptr<ColumnTable> columns;
    // htap-lint: guarded-by — guarded by the owning engine's tables_mu_
    // (copied out with columns under that lock); not expressible lexically
    // from a nested struct.
    std::vector<int> loaded;  // base column indexes, in the columns' layout
    // Merges the delta into `columns` on the daemon; null for disk_heap,
    // whose loaded columns merge on scan (SyncLoadedColumns).
    std::unique_ptr<DataSynchronizer> sync;
    // Serializes SyncLoadedColumns' "snapshot the current generation + drain
    // the delta + apply" so concurrent scans cannot apply drained batches
    // out of commit order (or drain entries into a superseded generation).
    Mutex merge_mu{LockRank::kEngineTableSync, "local-column-merge"};
    // Plan-time row-store stats: refreshed from a snapshot scan while
    // concurrent queries copy them out, so they carry their own mutex.
    Mutex stats_mu{LockRank::kEngineTableStats, "local-table-stats"};
    TableStats stats GUARDED_BY(stats_mu);
    uint64_t stats_at_csn GUARDED_BY(stats_mu) = 0;
  };
  struct ScanAccess;

  TableState* FindTable(uint32_t table_id) const;
  MvccRowStore* Store(uint32_t table_id) const;
  Result<std::vector<Row>> Scan(const ScanRequest& req, ScanStats* stats,
                                std::string* path_desc);
  /// Vectorized scan: serves only scans the column side serves, as
  /// ColumnBatches straight off the encoded segments; declines everything
  /// else with NotSupported (the runner falls back to Scan).
  Result<std::vector<ColumnBatch>> BatchScan(const ScanRequest& req,
                                             ScanStats* stats,
                                             std::string* path_desc);
  /// The access-path decision shared by Scan and BatchScan, plus — when the
  /// column side serves — the pinned generation and the request remapped
  /// onto its layout.
  Result<ScanAccess> ResolveAccess(const ScanRequest& req, TableState* ts);
  /// Drains the delta up to `target` into the current loaded-column
  /// generation and (optionally) returns that generation to scan.
  Status SyncLoadedColumns(TableState* ts, CSN target,
                           std::shared_ptr<ColumnTable>* columns_out,
                           std::vector<int>* loaded_out);
  /// Refreshes the sampled row-store stats if stale and returns a copy.
  TableStats RefreshedStats(TableState* ts);

  const LocalPreset preset_;
  const DatabaseOptions options_;
  Catalog* catalog_;
  const std::string heap_dir_;  // where disk_heap presets keep heap files
  std::unique_ptr<WalWriter> wal_;
  TransactionManager txn_mgr_;
  // Row stores register only in CreateTable (no concurrent phase), so the
  // TP path reads this map without a lock; the stores carry their own.
  std::map<uint32_t, std::unique_ptr<MvccRowStore>> stores_;
  FreshnessTracker freshness_;
  ColumnAdvisor advisor_;   // disk_heap presets only
  const ApScanRuntime ap_;  // config + pool, fixed at construction
  // TableState pointers are stable: entries are never erased, so a pointer
  // copied out under the lock stays valid for the engine's lifetime.
  std::unordered_map<uint32_t, std::unique_ptr<TableState>> tables_
      GUARDED_BY(tables_mu_);
  std::unique_ptr<SyncDaemon> daemon_;
  mutable Mutex tables_mu_{LockRank::kEngineTables, "local-tables"};
};

// ---------------------------------------------------------------------------
// (b) Distributed row store + column store replica
// ---------------------------------------------------------------------------

class DistributedHtapEngine : public HtapEngine {
 public:
  DistributedHtapEngine(const DatabaseOptions& options, Catalog* catalog);

  Status CreateTable(const TableInfo& info) override;
  std::unique_ptr<TxnContext> Begin() override;
  Status Insert(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Update(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Delete(TxnContext* t, const TableInfo& tbl, Key key) override;
  Status Get(TxnContext* t, const TableInfo& tbl, Key key, Row* out) override;
  Status Commit(TxnContext* t) override;
  Status Abort(TxnContext* t) override;
  Status Read(const TableInfo& tbl, Key key, Row* out) override;
  Result<QueryResult> Execute(const QueryPlan& plan,
                              QueryExecInfo* info) override;
  Status ForceSync(const TableInfo& tbl) override;
  FreshnessInfo Freshness(const TableInfo& tbl) override;
  EngineStats Stats() override;

  sim::DistributedDb* dist_db() { return db_.get(); }
  sim::SimEnv* env() { return &env_; }

 private:
  Result<std::vector<Row>> Scan(const ScanRequest& req, ScanStats* stats,
                                std::string* path_desc);
  /// Vectorized learner scan: ColumnBatches straight off the shard
  /// learners' column tables; declines only a forced row scan.
  Result<std::vector<ColumnBatch>> BatchScan(const ScanRequest& req,
                                             ScanStats* stats,
                                             std::string* path_desc);
  /// Before a require_fresh scan: pumps virtual time until every shard's
  /// learner holds all its leader committed, so the delta-union scan
  /// reflects each commit the caller has seen (bounded by
  /// sim_timeout_micros; a learner that stays down leaves the scan stale).
  void AwaitLearners();

  DatabaseOptions options_;
  Catalog* catalog_;
  sim::SimEnv env_;
  std::unique_ptr<sim::DistributedDb> db_;
  bool bootstrapped_ = false;
};

}  // namespace htap

#endif  // HTAP_CORE_ENGINES_H_

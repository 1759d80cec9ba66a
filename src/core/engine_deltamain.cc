// Architecture (d): primary column store ("Main") + delta row store
// (SAP HANA's L1-delta / L2-delta / Main pipeline).
//
// Deviation noted in DESIGN.md: the MVCC row store retains committed row
// images as the correctness/recovery anchor (akin to HANA's persisted row
// images); the L1/L2 delta is the read-side staging pipeline whose spill
// and merge costs this architecture is characterized by.

#include "core/engines.h"

namespace htap {

namespace {

std::unique_ptr<WalWriter> MakeWal(const DatabaseOptions& options,
                                   const std::string& name) {
  if (!options.wal_enabled) return nullptr;
  WalWriter::Options wo;
  if (!options.data_dir.empty())
    wo.path = options.data_dir + "/" + name + ".wal";
  wo.sync_on_commit = options.sync_on_commit;
  return std::make_unique<WalWriter>(wo);
}

}  // namespace

DeltaMainHtapEngine::DeltaMainHtapEngine(const DatabaseOptions& options,
                                         Catalog* catalog)
    : options_(options),
      catalog_(catalog),
      wal_(MakeWal(options, "deltamain")),
      layer_(wal_.get(), options.commit_shards),
      ap_(options_) {
  layer_.txn_mgr()->RegisterSink(this);
  layer_.txn_mgr()->RegisterSink(&freshness_);
  if (options_.background_sync) {
    daemon_ = std::make_unique<SyncDaemon>(layer_.txn_mgr(),
                                           options_.sync_interval_micros,
                                           options_.sync_entry_threshold);
    daemon_->Start();
  }
}

DeltaMainHtapEngine::~DeltaMainHtapEngine() {
  if (daemon_) daemon_->Stop();
}

Status DeltaMainHtapEngine::CreateTable(const TableInfo& info) {
  HTAP_RETURN_NOT_OK(layer_.AddTable(info, wal_.get()));
  auto ts = std::make_unique<TableState>();
  ts->info = info;
  ts->delta =
      std::make_unique<L1L2DeltaStore>(info.schema, options_.l1_spill_threshold);
  ts->main = std::make_unique<ColumnTable>(info.schema);
  if (options_.compression_advisor) ts->main->EnableCompressionAdvisor(true);
  ts->sync = std::make_unique<DataSynchronizer>(
      SyncStrategy::kInMemoryMerge, ts->main.get(),
      std::make_unique<DeltaSourceAdapter<L1L2DeltaStore>>(ts->delta.get()));
  // Every L2->Main merge republishes incremental TableStats to the catalog
  // for plan-time join ordering (DESIGN.md §10).
  ts->sync->EnableStatsMaintenance(
      [this, name = info.name](const TableStats& st, CSN as_of) {
        catalog_->PublishStats(name, st, as_of);
      },
      options_.stats_compact_delete_threshold);
  if (daemon_) daemon_->AddTask(ts->sync.get());
  MutexLock lk(&tables_mu_);
  tables_[info.id] = std::move(ts);
  return Status::OK();
}

std::unique_ptr<TxnContext> DeltaMainHtapEngine::Begin() {
  return layer_.Begin();
}
Status DeltaMainHtapEngine::Insert(TxnContext* t, const TableInfo& tbl,
                                   const Row& r) {
  return layer_.Insert(t, tbl, r);
}
Status DeltaMainHtapEngine::Update(TxnContext* t, const TableInfo& tbl,
                                   const Row& r) {
  return layer_.Update(t, tbl, r);
}
Status DeltaMainHtapEngine::Delete(TxnContext* t, const TableInfo& tbl,
                                   Key key) {
  return layer_.Delete(t, tbl, key);
}
Status DeltaMainHtapEngine::Get(TxnContext* t, const TableInfo& tbl, Key key,
                                Row* out) {
  return layer_.Get(t, tbl, key, out);
}
Status DeltaMainHtapEngine::Commit(TxnContext* t) { return layer_.Commit(t); }
Status DeltaMainHtapEngine::Abort(TxnContext* t) { return layer_.Abort(t); }
Status DeltaMainHtapEngine::Read(const TableInfo& tbl, Key key, Row* out) {
  return layer_.Read(tbl, key, out);
}

void DeltaMainHtapEngine::OnCommit(const std::vector<ChangeEvent>& events) {
  // The TP commit path pays the L1 append (and occasionally the L1->L2
  // dictionary-encoding spill) — the cost behind Table 1's "Low TP
  // scalability" for this architecture.
  MutexLock lk(&tables_mu_);
  for (auto& [tid, ts] : tables_) ts->delta->AppendBatch(events, tid);
}

L1L2DeltaStore* DeltaMainHtapEngine::delta(uint32_t table_id) {
  MutexLock lk(&tables_mu_);
  const auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second->delta.get();
}

ColumnTable* DeltaMainHtapEngine::main(uint32_t table_id) {
  MutexLock lk(&tables_mu_);
  const auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second->main.get();
}

Result<std::vector<Row>> DeltaMainHtapEngine::Scan(const ScanRequest& req,
                                                   ScanStats* stats,
                                                   std::string* path_desc) {
  TableState* ts;
  {
    MutexLock lk(&tables_mu_);
    const auto it = tables_.find(req.table->id);
    if (it == tables_.end()) return Status::NotFound("no such table");
    ts = it->second.get();
  }
  // The column store IS the primary store here: everything except a forced
  // row scan goes Main + L2 + L1.
  if (req.path == PathHint::kForceRow) {
    if (path_desc != nullptr) *path_desc = "delta-row-scan";
    const ReadView view(layer_.txn_mgr());
    return ScanRowStore(*layer_.store(req.table->id), view.snapshot(),
                        *req.pred, req.projection, ap_.ctx());
  }
  if (path_desc != nullptr) *path_desc = "main+l2+l1-scan";
  const DeltaReader* delta = req.require_fresh ? ts->delta.get() : nullptr;
  return ScanHtap(*ts->main, delta,
                  layer_.txn_mgr()->CurrentSnapshot().begin_csn, *req.pred,
                  req.projection, ap_.ctx(), stats);
}

Result<std::vector<ColumnBatch>> DeltaMainHtapEngine::BatchScan(
    const ScanRequest& req, ScanStats* stats, std::string* path_desc) {
  TableState* ts;
  {
    MutexLock lk(&tables_mu_);
    const auto it = tables_.find(req.table->id);
    if (it == tables_.end()) return Status::NotFound("no such table");
    ts = it->second.get();
  }
  // The column store IS the primary store: only a forced row scan declines.
  if (req.path == PathHint::kForceRow)
    return Status::NotSupported("forced row scan");
  if (path_desc != nullptr) *path_desc = "main+l2+l1-scan";
  const DeltaReader* delta = req.require_fresh ? ts->delta.get() : nullptr;
  return ScanHtapBatches(*ts->main, delta,
                         layer_.txn_mgr()->CurrentSnapshot().begin_csn,
                         *req.pred, req.projection, ap_.ctx(), stats);
}

Result<QueryResult> DeltaMainHtapEngine::Execute(const QueryPlan& plan,
                                                 QueryExecInfo* info) {
  const ScanFn scan = [this](const ScanRequest& req, ScanStats* stats,
                             std::string* desc) {
    return Scan(req, stats, desc);
  };
  BatchScanFn batch_scan;
  if (ap_.vectorized)
    batch_scan = [this](const ScanRequest& req, ScanStats* stats,
                        std::string* desc) {
      return BatchScan(req, stats, desc);
    };
  return RunPlan(plan, *catalog_, scan, info,
                 ap_.ctx(layer_.txn_mgr()->LastCommittedCsn()), batch_scan);
}

Status DeltaMainHtapEngine::ForceSync(const TableInfo& tbl) {
  MutexLock lk(&tables_mu_);
  const auto it = tables_.find(tbl.id);
  if (it == tables_.end()) return Status::NotFound("no such table");
  return it->second->sync->SyncTo(layer_.txn_mgr()->LastCommittedCsn());
}

FreshnessInfo DeltaMainHtapEngine::Freshness(const TableInfo& tbl) {
  FreshnessInfo f;
  MutexLock lk(&tables_mu_);
  const auto it = tables_.find(tbl.id);
  if (it == tables_.end()) return f;
  f.committed_csn = layer_.txn_mgr()->LastCommittedCsn();
  f.visible_csn = it->second->main->merged_csn();
  f.csn_lag = freshness_.CsnLag(f.committed_csn, f.visible_csn);
  f.time_lag_micros = freshness_.TimeLagMicros(f.visible_csn);
  f.fresh_visible_csn = f.committed_csn;  // fresh scans union the delta
  f.fresh_time_lag_micros = 0;
  f.pending_delta_entries = it->second->delta->EntryCount();
  return f;
}

EngineStats DeltaMainHtapEngine::Stats() {
  EngineStats s;
  s.commits = layer_.txn_mgr()->commits();
  s.aborts = layer_.txn_mgr()->aborts();
  s.conflicts = layer_.txn_mgr()->conflicts();
  s.row_store_bytes = layer_.TotalRowStoreBytes();
  MutexLock lk(&tables_mu_);
  for (const auto& [tid, ts] : tables_) {
    const SyncStats ss = ts->sync->stats();
    s.merges += ss.merges;
    s.entries_merged += ss.entries_merged;
    s.column_store_bytes += ts->main->MemoryBytes();
    s.delta_bytes += ts->delta->MemoryBytes();
    s.column_encodings.Merge(ts->main->EncodingStats());
  }
  return s;
}

}  // namespace htap

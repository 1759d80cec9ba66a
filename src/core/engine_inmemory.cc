// Architecture (a): primary row store + in-memory column store.

#include <algorithm>

#include "core/engines.h"

namespace htap {

namespace {

/// Distinct columns a scan request touches (for advisor heat + costing).
std::vector<int> TouchedColumns(const ScanRequest& req) {
  std::vector<int> cols = req.pred->ReferencedColumns();
  for (int c : req.projection)
    if (std::find(cols.begin(), cols.end(), c) == cols.end())
      cols.push_back(c);
  if (cols.empty())
    for (size_t i = 0; i < req.table->schema.num_columns(); ++i)
      cols.push_back(static_cast<int>(i));
  return cols;
}

/// If the predicate is (a conjunction containing) pk = <const>, extract it.
bool ExtractPkPoint(const Predicate& pred, int pk_index, Key* key) {
  for (const Predicate* c : pred.Conjuncts()) {
    if (c->kind() == Predicate::Kind::kCompare && c->op() == CmpOp::kEq &&
        c->column() == pk_index && c->literal().is_int64()) {
      *key = c->literal().AsInt64();
      return true;
    }
  }
  return false;
}

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

InMemoryHtapEngine::InMemoryHtapEngine(const DatabaseOptions& options,
                                       Catalog* catalog)
    : options_(options),
      catalog_(catalog),
      wal_(MakeWal(options, "inmemory")),
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

InMemoryHtapEngine::~InMemoryHtapEngine() {
  if (daemon_) daemon_->Stop();
}

Status InMemoryHtapEngine::CreateTable(const TableInfo& info) {
  HTAP_RETURN_NOT_OK(layer_.AddTable(info, wal_.get()));
  auto ts = std::make_unique<TableState>();
  ts->info = info;
  ts->delta = std::make_unique<InMemoryDeltaStore>();
  ts->columns = std::make_unique<ColumnTable>(info.schema);
  if (options_.compression_advisor) ts->columns->EnableCompressionAdvisor(true);
  ts->sync = std::make_unique<DataSynchronizer>(
      SyncStrategy::kInMemoryMerge, ts->columns.get(),
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(
          ts->delta.get()));
  // Every merge republishes incremental TableStats to the catalog, so join
  // planning can happen at plan time from metadata (DESIGN.md §10).
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

std::unique_ptr<TxnContext> InMemoryHtapEngine::Begin() {
  return layer_.Begin();
}
Status InMemoryHtapEngine::Insert(TxnContext* t, const TableInfo& tbl,
                                  const Row& r) {
  return layer_.Insert(t, tbl, r);
}
Status InMemoryHtapEngine::Update(TxnContext* t, const TableInfo& tbl,
                                  const Row& r) {
  return layer_.Update(t, tbl, r);
}
Status InMemoryHtapEngine::Delete(TxnContext* t, const TableInfo& tbl,
                                  Key key) {
  return layer_.Delete(t, tbl, key);
}
Status InMemoryHtapEngine::Get(TxnContext* t, const TableInfo& tbl, Key key,
                               Row* out) {
  return layer_.Get(t, tbl, key, out);
}
Status InMemoryHtapEngine::Commit(TxnContext* t) { return layer_.Commit(t); }
Status InMemoryHtapEngine::Abort(TxnContext* t) { return layer_.Abort(t); }
Status InMemoryHtapEngine::Read(const TableInfo& tbl, Key key, Row* out) {
  return layer_.Read(tbl, key, out);
}

void InMemoryHtapEngine::OnCommit(const std::vector<ChangeEvent>& events) {
  MutexLock lk(&tables_mu_);
  for (auto& [tid, ts] : tables_) ts->delta->AppendBatch(events, tid);
}

ColumnTable* InMemoryHtapEngine::column_table(uint32_t table_id) {
  MutexLock lk(&tables_mu_);
  const auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second->columns.get();
}

InMemoryDeltaStore* InMemoryHtapEngine::delta(uint32_t table_id) {
  MutexLock lk(&tables_mu_);
  const auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second->delta.get();
}

TableStats InMemoryHtapEngine::RefreshedStats(TableState* ts) {
  const CSN now = layer_.txn_mgr()->LastCommittedCsn();
  MutexLock lk(&ts->stats_mu);
  if (ts->stats.row_count != 0 &&
      now < ts->stats_at_csn + options_.stats_refresh_interval)
    return ts->stats;
  const MvccRowStore* store = layer_.store(ts->info.id);
  std::vector<Row> sample;
  sample.reserve(2048);
  const ReadView view(layer_.txn_mgr());
  store->Scan(view.snapshot(), [&](Key, const Row& r) {
    sample.push_back(r);
    return sample.size() < 2048;
  });
  ts->stats = TableStats::Compute(ts->info.schema, sample);
  ts->stats.row_count = store->ApproxRowCount();
  ts->stats_at_csn = now;
  return ts->stats;
}

AccessPath InMemoryHtapEngine::ResolvePath(const ScanRequest& req,
                                           TableState* ts, bool* pk_point,
                                           Key* pk_key) {
  const TableStats table_stats = RefreshedStats(ts);
  *pk_point = ExtractPkPoint(*req.pred, req.table->schema.pk_index(), pk_key);
  switch (req.path) {
    case PathHint::kForceRow: return AccessPath::kRowFullScan;
    case PathHint::kForceColumn: return AccessPath::kColumnScan;
    case PathHint::kAuto: break;
  }
  AccessQuery q;
  q.stats = &table_stats;
  q.pred = req.pred;
  q.columns_needed = TouchedColumns(req).size();
  q.total_columns = req.table->schema.num_columns();
  q.delta_entries = ts->delta->EntryCount();
  q.pk_point_lookup = *pk_point;
  q.column_store_available = true;
  return ChooseAccessPath(CostModel{}, q).path;
}

Result<std::vector<Row>> InMemoryHtapEngine::Scan(const ScanRequest& req,
                                                  ScanStats* stats,
                                                  std::string* path_desc) {
  TableState* ts;
  {
    MutexLock lk(&tables_mu_);
    const auto it = tables_.find(req.table->id);
    if (it == tables_.end()) return Status::NotFound("no such table");
    ts = it->second.get();
  }
  advisor_.RecordAccess(req.table->name, TouchedColumns(req));

  bool pk_point = false;
  Key pk_key = 0;
  const AccessPath path = ResolvePath(req, ts, &pk_point, &pk_key);
  if (path_desc != nullptr) *path_desc = AccessPathName(path);

  if (path == AccessPath::kColumnScan) {
    const DeltaReader* delta = req.require_fresh ? ts->delta.get() : nullptr;
    return ScanHtap(*ts->columns, delta,
                    layer_.txn_mgr()->CurrentSnapshot().begin_csn, *req.pred,
                    req.projection, ap_.ctx(), stats);
  }

  // Row paths read MVCC versions, so they pin the GC watermark.
  const ReadView view(layer_.txn_mgr());
  const MvccRowStore* store = layer_.store(req.table->id);
  if (path == AccessPath::kRowIndexLookup && pk_point) {
    std::vector<Row> out;
    Row row;
    const Status st = store->Get(view.snapshot(), pk_key, &row);
    if (st.ok() && req.pred->Eval(row)) {
      if (req.projection.empty()) {
        out.push_back(std::move(row));
      } else {
        Row proj;
        for (int c : req.projection) proj.Append(row.Get(static_cast<size_t>(c)));
        out.push_back(std::move(proj));
      }
    }
    return out;
  }
  return ScanRowStore(*store, view.snapshot(), *req.pred, req.projection,
                      ap_.ctx());
}

Result<std::vector<ColumnBatch>> InMemoryHtapEngine::BatchScan(
    const ScanRequest& req, ScanStats* stats, std::string* path_desc) {
  TableState* ts;
  {
    MutexLock lk(&tables_mu_);
    const auto it = tables_.find(req.table->id);
    if (it == tables_.end()) return Status::NotFound("no such table");
    ts = it->second.get();
  }
  bool pk_point = false;
  Key pk_key = 0;
  if (ResolvePath(req, ts, &pk_point, &pk_key) != AccessPath::kColumnScan)
    return Status::NotSupported("row access path");
  advisor_.RecordAccess(req.table->name, TouchedColumns(req));
  if (path_desc != nullptr)
    *path_desc = AccessPathName(AccessPath::kColumnScan);
  const Snapshot snap = layer_.txn_mgr()->CurrentSnapshot();
  const DeltaReader* delta = req.require_fresh ? ts->delta.get() : nullptr;
  return ScanHtapBatches(*ts->columns, delta, snap.begin_csn, *req.pred,
                         req.projection, ap_.ctx(), stats);
}

Result<QueryResult> InMemoryHtapEngine::Execute(const QueryPlan& plan,
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

Status InMemoryHtapEngine::ForceSync(const TableInfo& tbl) {
  MutexLock lk(&tables_mu_);
  const auto it = tables_.find(tbl.id);
  if (it == tables_.end()) return Status::NotFound("no such table");
  return it->second->sync->SyncTo(layer_.txn_mgr()->LastCommittedCsn());
}

FreshnessInfo InMemoryHtapEngine::Freshness(const TableInfo& tbl) {
  FreshnessInfo f;
  MutexLock lk(&tables_mu_);
  const auto it = tables_.find(tbl.id);
  if (it == tables_.end()) return f;
  f.committed_csn = layer_.txn_mgr()->LastCommittedCsn();
  f.visible_csn = it->second->columns->merged_csn();
  f.csn_lag = freshness_.CsnLag(f.committed_csn, f.visible_csn);
  f.time_lag_micros = freshness_.TimeLagMicros(f.visible_csn);
  f.fresh_visible_csn = f.committed_csn;  // fresh scans union the delta
  f.fresh_time_lag_micros = 0;
  f.pending_delta_entries = it->second->delta->EntryCount();
  return f;
}

EngineStats InMemoryHtapEngine::Stats() {
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
    s.column_store_bytes += ts->columns->MemoryBytes();
    s.delta_bytes += ts->delta->MemoryBytes();
    s.column_encodings.Merge(ts->columns->EncodingStats());
  }
  return s;
}

}  // namespace htap

// Architectures (a), (c) and (d): one local engine built from parts.
//
// Transactions run against the MVCC row stores and the WAL; each commit's
// changes fan out to the table's delta (and, for (c), write through to its
// disk heap, whose images the row store then evicts: DESIGN.md §22).
// Analytical scans pick the row side or the column side by the preset's
// access-path rule, and every scan of one query reads at the CSN of the
// query's one read view. Every preset moves the delta into its column side
// through one method, MergeDelta, never past the oldest open snapshot, and
// every merge maintains the table's one set of catalog stats from the full
// rows it drains. (a) and (d) keep a merged column table that the daemon
// merges on its interval; (c) keeps only the columns the advisor loaded,
// merges them on scan (and on the daemon once the delta reaches
// sync_entry_threshold), and falls back to the row store (whose evicted
// rows cost buffer-pool I/O) when a query touches a column that is not
// loaded.

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <thread>

#include "core/engines.h"

namespace htap {

/// Background merge driver: one thread merging every registered table on
/// interval/threshold triggers.
class SyncDaemon {
 public:
  using Table = LocalHtapEngine::TableState;

  /// Never: an interval for a daemon that only the threshold triggers.
  static constexpr Micros kNoInterval = std::numeric_limits<Micros>::max();

  SyncDaemon(LocalHtapEngine* engine, Micros interval_micros,
             size_t entry_threshold)
      : engine_(engine),
        interval_micros_(interval_micros),
        entry_threshold_(entry_threshold) {}

  ~SyncDaemon() { Stop(); }

  void AddTable(Table* table) {
    MutexLock lk(&tasks_mu_);
    tables_.push_back(table);
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

 private:
  void SyncAllNow() {
    const CSN target = engine_->txn_mgr_.Watermark();
    MutexLock lk(&tasks_mu_);
    for (Table* t : tables_) engine_->MergeDelta(t, target, nullptr, nullptr);
  }

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
        for (const Table* t : tables_)
          threshold_hit |= t->delta->EntryCount() >= entry_threshold_;
      }
      if (slept >= interval_micros_ || threshold_hit) {
        SyncAllNow();
        slept = 0;
      }
    }
  }

  LocalHtapEngine* const engine_;
  const Micros interval_micros_;
  const size_t entry_threshold_;
  // Outermost lock in the system: held across MergeDelta(), which reaches
  // the merge, table-latch, delta, and catalog locks (DESIGN.md §11).
  Mutex tasks_mu_{LockRank::kSyncDaemon, "sync-daemon-tasks"};
  std::vector<Table*> tables_ GUARDED_BY(tasks_mu_);
  std::atomic<bool> stop_{false};
  // htap-lint: guarded-by — touched only from Start()/Stop()/dtor, which
  // the owning engine serializes; never from the daemon thread itself.
  std::thread thread_;
};

/// Column access resolved for one scan request: the access-path decision
/// plus — when the column side serves — the pinned generation and the
/// predicate, projection and fresh-scan delta in its layout.
struct LocalHtapEngine::ScanAccess {
  AccessPath path = AccessPath::kRowFullScan;
  Key pk_key = 0;  // the pinned key when path == kRowIndexLookup
  std::shared_ptr<ColumnTable> columns;  // null: the row side serves
  Predicate pred;
  std::vector<int> proj;
  const DeltaReader* delta = nullptr;  // null for a stale (merged-only) scan
  std::unique_ptr<DeltaReader> projected_delta;  // owns `delta` if remapped
};

namespace {

/// Delete drift tolerated by the incremental stats: once a table's merges
/// have applied this many deletes since the last full pass, the merge
/// compacts the column table and recomputes the stats of the columns it
/// holds from the surviving rows.
constexpr size_t kStatsCompactDeleteThreshold = 8192;

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

/// Whether a column generation holding base columns `loaded` can serve a
/// request touching `touched` — the survey's "columns for a new query may
/// have not been selected" caveat.
bool Serves(const std::vector<int>& loaded, const std::vector<int>& touched,
            const ScanRequest& req) {
  if (req.projection.empty() &&
      loaded.size() != req.table->schema.num_columns())
    return false;
  return std::all_of(touched.begin(), touched.end(), [&](int c) {
    return std::find(loaded.begin(), loaded.end(), c) != loaded.end();
  });
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

/// `row` reduced to `cols`, in that order (empty = all columns).
Row ProjectRow(const std::vector<int>& cols, const Row& row) {
  if (cols.empty()) return row;
  Row out;
  for (int c : cols) out.Append(row.Get(static_cast<size_t>(c)));
  return out;
}

/// Whether a loaded-column layout is the base layout: every column, in
/// schema order.
bool IsBaseLayout(const std::vector<int>& loaded, size_t num_columns) {
  if (loaded.size() != num_columns) return false;
  for (size_t i = 0; i < num_columns; ++i)
    if (loaded[i] != static_cast<int>(i)) return false;
  return true;
}

/// Remaps a base-schema predicate onto a loaded-column layout.
Predicate RemapPredicate(const Predicate& pred,
                         const std::vector<int>& base_to_loaded) {
  switch (pred.kind()) {
    case Predicate::Kind::kTrue:
      return Predicate::True();
    case Predicate::Kind::kCompare:
      return Predicate::Compare(
          base_to_loaded[static_cast<size_t>(pred.column())], pred.op(),
          pred.literal());
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
    case Predicate::Kind::kNot: {
      std::vector<Predicate> children;
      for (const auto& c : pred.children())
        children.push_back(RemapPredicate(c, base_to_loaded));
      if (pred.kind() == Predicate::Kind::kAnd)
        return Predicate::And(std::move(children));
      if (pred.kind() == Predicate::Kind::kOr)
        return Predicate::Or(std::move(children));
      return Predicate::Not(std::move(children[0]));
    }
  }
  return Predicate::True();
}

/// Wraps a full-row delta so its entries appear in a loaded-column layout
/// during the delta+column union.
class ProjectingDeltaReader : public DeltaReader {
 public:
  ProjectingDeltaReader(const DeltaReader* inner, std::vector<int> loaded)
      : inner_(inner), loaded_(std::move(loaded)) {}

  void ScanVisible(CSN snapshot,
                   const std::function<void(const DeltaEntry&)>& visit)
      const override {
    inner_->ScanVisible(snapshot, [&](const DeltaEntry& e) {
      DeltaEntry proj;
      proj.op = e.op;
      proj.key = e.key;
      proj.csn = e.csn;
      if (e.op != ChangeOp::kDelete) proj.row = ProjectRow(loaded_, e.row);
      visit(proj);
    });
  }
  size_t EntryCount() const override { return inner_->EntryCount(); }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }

 private:
  const DeltaReader* inner_;
  std::vector<int> loaded_;
};

}  // namespace

Result<std::unique_ptr<LocalHtapEngine>> LocalHtapEngine::Open(
    const LocalPreset& preset, const DatabaseOptions& options,
    Catalog* catalog) {
  std::string dir = options.data_dir;
  if (dir.empty()) {
    std::error_code ec;
    dir = (std::filesystem::temp_directory_path(ec) / "htap-db-XXXXXX")
              .string();
    if (ec || mkdtemp(dir.data()) == nullptr)
      return Status::IOError("cannot make a temp directory for the engine");
  }
  auto wal = WalWriter::Open({.dir = dir,
                              .stem = preset.wal_name,
                              .sync_on_commit = options.sync_on_commit});
  if (!wal.ok()) {
    std::error_code ec;
    if (options.data_dir.empty()) std::filesystem::remove_all(dir, ec);
    return wal.status();
  }
  return std::unique_ptr<LocalHtapEngine>(new LocalHtapEngine(
      preset, options, catalog, std::move(dir), std::move(*wal)));
}

LocalHtapEngine::ScratchDir::~ScratchDir() {
  if (!remove_on_close) return;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

LocalHtapEngine::LocalHtapEngine(const LocalPreset& preset,
                                 const DatabaseOptions& options,
                                 Catalog* catalog, std::string dir,
                                 std::unique_ptr<WalWriter> wal)
    : preset_(preset),
      options_(options),
      catalog_(catalog),
      dir_(std::move(dir), options.data_dir.empty()),
      wal_(std::move(wal)),
      txn_mgr_(wal_.get(), TransactionManager::kDefaultCommitShards,
               /*sink=*/this),
      ap_(options_) {
  // (c) merges on scan, so its daemon only bounds the delta: it runs when
  // sync_entry_threshold entries wait (a bulk load), never on the interval.
  if (options_.background_sync &&
      (!preset_.disk_heap || options_.sync_entry_threshold != 0)) {
    daemon_ = std::make_unique<SyncDaemon>(
        this,
        preset_.disk_heap ? SyncDaemon::kNoInterval
                          : options_.sync_interval_micros,
        options_.sync_entry_threshold);
    daemon_->Start();
  }
}

LocalHtapEngine::~LocalHtapEngine() {
  if (daemon_) daemon_->Stop();
}

LocalHtapEngine::TableState::TableState(
    const TableInfo& table, std::unique_ptr<MvccRowStore> row_store,
    std::unique_ptr<DeltaStore> staged,
    std::unique_ptr<DiskRowStore> disk_heap,
    std::shared_ptr<ColumnTable> column_side,
    std::unique_ptr<TableStatsBuilder> merge_stats)
    : info(table),
      rows(std::move(row_store)),
      delta(std::move(staged)),
      heap(std::move(disk_heap)),
      columns(std::move(column_side)),
      merge_stats(std::move(merge_stats)) {
  for (size_t c = 0; c < info.schema.num_columns(); ++c)
    loaded.push_back(static_cast<int>(c));
}

LocalHtapEngine::TableState* LocalHtapEngine::FindTable(
    uint32_t table_id) const {
  const auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status LocalHtapEngine::CreateTable(const TableInfo& info) {
  if (tables_.count(info.id) != 0)
    return Status::AlreadyExists("table id in use");
  std::unique_ptr<DiskRowStore> heap;
  if (preset_.disk_heap) {
    heap = std::make_unique<DiskRowStore>(
        dir_.path + "/" + info.name + ".heap", info.schema,
        options_.buffer_pool_pages);
    HTAP_RETURN_NOT_OK(heap->Open());
  }
  // (c)'s row store caches the heap: it keeps only the versions the heap
  // does not hold yet, or that a snapshot still needs.
  auto rows = std::make_unique<MvccRowStore>(info.id, info.schema, &txn_mgr_,
                                             wal_.get(), heap.get());
  std::unique_ptr<DeltaStore> delta;
  if (preset_.l1l2_delta)
    delta = std::make_unique<L1L2DeltaStore>(info.schema,
                                             options_.l1_spill_threshold);
  else
    delta = std::make_unique<InMemoryDeltaStore>();
  // Every merge republishes incremental TableStats to the catalog, so join
  // planning can happen at plan time from metadata (DESIGN.md §10).
  auto ts = std::make_unique<TableState>(
      info, std::move(rows), std::move(delta), std::move(heap),
      std::make_shared<ColumnTable>(info.schema),
      std::make_unique<TableStatsBuilder>(info.schema.num_columns()));
  if (daemon_) daemon_->AddTable(ts.get());
  tables_[info.id] = std::move(ts);
  return Status::OK();
}

std::unique_ptr<TxnContext> LocalHtapEngine::Begin() {
  auto ctx = std::make_unique<TxnContext>();
  ctx->local = txn_mgr_.Begin();
  return ctx;
}

Status LocalHtapEngine::Insert(TxnContext* t, const TableInfo& tbl,
                               const Row& r) {
  TableState* ts = FindTable(tbl.id);
  if (ts == nullptr) return Status::NotFound("no such table");
  return ts->rows->Insert(t->local.get(), r);
}

Status LocalHtapEngine::Update(TxnContext* t, const TableInfo& tbl,
                               const Row& r) {
  TableState* ts = FindTable(tbl.id);
  if (ts == nullptr) return Status::NotFound("no such table");
  return ts->rows->Update(t->local.get(), r);
}

Status LocalHtapEngine::Delete(TxnContext* t, const TableInfo& tbl, Key key) {
  TableState* ts = FindTable(tbl.id);
  if (ts == nullptr) return Status::NotFound("no such table");
  return ts->rows->Delete(t->local.get(), key);
}

Status LocalHtapEngine::Get(TxnContext* t, const TableInfo& tbl, Key key,
                            Row* out) {
  const TableState* ts = FindTable(tbl.id);
  if (ts == nullptr) return Status::NotFound("no such table");
  return ts->rows->Get(t->local->snapshot(), key, out);
}

Status LocalHtapEngine::Commit(TxnContext* t) {
  t->finished = true;
  return txn_mgr_.Commit(t->local.get());
}

Status LocalHtapEngine::Abort(TxnContext* t) {
  t->finished = true;
  return txn_mgr_.Abort(t->local.get());
}

Status LocalHtapEngine::Read(const TableInfo& tbl, Key key, Row* out) {
  const TableState* ts = FindTable(tbl.id);
  if (ts == nullptr) return Status::NotFound("no such table");
  const ReadView view(&txn_mgr_);
  return ts->rows->Get(view.snapshot(), key, out);
}

void LocalHtapEngine::OnCommit(std::vector<ChangeEvent> events) {
  freshness_.RecordCommit(events.front().csn);
  // Each table's parts see only their own changes, moved on from the
  // batch. The TP commit path pays the delta append (for (d), occasionally
  // the L1->L2 dictionary-encoding spill: the cost behind Table 1's "Low TP
  // scalability" for that architecture).
  ForEachTableRun(events, [this](uint32_t tid, std::span<ChangeEvent> run) {
    TableState* ts = FindTable(tid);
    if (ts == nullptr) return;
    if (ts->heap != nullptr) {
      // Write through to the heap, then tell the row store it may evict
      // the versions this commit wrote.
      ts->rows->HeapWritten(run.front().csn, ts->heap->Apply(run).ok());
    }
    ts->delta->AppendBatch(run);
  });
}

void LocalHtapEngine::MergeDelta(TableState* ts, CSN target,
                                 std::shared_ptr<ColumnTable>* columns_out,
                                 std::vector<int>* loaded_out) {
  // merge_mu serializes drain+apply: two unserialized drains could apply
  // delta batches out of commit order, and a drain concurrent with
  // RefreshColumnSelection could lose its entries into a superseded
  // generation. It is taken *before* tables_mu_ (rank 280 < 300) so the
  // generation snapshot below is the one current for the whole merge.
  MutexLock merge_lk(&ts->merge_mu);
  std::shared_ptr<ColumnTable> columns;
  std::vector<int> loaded;
  {
    MutexLock lk(&tables_mu_);
    columns = ts->columns;
    loaded = ts->loaded;
  }
  ColumnTable* table = columns.get();
  bool advanced = false;
  {
    // Drain and apply as one step under the write latch (rank 500, then the
    // delta's 550): a scan sees the rows in the delta or in the table. A
    // table already merged past the target (by a later scan's or the
    // daemon's merge) drains nothing: draining less would move merged_csn
    // back.
    WriteGuard g(table->latch());
    if (target > table->merged_csn()) {
      advanced = true;
      std::vector<DeltaEntry> entries = ts->delta->DrainUpTo(target);
      if (!entries.empty()) {
        // order: relaxed — plain counters; Stats() reads a recent value.
        ts->merges.fetch_add(1, std::memory_order_relaxed);
        ts->entries_merged.fetch_add(entries.size(),
                                     std::memory_order_relaxed);
      }
      // The stats read the full rows before the projection and the apply
      // move them out.
      ts->merge_stats->ApplyEntries(entries);
      if (!IsBaseLayout(loaded, ts->info.schema.num_columns())) {
        // Reduce each row to the loaded columns by moving the cells it
        // keeps.
        for (DeltaEntry& e : entries) {
          if (e.op == ChangeOp::kDelete) continue;
          Row projected;
          for (int c : loaded)
            projected.Append(
                std::move(e.row.Mutable(static_cast<size_t>(c))));
          e.row = std::move(projected);
        }
      }
      ApplyEntriesToColumnTableLocked(table, std::move(entries), target);
    }
  }
  if (advanced) {
    if (ts->merge_stats->deletes_since_recompute() >
        kStatsCompactDeleteThreshold) {
      // Delete drift: the sketches only widen, so compact away the dead
      // rows and recompute the loaded columns from what actually survives.
      table->Compact();
      ts->merge_stats->RecomputeFromColumnTable(*table, loaded);
    }
    // Published after every merge that advances merged_csn, an empty one
    // included, so an unwritten table's stats do not age past the
    // planner's staleness bound.
    catalog_->PublishStats(ts->info.name,
                           ts->merge_stats->Snapshot(table->live_rows()),
                           target);
  }
  if (columns_out != nullptr) *columns_out = std::move(columns);
  if (loaded_out != nullptr) *loaded_out = std::move(loaded);
}

Result<ColumnAdvisor::Selection> LocalHtapEngine::RefreshColumnSelection(
    const TableInfo& tbl) {
  if (!preset_.disk_heap)
    return Status::NotSupported("the preset loads every column");
  TableState* ts = FindTable(tbl.id);
  if (ts == nullptr) return Status::NotFound("no such table");
  // merge_mu keeps MergeDelta out for the whole selection, rebuild and
  // drain: the stats the advisor sizes columns from cannot move under it,
  // and no merge can strand drained entries in the superseded generation.
  MutexLock merge_lk(&ts->merge_mu);
  const std::vector<size_t> col_bytes = EstimateColumnBytes(
      tbl.schema, ts->merge_stats->Snapshot(ts->rows->ApproxRowCount()));
  ColumnAdvisor::Selection sel =
      advisor_.Advise(tbl.name, col_bytes, options_.column_memory_budget_bytes);

  // The primary key column always rides along (delta-union identity).
  const int pk = tbl.schema.pk_index();
  if (std::find(sel.columns.begin(), sel.columns.end(), pk) ==
      sel.columns.end()) {
    sel.columns.insert(sel.columns.begin(), pk);
    std::sort(sel.columns.begin(), sel.columns.end());
  }

  // Rebuild the column side on the new projection from the row store at
  // one snapshot S, as a new generation merged to S; the delta entries
  // above S stay for the next merge. In-flight scans keep their pinned
  // shared_ptr alive until they finish.
  const ReadView view(&txn_mgr_);
  const Snapshot snap = view.snapshot();
  HTAP_ASSIGN_OR_RETURN(std::shared_ptr<ColumnTable> columns,
                        RebuildColumnTable(*ts->rows, snap, sel.columns));
  // The rebuild read these; the stats still need their full rows.
  ts->merge_stats->ApplyEntries(ts->delta->DrainUpTo(snap.begin_csn));
  {
    MutexLock lk(&tables_mu_);
    ts->loaded = sel.columns;
    ts->columns = std::move(columns);
  }
  return sel;
}

std::vector<int> LocalHtapEngine::LoadedColumns(uint32_t table_id) const {
  const TableState* ts = FindTable(table_id);
  if (ts == nullptr) return {};
  MutexLock lk(&tables_mu_);
  return ts->loaded;
}

Result<LocalHtapEngine::ScanAccess> LocalHtapEngine::ResolveAccess(
    const ScanRequest& req, TableState* ts) {
  ScanAccess acc;
  const std::vector<int> touched = TouchedColumns(req);
  if (preset_.column_primary) {
    acc.path = req.path == PathHint::kForceRow ? AccessPath::kRowFullScan
                                               : AccessPath::kColumnScan;
  } else {
    std::vector<int> loaded;
    {
      MutexLock lk(&tables_mu_);
      loaded = ts->loaded;
    }
    const bool column_capable = Serves(loaded, touched, req);
    const bool pk_point =
        ExtractPkPoint(*req.pred, req.table->schema.pk_index(), &acc.pk_key);
    switch (req.path) {
      case PathHint::kForceRow:
        acc.path = AccessPath::kRowFullScan;
        break;
      case PathHint::kForceColumn:
        if (!column_capable)
          return Status::InvalidArgument("columns not loaded in IMCS");
        acc.path = AccessPath::kColumnScan;
        break;
      case PathHint::kAuto: {
        AccessQuery q;
        q.row_count = ts->rows->ApproxRowCount();
        q.columns_needed = touched.size();
        q.total_columns = req.table->schema.num_columns();
        q.delta_entries = ts->delta->EntryCount();
        q.pk_point_lookup = pk_point;
        q.column_store_available = column_capable;
        acc.path = ChooseAccessPath(q).path;
        break;
      }
    }
  }
  if (acc.path != AccessPath::kColumnScan) return acc;

  // Pin the generation to scan. (c) merges on scan first, up to the query's
  // CSN but never past an older open snapshot; MergeDelta pins the
  // generation it merged into, so a concurrent RefreshColumnSelection
  // cannot free it under the scan that follows. (a) and (d) leave merging
  // to the daemon: a scan never waits on a merge's compaction or stats.
  std::shared_ptr<ColumnTable> columns;
  std::vector<int> loaded;
  if (preset_.disk_heap) {
    MergeDelta(ts, std::min(req.csn, txn_mgr_.Watermark()), &columns,
               &loaded);
  } else {
    MutexLock lk(&tables_mu_);
    columns = ts->columns;
    loaded = ts->loaded;
  }
  // Re-check against the generation actually pinned: a concurrent refresh
  // may have evicted a touched column since the capability check above.
  if (!Serves(loaded, touched, req)) {
    if (req.path == PathHint::kForceColumn)
      return Status::InvalidArgument("columns not loaded in IMCS");
    return acc;  // the row side serves instead
  }
  const size_t num_columns = req.table->schema.num_columns();
  if (IsBaseLayout(loaded, num_columns)) {
    acc.pred = *req.pred;
    acc.proj = req.projection;
    if (req.require_fresh) acc.delta = ts->delta.get();
  } else {
    std::vector<int> base_to_loaded(num_columns, -1);
    for (size_t i = 0; i < loaded.size(); ++i)
      base_to_loaded[static_cast<size_t>(loaded[i])] = static_cast<int>(i);
    acc.pred = RemapPredicate(*req.pred, base_to_loaded);
    for (int c : req.projection)
      acc.proj.push_back(base_to_loaded[static_cast<size_t>(c)]);
    if (req.require_fresh) {
      acc.projected_delta = std::make_unique<ProjectingDeltaReader>(
          ts->delta.get(), std::move(loaded));
      acc.delta = acc.projected_delta.get();
    }
  }
  acc.columns = std::move(columns);
  return acc;
}

Result<std::vector<ColumnBatch>> LocalHtapEngine::Scan(
    const ScanRequest& req, ScanStats* stats, std::string* path_desc) {
  TableState* ts = FindTable(req.table->id);
  if (ts == nullptr) return Status::NotFound("no such table");
  if (preset_.disk_heap)
    advisor_.RecordAccess(req.table->name, TouchedColumns(req));
  HTAP_ASSIGN_OR_RETURN(ScanAccess acc, ResolveAccess(req, ts));
  const ExecContext exec = ap_.ctx();

  if (acc.columns != nullptr) {
    if (path_desc != nullptr) *path_desc = preset_.column_scan_desc;
    return ScanHtapBatches(*acc.columns, acc.delta, req.csn, acc.pred,
                           acc.proj, exec, stats);
  }
  // The row side reads the MVCC store at the query's CSN; Execute's read
  // view pins the GC watermark for it.
  const Snapshot snap{req.csn, 0};
  if (acc.path == AccessPath::kRowIndexLookup) {
    if (path_desc != nullptr) *path_desc = AccessPathName(acc.path);
    BatchBuilder out(req.table->schema, req.projection, exec.batch_rows);
    Row row;
    const Status st = ts->rows->Get(snap, acc.pk_key, &row);
    if (!st.ok() && !st.IsNotFound()) return st;
    if (st.ok() && req.pred->Eval(row)) out.Append(row);
    return out.Finish();
  }
  if (path_desc != nullptr) *path_desc = preset_.row_scan_desc;
  return ScanRowStore(*ts->rows, snap, *req.pred, req.projection, exec);
}

Result<QueryResult> LocalHtapEngine::Execute(const QueryPlan& plan,
                                             QueryExecInfo* info) {
  const ScanFn scan = [this](const ScanRequest& req, ScanStats* stats,
                             std::string* desc) {
    return Scan(req, stats, desc);
  };
  // One read view for the whole query: every scan reads the row store at
  // its CSN (the view pins the GC watermark) and the delta up to it ((c)
  // merges on scan up to it). The view can cover commits whose events are
  // still queued for the deltas; deliver them, or a fresh column scan would
  // miss them in one table and not in the next.
  const ReadView view(&txn_mgr_);
  txn_mgr_.DrainPublishQueue();
  return RunPlan(plan, *catalog_, scan, info,
                 ap_.ctx(view.snapshot().begin_csn));
}

Status LocalHtapEngine::ForceSync(const TableInfo& tbl) {
  TableState* ts = FindTable(tbl.id);
  if (ts == nullptr) return Status::NotFound("no such table");
  // Never past an open reader: a fresh scan at C reads the column side at
  // merged_csn <= C plus the delta in (merged_csn, C] (DESIGN.md §19).
  MergeDelta(ts, txn_mgr_.Watermark(), nullptr, nullptr);
  return Status::OK();
}

FreshnessInfo LocalHtapEngine::Freshness(const TableInfo& tbl) {
  FreshnessInfo f;
  const TableState* ts = FindTable(tbl.id);
  if (ts == nullptr) return f;
  f.committed_csn = txn_mgr_.LastCommittedCsn();
  {
    MutexLock lk(&tables_mu_);
    f.visible_csn = ts->columns->merged_csn();
  }
  f.pending_delta_entries = ts->delta->EntryCount();
  f.csn_lag = freshness_.CsnLag(f.committed_csn, f.visible_csn);
  f.time_lag_micros = freshness_.TimeLagMicros(f.visible_csn);
  f.fresh_visible_csn = f.committed_csn;  // fresh scans union the delta
  f.fresh_time_lag_micros = 0;
  return f;
}

EngineStats LocalHtapEngine::Stats() {
  EngineStats s;
  s.commits = txn_mgr_.commits();
  s.aborts = txn_mgr_.aborts();
  s.conflicts = txn_mgr_.conflicts();
  MutexLock lk(&tables_mu_);
  for (const auto& [tid, ts] : tables_) {
    s.row_store_bytes += ts->rows->MemoryBytes();
    // order: relaxed — counters only, as MergeDelta writes them.
    s.merges += ts->merges.load(std::memory_order_relaxed);
    s.entries_merged += ts->entries_merged.load(std::memory_order_relaxed);
    s.column_store_bytes += ts->columns->MemoryBytes();
    s.delta_bytes += ts->delta->MemoryBytes();
    s.column_encodings.Merge(ts->columns->EncodingStats());
    if (ts->heap != nullptr) {
      const BufferPoolStats bp = ts->heap->pool_stats();
      s.buffer_pool_hits += bp.hits;
      s.buffer_pool_misses += bp.misses;
    }
  }
  return s;
}

}  // namespace htap

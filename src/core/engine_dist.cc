// Architecture (b): distributed row store + column store replica (TiDB
// style), backed by the deterministic simulator. The facade pumps virtual
// time while waiting for commits, so a single caller thread drives the
// whole cluster.

#include "core/engines.h"

namespace htap {

const char* ArchitectureName(ArchitectureKind k) {
  switch (k) {
    case ArchitectureKind::kRowPlusInMemoryColumn:
      return "primary-row+in-memory-column";
    case ArchitectureKind::kDistributedRowPlusColumnReplica:
      return "distributed-row+column-replica";
    case ArchitectureKind::kDiskRowPlusDistributedColumn:
      return "disk-row+distributed-column";
    case ArchitectureKind::kColumnPlusDeltaRow:
      return "primary-column+delta-row";
  }
  return "?";
}

DistributedHtapEngine::DistributedHtapEngine(const DatabaseOptions& options,
                                             Catalog* catalog)
    : options_(options), catalog_(catalog), env_(/*seed=*/11) {
  db_ = std::make_unique<sim::DistributedDb>(&env_, options.dist);
  db_->Bootstrap();
  bootstrapped_ = true;
}

Status DistributedHtapEngine::CreateTable(const TableInfo& info) {
  db_->RegisterTable(info.id, info.schema);
  return Status::OK();
}

std::unique_ptr<TxnContext> DistributedHtapEngine::Begin() {
  return std::make_unique<TxnContext>();
}

Status DistributedHtapEngine::Insert(TxnContext* t, const TableInfo& tbl,
                                     const Row& r) {
  if (r.size() != tbl.schema.num_columns())
    return Status::InvalidArgument("row arity mismatch");
  t->dist_writes.push_back(
      sim::WriteOp{tbl.id, ChangeOp::kInsert, r.GetKey(tbl.schema), r});
  return Status::OK();
}

Status DistributedHtapEngine::Update(TxnContext* t, const TableInfo& tbl,
                                     const Row& r) {
  if (r.size() != tbl.schema.num_columns())
    return Status::InvalidArgument("row arity mismatch");
  t->dist_writes.push_back(
      sim::WriteOp{tbl.id, ChangeOp::kUpdate, r.GetKey(tbl.schema), r});
  return Status::OK();
}

Status DistributedHtapEngine::Delete(TxnContext* t, const TableInfo& tbl,
                                     Key key) {
  t->dist_writes.push_back(sim::WriteOp{tbl.id, ChangeOp::kDelete, key, Row{}});
  return Status::OK();
}

Status DistributedHtapEngine::Get(TxnContext* t, const TableInfo& tbl,
                                  Key key, Row* out) {
  // Read-your-writes from the transaction's buffer first.
  for (auto it = t->dist_writes.rbegin(); it != t->dist_writes.rend(); ++it) {
    if (it->table_id == tbl.id && it->key == key) {
      if (it->op == ChangeOp::kDelete) return Status::NotFound("deleted");
      *out = it->row;
      return Status::OK();
    }
  }
  return Read(tbl, key, out);
}

Status DistributedHtapEngine::Commit(TxnContext* t) {
  t->finished = true;
  if (t->dist_writes.empty()) return Status::OK();
  bool done = false, committed = false;
  db_->ExecuteTxn(std::move(t->dist_writes), [&](bool ok) {
    done = true;
    committed = ok;
  });
  const Micros deadline = env_.Now() + options_.sim_timeout_micros;
  while (!done && env_.Now() < deadline)
    env_.RunUntil(env_.Now() + options_.sim_step_micros);
  if (!done) return Status::Timeout("simulated commit did not complete");
  return committed ? Status::OK()
                   : Status::Aborted("distributed transaction aborted");
}

Status DistributedHtapEngine::Abort(TxnContext* t) {
  t->finished = true;
  t->dist_writes.clear();
  return Status::OK();
}

Status DistributedHtapEngine::Read(const TableInfo& tbl, Key key, Row* out) {
  // Give in-flight replication a chance to settle, then read at the leader.
  env_.RunUntil(env_.Now() + 1);
  return db_->Read(tbl.id, key, out)
             ? Status::OK()
             : Status::NotFound("no such key (or no leader)");
}

void DistributedHtapEngine::AwaitLearners() {
  const Micros deadline = env_.Now() + options_.sim_timeout_micros;
  while (!db_->LearnersCaughtUp() && env_.Now() < deadline)
    env_.RunUntil(env_.Now() + options_.sim_step_micros);
}

Result<std::vector<Row>> DistributedHtapEngine::Scan(const ScanRequest& req,
                                                     ScanStats* stats,
                                                     std::string* path_desc) {
  if (req.require_fresh) AwaitLearners();
  if (path_desc != nullptr)
    *path_desc = req.require_fresh ? "learner-logdelta+column-scan"
                                   : "learner-column-scan";
  return db_->AnalyticalScan(req.table->id, *req.pred, req.projection,
                             /*include_delta=*/req.require_fresh, stats);
}

Result<std::vector<ColumnBatch>> DistributedHtapEngine::BatchScan(
    const ScanRequest& req, ScanStats* stats, std::string* path_desc) {
  if (req.path == PathHint::kForceRow)
    return Status::NotSupported("forced row scan");
  if (req.require_fresh) AwaitLearners();
  if (path_desc != nullptr)
    *path_desc = req.require_fresh ? "learner-logdelta+column-scan"
                                   : "learner-column-scan";
  return db_->AnalyticalScanBatches(req.table->id, *req.pred, req.projection,
                                    options_.vectorized_batch_rows,
                                    /*include_delta=*/req.require_fresh,
                                    stats);
}

Result<QueryResult> DistributedHtapEngine::Execute(const QueryPlan& plan,
                                                   QueryExecInfo* info) {
  const ScanFn scan = [this](const ScanRequest& req, ScanStats* stats,
                             std::string* desc) {
    return Scan(req, stats, desc);
  };
  BatchScanFn batch_scan;
  if (options_.vectorized_exec)
    batch_scan = [this](const ScanRequest& req, ScanStats* stats,
                        std::string* desc) {
      return BatchScan(req, stats, desc);
    };
  // The facade drives the simulator from one thread, so execution stays
  // serial; the context still carries the batch/join knobs.
  ExecContext exec;
  exec.min_parallel_join_build = options_.parallel_join_min_build_rows;
  exec.join_spill_budget_bytes = options_.join_spill_budget_bytes;
  exec.join_spill_dir = options_.join_spill_dir;
  exec.stats_staleness_csns = options_.stats_staleness_csns;
  exec.batch_rows = options_.vectorized_batch_rows;
  exec.vectorized_join = options_.vectorized_join;
  return RunPlan(plan, *catalog_, scan, info, exec, batch_scan);
}

Status DistributedHtapEngine::ForceSync(const TableInfo&) {
  // Let replication drain (a few network RTTs), then merge learner deltas.
  const Micros settle =
      4 * (options_.dist.net.base_latency_micros +
           options_.dist.net.jitter_micros) +
      options_.dist.raft.heartbeat_interval * 4;
  env_.RunUntil(env_.Now() + settle);
  db_->SyncLearners();
  return Status::OK();
}

FreshnessInfo DistributedHtapEngine::Freshness(const TableInfo& tbl) {
  FreshnessInfo f;
  f.committed_csn = db_->last_csn() > 0 ? db_->last_csn() - 1 : 0;
  f.visible_csn = db_->LearnerMergedCsn(tbl.id);
  f.csn_lag =
      f.committed_csn > f.visible_csn ? f.committed_csn - f.visible_csn : 0;
  if (f.csn_lag > 0) {
    const Micros t = db_->CommitTimeOf(f.visible_csn + 1);
    if (t > 0 && env_.Now() > t)
      f.time_lag_micros = env_.Now() - t;  // virtual-time lag
  }
  f.fresh_visible_csn = db_->LearnerReplicatedCsn(tbl.id);
  if (f.committed_csn > f.fresh_visible_csn) {
    const Micros t = db_->CommitTimeOf(f.fresh_visible_csn + 1);
    if (t > 0 && env_.Now() > t) f.fresh_time_lag_micros = env_.Now() - t;
  }
  f.pending_delta_entries = db_->LearnerPendingEntries(tbl.id);
  return f;
}

EngineStats DistributedHtapEngine::Stats() {
  EngineStats s;
  s.commits = db_->committed();
  s.aborts = db_->aborted();
  s.sim_messages = db_->network()->messages_sent();
  return s;
}

}  // namespace htap

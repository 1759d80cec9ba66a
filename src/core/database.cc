#include "core/database.h"

namespace htap {

namespace {

/// The parts each single-process architecture combines (DESIGN.md §2).
LocalPreset LocalPresetFor(ArchitectureKind arch) {
  switch (arch) {
    case ArchitectureKind::kDiskRowPlusDistributedColumn:
      return {.wal_name = "diskrow",
              .disk_heap = true,
              .column_scan_desc = "imcs-pushdown",
              .row_scan_desc = "version-cache-scan"};
    case ArchitectureKind::kColumnPlusDeltaRow:
      return {.wal_name = "deltamain",
              .l1l2_delta = true,
              .column_primary = true,
              .column_scan_desc = "main+l2+l1-scan",
              .row_scan_desc = "delta-row-scan"};
    default:
      return {.wal_name = "inmemory",
              .column_scan_desc = "column-scan",
              .row_scan_desc = "row-full-scan"};
  }
}

/// The one write-time check of a row against its table: arity, then each
/// cell's type. An INT64 cell widens into a DOUBLE column; any other
/// mismatch, and a NULL primary key, is refused here, so every store,
/// delta and column vector downstream holds cells of its column's type.
Status CheckRow(const Schema& schema, const Row& row) {
  if (row.size() != schema.num_columns())
    return Status::InvalidArgument("row arity mismatch");
  for (size_t c = 0; c < row.size(); ++c) {
    const Value& v = row.Get(c);
    const Type want = schema.column(c).type;
    if (v.is_null()) {
      if (static_cast<int>(c) == schema.pk_index())
        return Status::InvalidArgument("NULL primary key");
      continue;
    }
    if (v.type() == want || (v.is_int64() && want == Type::kDouble)) continue;
    return Status::InvalidArgument(
        "column " + schema.column(c).name + " is " + TypeName(want) +
        ", got " + TypeName(v.type()));
  }
  return Status::OK();
}

}  // namespace

Database::Database(DatabaseOptions options) : options_(std::move(options)) {
  if (options_.architecture ==
      ArchitectureKind::kDistributedRowPlusColumnReplica)
    engine_ = std::make_unique<DistributedHtapEngine>(options_, &catalog_);
  else
    engine_ = std::make_unique<LocalHtapEngine>(
        LocalPresetFor(options_.architecture), options_, &catalog_);
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database(std::move(options)));
  if (db->engine_ == nullptr) return Status::Internal("engine init failed");
  return db;
}

Result<const TableInfo*> Database::Resolve(const std::string& table) const {
  const TableInfo* info = catalog_.Find(table);
  if (info == nullptr) return Status::NotFound("no table: " + table);
  return info;
}

Status Database::CreateTable(const std::string& name, Schema schema) {
  TableInfo info;
  HTAP_RETURN_NOT_OK(catalog_.AddTable(name, std::move(schema), &info));
  return engine_->CreateTable(info);
}

std::unique_ptr<DbTxn> Database::Begin() {
  return std::unique_ptr<DbTxn>(new DbTxn(this, engine_->Begin()));
}

Status Database::InsertRow(const std::string& table, const Row& row) {
  auto txn = Begin();
  HTAP_RETURN_NOT_OK(txn->Insert(table, row));
  return txn->Commit();
}

Status Database::UpdateRow(const std::string& table, const Row& row) {
  auto txn = Begin();
  HTAP_RETURN_NOT_OK(txn->Update(table, row));
  return txn->Commit();
}

Status Database::DeleteRow(const std::string& table, Key key) {
  auto txn = Begin();
  HTAP_RETURN_NOT_OK(txn->Delete(table, key));
  return txn->Commit();
}

Status Database::GetRow(const std::string& table, Key key, Row* out) {
  HTAP_ASSIGN_OR_RETURN(const TableInfo* info, Resolve(table));
  return engine_->Read(*info, key, out);
}

Result<QueryResult> Database::Query(const QueryPlan& plan,
                                    QueryExecInfo* info) {
  return engine_->Execute(plan, info);
}

Status Database::ForceSync(const std::string& table) {
  HTAP_ASSIGN_OR_RETURN(const TableInfo* info, Resolve(table));
  return engine_->ForceSync(*info);
}

Status Database::ForceSyncAll() {
  for (const std::string& name : catalog_.TableNames())
    HTAP_RETURN_NOT_OK(ForceSync(name));
  return Status::OK();
}

FreshnessInfo Database::Freshness(const std::string& table) {
  const TableInfo* info = catalog_.Find(table);
  return info == nullptr ? FreshnessInfo{} : engine_->Freshness(*info);
}

EngineStats Database::Stats() { return engine_->Stats(); }

// ---------------------------------------------------------------------------
// DbTxn
// ---------------------------------------------------------------------------

DbTxn::~DbTxn() {
  if (ctx_ != nullptr && !ctx_->finished) db_->engine_->Abort(ctx_.get());
}

Status DbTxn::Insert(const std::string& table, const Row& row) {
  HTAP_ASSIGN_OR_RETURN(const TableInfo* info, db_->Resolve(table));
  HTAP_RETURN_NOT_OK(CheckRow(info->schema, row));
  return db_->engine_->Insert(ctx_.get(), *info, row);
}

Status DbTxn::Update(const std::string& table, const Row& row) {
  HTAP_ASSIGN_OR_RETURN(const TableInfo* info, db_->Resolve(table));
  HTAP_RETURN_NOT_OK(CheckRow(info->schema, row));
  return db_->engine_->Update(ctx_.get(), *info, row);
}

Status DbTxn::Delete(const std::string& table, Key key) {
  HTAP_ASSIGN_OR_RETURN(const TableInfo* info, db_->Resolve(table));
  return db_->engine_->Delete(ctx_.get(), *info, key);
}

Status DbTxn::Get(const std::string& table, Key key, Row* out) {
  HTAP_ASSIGN_OR_RETURN(const TableInfo* info, db_->Resolve(table));
  return db_->engine_->Get(ctx_.get(), *info, key, out);
}

Status DbTxn::Commit() { return db_->engine_->Commit(ctx_.get()); }

Status DbTxn::Abort() { return db_->engine_->Abort(ctx_.get()); }

}  // namespace htap

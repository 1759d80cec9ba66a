// Database: the public entry point of htapdb.
//
//   DatabaseOptions opts;
//   opts.architecture = ArchitectureKind::kRowPlusInMemoryColumn;
//   auto db = Database::Open(opts).ValueOrDie();
//   db->CreateTable("orders", Schema({{"id", Type::kInt64}, ...}));
//   auto txn = db->Begin();
//   txn->Insert("orders", Row{...});
//   txn->Commit();
//   auto result = db->ExecuteSql("SELECT COUNT(*) FROM orders");
//
// One Database embodies one of the survey's four HTAP architectures; the
// API is identical across them, which is what makes the Table 1 benchmark
// an apples-to-apples comparison.

#ifndef HTAP_CORE_DATABASE_H_
#define HTAP_CORE_DATABASE_H_

#include <memory>
#include <string>

#include "core/catalog.h"
#include "core/engines.h"
#include "core/options.h"

namespace htap {

class Database;

/// A transaction handle. Obtain via Database::Begin; end with exactly one
/// Commit or Abort (the destructor aborts a still-active transaction).
class DbTxn {
 public:
  ~DbTxn();
  DbTxn(const DbTxn&) = delete;
  DbTxn& operator=(const DbTxn&) = delete;

  Status Insert(const std::string& table, const Row& row);
  Status Update(const std::string& table, const Row& row);
  Status Delete(const std::string& table, Key key);
  /// Snapshot read (sees this transaction's own writes where supported).
  Status Get(const std::string& table, Key key, Row* out);

  /// Commits. The client's next Begin() may not see this commit yet while
  /// another client's commit with a lower CSN is in flight: its reads can
  /// miss this commit's writes, and its write to a key only this client
  /// writes can fail with a Conflict that a retry clears (DESIGN.md §15).
  Status Commit();
  Status Abort();

 private:
  friend class Database;
  DbTxn(Database* db, std::unique_ptr<TxnContext> ctx)
      : db_(db), ctx_(std::move(ctx)) {}

  Database* db_;
  std::unique_ptr<TxnContext> ctx_;
};

class Database {
 public:
  /// Opens a database with the requested architecture.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  ~Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Status CreateTable(const std::string& name, Schema schema);

  // ---- OLTP ---------------------------------------------------------------
  std::unique_ptr<DbTxn> Begin();

  /// Autocommit conveniences.
  Status InsertRow(const std::string& table, const Row& row);
  Status UpdateRow(const std::string& table, const Row& row);
  Status DeleteRow(const std::string& table, Key key);
  /// Latest-committed point read.
  Status GetRow(const std::string& table, Key key, Row* out);

  // ---- OLAP ---------------------------------------------------------------
  Result<QueryResult> Query(const QueryPlan& plan,
                            QueryExecInfo* info = nullptr);

  /// Executes a SQL statement (see sql/ for the supported subset: CREATE
  /// TABLE, INSERT, UPDATE, DELETE, SELECT with WHERE/chained JOINs/
  /// GROUP BY/ORDER BY/LIMIT). DML autocommits. For SELECT, `info` (when
  /// non-null) receives execution details — join order, estimated vs.
  /// actual rows per join step, and stats provenance.
  Result<QueryResult> ExecuteSql(const std::string& sql,
                                 QueryExecInfo* info = nullptr);

  // ---- HTAP control ---------------------------------------------------
  /// Forces delta -> column-store synchronization for one table.
  Status ForceSync(const std::string& table);
  /// Forces it for every table.
  Status ForceSyncAll();
  FreshnessInfo Freshness(const std::string& table);
  EngineStats Stats();

  ArchitectureKind architecture() const { return options_.architecture; }
  const DatabaseOptions& options() const { return options_; }
  Catalog* catalog() { return &catalog_; }
  /// The underlying engine (benchmarks use architecture-specific hooks).
  HtapEngine* engine() { return engine_.get(); }
  /// The engine's AP morsel pool — scan, aggregation, and join morsels —
  /// (null when analytics run serially). Its concurrency quota throttles
  /// analytical CPU.
  ThreadPool* ap_scan_pool() { return engine_->ApScanPool(); }

 private:
  friend class DbTxn;
  explicit Database(DatabaseOptions options);

  Result<const TableInfo*> Resolve(const std::string& table) const;

  DatabaseOptions options_;
  Catalog catalog_;
  std::unique_ptr<HtapEngine> engine_;
};

}  // namespace htap

#endif  // HTAP_CORE_DATABASE_H_

// A small SQL front end over the library API.
//
// Supported subset (enough for the examples and the CH-benCHmark queries):
//   CREATE TABLE t (col INT64|DOUBLE|STRING [PRIMARY KEY], ...)
//   INSERT INTO t VALUES (...), (...)
//   UPDATE t SET col = lit, ... [WHERE pred]
//   DELETE FROM t [WHERE pred]
//   SELECT items FROM t [[INNER] JOIN t2 ON col = col]... [WHERE pred]
//     [GROUP BY cols] [ORDER BY out_col [DESC]] [LIMIT n]
// where items are *, columns, or COUNT(*) / SUM / AVG / MIN / MAX(col)
// [AS alias]; predicates use =, !=, <>, <, <=, >, >=, BETWEEN..AND,
// AND/OR/NOT and parentheses. In aggregate queries the select list must
// name the GROUP BY columns first, then the aggregates.

#ifndef HTAP_SQL_SQL_H_
#define HTAP_SQL_SQL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/schema.h"
#include "types/value.h"

namespace htap {
namespace sql {

// ---- AST -------------------------------------------------------------

struct Expr {
  enum class Kind { kColumn, kLiteral, kCompare, kAnd, kOr, kNot, kBetween };
  Kind kind = Kind::kLiteral;
  std::string column;       // kColumn (may be "table.col")
  Value literal;            // kLiteral
  std::string op;           // kCompare: =, !=, <, <=, >, >=
  std::vector<Expr> children;
};

struct SelectItem {
  enum class Kind { kStar, kColumn, kAggregate };
  Kind kind = Kind::kColumn;
  std::string column;  // kColumn or aggregate argument ("*" for COUNT(*))
  std::string func;    // COUNT/SUM/AVG/MIN/MAX
  std::string alias;
};

/// One [INNER] JOIN t ON l = r clause. The binder resolves each side of the
/// ON condition against either the tables joined so far or the new table
/// (written order is free), so chains like a JOIN b ON .. JOIN c ON .. bind
/// naturally onto QueryPlan::joins.
struct JoinSpec {
  std::string table;
  std::string left_col, right_col;  // as written; binder resolves sides
};

struct SelectStmt {
  std::vector<SelectItem> items;
  std::string table;
  std::vector<JoinSpec> joins;  // chained JOIN clauses, in written order
  std::optional<Expr> where;
  std::vector<std::string> group_by;
  std::string order_by;  // output column name/alias
  bool order_desc = false;
  size_t limit = 0;
};

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDef> columns;
  int pk_index = 0;
};

struct InsertStmt {
  std::string table;
  std::vector<std::vector<Value>> rows;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, Value>> assignments;
  std::optional<Expr> where;
};

struct DeleteStmt {
  std::string table;
  std::optional<Expr> where;
};

struct Statement {
  enum class Kind { kSelect, kCreateTable, kInsert, kUpdate, kDelete };
  Kind kind = Kind::kSelect;
  SelectStmt select;
  CreateTableStmt create;
  InsertStmt insert;
  UpdateStmt update;
  DeleteStmt del;
};

/// Parses one SQL statement (trailing ';' optional).
Result<Statement> Parse(const std::string& input);

}  // namespace sql

class Catalog;
struct QueryPlan;

/// Binds a SELECT's text against `catalog` into the QueryPlan that
/// Database::ExecuteSql runs for it. An aggregating plan outputs
/// [groups..., aggs...]; ExecuteSql then reorders those columns into the
/// select-list order.
Result<QueryPlan> BindSelectSql(const std::string& select_sql,
                                const Catalog& catalog);
}  // namespace htap

#endif  // HTAP_SQL_SQL_H_

// Binds parsed SQL to the library API: name resolution against the
// catalog, Expr -> Predicate lowering, SELECT -> QueryPlan construction,
// and DML execution. Implements Database::ExecuteSql.

#include <algorithm>

#include "core/database.h"
#include "sql/sql.h"

namespace htap {

namespace {

using sql::Expr;
using sql::SelectItem;
using sql::Statement;

/// Strips an optional "table." prefix when it matches `table_name`.
std::string StripPrefix(const std::string& name,
                        const std::string& table_name) {
  const size_t dot = name.find('.');
  if (dot == std::string::npos) return name;
  std::string prefix = name.substr(0, dot);
  std::string rest = name.substr(dot + 1);
  auto ieq = [](const std::string& a, const std::string& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i)
      if (std::tolower(a[i]) != std::tolower(b[i])) return false;
    return true;
  };
  return ieq(prefix, table_name) ? rest : name;
}

/// Resolves a (possibly qualified) column name within a single table.
int ResolveInTable(const std::string& name, const TableInfo& table) {
  return table.schema.FindColumn(StripPrefix(name, table.name));
}

/// One table participating in a (possibly multi-way) join, with its column
/// offset in the combined output layout (base columns first, then each
/// join's columns in plan order).
struct TableLayout {
  const TableInfo* info = nullptr;
  size_t offset = 0;
};

/// Resolves within a combined layout. Returns the combined column index,
/// -1 when no table has the column, -2 when an unqualified name matches
/// more than one table (qualify it as "table.col" to disambiguate).
int ResolveAcrossRaw(const std::string& name,
                     const std::vector<TableLayout>& tables) {
  int found = -1;
  for (const TableLayout& t : tables) {
    const int idx = ResolveInTable(name, *t.info);
    if (idx < 0) continue;
    if (found >= 0) return -2;
    found = idx + static_cast<int>(t.offset);
  }
  return found;
}

Result<int> ResolveAcross(const std::string& name,
                          const std::vector<TableLayout>& tables) {
  const int idx = ResolveAcrossRaw(name, tables);
  if (idx == -2) return Status::InvalidArgument("ambiguous column: " + name);
  if (idx < 0) return Status::InvalidArgument("unknown column: " + name);
  return idx;
}

CmpOp ParseCmpOp(const std::string& op) {
  if (op == "=") return CmpOp::kEq;
  if (op == "!=") return CmpOp::kNe;
  if (op == "<") return CmpOp::kLt;
  if (op == "<=") return CmpOp::kLe;
  if (op == ">") return CmpOp::kGt;
  return CmpOp::kGe;
}

/// Lowers an Expr to a Predicate with a caller-supplied column resolver.
Result<Predicate> LowerExpr(
    const Expr& e, const std::function<Result<int>(const std::string&)>& res) {
  switch (e.kind) {
    case Expr::Kind::kCompare: {
      HTAP_ASSIGN_OR_RETURN(int col, res(e.column));
      return Predicate::Compare(col, ParseCmpOp(e.op),
                                e.children[0].literal);
    }
    case Expr::Kind::kBetween: {
      HTAP_ASSIGN_OR_RETURN(int col, res(e.column));
      return Predicate::Between(col, e.children[0].literal,
                                e.children[1].literal);
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      std::vector<Predicate> children;
      for (const Expr& c : e.children) {
        HTAP_ASSIGN_OR_RETURN(Predicate p, LowerExpr(c, res));
        children.push_back(std::move(p));
      }
      return e.kind == Expr::Kind::kAnd ? Predicate::And(std::move(children))
                                        : Predicate::Or(std::move(children));
    }
    case Expr::Kind::kNot: {
      HTAP_ASSIGN_OR_RETURN(Predicate p, LowerExpr(e.children[0], res));
      return Predicate::Not(std::move(p));
    }
    default:
      return Status::InvalidArgument("unsupported expression");
  }
}

/// Columns referenced by an Expr.
void CollectColumns(const Expr& e, std::vector<std::string>* out) {
  if (e.kind == Expr::Kind::kCompare || e.kind == Expr::Kind::kBetween)
    out->push_back(e.column);
  for (const Expr& c : e.children) CollectColumns(c, out);
}

/// Splits a WHERE into per-table conjunct lists (index 0 = base table,
/// i >= 1 = joined table i-1). Flattens top-level ANDs; every remaining
/// conjunct must reference columns of exactly one table so it can be pushed
/// down to that table's scan.
Status ClassifyWhere(const Expr& where, const std::vector<TableLayout>& tables,
                     std::vector<std::vector<Expr>>* per_table) {
  if (where.kind == Expr::Kind::kAnd) {
    for (const Expr& c : where.children)
      HTAP_RETURN_NOT_OK(ClassifyWhere(c, tables, per_table));
    return Status::OK();
  }
  std::vector<std::string> cols;
  CollectColumns(where, &cols);
  int owner = -1;
  for (const std::string& name : cols) {
    const int combined = ResolveAcrossRaw(name, tables);
    if (combined == -2)
      return Status::InvalidArgument("ambiguous column: " + name);
    if (combined < 0)
      return Status::InvalidArgument("unknown column: " + name);
    int t = 0;
    for (size_t i = 0; i < tables.size(); ++i)
      if (combined >= static_cast<int>(tables[i].offset))
        t = static_cast<int>(i);
    if (owner >= 0 && owner != t)
      return Status::NotSupported(
          "predicates spanning multiple join tables are not supported");
    owner = t;
  }
  if (owner < 0) owner = 0;  // constant conjunct: evaluate at the base scan
  (*per_table)[static_cast<size_t>(owner)].push_back(where);
  return Status::OK();
}

AggSpec::Fn ParseAggFn(const std::string& f) {
  if (f == "COUNT") return AggSpec::Fn::kCount;
  if (f == "SUM") return AggSpec::Fn::kSum;
  if (f == "AVG") return AggSpec::Fn::kAvg;
  if (f == "MIN") return AggSpec::Fn::kMin;
  return AggSpec::Fn::kMax;
}

std::string DefaultAggName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  std::string f = item.func;
  for (char& c : f) c = static_cast<char>(std::tolower(c));
  return item.column == "*" ? f : f + "_" + StripPrefix(item.column, "");
}

Result<QueryPlan> BindSelect(const sql::SelectStmt& stmt,
                             const Catalog& catalog,
                             std::vector<int>* out_perm) {
  const TableInfo* base = catalog.Find(stmt.table);
  if (base == nullptr)
    return Status::NotFound("no table: " + stmt.table);
  std::vector<size_t> agg_positions;

  QueryPlan plan;
  plan.table = stmt.table;

  // Combined layout built up clause by clause: base columns, then each
  // joined table's columns in written order. Chained JOINs bind onto
  // QueryPlan::joins.
  std::vector<TableLayout> tables;
  tables.push_back({base, 0});

  for (const sql::JoinSpec& js : stmt.joins) {
    const TableInfo* t = catalog.Find(js.table);
    if (t == nullptr) return Status::NotFound("no table: " + js.table);
    // ON columns: one side binds into the combined-so-far layout, the other
    // into the new table; either written order is accepted.
    int l = ResolveAcrossRaw(js.left_col, tables);
    int r = ResolveInTable(js.right_col, *t);
    int l_alt = -1;
    if (l < 0 || r < 0) {
      l_alt = ResolveAcrossRaw(js.right_col, tables);
      const int r_alt = ResolveInTable(js.left_col, *t);
      if (l_alt >= 0 && r_alt >= 0) {
        l = l_alt;
        r = r_alt;
      }
    }
    if (l < 0 || r < 0) {
      if (l == -2 || l_alt == -2)
        return Status::InvalidArgument("ambiguous column in join condition: " +
                                       js.left_col + " = " + js.right_col);
      return Status::InvalidArgument("cannot resolve join columns: " +
                                     js.left_col + " = " + js.right_col);
    }
    JoinClause jc;
    jc.table = js.table;
    jc.left_col = l;
    jc.right_col = r;
    plan.joins.push_back(std::move(jc));
    const TableLayout& last = tables.back();
    tables.push_back({t, last.offset + last.info->schema.num_columns()});
  }

  auto resolve_combined = [&tables](const std::string& name) {
    return ResolveAcross(name, tables);
  };

  if (stmt.where.has_value()) {
    std::vector<std::vector<Expr>> conj(tables.size());
    HTAP_RETURN_NOT_OK(ClassifyWhere(*stmt.where, tables, &conj));
    for (size_t t = 0; t < tables.size(); ++t) {
      if (conj[t].empty()) continue;
      const TableInfo& ti = *tables[t].info;
      auto res = [&ti](const std::string& n) -> Result<int> {
        const int i = ResolveInTable(n, ti);
        if (i < 0) return Status::InvalidArgument("unknown column: " + n);
        return i;
      };
      std::vector<Predicate> ps;
      for (const Expr& e : conj[t]) {
        HTAP_ASSIGN_OR_RETURN(Predicate p, LowerExpr(e, res));
        ps.push_back(std::move(p));
      }
      Predicate merged = ps.size() == 1 ? std::move(ps[0])
                                        : Predicate::And(std::move(ps));
      if (t == 0) {
        plan.where = std::move(merged);
      } else {
        plan.joins[t - 1].where = std::move(merged);
      }
    }
  }

  // GROUP BY + select list.
  const bool has_aggs = std::any_of(
      stmt.items.begin(), stmt.items.end(), [](const SelectItem& i) {
        return i.kind == SelectItem::Kind::kAggregate;
      });

  if (has_aggs) {
    for (const std::string& g : stmt.group_by) {
      HTAP_ASSIGN_OR_RETURN(int idx, resolve_combined(g));
      plan.group_by.push_back(idx);
    }
    // The runner emits [group columns..., aggregates...]; `out_perm` maps
    // each select item to its position there so the result can be reshaped
    // into the user's select-list order.
    std::vector<bool> group_used(plan.group_by.size(), false);
    size_t agg_serial = 0;
    for (const SelectItem& item : stmt.items) {
      if (item.kind == SelectItem::Kind::kColumn) {
        HTAP_ASSIGN_OR_RETURN(int idx, resolve_combined(item.column));
        bool matched = false;
        for (size_t g = 0; g < plan.group_by.size(); ++g) {
          if (!group_used[g] && plan.group_by[g] == idx) {
            group_used[g] = true;
            out_perm->push_back(static_cast<int>(g));
            matched = true;
            break;
          }
        }
        if (!matched)
          return Status::NotSupported(
              "non-aggregate select item must appear in GROUP BY: " +
              item.column);
      } else if (item.kind == SelectItem::Kind::kAggregate) {
        AggSpec agg;
        agg.fn = ParseAggFn(item.func);
        agg.name = DefaultAggName(item);
        if (item.column == "*") {
          agg.column = -1;
        } else {
          HTAP_ASSIGN_OR_RETURN(int idx, resolve_combined(item.column));
          agg.column = idx;
        }
        plan.aggs.push_back(std::move(agg));
        out_perm->push_back(-1);  // patched below once group count is known
        agg_positions.push_back(out_perm->size() - 1);
      } else {
        return Status::NotSupported("SELECT * cannot mix with aggregates");
      }
    }
    for (size_t a = 0; a < agg_positions.size(); ++a)
      (*out_perm)[agg_positions[a]] =
          static_cast<int>(plan.group_by.size() + a);
    (void)agg_serial;
    // Identity permutations need no reshaping.
    bool identity = out_perm->size() == plan.group_by.size() + plan.aggs.size();
    for (size_t i = 0; identity && i < out_perm->size(); ++i)
      identity = (*out_perm)[i] == static_cast<int>(i);
    if (identity) out_perm->clear();
  } else {
    if (!stmt.group_by.empty())
      return Status::NotSupported("GROUP BY without aggregates");
    for (const SelectItem& item : stmt.items) {
      if (item.kind == SelectItem::Kind::kStar) {
        plan.projection.clear();
        break;
      }
      HTAP_ASSIGN_OR_RETURN(int idx, resolve_combined(item.column));
      plan.projection.push_back(idx);
    }
  }

  // ORDER BY resolves against the runner's output layout (the final
  // select-list reshaping happens after sorting, on the same columns).
  if (!stmt.order_by.empty()) {
    int out_idx = -1;
    if (has_aggs) {
      // Aggregate aliases first, then group-by columns.
      for (size_t a = 0; a < plan.aggs.size(); ++a) {
        if (plan.aggs[a].name == stmt.order_by) {
          out_idx = static_cast<int>(plan.group_by.size() + a);
          break;
        }
      }
      if (out_idx < 0) {
        auto idx_res = resolve_combined(stmt.order_by);
        if (idx_res.ok()) {
          for (size_t g = 0; g < plan.group_by.size(); ++g) {
            if (*idx_res == plan.group_by[g]) {
              out_idx = static_cast<int>(g);
              break;
            }
          }
        }
      }
    } else if (!plan.projection.empty()) {
      HTAP_ASSIGN_OR_RETURN(int idx, resolve_combined(stmt.order_by));
      for (size_t p = 0; p < plan.projection.size(); ++p)
        if (plan.projection[p] == idx) out_idx = static_cast<int>(p);
    } else {
      HTAP_ASSIGN_OR_RETURN(int idx, resolve_combined(stmt.order_by));
      out_idx = idx;
    }
    if (out_idx < 0)
      return Status::InvalidArgument("ORDER BY column not in output: " +
                                     stmt.order_by);
    plan.order_by = out_idx;
    plan.order_desc = stmt.order_desc;
  }
  plan.limit = stmt.limit;
  return plan;
}

QueryResult MakeDmlResult(const std::string& counter_name, int64_t n) {
  QueryResult r;
  r.schema = Schema({ColumnDef(counter_name, Type::kInt64)});
  r.rows.push_back(Row{Value(n)});
  return r;
}

}  // namespace

Result<QueryPlan> BindSelectSql(const std::string& select_sql,
                                const Catalog& catalog) {
  HTAP_ASSIGN_OR_RETURN(Statement stmt, sql::Parse(select_sql));
  if (stmt.kind != Statement::Kind::kSelect)
    return Status::InvalidArgument("not a SELECT statement");
  std::vector<int> out_perm;
  return BindSelect(stmt.select, catalog, &out_perm);
}

Result<QueryResult> Database::ExecuteSql(const std::string& sql_text,
                                         QueryExecInfo* info) {
  HTAP_ASSIGN_OR_RETURN(Statement stmt, sql::Parse(sql_text));

  switch (stmt.kind) {
    case Statement::Kind::kCreateTable: {
      Schema schema(stmt.create.columns, stmt.create.pk_index);
      HTAP_RETURN_NOT_OK(CreateTable(stmt.create.table, std::move(schema)));
      return MakeDmlResult("tables_created", 1);
    }

    case Statement::Kind::kInsert: {
      const TableInfo* info = catalog_.Find(stmt.insert.table);
      if (info == nullptr)
        return Status::NotFound("no table: " + stmt.insert.table);
      auto txn = Begin();
      for (const auto& vals : stmt.insert.rows) {
        if (vals.size() != info->schema.num_columns())
          return Status::InvalidArgument("INSERT arity mismatch");
        HTAP_RETURN_NOT_OK(txn->Insert(stmt.insert.table, Row(vals)));
      }
      HTAP_RETURN_NOT_OK(txn->Commit());
      return MakeDmlResult("rows_inserted",
                           static_cast<int64_t>(stmt.insert.rows.size()));
    }

    case Statement::Kind::kUpdate: {
      const TableInfo* info = catalog_.Find(stmt.update.table);
      if (info == nullptr)
        return Status::NotFound("no table: " + stmt.update.table);
      // Resolve assignments.
      std::vector<std::pair<int, Value>> sets;
      for (const auto& [name, value] : stmt.update.assignments) {
        const int idx = ResolveInTable(name, *info);
        if (idx < 0) return Status::InvalidArgument("unknown column: " + name);
        sets.emplace_back(idx, value);
      }
      // Find matching rows via a row-path scan, then update in one txn.
      QueryPlan plan;
      plan.table = stmt.update.table;
      plan.path = PathHint::kForceRow;
      if (stmt.update.where.has_value()) {
        auto res = [&](const std::string& n) -> Result<int> {
          const int i = ResolveInTable(n, *info);
          if (i < 0) return Status::InvalidArgument("unknown column: " + n);
          return i;
        };
        HTAP_ASSIGN_OR_RETURN(Predicate p, LowerExpr(*stmt.update.where, res));
        plan.where = std::move(p);
      }
      HTAP_ASSIGN_OR_RETURN(QueryResult matched, Query(plan, nullptr));
      auto txn = Begin();
      for (Row row : matched.rows) {
        for (const auto& [idx, value] : sets)
          row.Set(static_cast<size_t>(idx), value);
        HTAP_RETURN_NOT_OK(txn->Update(stmt.update.table, row));
      }
      HTAP_RETURN_NOT_OK(txn->Commit());
      return MakeDmlResult("rows_updated",
                           static_cast<int64_t>(matched.rows.size()));
    }

    case Statement::Kind::kDelete: {
      const TableInfo* info = catalog_.Find(stmt.del.table);
      if (info == nullptr)
        return Status::NotFound("no table: " + stmt.del.table);
      QueryPlan plan;
      plan.table = stmt.del.table;
      plan.path = PathHint::kForceRow;
      plan.projection = {info->schema.pk_index()};
      if (stmt.del.where.has_value()) {
        auto res = [&](const std::string& n) -> Result<int> {
          const int i = ResolveInTable(n, *info);
          if (i < 0) return Status::InvalidArgument("unknown column: " + n);
          return i;
        };
        HTAP_ASSIGN_OR_RETURN(Predicate p, LowerExpr(*stmt.del.where, res));
        plan.where = std::move(p);
      }
      HTAP_ASSIGN_OR_RETURN(QueryResult matched, Query(plan, nullptr));
      auto txn = Begin();
      for (const Row& row : matched.rows)
        HTAP_RETURN_NOT_OK(txn->Delete(stmt.del.table, row.Get(0).AsInt64()));
      HTAP_RETURN_NOT_OK(txn->Commit());
      return MakeDmlResult("rows_deleted",
                           static_cast<int64_t>(matched.rows.size()));
    }

    case Statement::Kind::kSelect: {
      std::vector<int> out_perm;
      HTAP_ASSIGN_OR_RETURN(QueryPlan plan,
                            BindSelect(stmt.select, catalog_, &out_perm));
      HTAP_ASSIGN_OR_RETURN(QueryResult result, Query(plan, info));
      if (!out_perm.empty()) {
        // Reshape [groups..., aggs...] into the user's select-list order.
        std::vector<ColumnDef> cols;
        for (int p : out_perm)
          cols.push_back(result.schema.column(static_cast<size_t>(p)));
        for (Row& row : result.rows) {
          Row reshaped;
          for (int p : out_perm) reshaped.Append(row.Get(static_cast<size_t>(p)));
          row = std::move(reshaped);
        }
        result.schema = Schema(std::move(cols), 0);
      }
      return result;
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace htap

// A reference evaluator for QueryPlans: brute force over plain row vectors,
// sharing no code with the engine's operators. Tests compare the engine's
// answers with it, row order included.
//
// It filters each table with its pushed-down predicate, joins in plan order
// with nested loops (for each combined row in order, every matching row of
// the joined table in its order; NULL keys never match), then aggregates or
// projects, then sorts and limits. Aggregates follow the engine's
// semantics: COUNT counts rows (NULL cells included), SUM/AVG add numeric
// cells (AVG divides by that COUNT), MIN/MAX compare with Value ordering,
// and an aggregate that saw no non-NULL cell yields NULL (COUNT yields 0).
//
// Group order is unspecified for HashAggregate. To keep comparisons exact,
// groups come out in the order a serial HashAggregate emits them: an
// unordered_map keyed by the FNV-style combination of the group values'
// Value::Hash, filled in input order. A parallel aggregate merges partial
// tables and may order groups differently, so exact comparisons of grouped
// output without a total ORDER BY hold for serial aggregates only.
//
// The operator tests use its parts directly: NestedLoopJoin/NestedLoopPairs
// for joins, Aggregate for HashAggregate, and HtapTableModel, a plain-row
// model of one column table plus its delta, for the HTAP scan.

#ifndef HTAP_TESTS_REFERENCE_EVAL_H_
#define HTAP_TESTS_REFERENCE_EVAL_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/plan.h"
#include "delta/delta.h"
#include "types/row.h"

namespace htap {
namespace ref {

/// Each table's rows by name, in the order its scan returns them.
using Tables = std::map<std::string, std::vector<Row>>;

inline std::vector<Row> Filter(const std::vector<Row>& rows,
                               const Predicate& pred) {
  std::vector<Row> out;
  for (const Row& r : rows)
    if (pred.Eval(r)) out.push_back(r);
  return out;
}

inline Row Concat(const Row& a, const Row& b) {
  Row out = a;
  for (const Value& v : b.values()) out.Append(v);
  return out;
}

/// Joins `left` with `right` on left[lc] == right[rc], nested-loop order.
inline std::vector<Row> NestedLoopJoin(const std::vector<Row>& left,
                                       const std::vector<Row>& right, int lc,
                                       int rc) {
  std::vector<Row> out;
  for (const Row& l : left) {
    const Value& lk = l.Get(static_cast<size_t>(lc));
    if (lk.is_null()) continue;
    for (const Row& r : right) {
      const Value& rk = r.Get(static_cast<size_t>(rc));
      if (!rk.is_null() && lk == rk) out.push_back(Concat(l, r));
    }
  }
  return out;
}

/// The (left index, right index) pairs of NestedLoopJoin, in its order.
inline std::vector<std::pair<uint32_t, uint32_t>> NestedLoopPairs(
    const std::vector<Row>& left, const std::vector<Row>& right, int lc,
    int rc) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (size_t i = 0; i < left.size(); ++i) {
    const Value& lk = left[i].Get(static_cast<size_t>(lc));
    if (lk.is_null()) continue;
    for (size_t j = 0; j < right.size(); ++j) {
      const Value& rk = right[j].Get(static_cast<size_t>(rc));
      if (!rk.is_null() && lk == rk)
        out.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
    }
  }
  return out;
}

struct AggAccum {
  int64_t count = 0;
  double sum = 0;
  bool any = false;
  Value min, max;

  void Add(const Value& v) {
    ++count;
    if (v.is_null()) return;
    if (!v.is_string()) sum += v.AsDouble();
    if (!any || v < min) min = v;
    if (!any || max < v) max = v;
    any = true;
  }

  Value Result(AggSpec::Fn fn) const {
    switch (fn) {
      case AggSpec::Fn::kCount: return Value(count);
      case AggSpec::Fn::kSum: return any ? Value(sum) : Value::Null();
      case AggSpec::Fn::kMin: return any ? min : Value::Null();
      case AggSpec::Fn::kMax: return any ? max : Value::Null();
      case AggSpec::Fn::kAvg:
        return any ? Value(sum / static_cast<double>(count)) : Value::Null();
    }
    return Value::Null();
  }
};

inline std::vector<Row> Aggregate(const std::vector<Row>& rows,
                                  const std::vector<int>& groups,
                                  const std::vector<AggSpec>& aggs) {
  struct Group {
    Row key;
    std::vector<AggAccum> acc;
  };
  std::unordered_map<uint64_t, std::vector<Group>> table;
  for (const Row& r : rows) {
    Row key;
    uint64_t h = 1469598103934665603ULL;
    for (int g : groups) {
      key.Append(r.Get(static_cast<size_t>(g)));
      h = h * 1099511628211ULL ^ key.values().back().Hash();
    }
    std::vector<Group>& bucket = table[h];
    Group* grp = nullptr;
    for (Group& cand : bucket)
      if (cand.key == key) grp = &cand;
    if (grp == nullptr) {
      bucket.push_back(Group{key, std::vector<AggAccum>(aggs.size())});
      grp = &bucket.back();
    }
    for (size_t a = 0; a < aggs.size(); ++a)
      grp->acc[a].Add(aggs[a].column < 0
                          ? Value(int64_t{1})
                          : r.Get(static_cast<size_t>(aggs[a].column)));
  }
  std::vector<Row> out;
  if (table.empty() && groups.empty())  // a global aggregate of no rows
    table[0].push_back(Group{Row{}, std::vector<AggAccum>(aggs.size())});
  for (const auto& [h, bucket] : table) {
    for (const Group& g : bucket) {
      Row r = g.key;
      for (size_t a = 0; a < aggs.size(); ++a)
        r.Append(g.acc[a].Result(aggs[a].fn));
      out.push_back(std::move(r));
    }
  }
  return out;
}

/// The tables `plan` reads, each as `db` returns it whole on `path`: the
/// evaluator's input in the engine's scan order. Empty on a failed scan.
inline Tables ScanTables(Database* db, const QueryPlan& plan, PathHint path) {
  std::vector<std::string> names = {plan.table};
  for (const JoinClause& j : plan.joins) names.push_back(j.table);
  Tables out;
  for (const std::string& name : names) {
    QueryPlan all;
    all.table = name;
    all.path = path;
    auto res = db->Query(all);
    if (!res.ok()) return {};
    out[name] = std::move(res->rows);
  }
  return out;
}

/// Evaluates `plan` over `tables` (see the header comment).
inline std::vector<Row> Eval(const QueryPlan& plan, const Tables& tables) {
  std::vector<Row> rows = Filter(tables.at(plan.table), plan.where);
  for (const JoinClause& j : plan.joins)
    rows = NestedLoopJoin(rows, Filter(tables.at(j.table), j.where),
                          j.left_col, j.right_col);

  if (!plan.aggs.empty()) {
    rows = Aggregate(rows, plan.group_by, plan.aggs);
  } else if (!plan.projection.empty()) {
    for (Row& r : rows) {
      Row p;
      for (int c : plan.projection) p.Append(r.Get(static_cast<size_t>(c)));
      r = std::move(p);
    }
  }

  if (plan.order_by >= 0) {
    const auto col = static_cast<size_t>(plan.order_by);
    const auto less = [&](const Row& a, const Row& b) {
      const int c = a.Get(col).Compare(b.Get(col));
      return plan.order_desc ? c > 0 : c < 0;
    };
    // The engine's SortLimit: a partial sort when the limit cuts, else a
    // stable sort; ties under a partial sort keep whatever order
    // std::partial_sort leaves, identical for identical input.
    if (plan.limit != 0 && plan.limit < rows.size()) {
      std::partial_sort(rows.begin(),
                        rows.begin() + static_cast<long>(plan.limit),
                        rows.end(), less);
      rows.resize(plan.limit);
    } else {
      std::stable_sort(rows.begin(), rows.end(), less);
    }
  } else if (plan.limit != 0 && rows.size() > plan.limit) {
    rows.resize(plan.limit);
  }
  return rows;
}

/// A plain-row model of one column table plus the delta staged for it,
/// for checking the HTAP scan (ScanHtapBatches) row for row. Tests feed it
/// the same appends, deletes and delta entries they give the engine.
///
/// Scan order follows the operator's contract: the table's live rows in
/// append order (an append of an existing key kills the older row; the
/// new one goes to the end), minus every key the delta overrides at the
/// snapshot; then the delta's latest row per key, skipping deletes. The
/// delta part comes out in the iteration order of an unordered_map keyed
/// by Key and filled in delta order — the order the operator documents —
/// so comparisons can be exact.
class HtapTableModel {
 public:
  explicit HtapTableModel(Schema schema) : schema_(std::move(schema)) {}

  /// As ColumnTable::AppendBatch.
  void Append(const std::vector<Row>& rows) {
    for (const Row& r : rows) {
      Delete(r.GetKey(schema_));
      main_.push_back(Slot{r, true});
    }
  }

  /// As ColumnTable::DeleteKey.
  void Delete(Key key) {
    for (Slot& s : main_)
      if (s.live && s.row.GetKey(schema_) == key) s.live = false;
  }

  /// As DeltaStore::Append; entries arrive in commit (CSN) order.
  void AddDelta(const DeltaEntry& e) { delta_.push_back(e); }

  struct ScanResult {
    std::vector<Row> rows;
    size_t main_rows = 0;   // of `rows`, those from the table
    size_t delta_rows = 0;  // of `rows`, those from the delta
  };

  ScanResult Scan(CSN snapshot, const Predicate& pred,
                  const std::vector<int>& projection) const {
    std::unordered_map<Key, const DeltaEntry*> latest;
    for (const DeltaEntry& e : delta_)
      if (e.csn <= snapshot) latest[e.key] = &e;
    const auto project = [&](const Row& r) {
      if (projection.empty()) return r;
      Row out;
      for (int c : projection) out.Append(r.Get(static_cast<size_t>(c)));
      return out;
    };
    ScanResult out;
    for (const Slot& s : main_) {
      if (!s.live || latest.count(s.row.GetKey(schema_)) != 0) continue;
      if (!pred.Eval(s.row)) continue;
      out.rows.push_back(project(s.row));
      ++out.main_rows;
    }
    for (const auto& [key, e] : latest) {
      if (e->op == ChangeOp::kDelete || !pred.Eval(e->row)) continue;
      out.rows.push_back(project(e->row));
      ++out.delta_rows;
    }
    return out;
  }

  /// Scan(...).rows.
  std::vector<Row> Rows(CSN snapshot, const Predicate& pred,
                        const std::vector<int>& projection = {}) const {
    return Scan(snapshot, pred, projection).rows;
  }

 private:
  struct Slot {
    Row row;
    bool live;
  };
  Schema schema_;
  std::vector<Slot> main_;
  std::vector<DeltaEntry> delta_;
};

}  // namespace ref
}  // namespace htap

#endif  // HTAP_TESTS_REFERENCE_EVAL_H_

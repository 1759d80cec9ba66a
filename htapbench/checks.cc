#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "tpcc.h"

namespace htapbench {

using htap::AggSpec;
using htap::PathHint;
using htap::QueryPlan;
using htap::Row;
using htap::Value;

namespace {

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Orders rows by their non-double values first, so that rounding noise in
/// aggregates cannot reorder rows whose group keys differ.
bool RowLess(const Row& a, const Row& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (int pass = 0; pass < 2; ++pass)
    for (size_t i = 0; i < a.size(); ++i) {
      const bool dbl = a.Get(i).is_double() || b.Get(i).is_double();
      if (dbl != (pass == 1)) continue;
      const int c = a.Get(i).Compare(b.Get(i));
      if (c != 0) return c < 0;
    }
  return false;
}

bool SameValue(const Value& x, const Value& y) {
  if (!x.is_double() && !y.is_double()) return x == y;
  if (x.is_null() || y.is_null()) return x.is_null() == y.is_null();
  return NearlyEqual(x.AsDouble(), y.AsDouble());
}

bool RowsMatch(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!SameValue(a.Get(i), b.Get(i))) return false;
  return true;
}

/// Under ORDER BY ... LIMIT either result may keep any of the rows tied on
/// the sort key at the cut-off. Checks that both keep as many of them, then
/// drops them from both.
bool DropCutoffTies(std::vector<Row>* a, std::vector<Row>* b, size_t col,
                    std::string* why) {
  if (a->empty() || b->empty()) return true;  // sizes are compared later
  const Value cut = a->back().Get(col);
  const auto tied = [&](const Row& r) { return SameValue(r.Get(col), cut); };
  const auto na = std::count_if(a->begin(), a->end(), tied);
  const auto nb = std::count_if(b->begin(), b->end(), tied);
  if (na != nb) {
    *why = std::to_string(na) + " vs " + std::to_string(nb) +
           " rows tied at the limit";
    return false;
  }
  std::erase_if(*a, tied);
  std::erase_if(*b, tied);
  return true;
}

/// Multiset equality with doubles compared within 1e-9 relative.
bool SameMultiset(std::vector<Row> a, std::vector<Row> b, std::string* why) {
  if (a.size() != b.size()) {
    *why = std::to_string(a.size()) + " rows vs " + std::to_string(b.size());
    return false;
  }
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t i = 0; i < a.size(); ++i)
    if (!RowsMatch(a[i], b[i])) {
      *why = a[i].ToString() + " vs " + b[i].ToString();
      return false;
    }
  return true;
}

const char* PathName(PathHint p) {
  return p == PathHint::kForceRow ? "row" : "column";
}

/// Runs `plan` on the forced access path; on error fills `failure`.
std::vector<Row> Run(htap::Database* db, QueryPlan plan, PathHint path,
                     CheckResult* failure) {
  plan.path = path;
  auto res = db->Query(plan);
  if (!res.ok()) {
    failure->ok = false;
    failure->detail = std::string(PathName(path)) +
                      " query failed: " + res.status().ToString();
    return {};
  }
  return std::move(res->rows);
}

QueryPlan Scan(const char* table, std::vector<int> group_by,
               std::vector<AggSpec> aggs, std::vector<int> projection = {}) {
  QueryPlan p;
  p.table = table;
  p.group_by = std::move(group_by);
  p.aggs = std::move(aggs);
  p.projection = std::move(projection);
  return p;
}

std::pair<int64_t, int64_t> WD(const Row& r, size_t w, size_t d) {
  return {r.Get(w).AsInt64(), r.Get(d).AsInt64()};
}

/// The three TPC-C invariants over one access path.
void CheckPath(htap::Database* db, PathHint path,
               std::vector<CheckResult>* out) {
  const std::string suffix = std::string(" (") + PathName(path) + ")";

  {  // W_YTD = sum(D_YTD) per warehouse.
    CheckResult r{"w_ytd = sum(d_ytd)" + suffix, true, ""};
    const auto wh =
        Run(db, Scan("warehouse", {}, {}, {0, col::kWYtd}), path, &r);
    const auto dist = Run(
        db, Scan("district", {1}, {AggSpec::Sum(col::kDYtd, "ytd")}), path, &r);
    std::map<int64_t, double> d_ytd;
    for (const Row& row : dist)
      d_ytd[row.Get(0).AsInt64()] = row.Get(1).AsDouble();
    for (const Row& row : wh) {
      const int64_t w = row.Get(0).AsInt64();
      if (r.ok && !NearlyEqual(row.Get(1).AsDouble(), d_ytd[w])) {
        r.ok = false;
        r.detail = "warehouse " + std::to_string(w) + ": " +
                   row.Get(1).ToString() + " vs " + std::to_string(d_ytd[w]);
      }
    }
    if (r.ok && (wh.empty() || wh.size() != d_ytd.size())) {
      r.ok = false;
      r.detail = "warehouse/district row counts differ";
    }
    out->push_back(r);
  }
  {  // d_next_o_id - 1 = order count per district (the QOD grouping, per
     // warehouse).
    CheckResult r{"d_next_o_id - 1 = orders per district" + suffix, true, ""};
    const auto dist =
        Run(db, Scan("district", {}, {}, {1, 2, col::kDNextOId}), path, &r);
    const auto counts =
        Run(db, Scan("orders", {1, 2}, {AggSpec::Count("n")}), path, &r);
    std::map<std::pair<int64_t, int64_t>, int64_t> n;
    for (const Row& row : counts) n[WD(row, 0, 1)] = row.Get(2).AsInt64();
    for (const Row& row : dist) {
      const int64_t expect = row.Get(2).AsInt64() - 1;
      const int64_t got = n[WD(row, 0, 1)];
      if (r.ok && got != expect) {
        r.ok = false;
        r.detail = "district " + row.Get(0).ToString() + "/" +
                   row.Get(1).ToString() + ": " + std::to_string(got) +
                   " orders, d_next_o_id - 1 = " + std::to_string(expect);
      }
    }
    if (r.ok && (dist.empty() || dist.size() != n.size())) {
      r.ok = false;
      r.detail = "district/order group counts differ";
    }
    out->push_back(r);
  }
  {  // COUNT(orderline) = SUM(o_ol_cnt).
    CheckResult r{"count(orderline) = sum(o_ol_cnt)" + suffix, true, ""};
    const auto lines =
        Run(db, Scan("orderline", {}, {AggSpec::Count("n")}), path, &r);
    const auto orders = Run(
        db, Scan("orders", {}, {AggSpec::Sum(col::kOOlCnt, "n")}), path, &r);
    if (r.ok && (lines.size() != 1 || orders.size() != 1 ||
                 lines[0].Get(0).AsDouble() != orders[0].Get(0).AsDouble())) {
      r.ok = false;
      r.detail = (lines.empty() ? "?" : lines[0].Get(0).ToString()) + " vs " +
                 (orders.empty() ? "?" : orders[0].Get(0).ToString());
    }
    out->push_back(r);
  }
}

}  // namespace

std::vector<CheckResult> CheckRowVsColumn(
    htap::Database* db, const std::vector<htap::bench::ChQuery>& queries) {
  std::vector<CheckResult> out;
  for (const auto& q : queries) {
    CheckResult r{"row = column: " + q.name, true, ""};
    auto row = Run(db, q.plan, PathHint::kForceRow, &r);
    auto column = Run(db, q.plan, PathHint::kForceColumn, &r);
    if (r.ok && q.plan.limit > 0 && q.plan.order_by >= 0)
      r.ok = DropCutoffTies(&row, &column,
                            static_cast<size_t>(q.plan.order_by), &r.detail);
    if (r.ok && !SameMultiset(std::move(row), std::move(column), &r.detail))
      r.ok = false;
    out.push_back(r);
  }
  return out;
}

std::vector<CheckResult> CheckTpccConsistency(htap::Database* db) {
  std::vector<CheckResult> out;
  CheckPath(db, PathHint::kForceRow, &out);
  CheckPath(db, PathHint::kForceColumn, &out);
  return out;
}

}  // namespace htapbench

#include "opt/optimizer.h"

#include <algorithm>
#include <unordered_set>

namespace htap {

TableStats TableStats::Compute(const Schema& schema,
                               const std::vector<Row>& rows) {
  TableStats st;
  st.row_count = rows.size();
  st.columns.resize(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    ColumnStats& cs = st.columns[c];
    std::unordered_set<uint64_t> distinct;
    size_t nulls = 0;
    double width_sum = 0;
    bool first = true;
    for (const Row& r : rows) {
      const Value& v = r.Get(c);
      if (v.is_null()) {
        ++nulls;
        continue;
      }
      distinct.insert(v.Hash());
      width_sum += v.is_string() ? static_cast<double>(v.AsString().size())
                                 : 8.0;
      if (first) {
        cs.min = v;
        cs.max = v;
        first = false;
      } else {
        if (v < cs.min) cs.min = v;
        if (cs.max < v) cs.max = v;
      }
    }
    cs.ndv = std::max<double>(1.0, static_cast<double>(distinct.size()));
    cs.null_frac =
        rows.empty() ? 0 : static_cast<double>(nulls) / rows.size();
    cs.avg_width =
        rows.size() > nulls ? width_sum / static_cast<double>(rows.size() - nulls) : 8;
  }
  return st;
}

namespace {

double CompareSelectivity(const Predicate& p, const TableStats& stats) {
  const size_t c = static_cast<size_t>(p.column());
  if (c >= stats.columns.size()) return p.DefaultSelectivity();
  const ColumnStats& cs = stats.columns[c];

  switch (p.op()) {
    case CmpOp::kEq:
      return std::min(1.0, 1.0 / cs.ndv);
    case CmpOp::kNe:
      return 1.0 - std::min(1.0, 1.0 / cs.ndv);
    default:
      break;
  }
  // Range predicates: interpolate within [min, max] for numerics.
  if (!cs.min.is_null() && !cs.max.is_null() &&
      (cs.min.is_int64() || cs.min.is_double()) &&
      (p.literal().is_int64() || p.literal().is_double())) {
    const double lo = cs.min.AsDouble(), hi = cs.max.AsDouble();
    const double x = p.literal().AsDouble();
    if (hi <= lo) return 0.5;
    const double frac = std::clamp((x - lo) / (hi - lo), 0.0, 1.0);
    switch (p.op()) {
      case CmpOp::kLt:
      case CmpOp::kLe:
        return frac;
      case CmpOp::kGt:
      case CmpOp::kGe:
        return 1.0 - frac;
      default:
        break;
    }
  }
  return p.DefaultSelectivity();
}

}  // namespace

double EstimateSelectivity(const Predicate& pred, const TableStats& stats) {
  switch (pred.kind()) {
    case Predicate::Kind::kTrue:
      return 1.0;
    case Predicate::Kind::kCompare:
      return CompareSelectivity(pred, stats);
    case Predicate::Kind::kAnd: {
      double s = 1.0;  // independence assumption
      for (const auto& c : pred.children()) s *= EstimateSelectivity(c, stats);
      return s;
    }
    case Predicate::Kind::kOr: {
      double not_s = 1.0;
      for (const auto& c : pred.children())
        not_s *= 1.0 - EstimateSelectivity(c, stats);
      return 1.0 - not_s;
    }
    case Predicate::Kind::kNot:
      return 1.0 - EstimateSelectivity(pred.children()[0], stats);
  }
  return 1.0;
}

const char* AccessPathName(AccessPath p) {
  switch (p) {
    case AccessPath::kRowIndexLookup: return "row-index-lookup";
    case AccessPath::kRowFullScan: return "row-full-scan";
    case AccessPath::kColumnScan: return "column-scan";
  }
  return "?";
}

namespace {

// Unit costs, calibrated roughly to the in-memory engine.
constexpr double kRowSeekCost = 16.0;             // B+-tree traversal
constexpr double kRowScanCostPerRow = 1.0;        // materialization + filter
constexpr double kColScanCostPerValue = 0.08;     // per row per touched column
constexpr double kDeltaEntryCost = 1.5;           // per staged entry unioned

}  // namespace

PathChoice ChooseAccessPath(const AccessQuery& q) {
  const double n = static_cast<double>(q.row_count);
  PathChoice best;
  // Row index lookup: only when the predicate pins the primary key.
  const double idx_cost = q.pk_point_lookup ? kRowSeekCost : -1;
  const double row_cost = n * kRowScanCostPerRow;
  double col_cost = -1;
  if (q.column_store_available) {
    col_cost = n * static_cast<double>(q.columns_needed) * kColScanCostPerValue +
               static_cast<double>(q.delta_entries) * kDeltaEntryCost;
  }

  best.path = AccessPath::kRowFullScan;
  best.cost = row_cost;
  best.reason = "default row scan";
  if (idx_cost >= 0 && idx_cost < best.cost) {
    best.path = AccessPath::kRowIndexLookup;
    best.cost = idx_cost;
    best.reason = "predicate pins primary key";
  }
  if (col_cost >= 0 && col_cost < best.cost) {
    best.path = AccessPath::kColumnScan;
    best.cost = col_cost;
    best.reason = "columnar scan cheaper for " +
                  std::to_string(q.columns_needed) + "/" +
                  std::to_string(q.total_columns) + " columns";
  }
  return best;
}

}  // namespace htap

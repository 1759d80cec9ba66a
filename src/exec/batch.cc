#include "exec/batch.h"

#include <numeric>
#include <utility>

namespace htap {

namespace {

template <typename T, typename GetFn>
void RefineTyped(CmpOp op, const T& x, const GetFn& get,
                 const ColumnVector& col, std::vector<uint32_t>* sel) {
  const auto run = [&](auto cmp) {
    size_t out = 0;
    for (uint32_t i : *sel) {
      if (col.IsNull(i)) continue;
      if (cmp(get(i), x)) (*sel)[out++] = i;
    }
    sel->resize(out);
  };
  switch (op) {
    case CmpOp::kEq: run([](const T& a, const T& b) { return a == b; }); break;
    case CmpOp::kNe: run([](const T& a, const T& b) { return a != b; }); break;
    case CmpOp::kLt: run([](const T& a, const T& b) { return a < b; }); break;
    case CmpOp::kLe: run([](const T& a, const T& b) { return a <= b; }); break;
    case CmpOp::kGt: run([](const T& a, const T& b) { return a > b; }); break;
    case CmpOp::kGe: run([](const T& a, const T& b) { return a >= b; }); break;
  }
}

/// True when `c` (three-way compare of value vs literal) satisfies op.
bool Keep(int c, CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

}  // namespace

ColumnBatch MakeBatch(const Schema& schema, const std::vector<int>& projection,
                      size_t reserve) {
  ColumnBatch b;
  const auto add = [&](size_t c) {
    ColumnVector cv(schema.column(c).type);
    if (reserve > 0) cv.Reserve(reserve);
    b.columns.push_back(std::move(cv));
  };
  if (projection.empty()) {
    b.columns.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) add(c);
  } else {
    b.columns.reserve(projection.size());
    for (int c : projection) add(static_cast<size_t>(c));
  }
  return b;
}

void FilterBatch(ColumnBatch* batch, int col, CmpOp op, const Value& lit) {
  if (batch->all_active()) {
    batch->sel.resize(batch->rows());
    std::iota(batch->sel.begin(), batch->sel.end(), 0u);
  }
  batch->filtered = true;  // sel is authoritative from here on, even empty
  if (lit.is_null()) {  // comparisons against NULL are false
    batch->sel.clear();
    return;
  }
  const ColumnVector& cv = batch->columns[static_cast<size_t>(col)];
  std::vector<uint32_t>* sel = &batch->sel;

  // Cross-class (numeric vs string) comparisons have one outcome for every
  // non-NULL cell: numbers sort before strings.
  const bool col_numeric = cv.type() != Type::kString;
  const bool lit_numeric = !lit.is_string();
  if (col_numeric != lit_numeric) {
    if (!Keep(col_numeric ? -1 : 1, op)) {
      sel->clear();
      return;
    }
    size_t out = 0;
    for (uint32_t i : *sel)
      if (!cv.IsNull(i)) (*sel)[out++] = i;
    sel->resize(out);
    return;
  }

  switch (cv.type()) {
    case Type::kInt64:
      if (lit.is_int64()) {
        RefineTyped<int64_t>(op, lit.AsInt64(),
                             [&](uint32_t i) { return cv.GetInt64(i); }, cv,
                             sel);
      } else {
        RefineTyped<double>(
            op, lit.AsDouble(),
            [&](uint32_t i) { return static_cast<double>(cv.GetInt64(i)); },
            cv, sel);
      }
      return;
    case Type::kDouble:
      RefineTyped<double>(op, lit.AsDouble(),
                          [&](uint32_t i) { return cv.GetDouble(i); }, cv,
                          sel);
      return;
    case Type::kString:
      RefineTyped<std::string>(
          op, lit.AsString(),
          [&](uint32_t i) -> const std::string& { return cv.GetString(i); },
          cv, sel);
      return;
  }
}

size_t TotalActiveRows(const std::vector<ColumnBatch>& batches) {
  size_t total = 0;
  for (const ColumnBatch& b : batches) total += b.active();
  return total;
}

BatchBuilder::BatchBuilder(const Schema& schema, std::vector<int> projection,
                           size_t batch_rows)
    : schema_(schema),
      projection_(std::move(projection)),
      batch_rows_(batch_rows) {}

void BatchBuilder::Append(const Row& row) {
  if (cur_.columns.empty()) {
    // The first batch grows as rows come; once one has filled, the next
    // ones are likely to fill too, so they reserve their whole size.
    cur_ = MakeBatch(schema_, projection_, out_.empty() ? 0 : batch_rows_);
  }
  if (projection_.empty()) {
    for (size_t c = 0; c < cur_.columns.size(); ++c)
      cur_.columns[c].AppendValue(row.Get(c));
  } else {
    for (size_t c = 0; c < projection_.size(); ++c)
      cur_.columns[c].AppendValue(row.Get(static_cast<size_t>(projection_[c])));
  }
  if (batch_rows_ != 0 && cur_.rows() >= batch_rows_) {
    out_.push_back(std::move(cur_));
    cur_ = ColumnBatch{};
  }
}

std::vector<ColumnBatch> BatchBuilder::Finish() {
  if (cur_.rows() > 0) out_.push_back(std::move(cur_));
  cur_ = ColumnBatch{};
  std::vector<ColumnBatch> out = std::move(out_);
  out_.clear();
  return out;
}

std::vector<ColumnBatch> RowsToBatches(const std::vector<Row>& rows,
                                       const Schema& schema,
                                       const std::vector<int>& projection,
                                       size_t batch_rows) {
  const Schema projected =
      projection.empty() ? schema : schema.Project(projection);
  BatchBuilder builder(projected, {}, batch_rows);
  for (const Row& r : rows) builder.Append(r);
  return builder.Finish();
}

std::vector<Row> BatchesToRows(const std::vector<ColumnBatch>& batches) {
  std::vector<Row> out;
  out.reserve(TotalActiveRows(batches));
  for (const ColumnBatch& b : batches) {
    b.ForEachActive([&](size_t i) {
      std::vector<Value> vals;
      vals.reserve(b.columns.size());
      for (const ColumnVector& c : b.columns) vals.push_back(c.GetValue(i));
      out.emplace_back(std::move(vals));
    });
  }
  return out;
}

}  // namespace htap

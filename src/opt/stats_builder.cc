#include "opt/stats_builder.h"

#include <algorithm>

namespace htap {

void KmvSketch::Add(uint64_t hash) {
  if (mins_.size() >= k_ && hash >= *mins_.rbegin()) return;
  if (mins_.insert(hash).second && mins_.size() > k_)
    mins_.erase(std::prev(mins_.end()));
}

double KmvSketch::Estimate() const {
  if (mins_.size() < k_) return static_cast<double>(mins_.size());
  const double kth = static_cast<double>(*mins_.rbegin());
  if (kth <= 0) return static_cast<double>(mins_.size());
  constexpr double kHashSpace = 18446744073709551616.0;  // 2^64
  return (static_cast<double>(k_) - 1.0) * kHashSpace / kth;
}

TableStatsBuilder::TableStatsBuilder(size_t num_columns, size_t kmv_k)
    : kmv_k_(kmv_k) {
  cols_.resize(num_columns);
  for (ColumnAcc& c : cols_) c.sketch = KmvSketch(kmv_k_);
}

void TableStatsBuilder::AddValue(ColumnAcc* acc, const Value& v) {
  if (v.is_null()) {
    ++acc->nulls;
    return;
  }
  acc->sketch.Add(v.Hash());
  acc->width_sum +=
      v.is_string() ? static_cast<double>(v.AsString().size()) : 8.0;
  ++acc->values;
  if (!acc->has_bounds) {
    acc->min = v;
    acc->max = v;
    acc->has_bounds = true;
  } else {
    if (v < acc->min) acc->min = v;
    if (acc->max < v) acc->max = v;
  }
}

void TableStatsBuilder::AddRow(const Row& row) {
  const size_t n = std::min(cols_.size(), row.size());
  for (size_t c = 0; c < n; ++c) AddValue(&cols_[c], row.Get(c));
}

void TableStatsBuilder::ApplyEntries(const std::vector<DeltaEntry>& entries) {
  for (const DeltaEntry& e : entries) {
    if (e.op == ChangeOp::kDelete)
      ++deletes_since_recompute_;
    else
      AddRow(e.row);
  }
}

void TableStatsBuilder::RecomputeFromColumnTable(
    const ColumnTable& table, const std::vector<int>& loaded) {
  for (int base : loaded)
    cols_[static_cast<size_t>(base)] = ColumnAcc{.sketch = KmvSketch(kmv_k_)};
  deletes_since_recompute_ = 0;
  ReadGuard rg(table.latch());
  for (size_t g = 0; g < table.num_groups_unlocked(); ++g) {
    const RowGroup* group = table.group_unlocked(g);
    for (size_t i = 0; i < group->num_rows; ++i) {
      if (group->deleted.Test(i)) continue;
      for (size_t j = 0; j < loaded.size(); ++j)
        AddValue(&cols_[static_cast<size_t>(loaded[j])],
                 group->columns[j].Get(i));
    }
  }
}

TableStats TableStatsBuilder::Snapshot(size_t row_count) const {
  TableStats st;
  st.row_count = row_count;
  st.columns.resize(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    const ColumnAcc& acc = cols_[c];
    ColumnStats& cs = st.columns[c];
    if (acc.has_bounds) {
      cs.min = acc.min;
      cs.max = acc.max;
    }
    cs.ndv = std::max(1.0, acc.sketch.Estimate());
    const size_t seen = acc.values + acc.nulls;
    cs.null_frac = seen == 0 ? 0 : static_cast<double>(acc.nulls) / seen;
    cs.avg_width =
        acc.values == 0 ? 8 : acc.width_sum / static_cast<double>(acc.values);
  }
  return st;
}

}  // namespace htap

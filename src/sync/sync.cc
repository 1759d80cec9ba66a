#include "sync/sync.h"

#include <algorithm>
#include <cstdint>

namespace htap {

void FreshnessTracker::RecordCommit(CSN csn) {
  MutexLock lk(&mu_);
  samples_.emplace_back(csn, clock_->NowMicros());
  // Bound memory: keep a generous window; freshness questions are about the
  // recent past.
  while (samples_.size() > 100000) samples_.pop_front();
}

Micros FreshnessTracker::TimeLagMicros(CSN visible_csn) const {
  MutexLock lk(&mu_);
  // Oldest commit newer than what is visible. Samples arrive in CSN order
  // (commits publish in CSN order), so this is a binary search.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), visible_csn,
      [](CSN csn, const std::pair<CSN, Micros>& s) { return csn < s.first; });
  return it == samples_.end() ? 0 : clock_->NowMicros() - it->second;
}

void ApplyEntriesToColumnTableLocked(ColumnTable* table,
                                     std::vector<DeltaEntry> entries,
                                     CSN up_to) {
  // Fold the batch, last write per key wins, without copying a row: sorting
  // (key, index) pairs groups each key's entries in commit order. A key
  // whose last entry is an upsert survives with that entry's row, placed at
  // the key's first upsert (the order an insertion-ordered fold gives).
  const size_t n = entries.size();
  constexpr size_t kNone = SIZE_MAX;
  std::vector<std::pair<Key, size_t>> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = {entries[i].key, i};
  std::sort(order.begin(), order.end());

  // survivor[i] != kNone: entry i is its key's first upsert, and the key's
  // row is entries[survivor[i]].row.
  std::vector<size_t> survivor(n, kNone);
  size_t survivors = 0;
  for (size_t begin = 0; begin < n;) {
    const Key key = order[begin].first;
    size_t end = begin;
    size_t first_upsert = kNone;
    bool deleted = false;
    for (; end < n && order[end].first == key; ++end) {
      const size_t i = order[end].second;
      if (entries[i].op == ChangeOp::kDelete)
        deleted = true;
      else if (first_upsert == kNone)
        first_upsert = i;
    }
    // A delete anywhere in the batch removes the key's merged row; an
    // upsert after it re-adds the key in the new group.
    if (deleted) table->DeleteKeyLocked(key, 0);
    const size_t last = order[end - 1].second;
    if (entries[last].op != ChangeOp::kDelete) {
      survivor[first_upsert] = last;
      ++survivors;
    }
    begin = end;
  }

  std::vector<Row> batch;
  batch.reserve(survivors);
  for (size_t i = 0; i < n; ++i)
    if (survivor[i] != kNone)
      batch.push_back(std::move(entries[survivor[i]].row));
  table->AppendBatchLocked(std::move(batch), up_to);
}

Result<std::shared_ptr<ColumnTable>> RebuildColumnTable(
    const MvccRowStore& rows, const Snapshot& snap,
    const std::vector<int>& columns) {
  std::vector<Row> image;
  image.reserve(rows.ApproxRowCount());
  HTAP_RETURN_NOT_OK(rows.Scan(snap, [&](Key, const Row& r) {
    Row projected;
    for (int c : columns) projected.Append(r.Get(static_cast<size_t>(c)));
    image.push_back(std::move(projected));
    return true;
  }));
  auto table = std::make_shared<ColumnTable>(rows.schema().Project(columns));
  table->EnableCompressionAdvisor(true);
  table->AppendBatch(std::move(image), snap.begin_csn);
  return table;
}

}  // namespace htap

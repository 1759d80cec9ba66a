#include "sync/sync.h"

#include <algorithm>
#include <cstdint>

namespace htap {

const char* SyncStrategyName(SyncStrategy s) {
  switch (s) {
    case SyncStrategy::kInMemoryMerge: return "in-memory-delta-merge";
    case SyncStrategy::kLogMerge: return "log-based-delta-merge";
    case SyncStrategy::kRebuild: return "rebuild-from-primary";
  }
  return "?";
}

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

DataSynchronizer::DataSynchronizer(SyncStrategy strategy, ColumnTable* table,
                                   DeltaStore* source, const Clock* clock)
    : strategy_(strategy), table_(table), source_(source), clock_(clock) {}

DataSynchronizer::DataSynchronizer(ColumnTable* table,
                                   const MvccRowStore* primary,
                                   const Clock* clock)
    : strategy_(SyncStrategy::kRebuild),
      table_(table),
      primary_(primary),
      clock_(clock) {}

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

void DataSynchronizer::EnableStatsMaintenance(
    StatsPublishFn publish, size_t compact_delete_threshold) {
  MutexLock lk(&mu_);
  stats_builder_ =
      std::make_unique<TableStatsBuilder>(table_->schema().num_columns());
  publish_stats_ = std::move(publish);
  compact_delete_threshold_ = compact_delete_threshold;
}

Status DataSynchronizer::SyncTo(CSN target_csn) {
  MutexLock lk(&mu_);
  if (target_csn <= table_->merged_csn()) return Status::OK();
  const Micros t0 = clock_->NowMicros();

  if (strategy_ == SyncStrategy::kRebuild) {
    if (primary_ == nullptr)
      return Status::Internal("rebuild synchronizer has no primary store");
    // Full repopulation from a row-store snapshot.
    std::vector<Row> rows;
    rows.reserve(primary_->ApproxRowCount());
    const Snapshot snap{target_csn, 0};
    HTAP_RETURN_NOT_OK(primary_->Scan(snap, [&](Key, const Row& r) {
      rows.push_back(r);
      return true;
    }));
    const size_t loaded = rows.size();
    // A rebuild already holds the full live row set — recompute exactly,
    // before the rows move into the column table.
    if (stats_builder_ != nullptr) stats_builder_->RecomputeFromRows(rows);
    table_->Clear();
    table_->AppendBatch(std::move(rows), target_csn);
    stats_.rows_loaded += loaded;
    if (stats_builder_ != nullptr)
      publish_stats_(stats_builder_->Snapshot(loaded), target_csn);
  } else {
    if (source_ == nullptr)
      return Status::Internal("merge synchronizer has no delta source");
    {
      // Drain and apply as one step under the write latch (rank 500, then
      // the delta's 550): a scan sees the rows in the delta or in the table.
      WriteGuard g(table_->latch());
      std::vector<DeltaEntry> entries = source_->DrainUpTo(target_csn);
      stats_.entries_merged += entries.size();
      // The stats builder reads the rows before the merge moves them out.
      if (stats_builder_ != nullptr) stats_builder_->ApplyEntries(entries);
      ApplyEntriesToColumnTableLocked(table_, std::move(entries), target_csn);
    }
    if (stats_builder_ != nullptr) {
      if (stats_builder_->deletes_since_recompute() >
          compact_delete_threshold_) {
        // Delete drift: the sketches only widen, so compact away the dead
        // rows and recompute from what actually survives.
        table_->Compact();
        stats_builder_->RecomputeFromColumnTable(*table_);
      }
      publish_stats_(stats_builder_->Snapshot(table_->live_rows()),
                     target_csn);
    }
  }

  const Micros dt = clock_->NowMicros() - t0;
  ++stats_.merges;
  stats_.last_merge_micros = static_cast<uint64_t>(dt);
  stats_.merge_micros_total += static_cast<uint64_t>(dt);
  return Status::OK();
}

}  // namespace htap

// Data synchronization: moving committed changes from the TP-side delta
// stores into the main column store (Table 2, DS row), plus the freshness
// accounting that the AP scans and the resource scheduler consume.
//
// Three strategies from the survey:
//  * kInMemoryMerge — threshold-based change propagation out of an
//    in-memory delta (Oracle/SQL Server/DB2 BLU/HANA style).
//  * kLogMerge      — periodic merge of encoded log-delta files
//    (TiDB/TiFlash style; higher per-merge cost, scalable staging).
//  * kRebuild       — drop and rebuild the column store from the primary
//    row store (Oracle repopulation / SingleStore reload style; cheap
//    staging memory, expensive load).

#ifndef HTAP_SYNC_SYNC_H_
#define HTAP_SYNC_SYNC_H_

#include <deque>
#include <functional>
#include <memory>

#include "columnar/column_table.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "delta/delta.h"
#include "opt/stats_builder.h"
#include "storage/mvcc_row_store.h"

namespace htap {

/// Tracks commit times so freshness can be reported in wall-clock terms as
/// well as CSN lag. The engine's change sink records each commit here.
class FreshnessTracker {
 public:
  explicit FreshnessTracker(const Clock* clock = WallClock::Default())
      : clock_(clock) {}

  /// Records that the commit at `csn` happened now. Commits arrive in CSN
  /// order.
  void RecordCommit(CSN csn);

  /// Number of commits not yet visible at `visible_csn`.
  uint64_t CsnLag(CSN committed_csn, CSN visible_csn) const {
    return committed_csn > visible_csn ? committed_csn - visible_csn : 0;
  }

  /// Age of the oldest committed-but-not-yet-visible change; 0 if fully
  /// fresh.
  Micros TimeLagMicros(CSN visible_csn) const;

 private:
  const Clock* clock_;
  mutable Mutex mu_{LockRank::kFreshness, "freshness-tracker"};
  std::deque<std::pair<CSN, Micros>> samples_ GUARDED_BY(mu_);  // (csn, time)
};

/// Statistics from merge activity (bench_table2_ds reads these).
struct SyncStats {
  uint64_t merges = 0;
  uint64_t entries_merged = 0;
  uint64_t rows_loaded = 0;        // rebuild strategy
  uint64_t merge_micros_total = 0;
  uint64_t last_merge_micros = 0;
};

enum class SyncStrategy : uint8_t {
  kInMemoryMerge = 0,
  kLogMerge = 1,
  kRebuild = 2,
};

const char* SyncStrategyName(SyncStrategy s);

/// Drives one table's column store to a target CSN using one strategy.
class DataSynchronizer {
 public:
  /// In-memory / log merge: drains staged entries from `source`, which
  /// must outlive the synchronizer.
  DataSynchronizer(SyncStrategy strategy, ColumnTable* table,
                   DeltaStore* source,
                   const Clock* clock = WallClock::Default());

  /// Rebuild strategy: reads the primary row store directly.
  DataSynchronizer(ColumnTable* table, const MvccRowStore* primary,
                   const Clock* clock = WallClock::Default());

  SyncStrategy strategy() const { return strategy_; }

  /// Brings the column store up to `target_csn`. For merge strategies this
  /// drains and applies staged entries; for rebuild it reloads everything
  /// from the primary store at a snapshot.
  Status SyncTo(CSN target_csn);

  /// Snapshot of the merge statistics, copied out under the merge mutex —
  /// a background merge may be mutating them concurrently.
  SyncStats stats() const {
    MutexLock lk(&mu_);
    return stats_;
  }
  size_t PendingEntries() const {
    return source_ != nullptr ? source_->EntryCount() : 0;
  }

  /// Statistics maintenance (DESIGN.md §10): after every merge the
  /// synchronizer folds the applied entries into an incremental
  /// TableStatsBuilder and calls `publish` with a fresh TableStats snapshot
  /// and the CSN it reflects (engines route this to Catalog::PublishStats).
  /// Deletes only accumulate drift in the incremental sketches, so once
  /// more than `compact_delete_threshold` deletes have been merged since
  /// the last full pass, the column table is compacted and the statistics
  /// fully recomputed from the surviving rows. The rebuild strategy always
  /// recomputes from the reloaded rows. Call before the first SyncTo.
  using StatsPublishFn = std::function<void(const TableStats&, CSN)>;
  void EnableStatsMaintenance(StatsPublishFn publish,
                              size_t compact_delete_threshold);

 private:
  const SyncStrategy strategy_;
  ColumnTable* const table_;
  DeltaStore* const source_ = nullptr;  // null for the rebuild strategy
  const MvccRowStore* primary_ = nullptr;
  const Clock* clock_;
  SyncStats stats_ GUARDED_BY(mu_);
  // Stats maintenance state; mutated only under mu_ (SyncTo).
  std::unique_ptr<TableStatsBuilder> stats_builder_ GUARDED_BY(mu_);
  StatsPublishFn publish_stats_ GUARDED_BY(mu_);
  size_t compact_delete_threshold_ GUARDED_BY(mu_) = 0;
  mutable Mutex mu_{LockRank::kSyncMerge, "sync-merge"};  // one merge at a time
};

/// Applies a batch of delta entries (commit order) to a column table and
/// advances merged_csn to `up_to`. Shared by all merge paths, including the
/// learner replica apply loop. Last write per key wins; the surviving rows
/// move, uncopied, into one new row group, each at its key's first upsert
/// in the batch (DESIGN.md §19).
///
/// The caller holds the table's latch exclusive from before it drains the
/// entries until this returns. Otherwise a scan that reads the delta and
/// then the table could fall between the two and miss the drained rows.
void ApplyEntriesToColumnTableLocked(ColumnTable* table,
                                     std::vector<DeltaEntry> entries,
                                     CSN up_to) REQUIRES(table->latch());

}  // namespace htap

#endif  // HTAP_SYNC_SYNC_H_

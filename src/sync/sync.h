// Data synchronization: moving committed changes from the TP-side delta
// stores into the main column store (Table 2, DS row), plus the freshness
// accounting that the AP scans and the resource scheduler consume.
//
// The survey's three techniques share two functions:
//  * in-memory delta merge (Oracle/SQL Server/DB2 BLU/HANA style) and
//    log-based delta merge (TiDB/TiFlash style; encoded log files, higher
//    per-merge cost, scalable staging) both drain a DeltaStore and fold the
//    entries into the table with ApplyEntriesToColumnTableLocked;
//  * rebuild from the primary row store (Oracle repopulation / SingleStore
//    reload style; no staging memory, expensive load) is
//    RebuildColumnTable.
// The local engine drives the merge (LocalHtapEngine::MergeDelta); the sim
// cluster's learners drive it for (b).

#ifndef HTAP_SYNC_SYNC_H_
#define HTAP_SYNC_SYNC_H_

#include <deque>
#include <memory>

#include "columnar/column_table.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "delta/delta.h"
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

/// Rebuild from the primary row store: a fresh column table over the base
/// columns `columns` (in that order), holding `rows` as of `snap` and
/// merged to snap.begin_csn. Its segments pick their encodings with the
/// compression advisor. Fails if the row store's scan fails.
Result<std::shared_ptr<ColumnTable>> RebuildColumnTable(
    const MvccRowStore& rows, const Snapshot& snap,
    const std::vector<int>& columns);

}  // namespace htap

#endif  // HTAP_SYNC_SYNC_H_

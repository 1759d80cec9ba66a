// Incremental table-statistics maintenance (Table 2, QO row; DESIGN.md §10).
//
// The local engine's merge folds every merged delta batch into a
// TableStatsBuilder and republishes a TableStats snapshot to the catalog,
// so join planning can happen at plan time from metadata instead of paying
// an execution-time scan. NDV is tracked with a k-minimum-values sketch
// (exact below k distinct values); min/max only widen and deletes cannot
// shrink any estimate, so the builder periodically corrects drift with a
// full recompute over the compacted column store.

#ifndef HTAP_OPT_STATS_BUILDER_H_
#define HTAP_OPT_STATS_BUILDER_H_

#include <set>
#include <vector>

#include "columnar/column_table.h"
#include "delta/delta.h"
#include "opt/optimizer.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// K-minimum-values distinct-count sketch over Value::Hash(). Exact while
/// fewer than k distinct hashes have been seen; beyond that it keeps the k
/// smallest hashes and estimates ndv ≈ (k-1) · 2^64 / kth_smallest — the
/// classic KMV estimator. Adds are idempotent, so replaying an upsert never
/// inflates the count.
class KmvSketch {
 public:
  explicit KmvSketch(size_t k = kDefaultK) : k_(k) {}

  void Add(uint64_t hash);
  double Estimate() const;
  void Reset() { mins_.clear(); }
  size_t k() const { return k_; }

  static constexpr size_t kDefaultK = 256;

 private:
  size_t k_;
  std::set<uint64_t> mins_;  // the k smallest distinct hashes seen
};

/// Accumulates per-column min/max, NDV, null-fraction, and width statistics
/// incrementally from sync-applied delta entries, with a full-recompute
/// escape hatch for delete drift. The builder does NOT track the live row
/// count — an upsert cannot be classified insert-vs-update from the delta
/// alone — so publishers pass the authoritative count (e.g.
/// ColumnTable::live_rows()) to Snapshot().
///
/// Not thread-safe; callers serialize (the engine's merge already holds its
/// per-table merge mutex).
class TableStatsBuilder {
 public:
  explicit TableStatsBuilder(size_t num_columns,
                             size_t kmv_k = KmvSketch::kDefaultK);

  /// Widens min/max and feeds the NDV sketches for every upserted row;
  /// counts deletes toward deletes_since_recompute().
  void ApplyEntries(const std::vector<DeltaEntry>& entries);

  /// Accumulates one live row.
  void AddRow(const Row& row);

  /// Recomputes the columns a column table holds from its live rows (takes
  /// the table's shared latch): its column j is base column `loaded[j]`.
  /// Base columns it does not hold keep what the builder accumulated.
  /// Resets the delete-drift counter.
  void RecomputeFromColumnTable(const ColumnTable& table,
                                const std::vector<int>& loaded);

  /// Deletes applied since the last full recompute — the caller's
  /// compaction / recompute trigger.
  size_t deletes_since_recompute() const { return deletes_since_recompute_; }

  /// Snapshot as a TableStats; the live `row_count` is supplied by the
  /// caller (see the class comment).
  TableStats Snapshot(size_t row_count) const;

 private:
  struct ColumnAcc {
    Value min, max;
    bool has_bounds = false;
    KmvSketch sketch;
    size_t values = 0;  // non-null values accumulated
    size_t nulls = 0;
    double width_sum = 0;
  };

  static void AddValue(ColumnAcc* acc, const Value& v);

  size_t kmv_k_;
  std::vector<ColumnAcc> cols_;
  size_t deletes_since_recompute_ = 0;
};

}  // namespace htap

#endif  // HTAP_OPT_STATS_BUILDER_H_

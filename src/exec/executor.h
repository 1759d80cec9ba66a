// The block executor's operators: scans (MVCC row store, columnar, HTAP
// delta+column union), hash join, hash aggregation, sort/limit.
// Scans emit ColumnBatches (exec/batch.h); the query runner
// (core/query_runner.h) strings these operators into its one pipeline —
// scan, joins, aggregate or projection, sort/limit — on those batches.
//
// Operators materialize their full output — at the scale of this library the
// simplicity is worth more than pipelining, and the benchmark comparisons
// (row vs column vs hybrid access paths) are unaffected because all paths
// share the same materialization discipline.
//
// Map of this header (each operator links its DESIGN.md section):
//
//   ScanRowStore / ScanHtapBatches  serial + morsel scans .... DESIGN §§7, 12
//   HashAggregate              serial + partial-table parallel .... DESIGN §7
//   HashJoinPairsKeys          hash equi-join; three regimes ...... DESIGN §§8–9
//     - serial: one chained table (small builds)
//     - radix-partitioned parallel: scatter/build/probe morsels
//     - grace (out-of-core): oversized partitions spill both sides' join
//       keys as columnar (index, key) pages to temporary on-disk runs
//       (src/storage/spill_file.h) and join partition-at-a-time,
//       recursively re-partitioning skewed partitions; triggered by
//       ExecContext::join_spill_budget_bytes. Payload columns never spill
//       — materialization happens after the pair set is final (§13).
//   SortLimit                  output shaping
//
// The row-input operators ScanHtap, HashJoin, HashJoinPairs,
// MaterializeJoinPairs and ExtractJoinKeys(rows) serve the operator tests
// and bench_parallel_join's batch-vs-row comparison; no query runs on them.
//
// Scans, aggregation, and the hash join are morsel-driven when given an
// ExecContext with a thread pool: one morsel per row group (column scans),
// key range (row scans), radix partition (join build), or input chunk (join
// probe), per-worker partial state, deterministic merge.
//
// Determinism contract: every operator here returns output byte-identical
// to its serial execution at any thread count, and the joins additionally
// match a nested-loop reference (probe rows in input order; per probe row,
// matches in build-input order). Build-side and join-order selection live
// one layer up (src/opt/join_planner.h, applied by core/query_runner.cc),
// which restores the same nested-loop order after reordering.

#ifndef HTAP_EXEC_EXECUTOR_H_
#define HTAP_EXEC_EXECUTOR_H_

#include <string>
#include <utility>
#include <vector>

#include "columnar/column_table.h"
#include "common/thread_pool.h"
#include "delta/delta.h"
#include "exec/batch.h"
#include "exec/expression.h"
#include "storage/mvcc_row_store.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// Execution resources for the parallel operators. The default (no pool)
/// runs every operator serially; engines hand their AP morsel pool here to
/// enable intra-query parallelism. The pool is shared across concurrent
/// queries — each operator fans out through its own TaskGroup, so waiting
/// for one query's morsels never blocks on another's.
struct ExecContext {
  ThreadPool* pool = nullptr;   // AP morsel pool; null = serial execution
  size_t max_parallelism = 1;   // target worker count for morsel fan-out

  /// Serial fallback for the partitioned join: builds smaller than this run
  /// the classic single-table join (partitioning a tiny build side costs
  /// more than it wins). Mirrors DatabaseOptions::parallel_join_min_build_rows.
  size_t min_parallel_join_build = 4096;

  /// Test seam: join key hashes are ANDed with this mask before table
  /// insertion and partition selection. Narrow masks force hash collisions
  /// onto the key-confirm path (and, with the low radix bits zeroed, funnel
  /// every build row into one partition to exercise the grace join's
  /// recursive re-partitioning); production code leaves it all-ones.
  uint64_t join_hash_mask = ~0ull;

  /// Grace-join spill budget: when the estimated build-side footprint of a
  /// hash join exceeds this, the join radix-partitions (even without a
  /// pool) and spills partitions that do not fit to temporary on-disk runs,
  /// joining them partition-at-a-time (DESIGN.md §9). 0 = unlimited — never
  /// spill. Mirrors DatabaseOptions::join_spill_budget_bytes.
  size_t join_spill_budget_bytes = 0;

  /// Directory for spill runs (htap-spill-*). Empty = DefaultSpillDir().
  std::string join_spill_dir;

  /// Plan-time statistics inputs (DESIGN.md §10). `committed_csn` is the
  /// engine's commit frontier at query start; catalog statistics whose
  /// as_of_csn trails it by more than `stats_staleness_csns` commits are
  /// considered stale, and the join planner falls back to its
  /// execution-time sampling path. committed_csn == 0 means "unknown
  /// frontier" and disables the staleness check (direct RunPlan callers).
  CSN committed_csn = 0;
  uint64_t stats_staleness_csns = 65536;

  /// Rows per ColumnBatch emitted by the vectorized scan (DESIGN.md §12).
  /// Mirrors DatabaseOptions::vectorized_batch_rows; 0 = one batch per row
  /// group.
  size_t batch_rows = 4096;

  bool parallel() const { return pool != nullptr && max_parallelism > 1; }
};

/// Counters a scan fills in; benchmarks and the optimizer's feedback loop
/// read these.
struct ScanStats {
  size_t groups_total = 0;
  size_t groups_skipped = 0;   // zone-map pruning
  size_t main_rows_emitted = 0;
  size_t delta_rows_emitted = 0;
  size_t delta_entries_read = 0;
  /// Main-store positions that entered predicate evaluation (live and not
  /// delta-overridden, in groups the zone maps could not skip). The ratio
  /// main_rows_emitted / rows_considered is the scan's observed
  /// selectivity — the optimizer's feedback signal.
  size_t rows_considered = 0;
};

/// A materialized query result.
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  ScanStats stats;

  std::string ToString(size_t max_rows = 20) const;
};

/// Scans an MVCC row store at a snapshot into batches of at most
/// exec.batch_rows rows, in key order. `projection` lists output columns
/// (empty = all). With a pool, the key space splits into one range morsel
/// per worker and the per-range batches concatenate in range order, so
/// BatchesToRows(result) equals the serial scan exactly.
std::vector<ColumnBatch> ScanRowStore(const MvccRowStore& store,
                                      const Snapshot& snap,
                                      const Predicate& pred,
                                      const std::vector<int>& projection,
                                      const ExecContext& exec);

/// The HTAP scan: main column store unioned with a delta store at snapshot
/// CSN `snapshot`. Pass delta == nullptr for a pure column scan (the
/// SingleStore-style technique — fast, but blind to unmerged changes).
///
/// Correctness contract (tested as the delta/column-union invariant): the
/// result equals scanning a row-store snapshot at `snapshot`, provided
/// every change with csn <= snapshot is in the column store or the delta.
std::vector<Row> ScanHtap(const ColumnTable& table, const DeltaReader* delta,
                          CSN snapshot, const Predicate& pred,
                          const std::vector<int>& projection,
                          ScanStats* stats = nullptr);

/// Morsel-driven variant: each row group is one morsel (plus one morsel for
/// the delta-override partition), fanned out across `exec.pool` and merged
/// in row-group order — output is byte-identical to the serial scan.
std::vector<Row> ScanHtap(const ColumnTable& table, const DeltaReader* delta,
                          CSN snapshot, const Predicate& pred,
                          const std::vector<int>& projection,
                          const ExecContext& exec, ScanStats* stats);

/// The vectorized HTAP scan (DESIGN.md §12): identical visibility and
/// predicate semantics to ScanHtap, but predicates evaluate directly on the
/// encoded segments (src/exec/segment_filter.h) and survivors gather into
/// compacted ColumnBatches of at most exec.batch_rows rows instead of
/// materializing Row objects. Batches arrive in row-group order with the
/// delta-override partition last, so BatchesToRows(result) is byte-identical
/// to ScanHtap's output — serial or morsel-parallel, at any thread count.
/// Delta rows must match the table schema's column types (the same
/// invariant the merge path relies on).
std::vector<ColumnBatch> ScanHtapBatches(const ColumnTable& table,
                                         const DeltaReader* delta,
                                         CSN snapshot, const Predicate& pred,
                                         const std::vector<int>& projection,
                                         const ExecContext& exec,
                                         ScanStats* stats = nullptr);

/// Counters the hash join fills in; benchmarks, tests, and EXPLAIN read
/// these. The spill_* group is nonzero only when the grace path ran
/// (ExecContext::join_spill_budget_bytes exceeded).
struct JoinStats {
  size_t build_rows = 0;
  size_t probe_rows = 0;
  size_t output_rows = 0;
  size_t partitions = 1;   // radix partition count (1 = unpartitioned build)
  bool parallel = false;   // fanned morsels onto an AP pool
  bool build_swapped = false;  // planner built on the left side (query_runner)
  size_t partitions_spilled = 0;  // top-level partitions that went to disk
  size_t spill_rows_written = 0;  // key records written across both sides
  size_t spill_bytes_written = 0;
  size_t spill_bytes_read = 0;
  size_t spill_pages_written = 0;  // columnar key pages (DESIGN.md §13)
  size_t spill_pages_read = 0;
  size_t spill_max_recursion = 0;  // deepest re-partition level (0 = none)
  /// Batch-pipeline counters, filled by the query runner's batch join
  /// (DESIGN.md §13), zero on the row path: input ColumnBatches consumed
  /// across all join inputs, and output rows whose payload columns were
  /// gathered only after every join filter ran (late materialization).
  size_t join_batches = 0;
  size_t rows_late_materialized = 0;
  double seconds = 0;      // wall time inside the operator
};

/// One join match: (probe row index, build row index). The pair vector of a
/// join is always in nested-loop order — probe index ascending, and within
/// one probe index, build index ascending (= build input order).
using JoinPairs = std::vector<std::pair<uint32_t, uint32_t>>;

/// Hash inner-equi-join core: probes `probe` against a table built on
/// `build`, returning matching index pairs (NULL keys never match). Picks
/// the serial, radix-partitioned parallel, or grace (spilling) regime from
/// `exec` — see the header comment. The pair order is identical across all
/// regimes and thread counts.
JoinPairs HashJoinPairs(const std::vector<Row>& probe,
                        const std::vector<Row>& build, int probe_col,
                        int build_col, const ExecContext& exec,
                        JoinStats* stats = nullptr);

/// One join input's key column, extracted in a single vectorized pass:
/// typed values plus precomputed Value::Hash-consistent hashes. Invalid
/// slots (NULL keys, or positions past a short row) never match. When a
/// row-extracted column holds a mix of value types, it falls back to boxed
/// Values — equality then runs through Value::Compare, exactly as the
/// row-at-a-time join did.
struct JoinKeyColumn {
  Type type = Type::kInt64;
  bool mixed = false;             // boxed fallback active
  std::vector<int64_t> ints;      // type == kInt64, !mixed
  std::vector<double> doubles;    // type == kDouble, !mixed
  std::vector<std::string> strs;  // type == kString, !mixed
  std::vector<Value> boxed;       // mixed only
  std::vector<uint64_t> hashes;   // unmasked; meaningless at invalid slots
  std::vector<uint8_t> valid;

  size_t size() const { return valid.size(); }
  Value GetValue(size_t i) const;
};

/// Key equality between two extracted columns, matching Value::operator==
/// (cross-type numeric equality included). Both slots must be valid.
bool JoinKeyEquals(const JoinKeyColumn& a, size_t i, const JoinKeyColumn& b,
                   size_t j);

/// Extracts the join key column from rows / from scan batches.
JoinKeyColumn ExtractJoinKeys(const std::vector<Row>& rows, int col);
JoinKeyColumn ExtractJoinKeys(const std::vector<ColumnBatch>& batches,
                              int col);

/// The join core over pre-extracted keys: serial, radix-partitioned
/// parallel, or grace (spilling) regime. The grace path triggers when
/// exec.join_spill_budget_bytes is set and the build side's estimated
/// footprint exceeds it; `build_weights` (parallel to `build`, optional)
/// supplies per-slot footprints — callers joining rows pass Row::MemoryBytes
/// so budget semantics match the historical row spill, batch callers pass
/// payload estimates (EstimateBatchRowBytes), and without weights the key
/// column's own footprint is used. Spilled partitions hold only (input
/// index, key) column-slice pages (src/storage/spill_file.h) — payloads are
/// late-materialized after the join, so they never touch disk. Pair order
/// is the same nested-loop order in every regime.
JoinPairs HashJoinPairsKeys(const JoinKeyColumn& probe,
                            const JoinKeyColumn& build,
                            const ExecContext& exec,
                            JoinStats* stats = nullptr,
                            const std::vector<size_t>* build_weights = nullptr);

/// Materializes join pairs as concatenated rows, one per pair, in pair
/// order: probe ++ build columns, or build ++ probe when
/// `build_side_first` (used by the planner's build-side swap to restore
/// the plan's left ++ right layout). Parallel over `exec` when available.
std::vector<Row> MaterializeJoinPairs(const std::vector<Row>& probe,
                                      const std::vector<Row>& build,
                                      const JoinPairs& pairs,
                                      bool build_side_first = false,
                                      const ExecContext& exec = ExecContext{});

/// Hash inner-equi-join: emits left ++ right rows. Builds on `right`.
/// Output order is nested-loop order — left rows in input order, and for
/// each left row its matches in right (build) input order.
std::vector<Row> HashJoin(const std::vector<Row>& left,
                          const std::vector<Row>& right, int left_col,
                          int right_col);

/// As above with execution resources: radix-partitioned parallel morsels
/// when `exec` has a pool (build rows ≥ exec.min_parallel_join_build), and
/// the out-of-core grace path when exec.join_spill_budget_bytes is set and
/// the build side exceeds it — byte-identical output in every regime.
std::vector<Row> HashJoin(const std::vector<Row>& left,
                          const std::vector<Row>& right, int left_col,
                          int right_col, const ExecContext& exec,
                          JoinStats* stats = nullptr);

/// Estimated in-memory footprint of `rows` (sum of Row::MemoryBytes) — the
/// quantity compared against join_spill_budget_bytes.
size_t EstimateRowsBytes(const std::vector<Row>& rows);

/// Per-active-row footprint estimates for batch join inputs, one entry per
/// dense active position in batch order — the batch pipeline's equivalent
/// of Row::MemoryBytes for grace-budget accounting (same formula, so a
/// given budget spills the batch and row regimes alike).
std::vector<size_t> EstimateBatchRowBytes(
    const std::vector<ColumnBatch>& batches);

/// Hash aggregation over column batches, under their selection vectors — no
/// row materialization. With empty `group_cols`, emits one global row.
/// Output row layout: group values then one value per AggSpec; group output
/// order is unspecified. Group hashing uses the typed hash/compare
/// primitives, which match the Value-based ones bit for bit. Parallel over
/// whole batches when exec has a pool: workers build partial hash tables
/// over disjoint batch ranges, combined single-threaded in worker order.
std::vector<Row> HashAggregate(const std::vector<ColumnBatch>& batches,
                               const std::vector<int>& group_cols,
                               const std::vector<AggSpec>& aggs,
                               const ExecContext& exec);

/// Sorts by `col` (ascending unless `desc`), keeps first `limit` rows
/// (limit == 0 means all).
void SortLimit(std::vector<Row>* rows, int col, bool desc, size_t limit);

}  // namespace htap

#endif  // HTAP_EXEC_EXECUTOR_H_

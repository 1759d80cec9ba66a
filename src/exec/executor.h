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
// Every operator takes or returns ColumnBatches; a join's inputs are key
// columns extracted from batches (ExtractJoinKeys), and its output is an
// index-pair list the query runner materializes late.
//
// Scans, aggregation, and the hash join are morsel-driven when given an
// ExecContext with a thread pool: one morsel per row group (column scans),
// key range (row scans), radix partition (join build), or input chunk (join
// probe), per-worker partial state, deterministic merge.
//
// Determinism contract:
//   - The scans and the hash join return output byte-identical to their
//     serial execution at any thread count. The join's pairs additionally
//     follow a nested-loop reference (probe rows in input order; per probe
//     row, matches in build-input order). Build-side and join-order
//     selection live one layer up (src/opt/join_planner.h, applied by
//     core/query_runner.cc), which restores the same order after
//     reordering.
//   - HashAggregate's integer aggregates (COUNT, and SUM/MIN/MAX over
//     int64 columns whose sums stay exactly representable) are identical
//     at any thread count. Double SUM/AVG add per-worker partial sums, so
//     they are identical only for the same batch sequence and worker
//     count; floating-point addition does not reassociate. Group order is
//     unspecified — sort the result (ORDER BY) to compare it.

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

  /// Plan-time statistics input (DESIGN.md §10): the engine's commit
  /// frontier at query start; catalog statistics whose as_of_csn trails it
  /// by more than kStatsStalenessCsns commits are considered stale, and the
  /// join planner falls back to its execution-time sampling path.
  /// committed_csn == 0 means "unknown frontier" and disables the
  /// staleness check (direct RunPlan callers).
  CSN committed_csn = 0;

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
/// BatchesToRows(result) equals the serial scan exactly. Fails with the
/// store's error if a read of it fails (a heap-backed store's heap read),
/// so a failed read never passes for a short answer.
Result<std::vector<ColumnBatch>> ScanRowStore(
    const MvccRowStore& store, const Snapshot& snap, const Predicate& pred,
    const std::vector<int>& projection, const ExecContext& exec);

/// The HTAP scan (DESIGN.md §12): main column store unioned with a delta
/// store at snapshot CSN `snapshot`. Pass delta == nullptr for a pure
/// column scan (the SingleStore-style technique — fast, but blind to
/// unmerged changes).
///
/// Correctness contract (tested as the delta/column-union invariant): the
/// result equals scanning a row-store snapshot at `snapshot`, provided
/// every change with csn <= snapshot is in the column store or the delta
/// and the table's merged_csn is at or below `snapshot` (the local engine
/// never merges past an open reader). The table's read latch is held
/// across the delta read too, so a merge cannot land between the two.
///
/// Predicates evaluate directly on the encoded segments
/// (src/exec/segment_filter.h) and survivors gather into compacted
/// ColumnBatches of at most exec.batch_rows rows. Each row group is one
/// morsel (plus one for the delta-override partition), fanned out across
/// `exec.pool`; batches arrive in row-group order with the delta partition
/// last, byte-identical to the serial scan at any thread count. Delta rows
/// match the table schema's column types: the write path rejects mistyped
/// cells (DbTxn::Insert/Update), and the merge relies on the same
/// invariant.
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
  /// Join-pipeline counters, filled by the query runner (DESIGN.md §13),
  /// zero when HashJoinPairsKeys is called directly: input ColumnBatches
  /// consumed across all join inputs, and output rows whose payload
  /// columns were gathered only after every join filter ran (late
  /// materialization).
  size_t join_batches = 0;
  size_t rows_late_materialized = 0;
  double seconds = 0;      // wall time inside the operator
};

/// One join match: (probe row index, build row index). The pair vector of a
/// join is always in nested-loop order — probe index ascending, and within
/// one probe index, build index ascending (= build input order).
using JoinPairs = std::vector<std::pair<uint32_t, uint32_t>>;

/// One join input's key column, extracted in a single vectorized pass:
/// typed values plus precomputed Value::Hash-consistent hashes. A batch
/// column has one type, so the key column does too. Invalid slots (NULL
/// keys) never match.
struct JoinKeyColumn {
  Type type = Type::kInt64;
  std::vector<int64_t> ints;      // type == kInt64
  std::vector<double> doubles;    // type == kDouble
  std::vector<std::string> strs;  // type == kString
  std::vector<uint64_t> hashes;   // unmasked; meaningless at invalid slots
  std::vector<uint8_t> valid;

  size_t size() const { return valid.size(); }
  Value GetValue(size_t i) const;
};

/// Key equality between two extracted columns, matching Value::operator==
/// (cross-type numeric equality included). Both slots must be valid.
bool JoinKeyEquals(const JoinKeyColumn& a, size_t i, const JoinKeyColumn& b,
                   size_t j);

/// Extracts column `col` of the active rows of `batches`, in batch order,
/// as a join key column.
JoinKeyColumn ExtractJoinKeys(const std::vector<ColumnBatch>& batches,
                              int col);

/// Hash inner-equi-join over pre-extracted keys: probes `probe` against a
/// table built on `build`, returning matching index pairs (NULL keys never
/// match). Picks the serial, radix-partitioned parallel, or grace
/// (spilling) regime from `exec` — see the header comment. The grace path
/// triggers when exec.join_spill_budget_bytes is set and the build side's
/// estimated footprint exceeds it; `build_weights` (parallel to `build`)
/// supplies those per-slot footprints — payload estimates such as
/// EstimateBatchRowBytes — and is required whenever the budget is set.
/// Spilled partitions hold only (input index, key) column-slice pages
/// (src/storage/spill_file.h) — payloads are late-materialized after the
/// join, so they never touch disk. Pair order is the same nested-loop order
/// in every regime.
JoinPairs HashJoinPairsKeys(const JoinKeyColumn& probe,
                            const JoinKeyColumn& build,
                            const ExecContext& exec,
                            JoinStats* stats = nullptr,
                            const std::vector<size_t>* build_weights = nullptr);

/// Per-active-row footprint estimates for batch join inputs, one entry per
/// dense active position in batch order: what each row would occupy
/// materialized (the Row::MemoryBytes formula), compared against
/// join_spill_budget_bytes.
std::vector<size_t> EstimateBatchRowBytes(
    const std::vector<ColumnBatch>& batches);

/// Hash aggregation over column batches, under their selection vectors — no
/// row materialization. With empty `group_cols`, emits one global row.
/// Output row layout: group values then one value per AggSpec; group output
/// order is unspecified. Group hashing uses the typed hash/compare
/// primitives, which match the Value-based ones bit for bit. Parallel over
/// whole batches when exec has a pool and the input has at least 2,048
/// rows per worker: workers build partial hash tables over disjoint batch
/// ranges, combined single-threaded in worker order. Integer results are
/// the same at any worker count; double SUM/AVG depend on the batch
/// sequence and worker count (see the determinism contract above).
std::vector<Row> HashAggregate(const std::vector<ColumnBatch>& batches,
                               const std::vector<int>& group_cols,
                               const std::vector<AggSpec>& aggs,
                               const ExecContext& exec);

/// Sorts by `col` (ascending unless `desc`), keeps first `limit` rows
/// (limit == 0 means all).
void SortLimit(std::vector<Row>* rows, int col, bool desc, size_t limit);

}  // namespace htap

#endif  // HTAP_EXEC_EXECUTOR_H_

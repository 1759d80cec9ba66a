// Radix-partitioned parallel hash join scaling curve.
//
// Joins a ~2M-row probe side against a ~1M-row build side at 1/2/4/8
// workers over the engine-style AP pool, verifying every parallel result is
// byte-identical to the serial join. Emits one JSON line per point so the
// curve can be plotted / regression-tracked (same shape as
// bench_parallel_scan):
//
//   {"bench":"parallel_join","threads":4,"build_rows":...,"probe_rows":...,
//    "output_rows":...,"probe_rows_per_sec":...,"speedup":...}
//
// A second section sweeps the grace join's spill budget (DESIGN.md §9) at a
// fixed thread count, shrinking the budget from "everything resident" to
// 1/16 of the build footprint and reporting the join-time / spill-volume
// curve, one JSON line per point:
//
//   {"bench":"grace_join","threads":4,"budget_bytes":...,"join_ms":...,
//    "partitions_spilled":...,"spill_bytes_written":...,
//    "spill_bytes_read":...,"max_recursion":...}
//
// A third section compares the row and batch join probes (DESIGN.md §13)
// over the same ColumnTables, whose low-cardinality string join keys
// dictionary-encode: the row side scans to Rows and extracts keys from
// boxed Values, the batch side scans to ColumnBatches and extracts keys
// straight off the typed vectors; both probe the identical
// HashJoinPairsKeys kernel and are pair-for-pair identity-checked. One JSON
// line:
//
//   {"bench":"batch_join","threads":1,"build_rows":...,"probe_rows":...,
//    "output_pairs":...,"row_probe_rows_per_sec":...,
//    "batch_probe_rows_per_sec":...,"batch_vs_row":...}
//
// `bench_parallel_join smoke` runs one iteration over a 4x smaller dataset
// (still above the serial-fallback threshold) and a single spill point —
// the CI configuration. Speedup expectations depend on the host: with >= 4
// cores the 4-thread point should clear 1.5x; on a single-core host the
// curve is flat and only the identity checks are meaningful. The batch-join
// section additionally ENFORCES this PR's acceptance bar in smoke mode: the
// batch probe must beat the row probe by >= 1.5x on the dictionary-encoded
// keys (re-measured once before failing, to ride out scheduler blips).

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>

#include "bench_util.h"
#include "columnar/column_table.h"
#include "common/thread_pool.h"
#include "exec/executor.h"

namespace htap {
namespace bench {
namespace {

// Batch-vs-row section: a fact -> dim join on a low-cardinality STRING key
// so the key segments dictionary-encode (ChooseEncoding picks kDictionary
// below the NDV <= n/4 threshold). Column 0 is the unique PK AppendBatch
// keys row groups on.
Schema BatchFactSchema() {
  return Schema({{"id", Type::kInt64}, {"sku", Type::kString},
                 {"qty", Type::kInt64}, {"note", Type::kString}});
}

Schema BatchDimSchema() {
  return Schema({{"id", Type::kInt64}, {"sku", Type::kString},
                 {"weight", Type::kDouble}});
}

std::string SkuName(size_t k) { return "sku-" + std::to_string(k); }

/// Fills a ColumnTable in 64K-row groups (the sync pipeline's granularity)
/// and verifies every `key_col` segment dictionary-encoded — the property
/// the batch-vs-row bar is measured on. (ColumnTable holds a latch, so it
/// is filled in place rather than returned.)
void FillColumnTable(ColumnTable* table, std::vector<Row> rows, int key_col) {
  constexpr size_t kGroupRows = 64 * 1024;
  for (size_t lo = 0; lo < rows.size(); lo += kGroupRows) {
    const size_t hi = std::min(rows.size(), lo + kGroupRows);
    table->AppendBatch(
        std::vector<Row>(std::make_move_iterator(rows.begin() + lo),
                         std::make_move_iterator(rows.begin() + hi)),
        /*csn=*/1);
  }
  for (size_t g = 0; g < table->num_groups(); ++g) {
    if (table->group(g)->columns[key_col].encoding() !=
        EncodingType::kDictionary) {
      std::fprintf(stderr,
                   "FATAL: batch-join key column not dictionary-encoded\n");
      std::abort();
    }
  }
}

struct ProbeTiming {
  double sec = 0;          // scan + key extraction + probe, averaged
  JoinPairs pairs;         // identity-checked across routes
  JoinStats stats;
};

/// Row route: materialize full Rows (the pre-§13 pipeline always carried
/// every column to the join), extract keys from boxed Values, probe.
ProbeTiming RowProbe(const ColumnTable& probe, const ColumnTable& build,
                     int key_col, int reps) {
  ExecContext exec;
  ProbeTiming t;
  const Predicate all;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 = warmup
    Stopwatch sw;
    const auto build_rows = ScanHtap(build, nullptr, kMaxCSN, all, {});
    const auto probe_rows = ScanHtap(probe, nullptr, kMaxCSN, all, {});
    const auto build_keys = ExtractJoinKeys(build_rows, key_col);
    const auto probe_keys = ExtractJoinKeys(probe_rows, key_col);
    t.stats = JoinStats{};
    t.pairs = HashJoinPairsKeys(probe_keys, build_keys, exec, &t.stats);
    if (rep >= 0) t.sec += sw.ElapsedSeconds();
  }
  t.sec /= reps;
  return t;
}

/// Batch route (DESIGN.md §13): scan only the key column into
/// ColumnBatches — late materialization means the probe needs nothing
/// else — extract keys off the typed vectors, probe the identical kernel.
ProbeTiming BatchProbe(const ColumnTable& probe, const ColumnTable& build,
                       int key_col, int reps) {
  ExecContext exec;
  ProbeTiming t;
  const Predicate all;
  const std::vector<int> keys_only{key_col};
  for (int rep = -1; rep < reps; ++rep) {
    Stopwatch sw;
    const auto build_batches =
        ScanHtapBatches(build, nullptr, kMaxCSN, all, keys_only, exec);
    const auto probe_batches =
        ScanHtapBatches(probe, nullptr, kMaxCSN, all, keys_only, exec);
    const auto build_keys = ExtractJoinKeys(build_batches, 0);
    const auto probe_keys = ExtractJoinKeys(probe_batches, 0);
    t.stats = JoinStats{};
    t.pairs = HashJoinPairsKeys(probe_keys, build_keys, exec, &t.stats);
    if (rep >= 0) t.sec += sw.ElapsedSeconds();
  }
  t.sec /= reps;
  return t;
}

struct Point {
  double sec = 0;
  JoinStats stats;
};

Point RunPoint(const std::vector<Row>& probe, const std::vector<Row>& build,
               size_t threads, int reps, const std::vector<Row>* reference,
               size_t spill_budget = 0) {
  std::unique_ptr<ThreadPool> pool;
  ExecContext exec;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads, "bench-join-ap");
    exec.pool = pool.get();
    exec.max_parallelism = threads;
  }
  exec.join_spill_budget_bytes = spill_budget;
  Point p;
  std::vector<Row> out;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 = warmup
    Stopwatch sw;
    out = HashJoin(probe, build, 1, 0, exec, &p.stats);
    if (rep >= 0) p.sec += sw.ElapsedSeconds();
  }
  if (reference != nullptr && out != *reference) {
    std::fprintf(stderr, "FATAL: parallel join result differs at %zu threads\n",
                 threads);
    std::abort();
  }
  p.sec /= reps;
  return p;
}

}  // namespace
}  // namespace bench
}  // namespace htap

int main(int argc, char** argv) {
  using namespace htap;
  using namespace htap::bench;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  const size_t build_rows = smoke ? 256 * 1024 : 1024 * 1024;
  const size_t probe_rows = 2 * build_rows;
  const int reps = smoke ? 1 : 3;

  std::vector<Row> build;
  build.reserve(build_rows);
  for (size_t i = 0; i < build_rows; ++i)
    build.push_back(Row{Value(static_cast<int64_t>(i)),
                        Value(static_cast<int64_t>(i % 23)),
                        Value(1.0 + static_cast<double>(i % 100))});
  std::vector<Row> probe;
  probe.reserve(probe_rows);
  for (size_t i = 0; i < probe_rows; ++i)
    probe.push_back(Row{Value(static_cast<int64_t>(i)),
                        Value(static_cast<int64_t>((i * 7) % build_rows)),
                        Value(static_cast<int64_t>(1 + i % 10)),
                        Value(static_cast<double>(i % 997) * 0.5)});

  std::printf("Radix-partitioned parallel hash join "
              "(%zu build rows, %zu probe rows, %d reps/point%s)\n",
              build_rows, probe_rows, reps, smoke ? ", smoke" : "");
  std::printf("host hardware_concurrency = %u\n\n",
              std::thread::hardware_concurrency());

  const auto reference = HashJoin(probe, build, 1, 0);
  const Point serial = RunPoint(probe, build, 1, reps, &reference);

  std::printf("%8s | %10s | %10s | %13s | %8s\n", "threads", "parts",
              "join ms", "probe Mrows/s", "speedup");
  PrintRule(64);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const Point p = threads == 1
                        ? serial
                        : RunPoint(probe, build, threads, reps, &reference);
    const double rps = static_cast<double>(probe_rows) / p.sec;
    const double speedup = serial.sec / p.sec;
    std::printf("%8zu | %10zu | %10.2f | %13.2f | %8.2f\n", threads,
                p.stats.partitions, p.sec * 1e3, rps / 1e6, speedup);
    std::printf("{\"bench\":\"parallel_join\",\"threads\":%zu,"
                "\"build_rows\":%zu,\"probe_rows\":%zu,\"output_rows\":%zu,"
                "\"probe_rows_per_sec\":%.0f,\"speedup\":%.3f}\n",
                threads, build.size(), probe.size(), p.stats.output_rows, rps,
                speedup);
  }
  PrintRule(64);

  // Grace (out-of-core) sweep: same join, shrinking spill budget. Every
  // point is identity-checked against the unspilled serial reference.
  const size_t build_bytes = EstimateRowsBytes(build);
  const size_t grace_threads = 4;
  std::vector<size_t> budgets;
  if (smoke)
    budgets = {build_bytes / 4};
  else
    budgets = {build_bytes / 2, build_bytes / 4, build_bytes / 16};
  std::printf("\nGrace join spill-budget sweep "
              "(%zu threads, build footprint %.1f MiB)\n",
              grace_threads, static_cast<double>(build_bytes) / (1 << 20));
  std::printf("%12s | %10s | %8s | %12s | %12s | %6s\n", "budget MiB",
              "join ms", "spilled", "written MiB", "read MiB", "rec");
  PrintRule(76);
  for (size_t budget : budgets) {
    const Point p =
        RunPoint(probe, build, grace_threads, reps, &reference, budget);
    std::printf("%12.1f | %10.2f | %8zu | %12.1f | %12.1f | %6zu\n",
                static_cast<double>(budget) / (1 << 20), p.sec * 1e3,
                p.stats.partitions_spilled,
                static_cast<double>(p.stats.spill_bytes_written) / (1 << 20),
                static_cast<double>(p.stats.spill_bytes_read) / (1 << 20),
                p.stats.spill_max_recursion);
    std::printf("{\"bench\":\"grace_join\",\"threads\":%zu,"
                "\"budget_bytes\":%zu,\"join_ms\":%.2f,"
                "\"partitions_spilled\":%zu,\"spill_bytes_written\":%zu,"
                "\"spill_bytes_read\":%zu,\"max_recursion\":%zu}\n",
                grace_threads, budget, p.sec * 1e3,
                p.stats.partitions_spilled, p.stats.spill_bytes_written,
                p.stats.spill_bytes_read, p.stats.spill_max_recursion);
  }
  PrintRule(76);

  // Batch-vs-row probe on dictionary-encoded string keys (DESIGN.md §13).
  // Both routes run scan + key extraction + probe end-to-end; pair vectors
  // must be identical. Smoke mode enforces the acceptance bar
  // (batch >= 1.5x row), re-measuring once before failing so a scheduler
  // blip does not flake CI.
  {
    const size_t bj_build = smoke ? 64 * 1024 : 256 * 1024;
    const size_t bj_probe = 2 * bj_build;
    const size_t bj_keys = bj_build / 8;  // NDV well under the dict threshold
    const int key_col = 1;
    std::vector<Row> dim_rows;
    dim_rows.reserve(bj_build);
    for (size_t i = 0; i < bj_build; ++i)
      dim_rows.push_back(Row{Value(static_cast<int64_t>(i)),
                             Value(SkuName(i % bj_keys)),
                             Value(0.25 * static_cast<double>(i % 53))});
    std::vector<Row> fact_rows;
    fact_rows.reserve(bj_probe);
    for (size_t i = 0; i < bj_probe; ++i)
      fact_rows.push_back(Row{Value(static_cast<int64_t>(i)),
                              Value(SkuName((i * 7) % bj_keys)),
                              Value(static_cast<int64_t>(1 + i % 9)),
                              Value("order note " + std::to_string(i % 17))});
    ColumnTable dim(BatchDimSchema());
    FillColumnTable(&dim, std::move(dim_rows), key_col);
    ColumnTable fact(BatchFactSchema());
    FillColumnTable(&fact, std::move(fact_rows), key_col);

    std::printf("\nBatch vs row join probe "
                "(dictionary STRING key, %zu distinct, serial)\n", bj_keys);
    std::printf("%8s | %12s | %13s | %12s\n", "route", "probe ms",
                "probe Mrows/s", "batch/row");
    PrintRule(56);
    ProbeTiming row = RowProbe(fact, dim, key_col, reps);
    ProbeTiming batch = BatchProbe(fact, dim, key_col, reps);
    if (batch.pairs != row.pairs) {
      std::fprintf(stderr,
                   "FATAL: batch join pairs differ from row join pairs\n");
      std::abort();
    }
    double ratio = row.sec / batch.sec;
    if (smoke && ratio < 1.5) {
      std::printf("(batch/row %.2fx below the 1.5x bar — re-measuring)\n",
                  ratio);
      row = RowProbe(fact, dim, key_col, reps);
      batch = BatchProbe(fact, dim, key_col, reps);
      ratio = row.sec / batch.sec;
    }
    const double row_rps = static_cast<double>(bj_probe) / row.sec;
    const double batch_rps = static_cast<double>(bj_probe) / batch.sec;
    std::printf("%8s | %12.2f | %13.2f | %12s\n", "row", row.sec * 1e3,
                row_rps / 1e6, "1.00");
    std::printf("%8s | %12.2f | %13.2f | %12.2f\n", "batch", batch.sec * 1e3,
                batch_rps / 1e6, ratio);
    std::printf("{\"bench\":\"batch_join\",\"threads\":1,"
                "\"build_rows\":%zu,\"probe_rows\":%zu,\"output_pairs\":%zu,"
                "\"row_probe_rows_per_sec\":%.0f,"
                "\"batch_probe_rows_per_sec\":%.0f,"
                "\"batch_vs_row\":%.3f}\n",
                bj_build, bj_probe, batch.pairs.size(), row_rps, batch_rps,
                ratio);
    PrintRule(56);
    if (smoke && ratio < 1.5) {
      std::fprintf(stderr,
                   "FAIL: batch probe %.2fx of row probe after re-measure "
                   "(acceptance bar is 1.5x on dictionary-encoded keys)\n",
                   ratio);
      return 1;
    }
  }

  std::printf("\nAll parallel, grace, and batch join results verified "
              "byte-identical to serial.\n");
  return 0;
}

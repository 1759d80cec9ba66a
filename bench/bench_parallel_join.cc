// Radix-partitioned parallel hash join scaling curve.
//
// Joins a ~2M-row probe side against a ~1M-row build side at 1/2/4/8
// workers over the engine-style AP pool, checking every result's pairs.
// Emits one JSON line per point so the
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
// Both sides live in ColumnTables and are scanned once into ColumnBatches
// (ScanHtapBatches); each timed join extracts the key columns
// (ExtractJoinKeys) and pairs them (HashJoinPairsKeys), as the query
// runner does. Probe row i joins build row (7i mod build_rows) only, so
// every point's pair list is checked against that closed form.
//
// `bench_parallel_join smoke` runs one iteration over a 4x smaller dataset
// (still above the serial-fallback threshold) and a single spill point —
// the CI configuration. Speedup expectations depend on the host: with >= 4
// cores the 4-thread point should clear 1.5x; on a single-core host the
// curve is flat and only the identity checks are meaningful.

#include <algorithm>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "columnar/column_table.h"
#include "common/thread_pool.h"
#include "exec/executor.h"

namespace htap {
namespace bench {
namespace {

Schema ProbeSchema() {
  return Schema({{"id", Type::kInt64}, {"fk", Type::kInt64},
                 {"qty", Type::kInt64}, {"amount", Type::kDouble}});
}

Schema BuildSchema() {
  return Schema({{"id", Type::kInt64}, {"grp", Type::kInt64},
                 {"weight", Type::kDouble}});
}

/// Fills `table` with rows 0..n-1 from `make_row`, in 64K-row groups (the
/// sync pipeline's granularity), without holding every row at once.
template <typename MakeRow>
void Fill(ColumnTable* table, size_t n, const MakeRow& make_row) {
  constexpr size_t kGroupRows = 64 * 1024;
  for (size_t lo = 0; lo < n; lo += kGroupRows) {
    std::vector<Row> rows;
    const size_t hi = std::min(n, lo + kGroupRows);
    rows.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) rows.push_back(make_row(i));
    table->AppendBatch(std::move(rows), /*csn=*/1);
  }
}

struct Point {
  double sec = 0;
  JoinStats stats;
};

/// Times key extraction + join of probe.fk = build.id at `threads` workers
/// (and the grace path when `spill_budget` is set), then checks the pairs:
/// probe row i must match build row (7i mod build_rows) and nothing else.
Point RunPoint(const std::vector<ColumnBatch>& probe,
               const std::vector<ColumnBatch>& build, size_t threads,
               int reps, size_t spill_budget = 0) {
  std::unique_ptr<ThreadPool> pool;
  ExecContext exec;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads, "bench-join-ap");
    exec.pool = pool.get();
    exec.max_parallelism = threads;
  }
  exec.join_spill_budget_bytes = spill_budget;
  Point p;
  JoinPairs pairs;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 = warmup
    Stopwatch sw;
    const std::vector<size_t> weights =
        spill_budget > 0 ? EstimateBatchRowBytes(build)
                         : std::vector<size_t>{};
    pairs = HashJoinPairsKeys(ExtractJoinKeys(probe, 1),
                              ExtractJoinKeys(build, 0), exec, &p.stats,
                              spill_budget > 0 ? &weights : nullptr);
    if (rep >= 0) p.sec += sw.ElapsedSeconds();
  }
  const size_t probe_rows = TotalActiveRows(probe);
  const size_t build_rows = TotalActiveRows(build);
  bool ok = pairs.size() == probe_rows;
  for (size_t i = 0; ok && i < pairs.size(); ++i)
    ok = pairs[i].first == i && pairs[i].second == (i * 7) % build_rows;
  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: join pairs differ from the expected pairs at %zu "
                 "threads, budget %zu\n",
                 threads, spill_budget);
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

  ColumnTable build_table(BuildSchema());
  Fill(&build_table, build_rows, [](size_t i) {
    return Row{Value(static_cast<int64_t>(i)),
               Value(static_cast<int64_t>(i % 23)),
               Value(1.0 + static_cast<double>(i % 100))};
  });
  ColumnTable probe_table(ProbeSchema());
  Fill(&probe_table, probe_rows, [&](size_t i) {
    return Row{Value(static_cast<int64_t>(i)),
               Value(static_cast<int64_t>((i * 7) % build_rows)),
               Value(static_cast<int64_t>(1 + i % 10)),
               Value(static_cast<double>(i % 997) * 0.5)};
  });
  const Predicate all;
  const auto build = ScanHtapBatches(build_table, nullptr, kMaxCSN, all, {},
                                     ExecContext{});
  const auto probe = ScanHtapBatches(probe_table, nullptr, kMaxCSN, all, {},
                                     ExecContext{});

  std::printf("Radix-partitioned parallel hash join "
              "(%zu build rows, %zu probe rows, %d reps/point%s)\n",
              build_rows, probe_rows, reps, smoke ? ", smoke" : "");
  std::printf("host hardware_concurrency = %u\n\n",
              std::thread::hardware_concurrency());

  const Point serial = RunPoint(probe, build, 1, reps);

  std::printf("%8s | %10s | %10s | %13s | %8s\n", "threads", "parts",
              "join ms", "probe Mrows/s", "speedup");
  PrintRule(64);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const Point p = threads == 1
                        ? serial
                        : RunPoint(probe, build, threads, reps);
    const double rps = static_cast<double>(probe_rows) / p.sec;
    const double speedup = serial.sec / p.sec;
    std::printf("%8zu | %10zu | %10.2f | %13.2f | %8.2f\n", threads,
                p.stats.partitions, p.sec * 1e3, rps / 1e6, speedup);
    std::printf("{\"bench\":\"parallel_join\",\"threads\":%zu,"
                "\"build_rows\":%zu,\"probe_rows\":%zu,\"output_rows\":%zu,"
                "\"probe_rows_per_sec\":%.0f,\"speedup\":%.3f}\n",
                threads, build_rows, probe_rows, p.stats.output_rows, rps,
                speedup);
  }
  PrintRule(64);

  // Grace (out-of-core) sweep: same join, shrinking spill budget. Every
  // point's pairs are checked like the in-memory points'.
  size_t build_bytes = 0;
  for (size_t w : EstimateBatchRowBytes(build)) build_bytes += w;
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
    const Point p = RunPoint(probe, build, grace_threads, reps, budget);
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

  std::printf("\nAll parallel and grace join results verified against the "
              "expected pairs.\n");
  return 0;
}

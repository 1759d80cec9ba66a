// Morsel-driven parallel scan & aggregation scaling curve.
//
// Measures ScanHtapBatches (column scan + delta union, double-typed filter)
// and HashAggregate over its batches (partial tables + merge) throughput at 1/2/4/8 workers over
// the engine-style AP pool, verifying that every parallel result is
// identical to the serial one. Emits one JSON line per point so the curve
// can be plotted / regression-tracked:
//
//   {"bench":"parallel_scan","threads":4,"scan_rows_per_sec":...,
//    "scan_speedup":...,"agg_rows_per_sec":...,"agg_speedup":...}
//
// Speedup expectations depend on the host: with >= 4 cores the 4-thread
// point should clear 2x; on a single-core host the curve is flat and only
// the identity checks are meaningful.

#include <algorithm>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "delta/delta.h"
#include "exec/executor.h"

namespace htap {
namespace bench {
namespace {

constexpr size_t kRows = 256 * 1024;
constexpr size_t kGroupRows = 4096;
constexpr int kReps = 5;

Schema BenchSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64},
                 {"cat", Type::kString}, {"price", Type::kDouble}});
}

struct Point {
  double scan_sec = 0;
  double agg_sec = 0;
};

Point RunPoint(const ColumnTable& table, const InMemoryDeltaStore& delta,
               size_t threads, const std::vector<Row>& serial_scan,
               const std::vector<Row>& serial_agg) {
  std::unique_ptr<ThreadPool> pool;
  ExecContext exec;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads, "bench-ap");
    exec = ExecContext{pool.get(), threads};
  }
  const Predicate pred = Predicate::Ge(3, Value(10.0));
  const std::vector<AggSpec> aggs = {AggSpec::Count("n"), AggSpec::Sum(3, "s"),
                                     AggSpec::Max(1, "mx")};

  Point p;
  std::vector<ColumnBatch> batches;
  for (int rep = -1; rep < kReps; ++rep) {  // rep -1 = warmup
    Stopwatch sw;
    batches =
        ScanHtapBatches(table, &delta, kMaxCSN - 1, pred, {}, exec, nullptr);
    if (rep >= 0) p.scan_sec += sw.ElapsedSeconds();
  }
  if (BatchesToRows(batches) != serial_scan) {
    std::fprintf(stderr, "FATAL: parallel scan result differs at %zu threads\n",
                 threads);
    std::abort();
  }
  std::vector<Row> agg;
  for (int rep = -1; rep < kReps; ++rep) {
    Stopwatch sw;
    agg = HashAggregate(batches, {2}, aggs, exec);
    if (rep >= 0) p.agg_sec += sw.ElapsedSeconds();
  }
  auto less = [](const Row& a, const Row& b) {
    return a.ToString() < b.ToString();
  };
  std::sort(agg.begin(), agg.end(), less);
  std::vector<Row> want = serial_agg;
  std::sort(want.begin(), want.end(), less);
  if (agg != want) {
    std::fprintf(stderr, "FATAL: parallel agg result differs at %zu threads\n",
                 threads);
    std::abort();
  }
  p.scan_sec /= kReps;
  p.agg_sec /= kReps;
  return p;
}

}  // namespace
}  // namespace bench
}  // namespace htap

int main() {
  using namespace htap;
  using namespace htap::bench;

  ColumnTable table(BenchSchema());
  {
    std::vector<Row> batch;
    batch.reserve(kGroupRows);
    for (size_t i = 0; i < kRows; ++i) {
      const auto id = static_cast<Key>(i);
      batch.push_back(Row{Value(id), Value(static_cast<int64_t>(i % 101)),
                          Value(i % 2 ? "odd" : "even"),
                          Value(static_cast<double>(i % 1000) * 0.5)});
      if (batch.size() == kGroupRows) {
        table.AppendBatch(std::move(batch), 1);
        batch.clear();
      }
    }
  }
  InMemoryDeltaStore delta;
  for (Key id = 0; id < 2000; ++id) {
    DeltaEntry e;
    e.op = ChangeOp::kUpdate;
    e.key = id * 100;
    e.row = Row{Value(id * 100), Value(int64_t{1}), Value("patched"),
                Value(999.0)};
    e.csn = 2;
    delta.Append(e);
  }

  std::printf("Morsel-driven parallel scan & aggregation "
              "(%zu rows, %zu-row groups, %d reps/point)\n",
              kRows, kGroupRows, kReps);
  std::printf("host hardware_concurrency = %u\n\n",
              std::thread::hardware_concurrency());

  const auto serial_scan = BatchesToRows(
      ScanHtapBatches(table, &delta, kMaxCSN - 1,
                      Predicate::Ge(3, Value(10.0)), {}, ExecContext{}));
  const auto serial_agg = HashAggregate(
      ScanHtapBatches(table, &delta, kMaxCSN - 1, Predicate::Ge(3, Value(10.0)),
                      {}, ExecContext{}),
      {2}, {AggSpec::Count("n"), AggSpec::Sum(3, "s"), AggSpec::Max(1, "mx")},
      ExecContext{});
  const Point serial = RunPoint(table, delta, 1, serial_scan, serial_agg);

  std::printf("%8s | %12s | %12s | %8s | %12s | %8s\n", "threads",
              "scan ms", "scan Mrows/s", "scan x", "agg Mrows/s", "agg x");
  PrintRule(78);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const Point p = threads == 1
                        ? serial
                        : RunPoint(table, delta, threads, serial_scan,
                                   serial_agg);
    const double scan_rps = static_cast<double>(kRows) / p.scan_sec;
    const double agg_rps =
        static_cast<double>(serial_scan.size()) / p.agg_sec;
    std::printf("%8zu | %12.2f | %12.2f | %8.2f | %12.2f | %8.2f\n", threads,
                p.scan_sec * 1e3, scan_rps / 1e6, serial.scan_sec / p.scan_sec,
                agg_rps / 1e6, serial.agg_sec / p.agg_sec);
    std::printf("{\"bench\":\"parallel_scan\",\"threads\":%zu,"
                "\"scan_rows_per_sec\":%.0f,\"scan_speedup\":%.3f,"
                "\"agg_rows_per_sec\":%.0f,\"agg_speedup\":%.3f}\n",
                threads, scan_rps, serial.scan_sec / p.scan_sec, agg_rps,
                serial.agg_sec / p.agg_sec);
  }
  PrintRule(78);
  std::printf("\nAll parallel results verified byte-identical to serial "
              "(scan) / set-identical (aggregate).\n");
  return 0;
}

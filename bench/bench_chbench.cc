// Reproduces §2.3's benchmark practice: a full CH-benCHmark run with the
// standard execution rule (OLTP and OLAP classes run concurrently for a
// fixed window) and the combined metrics the section discusses — the
// tpmC-like NewOrder rate and the QphH-like analytical rate — plus a
// per-query latency table, on the default architecture (a). The same table
// then runs on architecture (c) at htapbench's data size, where a forced
// row scan reads evicted rows through the disk heap's buffer pool.

#include "bench_util.h"

namespace htap {
namespace bench {
namespace {

/// Per-query latency table over the database's current state. For join
/// queries the "join ms" column reports the time spent inside the
/// (radix-partitioned) hash join operator itself, and the batch-pipeline
/// counters (DESIGN.md §13) show whether the query ran batch-native: input
/// batches consumed, rows whose payloads were late-materialized, and
/// columnar spill pages written/read (0 unless a spill budget forced the
/// grace path). Counters come from the last run; latencies are medians of
/// 5. "row ms" is the same plan forced onto the row store
/// (PathHint::kForceRow), whose scans decode every visible MVCC version;
/// the buffer-pool hits and misses of those row runs follow the table.
/// Returns false if a forced row run disagrees with the plan's answer.
bool PrintQueryTable(Database* db) {
  std::printf("%-6s | %10s | %9s | %9s | %8s | %7s | %9s | %8s | %s\n",
              "query", "median ms", "row ms", "join ms", "rows", "batches",
              "late rows", "spill pg", "description");
  PrintRule(130);
  uint64_t pool_hits = 0, pool_misses = 0;
  double total_ms = 0, total_row_ms = 0;
  for (const ChQuery& q : ChQueries()) {
    std::vector<double> ms, row_ms, join_ms;
    size_t rows = 0;
    QueryExecInfo last;
    QueryPlan row_plan = q.plan;
    row_plan.path = PathHint::kForceRow;
    for (int i = 0; i < 5; ++i) {
      Stopwatch sw;
      QueryExecInfo info;
      auto res = db->Query(q.plan, &info);
      ms.push_back(sw.ElapsedSeconds() * 1000);
      join_ms.push_back(info.join.seconds * 1000);
      if (res.ok()) rows = res->rows.size();
      last = info;
    }
    // Timed in its own loop, after the column loop, so the row scans do
    // not change the cache and allocator state the column timings see.
    const EngineStats before = db->Stats();
    for (int i = 0; i < 5; ++i) {
      Stopwatch sw;
      auto row_res = db->Query(row_plan);
      row_ms.push_back(sw.ElapsedSeconds() * 1000);
      if (!row_res.ok() || row_res->rows.size() != rows) {
        std::fprintf(stderr, "%s: forced row path disagrees\n",
                     q.name.c_str());
        return false;
      }
    }
    const EngineStats after = db->Stats();
    pool_hits += after.buffer_pool_hits - before.buffer_pool_hits;
    pool_misses += after.buffer_pool_misses - before.buffer_pool_misses;
    std::sort(ms.begin(), ms.end());
    std::sort(row_ms.begin(), row_ms.end());
    std::sort(join_ms.begin(), join_ms.end());
    total_ms += ms[ms.size() / 2];
    total_row_ms += row_ms[row_ms.size() / 2];
    if (!q.plan.joins.empty())
      std::printf(
          "%-6s | %10.2f | %9.2f | %9.2f | %8zu | %7zu | %9zu | %8zu | %s\n",
          q.name.c_str(), ms[ms.size() / 2], row_ms[row_ms.size() / 2],
          join_ms[join_ms.size() / 2], rows, last.join.join_batches,
          last.join.rows_late_materialized,
          last.join.spill_pages_written + last.join.spill_pages_read,
          q.description.c_str());
    else
      std::printf("%-6s | %10.2f | %9.2f | %9s | %8zu | %7s | %9s | %8s | %s\n",
                  q.name.c_str(), ms[ms.size() / 2], row_ms[row_ms.size() / 2],
                  "-", rows, "-", "-", "-", q.description.c_str());
  }
  PrintRule(130);
  std::printf("%-6s | %10.2f | %9.2f |\n", "total", total_ms, total_row_ms);
  std::printf("buffer pool over the forced row runs (5 per query): %llu hits, "
              "%llu misses\n",
              static_cast<unsigned long long>(pool_hits),
              static_cast<unsigned long long>(pool_misses));
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace htap

int main() {
  using namespace htap;
  using namespace htap::bench;

  std::printf("CH-benCHmark-style end-to-end run (architecture (a))\n\n");

  ChConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_warehouse = 6;
  cfg.customers_per_district = 60;
  cfg.items = 400;
  cfg.initial_orders_per_district = 25;

  auto db = MakeDb(ArchitectureKind::kRowPlusInMemoryColumn);
  CreateChTables(db.get());
  Stopwatch load_sw;
  LoadChData(db.get(), cfg);
  std::printf("loaded %d warehouses in %.2fs\n\n", cfg.warehouses,
              load_sw.ElapsedSeconds());

  DriverConfig dc;
  dc.oltp_clients = 2;
  dc.olap_clients = 1;
  dc.duration_micros = 2'000'000;
  const DriverReport report = RunMixedWorkload(db.get(), cfg, dc);

  std::printf("Mixed run: %s\n\n", report.ToString().c_str());
  std::printf("Headline metrics (the two the benchmarks combine):\n");
  std::printf("  tpmC-like (NewOrder/min): %10.0f\n", report.tpmc);
  std::printf("  QphH-like (queries/hour): %10.0f\n\n", report.qph);

  // Per-query latency table over the final state.
  db->ForceSyncAll();
  if (!PrintQueryTable(db.get())) return 1;

  // Multi-join SQL variants: the queries whose CH originals touch three or
  // more tables run their full chain through the SQL front end. The exec
  // info shows how the plan-time statistics path ordered the joins and how
  // far its estimates were from the actual step cardinalities.
  std::printf("\nMulti-join SQL chains (plan-time statistics ordering):\n\n");
  for (const ChQuery& q : ChQueries()) {
    if (q.sql.empty()) continue;
    QueryExecInfo info;
    Stopwatch sw;
    auto res = db->ExecuteSql(q.sql, &info);
    const double total_ms = sw.ElapsedSeconds() * 1000;
    if (!res.ok()) {
      std::printf("%-6s FAILED: %s\n", q.name.c_str(),
                  res.status().ToString().c_str());
      continue;
    }
    std::printf("%-6s %zu joins, %.2f ms, %zu result rows — %s\n",
                q.name.c_str(), info.join_steps.size(), total_ms,
                res->rows.size(),
                info.join_used_catalog_stats
                    ? "catalog stats (plan-time order)"
                    : "sampling fallback (exec-time order)");
    if (info.join_used_catalog_stats)
      std::printf("       stats age: %llu commits\n",
                  static_cast<unsigned long long>(info.join_stats_age_csns));
    if (info.vectorized)
      std::printf("       batch pipeline: %zu batches, %zu rows "
                  "late-materialized, %zu spill pages\n",
                  info.join.join_batches, info.join.rows_late_materialized,
                  info.join.spill_pages_written + info.join.spill_pages_read);
    for (size_t s = 0; s < info.join_order.size(); ++s) {
      const double est =
          s < info.join_est_rows.size() ? info.join_est_rows[s] : 0;
      const size_t act =
          s < info.join_actual_rows.size() ? info.join_actual_rows[s] : 0;
      const double qerr =
          est > 0 && act > 0
              ? (est > static_cast<double>(act) ? est / act : act / est)
              : 0;
      std::printf("       step %zu: clause #%zu, est %.0f rows, actual %zu "
                  "(q-error %.2f)\n",
                  s, info.join_order[s], est, act, qerr);
    }
  }

  // The same table on (c), loaded as htapbench loads it (8 warehouses,
  // about 378k rows, a heap many times its 2 MB buffer pool) and scanned
  // serially: its forced row scans read the rows the row store evicted
  // through the heap's buffer pool.
  std::printf("\nPer-query table, architecture (c) at htapbench's data size "
              "(serial scans):\n\n");
  ChConfig big;
  big.warehouses = 8;
  big.districts_per_warehouse = 10;
  big.customers_per_district = 300;
  big.items = 10000;
  big.initial_orders_per_district = 300;
  auto disk = MakeDb(ArchitectureKind::kDiskRowPlusDistributedColumn, 3, true,
                     /*parallel_scan_threads=*/1);
  CreateChTables(disk.get());
  Stopwatch disk_sw;
  LoadChData(disk.get(), big);
  disk->ForceSyncAll();
  std::printf("loaded %d warehouses in %.2fs\n\n", big.warehouses,
              disk_sw.ElapsedSeconds());
  return PrintQueryTable(disk.get()) ? 0 : 1;
}

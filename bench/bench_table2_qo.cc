// Reproduces Table 2, Query Optimization row:
//   in-memory column selection -> high memory utility, lower AP throughput
//       when the needed columns are not loaded
//   hybrid row/column scan     -> high AP throughput (picks the best path)
//   CPU/GPU acceleration       -> high AP throughput, low TP throughput
//
// Part 1 sweeps the column advisor's memory budget on architecture (c) and
// measures query latency for hot-column vs cold-column queries.
// Part 2 compares forced-row, forced-column, and hybrid (auto) execution
// for a point query and an analytical query on architecture (a).
// Part 3 models the heterogeneous CPU/GPU split: a device executor with
// kernel-launch latency + high scan bandwidth vs. the task-parallel CPU
// path, for OLAP and OLTP separately.
// Part 4 measures how far the plan-time statistics path misestimates join
// cardinalities when the fact table's value distribution is skewed: the
// uniform-distribution assumption behind the catalog stats is exact on
// uniform data and off by ~an order of magnitude under skew (q-error from
// QueryExecInfo's estimated vs. actual rows per join step).

#include "bench_util.h"
#include "benchlib/adapt.h"

namespace htap {
namespace bench {
namespace {

double MedianQueryMs(Database* db, const QueryPlan& plan, int reps) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    auto res = db->Query(plan);
    if (!res.ok()) return -1;
    ms.push_back(sw.ElapsedSeconds() * 1000);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

// ---- Part 3: the modeled device executor --------------------------------

/// A data-parallel "GPU" column scanner: pays a fixed kernel-launch latency
/// per query, then scans at a bandwidth multiple of the CPU path; point
/// operations gain nothing (no task parallelism) and pay transfer costs.
struct DeviceModel {
  double launch_overhead_ms = 0.25;   // kernel launch + transfer setup
  double scan_speedup = 8.0;          // effective bandwidth ratio
  double point_op_penalty = 4.0;      // TP ops are latency-bound
};

}  // namespace
}  // namespace bench
}  // namespace htap

int main() {
  using namespace htap;
  using namespace htap::bench;
  std::printf("Table 2 / QO row — query-optimization techniques\n\n");

  // ---- Part 1: workload-driven column selection (architecture (c)) ----
  {
    std::printf("[1] In-memory column selection (Heatwave/Oracle-21c style)\n");
    AdaptConfig acfg;
    acfg.wide_rows = 20000;
    acfg.wide_cols = 24;
    auto db = MakeDb(ArchitectureKind::kDiskRowPlusDistributedColumn, 1,
                     false);
    SetupAdapt(db.get(), acfg);
    auto* engine = static_cast<LocalHtapEngine*>(db->engine());
    const TableInfo* info = db->catalog()->Find("adapt_wide");

    // Hot workload touches the first 4 payload columns.
    const QueryPlan hot = WideScanPlan(acfg, 4);
    for (int i = 0; i < 12; ++i) db->Query(hot);
    QueryPlan cold = WideScanPlan(acfg, 4);
    cold.aggs.clear();
    for (int c = 20; c < 24; ++c)
      cold.aggs.push_back(AggSpec::Sum(1 + c, "sum"));

    std::printf("    %-22s | %10s | %12s | %s\n", "memory budget",
                "hot qry ms", "cold qry ms", "loaded columns");
    // One database per budget point (the budget is fixed at open time).
    for (const size_t budget_kib : {64u, 1024u, 65536u}) {
      char tmpl[] = "/tmp/htap_qo_XXXXXX";
      std::string dir = mkdtemp(tmpl);
      DatabaseOptions opts;
      opts.architecture = ArchitectureKind::kDiskRowPlusDistributedColumn;
      opts.data_dir = dir;
      opts.background_sync = false;
      opts.column_memory_budget_bytes = budget_kib * 1024;
      auto bdb = std::move(*Database::Open(opts));
      SetupAdapt(bdb.get(), acfg);
      auto* beng = static_cast<LocalHtapEngine*>(bdb->engine());
      const TableInfo* binfo = bdb->catalog()->Find("adapt_wide");
      for (int i = 0; i < 12; ++i) bdb->Query(hot);  // heat the advisor
      auto sel = beng->RefreshColumnSelection(*binfo);
      const double hot_ms = MedianQueryMs(bdb.get(), hot, 5);
      const double cold_ms = MedianQueryMs(bdb.get(), cold, 5);
      std::printf("    %19zu KiB | %10.2f | %12.2f | %zu of %d loaded (%.0f%% heat)\n",
                  budget_kib, hot_ms, cold_ms,
                  sel.ok() ? sel->columns.size() : 0, acfg.wide_cols + 1,
                  sel.ok() ? sel->heat_covered * 100 : 0);
      bdb.reset();
      std::system(("rm -rf " + dir).c_str());
    }
    std::printf("    -> loaded-column queries push down; unloaded columns "
                "fall back to the row store, whose evicted rows come from "
                "the disk heap (the paper's caveat).\n\n");
    (void)engine;
    (void)info;
  }

  // ---- Part 2: hybrid row/column scan (architecture (a)) ----------------
  {
    std::printf("[2] Hybrid row/column scan (TiDB / SQL Server style)\n");
    AdaptConfig acfg;
    acfg.wide_rows = 30000;
    acfg.wide_cols = 24;
    auto db = MakeDb(ArchitectureKind::kRowPlusInMemoryColumn, 1, false);
    SetupAdapt(db.get(), acfg);
    db->ForceSync("adapt_wide");

    QueryPlan point;
    point.table = "adapt_wide";
    point.where = Predicate::Eq(0, Value(int64_t{777}));
    QueryPlan analytic = WideScanPlan(acfg, 2);

    std::printf("    %-24s | %12s | %12s\n", "plan", "point ms",
                "analytic ms");
    for (PathHint hint :
         {PathHint::kForceRow, PathHint::kForceColumn, PathHint::kAuto}) {
      QueryPlan p1 = point, p2 = analytic;
      p1.path = hint;
      p2.path = hint;
      const char* name = hint == PathHint::kForceRow      ? "forced row"
                         : hint == PathHint::kForceColumn ? "forced column"
                                                          : "hybrid (cost-based)";
      std::printf("    %-24s | %12.3f | %12.3f\n", name,
                  MedianQueryMs(db.get(), p1, 7),
                  MedianQueryMs(db.get(), p2, 7));
    }
    QueryExecInfo xi1, xi2;
    QueryPlan p1 = point, p2 = analytic;
    db->Query(p1, &xi1);
    db->Query(p2, &xi2);
    std::printf("    -> hybrid chose '%s' for the point query and '%s' for "
                "the analytic one.\n\n",
                xi1.access_path.c_str(), xi2.access_path.c_str());
  }

  // ---- Part 3: CPU/GPU acceleration (modeled device executor) -----------
  {
    std::printf("[3] CPU/GPU acceleration (RateupDB / Caldera model)\n");
    AdaptConfig acfg;
    acfg.wide_rows = 30000;
    acfg.wide_cols = 24;
    auto db = MakeDb(ArchitectureKind::kRowPlusInMemoryColumn, 1, false);
    SetupAdapt(db.get(), acfg);
    db->ForceSync("adapt_wide");
    const DeviceModel gpu;

    const double cpu_scan_ms =
        MedianQueryMs(db.get(), WideScanPlan(acfg, 8), 5);
    const double gpu_scan_ms =
        gpu.launch_overhead_ms + cpu_scan_ms / gpu.scan_speedup;

    Random rng(11);
    Stopwatch sw;
    for (int i = 0; i < 2000; ++i) NarrowPointUpdate(db.get(), acfg, &rng);
    const double cpu_tp_ms = sw.ElapsedSeconds() * 1000 / 2000;
    const double gpu_tp_ms = cpu_tp_ms * gpu.point_op_penalty;

    std::printf("    %-18s | %12s | %12s\n", "executor", "OLAP scan ms",
                "OLTP txn ms");
    std::printf("    %-18s | %12.3f | %12.4f\n", "CPU (task-par.)",
                cpu_scan_ms, cpu_tp_ms);
    std::printf("    %-18s | %12.3f | %12.4f\n", "GPU (data-par.)",
                gpu_scan_ms, gpu_tp_ms);
    std::printf("    -> the device wins the scan %.1fx but loses OLTP %.1fx "
                "(high AP, low TP — the paper's cells).\n",
                cpu_scan_ms / gpu_scan_ms, gpu_tp_ms / cpu_tp_ms);
  }

  // ---- Part 4: join misestimation under skew (plan-time stats) ----------
  {
    std::printf("\n[4] Plan-time join estimates vs. actuals under skew\n");
    std::printf("    %-8s | %-6s | %12s | %12s | %8s\n", "dataset", "step",
                "est rows", "actual rows", "q-error");
    for (const bool skewed : {false, true}) {
      auto db = MakeDb(ArchitectureKind::kRowPlusInMemoryColumn, 1, false);
      db->ExecuteSql("CREATE TABLE dim_a (a_id INT64 PRIMARY KEY, "
                     "a_val INT64)");
      db->ExecuteSql("CREATE TABLE dim_b (b_id INT64 PRIMARY KEY, "
                     "b_val INT64)");
      db->ExecuteSql("CREATE TABLE fact (f_id INT64 PRIMARY KEY, "
                     "f_a INT64, f_b INT64, f_val INT64)");
      {
        auto txn = db->Begin();
        for (int64_t i = 1; i <= 100; ++i) {
          txn->Insert("dim_a", Row{Value(i), Value(i % 7)});
          txn->Insert("dim_b", Row{Value(i), Value(i % 5)});
        }
        txn->Commit();
      }
      // f_val spans [1, 100]. Uniform: every value equally likely, so the
      // min/max-based selectivity estimate for f_val <= 10 is exact.
      // Skewed: 90% of rows sit at f_val = 1, so the same estimate is ~9x
      // under the truth.
      Random rng(42);
      constexpr int64_t kFactRows = 20000;
      for (int64_t i = 1; i <= kFactRows;) {
        auto txn = db->Begin();
        for (int64_t j = 0; j < 500 && i <= kFactRows; ++j, ++i) {
          const int64_t val =
              skewed ? (rng.Uniform(10) == 0
                            ? 1 + static_cast<int64_t>(rng.Uniform(100))
                            : 1)
                     : 1 + static_cast<int64_t>(rng.Uniform(100));
          txn->Insert("fact",
                      Row{Value(i), Value(1 + static_cast<int64_t>(i % 100)),
                          Value(1 + static_cast<int64_t>((i / 100) % 100)),
                          Value(val)});
        }
        txn->Commit();
      }
      db->ForceSyncAll();  // publishes catalog stats for all three tables

      QueryExecInfo info;
      auto res = db->ExecuteSql(
          "SELECT COUNT(*) AS n FROM fact "
          "JOIN dim_a ON f_a = a_id "
          "JOIN dim_b ON f_b = b_id "
          "WHERE f_val <= 10",
          &info);
      if (!res.ok()) {
        std::printf("    query failed: %s\n", res.status().ToString().c_str());
        continue;
      }
      const char* label = skewed ? "skewed" : "uniform";
      for (size_t s = 0; s < info.join_order.size(); ++s) {
        const double est =
            s < info.join_est_rows.size() ? info.join_est_rows[s] : 0;
        const size_t act =
            s < info.join_actual_rows.size() ? info.join_actual_rows[s] : 0;
        const double qerr =
            est > 0 && act > 0
                ? (est > static_cast<double>(act) ? est / act : act / est)
                : 0;
        std::printf("    %-8s | %-6zu | %12.0f | %12zu | %8.2f\n", label, s,
                    est, act, qerr);
      }
      std::printf("    %-8s   planner: %s, stats age %llu commits\n", label,
                  info.join_used_catalog_stats ? "catalog stats" : "fallback",
                  static_cast<unsigned long long>(info.join_stats_age_csns));
    }
    std::printf("    -> uniform data keeps q-error ~1; skew breaks the "
                "uniformity assumption the estimates rest on.\n");
  }
  return 0;
}

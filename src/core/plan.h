// Logical query plan: the engine-independent description of a SELECT that
// every architecture preset knows how to execute. Produced either directly
// (library API) or by the SQL layer.

#ifndef HTAP_CORE_PLAN_H_
#define HTAP_CORE_PLAN_H_

#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/expression.h"

namespace htap {

/// Access-path hint (kAuto lets the cost-based optimizer decide — the
/// hybrid row/column scan technique).
enum class PathHint : uint8_t { kAuto = 0, kForceRow = 1, kForceColumn = 2 };

/// One additional hash equi-join against `table`. `left_col` indexes the
/// combined layout of everything joined so far in plan order (base table
/// columns, then each prior join's columns); `right_col` indexes the joined
/// table's own layout. `where` is pushed down to the joined table's scan.
struct JoinClause {
  std::string table;
  Predicate where;
  int left_col = -1;
  int right_col = -1;
};

/// One table access with optional hash equi-joins, aggregation, and
/// sort/limit. Column indexes in `where` refer to the base table; after the
/// joins, combined rows are base columns followed by each join's columns in
/// plan order, and `group_by` / `aggs` / `order_by` / `projection` refer to
/// that combined layout. The runner may execute the joins in a different
/// order (greedy cardinality-based selection) and build on either side, but
/// the output is always byte-identical to executing them in plan order with
/// build-on-right (see DESIGN.md §9).
struct QueryPlan {
  std::string table;
  Predicate where;

  /// Hash equi-joins, in plan order.
  std::vector<JoinClause> joins;

  // Optional aggregation (combined layout).
  std::vector<int> group_by;
  std::vector<AggSpec> aggs;

  // Output shaping.
  std::vector<int> projection;  // empty = all (ignored when aggs present)
  int order_by = -1;            // output-layout column; -1 = none
  bool order_desc = false;
  size_t limit = 0;  // 0 = no limit

  // HTAP execution knobs.
  PathHint path = PathHint::kAuto;
  /// false = the query tolerates stale data: engines may skip the delta
  /// union (pure column scan, the SingleStore technique).
  bool require_fresh = true;
};

/// What a query actually did — surfaced to benchmarks and EXPLAIN.
struct QueryExecInfo {
  std::string access_path;  // per AccessPathName or engine-specific
  ScanStats scan;

  /// True when the base access ran the vectorized batch pipeline
  /// (DESIGN.md §12) rather than row-at-a-time operators.
  bool vectorized = false;

  /// Aggregate over all executed joins (zero-initialized when the plan has
  /// none). Row/time/spill counters sum across steps; `partitions` is the
  /// maximum; `parallel` / `build_swapped` OR; `output_rows` is the final
  /// join's output. For single-join plans this equals the one step.
  JoinStats join;

  /// Per-join stats in execution order (which may differ from plan order —
  /// see QueryExecInfo::join_order).
  std::vector<JoinStats> join_steps;

  /// Plan-order clause index executed at each step; empty when the plan has
  /// fewer than two joins.
  std::vector<size_t> join_order;

  /// Join-planning provenance (DESIGN.md §10). True when the join order was
  /// chosen at plan time from published catalog statistics; false when the
  /// planner fell back to scanning the join tables and counting keys
  /// exactly (stats missing or staler than the bound).
  bool join_used_catalog_stats = false;
  /// Worst stats age across the referenced tables, in commits (stats path
  /// only).
  uint64_t join_stats_age_csns = 0;
  /// Estimated and actual output rows per executed join step (execution
  /// order, parallel to join_steps; filled when the plan has ≥2 joins).
  /// bench_table2_qo plots the q-error between these under skew.
  std::vector<double> join_est_rows;
  std::vector<size_t> join_actual_rows;
};

}  // namespace htap

#endif  // HTAP_CORE_PLAN_H_

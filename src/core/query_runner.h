// Shared plan execution. Every engine supplies one table-scan callback that
// serves column batches, whichever side (row store, disk heap, column
// store, learner replica) answers it; joins, aggregation, sorting, and
// output-schema construction are common to all of them.
//
// RunPlan is one pipeline on ColumnBatches (DESIGN.md §§12–13): scan the
// base table -> hash joins in the planner's order, carrying only lineage ->
// aggregate over, or late-gather the projection from, the joined batches ->
// sort/limit on the output rows.

#ifndef HTAP_CORE_QUERY_RUNNER_H_
#define HTAP_CORE_QUERY_RUNNER_H_

#include <functional>

#include "core/catalog.h"
#include "core/plan.h"

namespace htap {

/// One base-table access requested by the runner.
struct ScanRequest {
  const TableInfo* table = nullptr;
  const Predicate* pred = nullptr;
  std::vector<int> projection;  // empty = all columns
  PathHint path = PathHint::kAuto;
  bool require_fresh = true;
  /// The query's read CSN. RunPlan copies ExecContext::committed_csn into
  /// every scan of a plan, so all tables of one query read the same delta
  /// cut. 0 = unknown (direct RunPlan callers that set no frontier).
  CSN csn = 0;
};

/// Engine-supplied scan: the rows of `req.table` that pass `req.pred`,
/// narrowed to `req.projection`, as ColumnBatches — the engine converts at
/// the source when its row side serves the request. Fills `stats` /
/// `path_desc` (either may be null).
using ScanFn = std::function<Result<std::vector<ColumnBatch>>(
    const ScanRequest&, ScanStats* stats, std::string* path_desc)>;

/// Executes `plan` against `catalog` using `scan` for base access. `exec`
/// supplies the AP pool for the parallel hash join and aggregation
/// (default: serial), the batch size, and the query's committed CSN.
/// Single-table plans push the projection (or exactly the columns an
/// aggregate consumes) into the scan. Join plans run the late-
/// materialization join pipeline (DESIGN.md §13): keys are extracted from
/// the scan batches, only lineage indices flow between join steps, and
/// payload columns are gathered once, after the last join. Output order is
/// plan-order nested-loop order whatever join order and build sides the
/// planner picks.
Result<QueryResult> RunPlan(const QueryPlan& plan, const Catalog& catalog,
                            const ScanFn& scan, QueryExecInfo* info,
                            const ExecContext& exec = ExecContext{});

/// Output schema the runner will produce for `plan` (for binders/tests).
Result<Schema> PlanOutputSchema(const QueryPlan& plan, const Catalog& catalog);

}  // namespace htap

#endif  // HTAP_CORE_QUERY_RUNNER_H_

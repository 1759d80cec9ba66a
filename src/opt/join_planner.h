// Join planning for hash joins (Table 2, QO row; DESIGN.md §9):
//  * build-side selection — build the hash table on the smaller input
//    instead of always the right side,
//  * greedy join-order selection for multi-join plans — execute the join
//    with the lowest estimated output cardinality first.
//
// Both decisions are pure functions over cardinalities so they are trivially
// deterministic; core/query_runner.cc applies them and restores the plan's
// nested-loop output order afterwards (pair-sort fixup for the build-side
// swap, plan-order lineage sort for reordered joins), keeping query results
// byte-identical to the unoptimized plan.

#ifndef HTAP_OPT_JOIN_PLANNER_H_
#define HTAP_OPT_JOIN_PLANNER_H_

#include <cstddef>
#include <vector>

#include "exec/executor.h"
#include "types/row.h"

namespace htap {

/// True when the hash join should build on the LEFT input: the left side is
/// strictly smaller than the right. Ties keep the conventional
/// build-on-right so single-table plans never churn.
bool ChooseBuildSideLeft(size_t left_rows, size_t right_rows);

/// Cardinality inputs for one candidate join relation.
struct JoinRelEstimate {
  size_t rows = 0;      // relation size after its pushed-down predicate
  double key_ndv = 1;   // distinct join keys in the relation
};

/// Greedy join ordering: starting from `base_rows`, repeatedly pick the
/// eligible clause minimizing the estimated intermediate cardinality
///   est = current_rows * rel.rows / max(1, rel.key_ndv)
/// (uniformity assumption: each probe row matches rows/ndv build rows).
/// `deps[i]` lists clause indexes that must run before clause i (its join
/// key references their output columns). Ties break toward the lowest
/// clause index, so the order is deterministic. Returns a permutation of
/// [0, rels.size()). When `step_estimates` is non-null it receives the
/// estimated output cardinality of each chosen step, in execution order —
/// the planner's est-vs-actual provenance (QueryExecInfo::join_est_rows).
std::vector<size_t> ChooseJoinOrder(
    size_t base_rows, const std::vector<JoinRelEstimate>& rels,
    const std::vector<std::vector<size_t>>& deps,
    std::vector<double>* step_estimates = nullptr);

/// Exact count of distinct non-NULL keys in an extracted join-key column —
/// the NDV input above, computed from the already-scanned relation, so no
/// estimation error.
size_t CountDistinctKeys(const JoinKeyColumn& keys);

}  // namespace htap

#endif  // HTAP_OPT_JOIN_PLANNER_H_

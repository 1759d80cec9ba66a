// The engine's hash join driven the way the query runner drives it, for
// operator tests: each input is a list of ColumnBatches, its key column
// comes out through ExtractJoinKeys, HashJoinPairsKeys pairs the keys
// (grace-budget weights from EstimateBatchRowBytes when a spill budget is
// set), and every pair materializes as probe ++ build. Tests compare the
// result with ref::NestedLoopJoin over the same rows, row order included.

#ifndef HTAP_TESTS_BATCH_JOIN_H_
#define HTAP_TESTS_BATCH_JOIN_H_

#include <vector>

#include "exec/batch.h"
#include "exec/executor.h"
#include "reference_eval.h"

namespace htap {
namespace test {

/// Rows per batch when a test packs plain rows: small enough that every
/// input spans several batches.
constexpr size_t kTestBatchRows = 256;

/// Packs `rows` (all columns of `schema`) into batches.
inline std::vector<ColumnBatch> Batches(const std::vector<Row>& rows,
                                        const Schema& schema,
                                        size_t batch_rows = kTestBatchRows) {
  return RowsToBatches(rows, schema, {}, batch_rows);
}

/// Sum of the per-row footprints the grace budget is compared against.
inline size_t BuildBytes(const std::vector<ColumnBatch>& build) {
  size_t bytes = 0;
  for (size_t w : EstimateBatchRowBytes(build)) bytes += w;
  return bytes;
}

/// The join's index pairs, as the query runner computes them.
inline JoinPairs JoinBatchPairs(const std::vector<ColumnBatch>& probe,
                                const std::vector<ColumnBatch>& build,
                                int probe_col, int build_col,
                                const ExecContext& exec,
                                JoinStats* stats = nullptr) {
  const std::vector<size_t> weights = exec.join_spill_budget_bytes > 0
                                          ? EstimateBatchRowBytes(build)
                                          : std::vector<size_t>{};
  return HashJoinPairsKeys(ExtractJoinKeys(probe, probe_col),
                           ExtractJoinKeys(build, build_col), exec, stats,
                           exec.join_spill_budget_bytes > 0 ? &weights
                                                            : nullptr);
}

/// The join's output rows: probe ++ build per pair, in pair order.
inline std::vector<Row> JoinBatches(const std::vector<ColumnBatch>& probe,
                                    const std::vector<ColumnBatch>& build,
                                    int probe_col, int build_col,
                                    const ExecContext& exec,
                                    JoinStats* stats = nullptr) {
  const JoinPairs pairs =
      JoinBatchPairs(probe, build, probe_col, build_col, exec, stats);
  const std::vector<Row> p = BatchesToRows(probe);
  const std::vector<Row> b = BatchesToRows(build);
  std::vector<Row> out;
  out.reserve(pairs.size());
  for (const auto& [i, j] : pairs) out.push_back(ref::Concat(p[i], b[j]));
  return out;
}

}  // namespace test
}  // namespace htap

#endif  // HTAP_TESTS_BATCH_JOIN_H_

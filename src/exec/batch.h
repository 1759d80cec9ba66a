// ColumnBatch: the unit operators exchange in the vectorized engine — a
// fixed-size slice of typed ColumnVectors plus a selection vector of active
// positions (DESIGN.md §12).
//
// Selection-vector semantics: `sel` holds ascending positions into the
// column vectors; before any filter runs (`filtered` false) an empty `sel`
// means every position is active, afterwards `sel` is exact. Scans emit
// compacted batches (all positions active); filters above the scan refine
// `sel` in place without copying column data. Conversion back to rows
// (BatchesToRows) visits only active positions, in order.

#ifndef HTAP_EXEC_BATCH_H_
#define HTAP_EXEC_BATCH_H_

#include <cstdint>
#include <vector>

#include "columnar/column_vector.h"
#include "exec/expression.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

struct ColumnBatch {
  std::vector<ColumnVector> columns;  // all the same length
  std::vector<uint32_t> sel;          // ascending active positions
  /// False until a filter materializes `sel`: an empty `sel` then means
  /// "every position active" (the compacted-scan fast path). True once a
  /// filter has run — `sel` is authoritative, and an empty `sel` means no
  /// position survived.
  bool filtered = false;

  size_t rows() const { return columns.empty() ? 0 : columns[0].size(); }
  size_t active() const { return all_active() ? rows() : sel.size(); }
  bool all_active() const { return !filtered && sel.empty(); }

  /// Calls fn(position) for every active position, in order.
  template <typename Fn>
  void ForEachActive(const Fn& fn) const {
    if (all_active()) {
      const size_t n = rows();
      for (size_t i = 0; i < n; ++i) fn(i);
    } else {
      for (uint32_t i : sel) fn(i);
    }
  }
};

/// An empty batch with one typed vector per projected schema column (empty
/// projection = all columns), each reserving `reserve` slots.
ColumnBatch MakeBatch(const Schema& schema, const std::vector<int>& projection,
                      size_t reserve);

/// Refines the batch's selection in place with `columns[col] op lit`, using
/// typed tight loops over the decoded vectors. NULL cells and NULL literals
/// never match — the same decisions as Predicate::Eval on the row image.
void FilterBatch(ColumnBatch* batch, int col, CmpOp op, const Value& lit);

/// Sum of active() across batches.
size_t TotalActiveRows(const std::vector<ColumnBatch>& batches);

/// Flattens batches to rows in batch order, active positions only: how a
/// query result leaves the batch pipeline.
std::vector<Row> BatchesToRows(const std::vector<ColumnBatch>& batches);

/// Packs rows appended one at a time into compacted batches of at most
/// `batch_rows` rows each (0 = one batch for everything), typed by `schema`
/// narrowed to `projection` (empty = all columns). Append takes a full
/// schema-layout row and copies only the projected cells, so a row source
/// (the MVCC scan, the delta) converts at the source without building an
/// intermediate row vector. Cells must match the schema's column types (a
/// NULL cell is always accepted).
class BatchBuilder {
 public:
  /// `schema` must outlive the builder.
  BatchBuilder(const Schema& schema, std::vector<int> projection,
               size_t batch_rows);

  void Append(const Row& row);
  /// The batches built so far (the partial last one included); the builder
  /// is empty afterwards.
  std::vector<ColumnBatch> Finish();

 private:
  const Schema& schema_;
  const std::vector<int> projection_;
  const size_t batch_rows_;
  ColumnBatch cur_;
  std::vector<ColumnBatch> out_;
};

/// Packs rows already in the projected layout into batches, as BatchBuilder
/// does: BatchesToRows(RowsToBatches(rows, ...)) == rows.
std::vector<ColumnBatch> RowsToBatches(const std::vector<Row>& rows,
                                       const Schema& schema,
                                       const std::vector<int>& projection,
                                       size_t batch_rows);

}  // namespace htap

#endif  // HTAP_EXEC_BATCH_H_

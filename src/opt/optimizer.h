// Cost-based query optimization for HTAP (Table 2, QO row):
//  * table/column statistics and selectivity estimation,
//  * the hybrid row/column access-path chooser — the cost-based decision
//    between a row-store index lookup, a row-store scan, and a columnar
//    (delta + column) scan that TiDB and SQL Server make per query.

#ifndef HTAP_OPT_OPTIMIZER_H_
#define HTAP_OPT_OPTIMIZER_H_

#include <string>
#include <vector>

#include "exec/expression.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// Per-column statistics (computed from a sample or a full pass).
struct ColumnStats {
  Value min, max;
  double ndv = 1;          // distinct-value estimate
  double null_frac = 0;
  double avg_width = 8;    // bytes per value
};

/// Per-table statistics.
struct TableStats {
  size_t row_count = 0;
  std::vector<ColumnStats> columns;

  /// Builds stats from rows (typically a sample or a maintenance pass).
  static TableStats Compute(const Schema& schema,
                            const std::vector<Row>& rows);
};

/// Estimated fraction of rows satisfying `pred` given `stats`. Uses
/// uniformity and independence assumptions — exactly the weakness the
/// survey's "Learned HTAP Query Optimizer" open problem calls out; see
/// bench_table2_qo for where this misestimates under skew.
double EstimateSelectivity(const Predicate& pred, const TableStats& stats);

/// Access paths the hybrid chooser picks between.
enum class AccessPath : uint8_t {
  kRowIndexLookup = 0,  // B+-tree point/range lookup on the primary key
  kRowFullScan = 1,     // full MVCC row-store scan
  kColumnScan = 2,      // columnar scan + delta union
};

const char* AccessPathName(AccessPath p);

/// Inputs describing one table access within a query. The choice depends
/// only on the table's size, the columns touched and the staged delta:
/// every path pays the same per-output-row cost, so selectivity never
/// changes which path is cheapest.
struct AccessQuery {
  size_t row_count = 0;         // live rows in the table
  size_t columns_needed = 1;    // referenced + projected columns
  size_t total_columns = 1;
  size_t delta_entries = 0;     // staged (unmerged) delta size
  bool pk_point_lookup = false; // pred pins the PK to a point/narrow range
  bool column_store_available = true;
};

struct PathChoice {
  AccessPath path = AccessPath::kRowFullScan;
  double cost = 0;
  std::string reason;
};

/// The hybrid row/column access-path decision.
PathChoice ChooseAccessPath(const AccessQuery& q);

}  // namespace htap

#endif  // HTAP_OPT_OPTIMIZER_H_

// Workload-driven column selection (Table 2, QO row; §2.4 open problem).
//
// Mirrors Oracle 21c's Heatmap / MySQL Heatwave auto-loading: every query
// records which columns it touched; the advisor ranks columns by access
// heat per byte and greedily fills a memory budget. Architecture (c) uses
// this to decide which columns live in the in-memory column-store cluster.

#ifndef HTAP_OPT_COLUMN_ADVISOR_H_
#define HTAP_OPT_COLUMN_ADVISOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "opt/optimizer.h"
#include "types/schema.h"

namespace htap {

class ColumnAdvisor {
 public:
  /// Exponential decay applied per Advise() call so the heatmap follows
  /// workload drift.
  explicit ColumnAdvisor(double decay = 0.9) : decay_(decay) {}

  /// Records that a query touched `columns` of `table` (weight ~ work).
  void RecordAccess(const std::string& table, const std::vector<int>& columns,
                    double weight = 1.0);

  /// Per-column heat for a table (empty if never accessed).
  std::vector<double> Heat(const std::string& table) const;

  struct Selection {
    std::vector<int> columns;       // selected, descending benefit density
    size_t bytes_used = 0;
    double heat_covered = 0;        // fraction of total heat captured
  };

  /// Greedy knapsack: pick columns maximizing heat per byte within
  /// `memory_budget_bytes`. `col_bytes[i]` is the estimated in-memory size
  /// of column i (row_count * avg_width, typically).
  Selection Advise(const std::string& table,
                   const std::vector<size_t>& col_bytes,
                   size_t memory_budget_bytes) const;

  /// Applies decay (call between workload phases).
  void Decay();

 private:
  const double decay_;
  mutable Mutex mu_{LockRank::kAdvisor, "column-advisor"};
  std::unordered_map<std::string, std::vector<double>> heat_ GUARDED_BY(mu_);
};

/// Estimated in-memory bytes per column for a table.
std::vector<size_t> EstimateColumnBytes(const Schema& schema,
                                        const TableStats& stats);

}  // namespace htap

#endif  // HTAP_OPT_COLUMN_ADVISOR_H_

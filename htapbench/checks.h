// Answer checks run after a workload's measured phase. Each check is one
// attempted operation of the run; a failed check fails the run.

#ifndef HTAPBENCH_CHECKS_H_
#define HTAPBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "benchlib/chbench.h"
#include "core/database.h"

namespace htapbench {

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;  // why it failed
};

/// Every plan's column-path result equals its PathHint::kForceRow result,
/// compared as multisets with doubles equal within 1e-9 relative. The data
/// must not change while this runs.
std::vector<CheckResult> CheckRowVsColumn(
    htap::Database* db, const std::vector<htap::bench::ChQuery>& queries);

/// TPC-C consistency on both the row and the column access path, after
/// ForceSyncAll with no transaction running: W_YTD = sum of D_YTD for every
/// warehouse, d_next_o_id - 1 = the district's order count, and
/// COUNT(orderline) = SUM(o_ol_cnt).
std::vector<CheckResult> CheckTpccConsistency(htap::Database* db);

}  // namespace htapbench

#endif  // HTAPBENCH_CHECKS_H_

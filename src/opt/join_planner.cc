#include "opt/join_planner.h"

#include <algorithm>
#include <limits>
#include <set>

namespace htap {

bool ChooseBuildSideLeft(size_t left_rows, size_t right_rows) {
  return left_rows < right_rows;
}

std::vector<size_t> ChooseJoinOrder(
    size_t base_rows, const std::vector<JoinRelEstimate>& rels,
    const std::vector<std::vector<size_t>>& deps,
    std::vector<double>* step_estimates) {
  const size_t n = rels.size();
  std::vector<size_t> order;
  order.reserve(n);
  if (step_estimates != nullptr) {
    step_estimates->clear();
    step_estimates->reserve(n);
  }
  std::vector<uint8_t> done(n, 0);
  double cur = static_cast<double>(base_rows);
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    double best_est = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      const bool eligible =
          i >= deps.size() ||
          std::all_of(deps[i].begin(), deps[i].end(),
                      [&](size_t d) { return d < n && done[d] != 0; });
      if (!eligible) continue;
      const double est = cur * static_cast<double>(rels[i].rows) /
                         std::max(1.0, rels[i].key_ndv);
      if (est < best_est) {  // strict: ties keep the lowest index
        best_est = est;
        best = i;
      }
    }
    // A dependency cycle cannot arise from well-formed plans (a join key
    // can only reference columns of earlier clauses), but fall back to
    // plan order rather than loop forever.
    if (best == n) {
      for (size_t i = 0; i < n; ++i)
        if (!done[i]) {
          best = i;
          break;
        }
      best_est = cur;
    }
    done[best] = 1;
    order.push_back(best);
    if (step_estimates != nullptr) step_estimates->push_back(best_est);
    cur = std::max(best_est, 1.0);
  }
  return order;
}

size_t CountDistinctKeys(const JoinKeyColumn& keys) {
  std::set<Value> distinct;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys.valid[i]) distinct.insert(keys.GetValue(i));
  }
  return distinct.size();
}

}  // namespace htap

// Catalog: table name/id registry shared by the facade, the engines, and
// the SQL binder; also the publication point for per-table statistics
// (DESIGN.md §10) — the sync driver publishes TableStats snapshots here and
// the join planner reads them at plan time.

#ifndef HTAP_CORE_CATALOG_H_
#define HTAP_CORE_CATALOG_H_

#include <map>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "opt/optimizer.h"
#include "txn/types.h"

namespace htap {

/// Plan-time join ordering (DESIGN.md §10): published statistics more than
/// this many commits behind the engine's committed CSN are stale, and join
/// planning falls back to the execution-time sampling path instead of
/// trusting them.
inline constexpr uint64_t kStatsStalenessCsns = 65536;

/// A statistics snapshot published for one table. `as_of_csn` is the commit
/// frontier the snapshot reflects — the planner compares it against the
/// current committed CSN to decide whether the stats are fresh enough to
/// plan from (kStatsStalenessCsns).
struct PublishedTableStats {
  TableStats stats;
  CSN as_of_csn = 0;
  uint64_t version = 0;  // bumps on every publish
};

class Catalog {
 public:
  Status AddTable(const std::string& name, Schema schema, TableInfo* out) {
    MutexLock lk(&mu_);
    if (by_name_.count(name) != 0)
      return Status::AlreadyExists("table exists: " + name);
    HTAP_RETURN_NOT_OK(schema.Validate());
    TableInfo info;
    info.id = next_id_++;
    info.name = name;
    info.schema = std::move(schema);
    by_name_[name] = info;
    if (out != nullptr) *out = by_name_[name];
    return Status::OK();
  }

  /// nullptr if absent. Pointers remain valid for the catalog's lifetime
  /// (tables are never dropped through this API).
  const TableInfo* Find(const std::string& name) const {
    MutexLock lk(&mu_);
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : &it->second;
  }

  std::vector<std::string> TableNames() const {
    MutexLock lk(&mu_);
    std::vector<std::string> out;
    for (const auto& [name, info] : by_name_) out.push_back(name);
    return out;
  }

  /// Publishes (replaces) a table's statistics snapshot. Writers are the
  /// engines' sync/maintenance paths; readers copy out under the same lock,
  /// so a publish never tears a concurrent planner's view.
  void PublishStats(const std::string& name, TableStats stats,
                    CSN as_of_csn) {
    MutexLock lk(&mu_);
    PublishedTableStats& p = stats_by_name_[name];
    p.stats = std::move(stats);
    p.as_of_csn = as_of_csn;
    ++p.version;
  }

  /// Copies out the latest published snapshot. False if the table has never
  /// published (the planner then falls back to execution-time sampling).
  bool GetStats(const std::string& name, PublishedTableStats* out) const {
    MutexLock lk(&mu_);
    const auto it = stats_by_name_.find(name);
    if (it == stats_by_name_.end()) return false;
    if (out != nullptr) *out = it->second;
    return true;
  }

 private:
  mutable Mutex mu_{LockRank::kCatalog, "catalog"};
  // Find() returns pointers into by_name_: std::map nodes are stable and
  // tables are never dropped, so escaped pointers stay valid (documented
  // contract above).
  std::map<std::string, TableInfo> by_name_ GUARDED_BY(mu_);
  std::map<std::string, PublishedTableStats> stats_by_name_ GUARDED_BY(mu_);
  uint32_t next_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace htap

#endif  // HTAP_CORE_CATALOG_H_

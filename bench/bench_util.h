// Shared helpers for the table/figure harnesses.

#ifndef HTAP_BENCH_BENCH_UTIL_H_
#define HTAP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "benchlib/chbench.h"
#include "benchlib/driver.h"
#include "core/database.h"

namespace htap {
namespace bench {

/// Closes the database, then removes its scratch data dir (WAL and (c)'s
/// heap files).
struct ScratchDbDeleter {
  std::string dir;
  void operator()(Database* db) const {
    delete db;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};
using ScratchDb = std::unique_ptr<Database, ScratchDbDeleter>;

/// Fresh database of the given architecture with a scratch data dir under
/// the system temp dir; the dir goes away when the returned handle does.
inline ScratchDb MakeDb(ArchitectureKind arch, int dist_shards = 3,
                        bool background_sync = true,
                        size_t parallel_scan_threads = 0) {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "htap_bench_XXXXXX").string();
  if (mkdtemp(tmpl.data()) == nullptr) {
    std::perror("mkdtemp");
    std::abort();
  }
  DatabaseOptions opts;
  opts.architecture = arch;
  opts.data_dir = tmpl;
  opts.background_sync = background_sync;
  opts.sync_interval_micros = 10000;
  opts.dist.num_shards = dist_shards;
  opts.dist.learner_merge_interval = 20000;
  opts.parallel_scan_threads = parallel_scan_threads;
  // Architecture (c) is the disk-based RDBMS: commits flush the WAL.
  if (arch == ArchitectureKind::kDiskRowPlusDistributedColumn)
    opts.sync_on_commit = true;
  auto res = Database::Open(opts);
  if (!res.ok()) {
    std::fprintf(stderr, "open failed: %s\n", res.status().ToString().c_str());
    std::filesystem::remove_all(tmpl);
    std::abort();
  }
  return ScratchDb(res->release(), ScratchDbDeleter{tmpl});
}

inline const char* ShortArchName(ArchitectureKind k) {
  switch (k) {
    case ArchitectureKind::kRowPlusInMemoryColumn: return "(a) Row+IMC";
    case ArchitectureKind::kDistributedRowPlusColumnReplica:
      return "(b) DistRow+ColReplica";
    case ArchitectureKind::kDiskRowPlusDistributedColumn:
      return "(c) DiskRow+IMCS";
    case ArchitectureKind::kColumnPlusDeltaRow: return "(d) Col+DeltaRow";
  }
  return "?";
}

inline const ArchitectureKind kAllArchitectures[] = {
    ArchitectureKind::kRowPlusInMemoryColumn,
    ArchitectureKind::kDistributedRowPlusColumnReplica,
    ArchitectureKind::kDiskRowPlusDistributedColumn,
    ArchitectureKind::kColumnPlusDeltaRow,
};

/// Maps a measured value onto the paper's High/Medium/Low vocabulary given
/// two thresholds (descending).
inline const char* Band(double v, double high, double medium) {
  return v >= high ? "High" : (v >= medium ? "Medium" : "Low");
}
/// Same but smaller-is-better (e.g. freshness lag).
inline const char* BandInv(double v, double high, double medium) {
  return v <= high ? "High" : (v <= medium ? "Medium" : "Low");
}

inline void PrintRule(int width = 118) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace bench
}  // namespace htap

#endif  // HTAP_BENCH_BENCH_UTIL_H_

// DatabaseOptions: everything configurable about an htapdb instance,
// chiefly which of the survey's four storage architectures to run.

#ifndef HTAP_CORE_OPTIONS_H_
#define HTAP_CORE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <thread>

#include "common/clock.h"
#include "sim/dist_db.h"

namespace htap {

/// The survey's taxonomy (Figure 1 / Table 1).
enum class ArchitectureKind : uint8_t {
  /// (a) Primary row store + in-memory column store (Oracle dual-format,
  /// SQL Server CSI, DB2 BLU).
  kRowPlusInMemoryColumn = 0,
  /// (b) Distributed row store + column store replica (TiDB).
  kDistributedRowPlusColumnReplica = 1,
  /// (c) Disk row store + distributed in-memory column store (Heatwave).
  kDiskRowPlusDistributedColumn = 2,
  /// (d) Primary column store + delta row store (SAP HANA).
  kColumnPlusDeltaRow = 3,
};

const char* ArchitectureName(ArchitectureKind k);

struct DatabaseOptions {
  ArchitectureKind architecture = ArchitectureKind::kRowPlusInMemoryColumn;

  /// Directory for the WAL segments and (c)'s heap files; empty = a
  /// private temp directory, removed on close. It must exist: Open fails
  /// with IOError when the WAL cannot be created in it.
  std::string data_dir;
  /// fflush the WAL group to the OS at commit. No fsync: the group reaches
  /// the page cache, so a host crash can still lose committed work.
  bool sync_on_commit = false;

  /// Data-synchronization cadence (delta -> column store).
  Micros sync_interval_micros = 20000;
  size_t sync_entry_threshold = 8192;
  /// Start the background merge thread (off for deterministic tests that
  /// drive ForceSync explicitly).
  bool background_sync = true;

  /// HANA-style L1 delta spill threshold (architecture (d)).
  size_t l1_spill_threshold = 4096;

  /// Architecture (c): memory budget for the loaded-column store and the
  /// buffer-pool size of the disk heap.
  size_t column_memory_budget_bytes = 256u << 20;
  size_t buffer_pool_pages = 256;

  /// How often table statistics are recomputed (in commits).
  uint64_t stats_refresh_interval = 4096;

  /// Rows per ColumnBatch every scan emits (DESIGN.md §12; 0 = one batch
  /// per row group, or per row-side scan). Larger batches amortize
  /// dispatch; smaller batches stay cache-resident.
  size_t vectorized_batch_rows = 4096;

  /// Intra-query parallelism: size of the engine's AP scan pool. Morsel-
  /// driven scans, aggregations, and hash joins fan out across it; the
  /// resource scheduler throttles analytical CPU through its concurrency
  /// quota. 0 = hardware concurrency; 1 = fully serial execution.
  size_t parallel_scan_threads = 0;

  /// Serial-fallback threshold for the radix-partitioned parallel join:
  /// build sides smaller than this run the classic single-table hash join,
  /// since partitioning a tiny build never amortizes its scatter pass.
  size_t parallel_join_min_build_rows = 4096;

  /// Grace-join spill budget: when a hash join's estimated build-side
  /// footprint exceeds this many bytes, radix partitions that do not fit
  /// spill both sides to temporary on-disk runs and join
  /// partition-at-a-time (DESIGN.md §9). 0 = unlimited — never spill.
  size_t join_spill_budget_bytes = 0;

  /// Directory for the grace join's `htap-spill-*` run files; empty = the
  /// system temp directory.
  std::string join_spill_dir;

  /// Architecture (b): simulated cluster shape.
  sim::DistributedDb::Options dist;
  /// Virtual-time budget granted per pump while waiting on the simulator.
  Micros sim_step_micros = 1000;
  Micros sim_timeout_micros = 10'000'000;
};

/// Resolves `parallel_scan_threads` (0 = hardware concurrency).
inline size_t EffectiveParallelScanThreads(const DatabaseOptions& o) {
  if (o.parallel_scan_threads != 0) return o.parallel_scan_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace htap

#endif  // HTAP_CORE_OPTIONS_H_

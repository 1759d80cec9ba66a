// Regression stress tests for the data races fixed during the thread-safety
// annotation sweep (DESIGN.md §11). Each test pins one former bug: an
// accessor that read guarded state without its lock while a writer mutated
// it. They are meaningful under ThreadSanitizer (ci.sh runs them in the
// build-tsan tree) and still catch torn-read symptoms (monotonic counters
// going backwards, crashes on a freed IMCS generation) in plain builds.
//
// Former bugs, by test:
//  - SyncStatsReadRacesMerge:       the merge counters were once returned
//    by reference into state a merge mutated under its mutex; now
//    Database::Stats() reads them while the sync daemon merges, on every
//    local preset.
//  - WalSyncCountReadRacesAppend:   WalWriter::sync_count() read the counter
//    without mu_ while Append()/Sync() wrote it.
//  - DiskHeapCountersRaceWrites:    DiskRowStore::num_pages() and the
//    then-exposed BufferPool reference were read without mu_ while Put()
//    mutated the pool and page counters.
//  - MergesRaceConcurrentScans:  per-table stats refreshers once mutated
//    TableStats in place while concurrent scans pointed the cost model at
//    the shared struct (those sampled stats are gone); now scans race
//    ForceSync's merges and stats publication, and each sees every row.
//  - ColumnSelectionRefreshRacesScans:  RefreshColumnSelection destroyed
//    the IMCS ColumnTable (then a unique_ptr) that a concurrent scan was
//    reading, and unserialized delta drains could apply out of order. A
//    concurrent writer checks that a rebuild neither loses nor repeats a
//    commit: at quiescence the column side equals the row store.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/engines.h"
#include "storage/disk_row_store.h"
#include "storage/mvcc_row_store.h"
#include "wal/wal.h"

namespace htap {
namespace {

Schema KvSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64}});
}

Row MakeRow(Key id, int64_t v) { return Row{Value(id), Value(v)}; }

TEST(ThreadSafetyRegressionTest, SyncStatsReadRacesMerge) {
  for (const ArchitectureKind arch :
       {ArchitectureKind::kRowPlusInMemoryColumn,
        ArchitectureKind::kDiskRowPlusDistributedColumn,
        ArchitectureKind::kColumnPlusDeltaRow}) {
    SCOPED_TRACE(ArchitectureName(arch));
    DatabaseOptions opts;
    opts.architecture = arch;
    // (c)'s daemon merges only at the entry threshold; (a) and (d)'s also
    // on the interval.
    opts.sync_interval_micros = 1000;
    opts.sync_entry_threshold = 8;
    auto db = std::move(*Database::Open(opts));
    ASSERT_TRUE(db->CreateTable("kv", KvSchema()).ok());

    std::atomic<bool> stop{false};
    std::thread reader([&] {
      uint64_t last_merges = 0;
      uint64_t last_entries = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const EngineStats st = db->Stats();
        EXPECT_GE(st.merges, last_merges);  // never torn or backwards
        EXPECT_GE(st.entries_merged, last_entries);
        last_merges = st.merges;
        last_entries = st.entries_merged;
      }
    });
    uint64_t merges_before = 0;
    for (int i = 0; i < 300; ++i) {
      EXPECT_TRUE(db->InsertRow("kv", MakeRow(i, i)).ok());
      if (i % 50 == 49) {
        // Let the daemon merge some of these 50 commits before writing on.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (db->Stats().merges == merges_before &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        merges_before = db->Stats().merges;
      }
    }
    EXPECT_TRUE(db->ForceSyncAll().ok());
    stop.store(true, std::memory_order_release);
    reader.join();
    const EngineStats st = db->Stats();
    EXPECT_GE(st.merges, 6u);  // at least one per 50 commits
    EXPECT_EQ(st.entries_merged, 300u);
  }
}

TEST(ThreadSafetyRegressionTest, WalSyncCountReadRacesAppend) {
  std::string tmpl = ::testing::TempDir() + "htap_tsreg_wal_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
  auto opened = WalWriter::Open({.dir = tmpl, .stem = "wal"});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  WalWriter& wal = **opened;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t n = wal.sync_count();
      EXPECT_GE(n, last);
      last = n;
    }
  });
  WalRecord rec;
  rec.type = WalRecordType::kCommit;
  for (int i = 0; i < 500; ++i) {
    rec.txn_id = static_cast<uint64_t>(i);
    rec.csn = static_cast<CSN>(i + 1);
    wal.Append(rec);
    wal.Sync();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(wal.sync_count(), 500u);
  std::filesystem::remove_all(tmpl);
}

TEST(ThreadSafetyRegressionTest, DiskHeapCountersRaceWrites) {
  char tmpl[] = "/tmp/htap_tsreg_XXXXXX";
  const std::string dir = mkdtemp(tmpl);
  {
    DiskRowStore store(dir + "/heap", KvSchema(), 8);
    ASSERT_TRUE(store.Open().ok());
    std::atomic<bool> stop{false};
    std::thread reader([&] {
      uint32_t last_pages = 0;
      uint64_t last_evictions = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const uint32_t pages = store.num_pages();
        EXPECT_GE(pages, last_pages);
        last_pages = pages;
        const BufferPoolStats bp = store.pool_stats();
        EXPECT_GE(bp.evictions, last_evictions);
        EXPECT_LE(bp.cached_pages, 8u);  // never exceeds the pool capacity
        last_evictions = bp.evictions;
      }
    });
    for (int i = 0; i < 2000; ++i)
      ASSERT_TRUE(store.Put(MakeRow(i, i)).ok());
    stop.store(true, std::memory_order_release);
    reader.join();
  }
  std::system(("rm -rf " + dir).c_str());
}

class EngineRaceTest : public ::testing::Test {
 protected:
  void Open(ArchitectureKind arch) {
    char tmpl[] = "/tmp/htap_tsreg_XXXXXX";
    dir_ = mkdtemp(tmpl);
    DatabaseOptions opts;
    opts.architecture = arch;
    opts.data_dir = dir_;
    opts.background_sync = true;    // merge daemon runs during the race
    opts.sync_interval_micros = 500;
    auto res = Database::Open(opts);
    ASSERT_TRUE(res.ok());
    db_ = std::move(*res);
    ASSERT_TRUE(db_->CreateTable("kv", KvSchema()).ok());
    for (int i = 0; i < 256; ++i)
      ASSERT_TRUE(db_->InsertRow("kv", MakeRow(i, i)).ok());
  }

  void TearDown() override {
    db_.reset();
    std::system(("rm -rf " + dir_).c_str());
  }

  /// N scanner threads running SELECTs while the caller-provided mutator
  /// runs on the main thread.
  void RaceScansAgainst(const std::function<void()>& mutate) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> scanners;
    for (int s = 0; s < 3; ++s) {
      scanners.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          auto res = db_->ExecuteSql("SELECT v FROM kv WHERE v >= 0");
          ASSERT_TRUE(res.ok());
          EXPECT_EQ(res->rows.size(), 256u);
        }
      });
    }
    mutate();
    stop.store(true, std::memory_order_release);
    for (auto& t : scanners) t.join();
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(EngineRaceTest, MergesRaceConcurrentScans) {
  Open(ArchitectureKind::kRowPlusInMemoryColumn);
  RaceScansAgainst([&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_->UpdateRow("kv", MakeRow(i % 256, i)).ok());
      ASSERT_TRUE(db_->ForceSync("kv").ok());
    }
  });
}

TEST_F(EngineRaceTest, ColumnSelectionRefreshRacesScans) {
  Open(ArchitectureKind::kDiskRowPlusDistributedColumn);
  auto* disk = dynamic_cast<LocalHtapEngine*>(db_->engine());
  ASSERT_NE(disk, nullptr);
  const TableInfo* info = db_->catalog()->Find("kv");
  ASSERT_NE(info, nullptr);
  RaceScansAgainst([&] {
    // A writer keeps committing to keys 128..255 while each iteration
    // replaces the IMCS generation wholesale and the scanners sync + scan
    // it; generation pinning must keep every scan on a live ColumnTable
    // and merges in commit order.
    std::atomic<bool> stop_writer{false};
    std::thread writer([&] {
      // order: acquire pairs with the release store below.
      for (int j = 0; !stop_writer.load(std::memory_order_acquire); ++j) {
        // A main-thread commit still in flight holds the snapshot of the
        // writer's next transaction below its own last write of a key, and
        // first-updater-wins then refuses the update.
        const Status st =
            db_->UpdateRow("kv", MakeRow(128 + j % 128, 2000 + j));
        ASSERT_TRUE(st.ok() || st.IsConflict()) << st.ToString();
      }
    });
    for (int i = 0; i < 50; ++i) {
      const bool ok =
          db_->UpdateRow("kv", MakeRow(i % 128, 1000 + i)).ok() &&
          disk->RefreshColumnSelection(*info).ok() &&
          db_->ForceSync("kv").ok();
      EXPECT_TRUE(ok) << "iteration " << i;
      if (!ok) break;  // not ASSERT: the writer must be stopped first
    }
    stop_writer.store(true, std::memory_order_release);
    writer.join();
  });
  // Quiesced: the rebuilt column side plus its merges equal the row store.
  ASSERT_TRUE(db_->ForceSync("kv").ok());
  const auto rows = [&](PathHint path) {
    QueryPlan plan;
    plan.table = "kv";
    plan.path = path;
    auto res = db_->Query(plan);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    std::vector<Row> out;
    if (res.ok()) out = std::move(res->rows);
    std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
      return a.Get(0).AsInt64() < b.Get(0).AsInt64();
    });
    return out;
  };
  const std::vector<Row> by_row = rows(PathHint::kForceRow);
  EXPECT_EQ(by_row.size(), 256u);
  EXPECT_EQ(rows(PathHint::kForceColumn), by_row);
}

}  // namespace
}  // namespace htap

// Reproduces Table 2, Data Synchronization row:
//   in-memory delta merge          -> high efficiency, low scalability
//   log-based delta merge          -> scalable staging, high merge cost
//   rebuild from primary row store -> small staging memory, high load cost
//
// Setup: a populated MVCC row store; a burst of committed updates staged
// through each DS design; one synchronization brings the column store
// current. We report merge latency, rows moved, and staging memory held
// before the merge.

#include "bench_util.h"
#include "sync/sync.h"

namespace htap {
namespace bench {
namespace {

Schema KvSchema() {
  return Schema({{"id", Type::kInt64}, {"a", Type::kInt64},
                 {"b", Type::kInt64}, {"c", Type::kInt64}});
}

Row MakeRow(Key id, int64_t v) {
  return Row{Value(id), Value(v), Value(v * 2), Value(v * 3)};
}

constexpr size_t kBaseRows = 40000;
constexpr size_t kBurst = 20000;

/// Row store + transaction manager whose sink hands each committed change
/// of the burst to the technique under test.
struct Harness : ChangeSink {
  std::function<void(const ChangeEvent&)> stage = [](const ChangeEvent&) {};
  TransactionManager mgr{nullptr, TransactionManager::kDefaultCommitShards,
                         this};
  std::unique_ptr<MvccRowStore> rows;
  ColumnTable table{KvSchema()};

  Harness() {
    rows = std::make_unique<MvccRowStore>(1, KvSchema(), &mgr, nullptr);
  }

  void LoadBase() {
    for (size_t i = 0; i < kBaseRows; i += 1000) {
      auto t = mgr.Begin();
      for (size_t j = i; j < i + 1000 && j < kBaseRows; ++j)
        rows->Insert(t.get(), MakeRow(static_cast<Key>(j), 1));
      mgr.Commit(t.get());
    }
  }

  void OnCommit(std::vector<ChangeEvent> events) override {
    for (const ChangeEvent& ev : events) stage(ev);
  }

  /// Applies the burst through the sink into `delta_append`.
  void RunBurst(std::function<void(const ChangeEvent&)> delta_append) {
    stage = std::move(delta_append);
    Random rng(4);
    for (size_t i = 0; i < kBurst; i += 500) {
      auto t = mgr.Begin();
      for (size_t j = 0; j < 500; ++j) {
        const Key k = static_cast<Key>(rng.Uniform(kBaseRows));
        rows->Update(t.get(), MakeRow(k, static_cast<int64_t>(i + j)));
      }
      mgr.Commit(t.get());
    }
  }
};

}  // namespace
}  // namespace bench
}  // namespace htap

int main() {
  using namespace htap;
  using namespace htap::bench;
  std::printf("Table 2 / DS row — data-synchronization techniques\n");
  std::printf("Base %zu rows; burst of %zu committed updates, then one sync\n\n",
              kBaseRows, kBurst);
  std::printf("%-30s | %10s | %10s | %12s | paper's cells\n", "Technique",
              "merge ms", "rows moved", "staging KiB");
  PrintRule(104);

  {  // In-memory delta merge.
    Harness h;
    h.LoadBase();
    InMemoryDeltaStore delta;
    DataSynchronizer sync(SyncStrategy::kInMemoryMerge, &h.table, &delta);
    // Base reaches the column store first (as a prior merge would have).
    h.RunBurst([&](const ChangeEvent& ev) {
      DeltaEntry e{ev.op, ev.key, ev.row, ev.csn};
      delta.Append(e);
    });
    const size_t staging = delta.MemoryBytes();
    Stopwatch sw;
    sync.SyncTo(h.mgr.LastCommittedCsn());
    std::printf("%-30s | %10.2f | %10llu | %12.1f | high efficiency / low scalability\n",
                "in-memory delta merge", sw.ElapsedSeconds() * 1000,
                static_cast<unsigned long long>(sync.stats().entries_merged),
                staging / 1024.0);
  }

  {  // Log-based delta merge.
    Harness h;
    h.LoadBase();
    LogDeltaStore delta;
    DataSynchronizer sync(SyncStrategy::kLogMerge, &h.table, &delta);
    std::vector<DeltaEntry> file;
    h.RunBurst([&](const ChangeEvent& ev) {
      file.push_back(DeltaEntry{ev.op, ev.key, ev.row, ev.csn});
      if (file.size() == 512) {
        delta.AppendFile(file);
        file.clear();
      }
    });
    if (!file.empty()) delta.AppendFile(file);
    const size_t staging = delta.MemoryBytes();
    Stopwatch sw;
    sync.SyncTo(h.mgr.LastCommittedCsn());
    std::printf("%-30s | %10.2f | %10llu | %12.1f | scalable staging / high merge cost\n",
                "log-based delta merge", sw.ElapsedSeconds() * 1000,
                static_cast<unsigned long long>(sync.stats().entries_merged),
                staging / 1024.0);
  }

  {  // Rebuild from the primary row store.
    Harness h;
    h.LoadBase();
    DataSynchronizer sync(&h.table, h.rows.get());
    h.RunBurst([](const ChangeEvent&) {});  // nothing staged at all
    Stopwatch sw;
    sync.SyncTo(h.mgr.LastCommittedCsn());
    std::printf("%-30s | %10.2f | %10llu | %12.1f | small memory / high load cost\n",
                "rebuild from primary rows", sw.ElapsedSeconds() * 1000,
                static_cast<unsigned long long>(sync.stats().rows_loaded),
                0.0);
  }

  PrintRule(104);
  std::printf(
      "\nExpected shape: the merges move only the %zu changed rows (the\n"
      "log variant paying extra decode); the rebuild re-loads all %zu rows\n"
      "but holds no staging memory between syncs.\n",
      kBurst, kBaseRows);
  return 0;
}

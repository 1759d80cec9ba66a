// Reproduces Table 2, Data Synchronization row:
//   in-memory delta merge          -> high efficiency, low scalability
//   log-based delta merge          -> scalable staging, high merge cost
//   rebuild from primary row store -> small staging memory, high load cost
//
// Setup: a populated MVCC row store whose column table was rebuilt from it;
// a burst of committed updates staged through each DS design; one
// synchronization brings the column store current. We report merge
// latency, rows moved, and staging memory held before the merge. After
// each synchronization the column table must equal the row store; the run
// exits non-zero if it does not.

#include <map>

#include "bench_util.h"
#include "exec/executor.h"
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
const std::vector<int> kAllColumns = {0, 1, 2, 3};

/// Row store + transaction manager whose sink hands each committed change
/// of the burst to the technique under test.
struct Harness : ChangeSink {
  std::function<void(const ChangeEvent&)> stage = [](const ChangeEvent&) {};
  TransactionManager mgr{nullptr, TransactionManager::kDefaultCommitShards,
                         this};
  std::unique_ptr<MvccRowStore> rows;
  std::shared_ptr<ColumnTable> table;

  Harness() {
    rows = std::make_unique<MvccRowStore>(1, KvSchema(), &mgr, nullptr);
  }

  /// Loads the base rows and rebuilds the column table from them, as a
  /// prior synchronization would have left it.
  void LoadBase() {
    for (size_t i = 0; i < kBaseRows; i += 1000) {
      auto t = mgr.Begin();
      for (size_t j = i; j < i + 1000 && j < kBaseRows; ++j)
        rows->Insert(t.get(), MakeRow(static_cast<Key>(j), 1));
      mgr.Commit(t.get());
    }
    table = RebuildColumnTable(*rows, mgr.CurrentSnapshot(), kAllColumns)
                .ValueOrDie();
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

  /// One delta merge: drain and apply under the table's write latch, as
  /// the engine and the learners do. Returns the entries it drained.
  size_t Merge(DeltaStore* delta) {
    const CSN target = mgr.LastCommittedCsn();
    WriteGuard g(table->latch());
    std::vector<DeltaEntry> entries = delta->DrainUpTo(target);
    const size_t n = entries.size();
    ApplyEntriesToColumnTableLocked(table.get(), std::move(entries), target);
    return n;
  }

  /// Whether the column table holds exactly the row store's latest rows.
  bool ColumnsMatchRows() const {
    std::map<Key, Row> expect, got;
    const Status st = rows->Scan(mgr.CurrentSnapshot(), [&](Key k,
                                                            const Row& r) {
      expect.emplace(k, r);
      return true;
    });
    if (!st.ok()) return false;
    for (Row& r : BatchesToRows(
             ScanHtapBatches(*table, nullptr, table->merged_csn(),
                             Predicate::True(), {}, ExecContext{})))
      got.emplace(r.Get(0).AsInt64(), std::move(r));
    return expect == got;
  }
};

/// Reports a technique whose column table diverged from the row store.
bool Check(const Harness& h, const char* technique) {
  if (h.ColumnsMatchRows()) return true;
  std::fprintf(stderr, "%s: column table differs from the row store\n",
               technique);
  return false;
}

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
  bool ok = true;

  {  // In-memory delta merge.
    Harness h;
    h.LoadBase();
    InMemoryDeltaStore delta;
    h.RunBurst([&](const ChangeEvent& ev) {
      DeltaEntry e{ev.op, ev.key, ev.row, ev.csn};
      delta.Append(e);
    });
    const size_t staging = delta.MemoryBytes();
    Stopwatch sw;
    const size_t moved = h.Merge(&delta);
    std::printf("%-30s | %10.2f | %10zu | %12.1f | high efficiency / low scalability\n",
                "in-memory delta merge", sw.ElapsedSeconds() * 1000, moved,
                staging / 1024.0);
    ok &= Check(h, "in-memory delta merge");
  }

  {  // Log-based delta merge.
    Harness h;
    h.LoadBase();
    LogDeltaStore delta;
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
    const size_t moved = h.Merge(&delta);
    std::printf("%-30s | %10.2f | %10zu | %12.1f | scalable staging / high merge cost\n",
                "log-based delta merge", sw.ElapsedSeconds() * 1000, moved,
                staging / 1024.0);
    ok &= Check(h, "log-based delta merge");
  }

  {  // Rebuild from the primary row store.
    Harness h;
    h.LoadBase();
    h.RunBurst([](const ChangeEvent&) {});  // nothing staged at all
    Stopwatch sw;
    h.table =
        RebuildColumnTable(*h.rows, h.mgr.CurrentSnapshot(), kAllColumns)
            .ValueOrDie();
    std::printf("%-30s | %10.2f | %10zu | %12.1f | small memory / high load cost\n",
                "rebuild from primary rows", sw.ElapsedSeconds() * 1000,
                h.table->live_rows(), 0.0);
    ok &= Check(h, "rebuild from primary rows");
  }

  PrintRule(104);
  std::printf(
      "\nExpected shape: the merges move only the %zu changed rows (the\n"
      "log variant paying extra decode); the rebuild re-loads all %zu rows\n"
      "but holds no staging memory between syncs.\n",
      kBurst, kBaseRows);
  if (!ok) return 1;
  std::printf("column tables match the row store after every sync\n");
  return 0;
}

// Google-benchmark microbenchmarks for the individual substrates: B+-tree
// operations, column encodings and the encoding advisor, the delta merge,
// columnar vs row scans, MVCC transaction path, WAL append, disk-heap
// point reads, one insert transaction through the local engine, and Raft
// replication (virtual-time cost per commit).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "columnar/column_table.h"
#include "columnar/compression_advisor.h"
#include "common/random.h"
#include "core/database.h"
#include "exec/executor.h"
#include "index/btree.h"
#include "sim/raft.h"
#include "storage/disk_row_store.h"
#include "storage/mvcc_row_store.h"
#include "sync/sync.h"
#include "txn/txn_manager.h"
#include "wal/wal.h"

namespace htap {
namespace {

// ---- B+-tree ----------------------------------------------------------

void BM_BTreeInsert(benchmark::State& state) {
  Random rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    BTree tree(static_cast<int>(state.range(0)));
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i)
      tree.Insert(static_cast<Key>(rng.Next64() % 1000000), i);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_BTreeInsert)->Arg(16)->Arg(64)->Arg(256);

void BM_BTreeLookup(benchmark::State& state) {
  BTree tree(64);
  Random rng(2);
  for (int i = 0; i < 100000; ++i) tree.Insert(i, static_cast<uint64_t>(i));
  uint64_t v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Lookup(static_cast<Key>(rng.Uniform(100000)), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

void BM_BTreeScan(benchmark::State& state) {
  BTree tree(64);
  for (int i = 0; i < 100000; ++i) tree.Insert(i, static_cast<uint64_t>(i));
  for (auto _ : state) {
    uint64_t sum = 0;
    tree.ScanAll([&](Key, uint64_t v) {
      sum += v;
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_BTreeScan);

// ---- Encodings --------------------------------------------------------

ColumnVector MakeIntColumn(size_t n, uint64_t range) {
  Random rng(3);
  ColumnVector v(Type::kInt64);
  v.Reserve(n);
  for (size_t i = 0; i < n; ++i)
    v.AppendInt64(static_cast<int64_t>(rng.Uniform(range)));
  return v;
}

void BM_Encode(benchmark::State& state) {
  const auto enc = static_cast<EncodingType>(state.range(0));
  const ColumnVector v = MakeIntColumn(65536, 1000);
  for (auto _ : state) {
    EncodedColumn out = Encode(v, enc);
    benchmark::DoNotOptimize(out.num_values);
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_Encode)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_DecodeScan(benchmark::State& state) {
  const auto enc = static_cast<EncodingType>(state.range(0));
  const EncodedColumn col = Encode(MakeIntColumn(65536, 1000), enc);
  for (auto _ : state) {
    const ColumnVector v = Decode(col);
    benchmark::DoNotOptimize(v.size());
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_DecodeScan)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Advisor cost per column shape: 0 = narrow ints (FOR frame under 32 bits:
// no distinct count), 1 = sorted wide-range keys, 2 = shuffled wide-range
// ints (distinct count by sort), 3 = doubles (runs only), 4 =
// low-cardinality strings.
ColumnVector AdvisorColumn(int shape, size_t n) {
  Random rng(5);
  ColumnVector v(shape == 3 ? Type::kDouble
                            : shape == 4 ? Type::kString : Type::kInt64);
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0: v.AppendInt64(static_cast<int64_t>(rng.Uniform(1000))); break;
      case 1: v.AppendInt64(static_cast<int64_t>(i) << 36); break;
      case 2: v.AppendInt64(static_cast<int64_t>(rng.Next64() >> 8)); break;
      case 3: v.AppendDouble(rng.NextDouble() * 100); break;
      default: v.AppendString("tag" + std::to_string(rng.Uniform(40)));
    }
  }
  return v;
}

void BM_AdviseEncoding(benchmark::State& state) {
  constexpr size_t kN = 65536;
  const ColumnVector v = AdvisorColumn(static_cast<int>(state.range(0)), kN);
  for (auto _ : state) {
    const CompressionAdvice a = AdviseEncoding(v);
    benchmark::DoNotOptimize(a.chosen);
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_AdviseEncoding)->DenseRange(0, 4);

// ---- Delta merge ---------------------------------------------------------

// One drained batch folded and merged into an empty advised column table:
// the set-up merge of a lazily synced table. range(0) = entries; range(1) = 1
// when every key is inserted and then updated (half as many rows survive).
// Rows are orderline-shaped: nine ints and a double.
void BM_MergeDeltaBatch(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const bool repeated = state.range(1) != 0;
  std::vector<ColumnDef> cols;
  for (int c = 0; c < 9; ++c)
    cols.push_back({"c" + std::to_string(c), Type::kInt64});
  cols.push_back({"amount", Type::kDouble});
  const Schema schema(cols);
  Random rng(6);
  std::vector<DeltaEntry> proto(n);
  for (size_t i = 0; i < n; ++i) {
    DeltaEntry& e = proto[i];
    const size_t k = repeated ? i / 2 : i;
    e.op = repeated && i % 2 == 1 ? ChangeOp::kUpdate : ChangeOp::kInsert;
    e.key = static_cast<Key>(k) << 8;
    e.csn = i + 1;
    Row r{Value(e.key)};
    for (int c = 1; c < 9; ++c)
      r.Append(Value(static_cast<int64_t>(rng.Uniform(1000))));
    r.Append(Value(rng.NextDouble() * 100));
    e.row = std::move(r);
  }
  std::unique_ptr<ColumnTable> table;
  for (auto _ : state) {
    state.PauseTiming();  // copying the batch and freeing the last table
    table = std::make_unique<ColumnTable>(schema);
    table->EnableCompressionAdvisor(true);
    std::vector<DeltaEntry> entries = proto;
    state.ResumeTiming();
    WriteGuard g(table->latch());
    ApplyEntriesToColumnTableLocked(table.get(), std::move(entries), n);
    benchmark::DoNotOptimize(table.get());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MergeDeltaBatch)
    ->ArgsProduct({{1000, 16000, 240000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// ---- Scans -------------------------------------------------------------

Schema ScanSchema() {
  return Schema({{"id", Type::kInt64}, {"a", Type::kInt64},
                 {"b", Type::kInt64}, {"c", Type::kInt64}});
}

void BM_ColumnScanFiltered(benchmark::State& state) {
  ColumnTable table(ScanSchema());
  Random rng(4);
  std::vector<Row> rows;
  for (int i = 0; i < 100000; ++i)
    rows.push_back(Row{Value(static_cast<int64_t>(i)),
                       Value(static_cast<int64_t>(rng.Uniform(100))),
                       Value(static_cast<int64_t>(rng.Uniform(1000000))),
                       Value(static_cast<int64_t>(i % 7))});
  table.AppendBatch(std::move(rows), 1);
  const Predicate pred = Predicate::Eq(1, Value(int64_t{42}));
  for (auto _ : state) {
    auto out =
        ScanHtapBatches(table, nullptr, kMaxCSN - 1, pred, {0}, ExecContext{});
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_ColumnScanFiltered);

void BM_RowScanFiltered(benchmark::State& state) {
  TransactionManager mgr;
  MvccRowStore store(1, ScanSchema(), &mgr, nullptr);
  Random rng(4);
  auto txn = mgr.Begin();
  for (int i = 0; i < 100000; ++i)
    store.Insert(txn.get(),
                 Row{Value(static_cast<int64_t>(i)),
                     Value(static_cast<int64_t>(rng.Uniform(100))),
                     Value(static_cast<int64_t>(rng.Uniform(1000000))),
                     Value(static_cast<int64_t>(i % 7))});
  mgr.Commit(txn.get());
  const Predicate pred = Predicate::Eq(1, Value(int64_t{42}));
  for (auto _ : state) {
    auto out =
        ScanRowStore(store, mgr.CurrentSnapshot(), pred, {0}, ExecContext{});
    benchmark::DoNotOptimize(out->size());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_RowScanFiltered);

// ---- MVCC + WAL -------------------------------------------------------

void BM_MvccTxnCommit(benchmark::State& state) {
  TransactionManager mgr;
  MvccRowStore store(1, ScanSchema(), &mgr, nullptr);
  int64_t k = 0;
  for (auto _ : state) {
    auto txn = mgr.Begin();
    store.Insert(txn.get(), Row{Value(k), Value(k), Value(k), Value(k)});
    mgr.Commit(txn.get());
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvccTxnCommit);

void BM_MvccVisibilityCheck(benchmark::State& state) {
  TransactionManager mgr;
  MvccRowStore store(1, ScanSchema(), &mgr, nullptr);
  // A hot key with a deep version chain.
  {
    auto txn = mgr.Begin();
    store.Insert(txn.get(), Row{Value(int64_t{1}), Value(int64_t{0}),
                                Value(int64_t{0}), Value(int64_t{0})});
    mgr.Commit(txn.get());
  }
  for (int64_t i = 0; i < 64; ++i) {
    auto txn = mgr.Begin();
    store.Update(txn.get(),
                 Row{Value(int64_t{1}), Value(i), Value(i), Value(i)});
    mgr.Commit(txn.get());
  }
  const Snapshot old_snap{2, 0};  // forces a deep chain walk
  Row out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(old_snap, 1, &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvccVisibilityCheck);

// A point read of a committed key into a fresh Row, as TP callers do:
// Arg(0) reads four INT64 cells, Arg(1) adds a 24-byte string cell.
void BM_MvccGet(benchmark::State& state) {
  const bool with_string = state.range(0) != 0;
  std::vector<ColumnDef> cols = ScanSchema().columns();
  if (with_string) cols.push_back({"s", Type::kString});
  TransactionManager mgr;
  MvccRowStore store(1, Schema(cols), &mgr, nullptr);
  constexpr int kKeys = 100000;
  {
    auto txn = mgr.Begin();
    for (int64_t i = 0; i < kKeys; ++i) {
      Row r{Value(i), Value(i), Value(i), Value(i)};
      if (with_string) r.Append(Value(std::string(24, 's')));
      store.Insert(txn.get(), r);
    }
    mgr.Commit(txn.get());
  }
  const Snapshot snap = mgr.CurrentSnapshot();
  Random rng(5);
  for (auto _ : state) {
    Row out;
    benchmark::DoNotOptimize(
        store.Get(snap, static_cast<Key>(rng.Uniform(kKeys)), &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvccGet)->Arg(0)->Arg(1);

/// An empty log `stem` in the system temp dir, whose segments are removed
/// when it goes out of scope.
class BenchWal {
 public:
  explicit BenchWal(const std::string& stem)
      : dir_(std::filesystem::temp_directory_path().string()),
        stem_(stem),
        wal_(WalWriter::Open({.dir = dir_, .stem = stem_}).ValueOrDie()) {}
  ~BenchWal() {
    wal_.reset();
    for (const std::string& path : WalSegmentPaths(dir_, stem_).value_or({}))
      std::remove(path.c_str());
  }

  WalWriter& operator*() const { return *wal_; }

 private:
  const std::string dir_;
  const std::string stem_;
  std::unique_ptr<WalWriter> wal_;
};

// One record per iteration through Append, synced every 256 records.
void BM_WalAppend(benchmark::State& state) {
  const BenchWal log("htap-bm-wal-append");
  WalWriter& wal = *log;
  WalRecord rec;
  rec.type = WalRecordType::kInsert;
  rec.txn_id = 1;
  rec.table_id = 1;
  rec.key = 7;
  rec.row = Row{Value(int64_t{7}), Value(int64_t{8}), Value("abcdefgh"),
                Value(3.14)};
  uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(rec));
    if (++n % 256 == 0) wal.Sync();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(wal.TailLsn()));
}
BENCHMARK(BM_WalAppend);

/// An orderline-shaped row: ten cells, one of them a 24-byte string.
Row OrderlineRow(int64_t k) {
  return Row{Value(k),          Value(k / 15),       Value(k % 10),
             Value(k % 15),     Value(k % 100000),   Value(int64_t{1}),
             Value(k * 0.5),    Value(int64_t{5}),   Value(int64_t{0}),
             Value(std::string(24, static_cast<char>('a' + k % 26)))};
}

// One DML record per iteration, as MvccRowStore logs it, into a log in the
// temp dir synced every 256 records, one commit group. Arg 0 is the record
// path: copy the row into a WalRecord and Append it. Arg 1 is AppendDml,
// which encodes the caller's row in place.
void BM_WalAppendDml(benchmark::State& state) {
  const BenchWal log("htap-bm-wal-dml");
  WalWriter& wal = *log;
  const Row row = OrderlineRow(42);
  const bool in_place = state.range(0) == 1;
  uint64_t txn = 1;
  for (auto _ : state) {
    if (in_place) {
      benchmark::DoNotOptimize(
          wal.AppendDml(WalRecordType::kInsert, txn, 3, 42, row));
    } else {
      WalRecord rec;
      rec.type = WalRecordType::kInsert;
      rec.txn_id = txn;
      rec.table_id = 3;
      rec.key = 42;
      rec.row = row;
      benchmark::DoNotOptimize(wal.Append(rec));
    }
    if (++txn % 256 == 0) wal.Sync();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppendDml)->Arg(0)->Arg(1);

// A point read of the disk heap into a fresh Row: what (c)'s MVCC store
// pays for a key whose version it evicted (DESIGN.md §22). 20,000
// orderline-shaped rows take 334 pages. Arg(0): a 512-page pool holds them
// all, so every read hits. Arg(1): a 16-page pool, so about 95% of reads
// miss and load the page from the file (from the OS page cache: no device
// read is timed).
void BM_HeapGet(benchmark::State& state) {
  const size_t pool_pages = state.range(0) == 0 ? 512 : 16;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("htap-bm-heap-" + std::to_string(state.range(0))))
          .string();
  std::remove(path.c_str());
  constexpr int kKeys = 20000;
  {
    DiskRowStore heap(path,
                      Schema({{"k", Type::kInt64}, {"o", Type::kInt64},
                              {"d", Type::kInt64}, {"n", Type::kInt64},
                              {"i", Type::kInt64}, {"s", Type::kInt64},
                              {"amount", Type::kDouble}, {"q", Type::kInt64},
                              {"del", Type::kInt64}, {"info", Type::kString}}),
                      pool_pages);
    if (!heap.Open().ok()) state.SkipWithError("cannot open the heap");
    for (int64_t k = 0; k < kKeys; ++k) heap.Put(OrderlineRow(k));
    heap.Flush();
    const BufferPoolStats before = heap.pool_stats();
    Random rng(5);
    for (auto _ : state) {
      Row out;
      benchmark::DoNotOptimize(
          heap.Get(static_cast<Key>(rng.Uniform(kKeys)), &out));
    }
    const BufferPoolStats after = heap.pool_stats();
    const uint64_t misses = after.misses - before.misses;
    state.counters["miss_ratio"] =
        static_cast<double>(misses) /
        static_cast<double>(misses + after.hits - before.hits);
    state.counters["pages"] = heap.num_pages();
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapGet)->Arg(0)->Arg(1);

// One 256-row insert transaction per iteration through Database and the
// LocalHtapEngine, WAL on (in memory), no background merge: row versions,
// WAL records, change events, the commit and the delta append. Arg is the
// architecture: 0 = (a), 2 = (c), whose commit also writes the disk heap.
// The database is reopened, untimed, every 64 transactions to bound memory.
void BM_InsertCommit256(benchmark::State& state) {
  DatabaseOptions options;
  options.architecture = static_cast<ArchitectureKind>(state.range(0));
  options.background_sync = false;
  Schema schema({{"k", Type::kInt64}, {"o", Type::kInt64},
                 {"d", Type::kInt64}, {"n", Type::kInt64},
                 {"i", Type::kInt64}, {"s", Type::kInt64},
                 {"amount", Type::kDouble}, {"q", Type::kInt64},
                 {"del", Type::kInt64}, {"info", Type::kString}});
  std::unique_ptr<Database> db;
  int64_t key = 0;
  for (auto _ : state) {
    if (key % (64 * 256) == 0) {
      state.PauseTiming();
      db.reset();
      db = std::move(*Database::Open(options));
      if (!db->CreateTable("orderline", schema).ok())
        state.SkipWithError("CreateTable failed");
      state.ResumeTiming();
    }
    auto txn = db->Begin();
    for (int i = 0; i < 256; ++i, ++key)
      benchmark::DoNotOptimize(txn->Insert("orderline", OrderlineRow(key)));
    if (!txn->Commit().ok()) state.SkipWithError("commit failed");
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_InsertCommit256)->Arg(0)->Arg(2)->Unit(benchmark::kMicrosecond);

// ---- Raft (virtual time per committed entry) --------------------------

void BM_RaftReplicateCommit(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::SimEnv env(5);
    sim::SimNetwork net(&env, {});
    sim::RaftGroup group(&env, &net, {0, 1, 2}, {}, sim::RaftConfig{},
                         nullptr);
    sim::RaftNode* leader = group.WaitForLeader();
    state.ResumeTiming();
    int committed = 0;
    for (int i = 0; i < 100; ++i)
      leader->Propose("x", [&](bool ok, uint64_t) { committed += ok; });
    while (committed < 100) env.RunUntil(env.Now() + 1000);
    benchmark::DoNotOptimize(committed);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RaftReplicateCommit);

}  // namespace
}  // namespace htap

BENCHMARK_MAIN();

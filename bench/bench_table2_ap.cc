// Reproduces Table 2, Analytical Processing row:
//   in-memory delta + column scan -> high freshness, large memory
//   log-based delta + column scan -> scalable staging, low freshness
//   pure column scan              -> high efficiency, low freshness
//
// Setup: one table with a merged columnar base plus a stream of unmerged
// committed updates staged in each delta design. Each technique answers
// the same aggregate query; we report latency, how many of the freshest
// changes the answer reflects, and staging memory.

#include "bench_util.h"

namespace htap {
namespace bench {
namespace {

Schema WideSchema() {
  std::vector<ColumnDef> cols = {{"id", Type::kInt64}};
  for (int i = 0; i < 7; ++i)
    cols.emplace_back("c" + std::to_string(i), Type::kInt64);
  return Schema(cols);
}

Row MakeRow(Key id, int64_t v) {
  Row r{Value(id)};
  for (int i = 0; i < 7; ++i) r.Append(Value(v + i));
  return r;
}

struct TechniqueResult {
  double query_ms = 0;
  size_t visible_fresh_rows = 0;  // of the unmerged tail
  size_t staging_bytes = 0;
  uint64_t extra_decode_bytes = 0;
};

constexpr size_t kBaseRows = 60000;
constexpr size_t kTailRows = 6000;  // committed but unmerged

template <typename DeltaT>
TechniqueResult RunWith(DeltaT* delta, const ColumnTable& table,
                        bool union_delta) {
  // The query: count rows with id >= kBaseRows (i.e. only the fresh tail
  // qualifies) plus a broad aggregate over a base column.
  TechniqueResult out;
  Stopwatch sw;
  const Predicate pred = Predicate::Ge(0, Value(static_cast<int64_t>(0)));
  ScanStats stats;
  const auto batches =
      ScanHtapBatches(table, union_delta ? delta : nullptr, kMaxCSN - 1, pred,
                      {0}, ExecContext{}, &stats);
  out.query_ms = sw.ElapsedSeconds() * 1000.0;
  for (const ColumnBatch& b : batches)
    b.ForEachActive([&](size_t i) {
      if (b.columns[0].GetInt64(i) >= static_cast<int64_t>(kBaseRows))
        ++out.visible_fresh_rows;
    });
  out.staging_bytes = delta->MemoryBytes();
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace htap

int main() {
  using namespace htap;
  using namespace htap::bench;
  std::printf("Table 2 / AP row — analytical-processing techniques\n");
  std::printf("Base: %zu merged rows; %zu committed-but-unmerged updates\n\n",
              kBaseRows, kTailRows);

  const Schema schema = WideSchema();

  // Build the merged base.
  ColumnTable table(schema);
  {
    std::vector<Row> base;
    base.reserve(kBaseRows);
    for (size_t i = 0; i < kBaseRows; ++i)
      base.push_back(MakeRow(static_cast<Key>(i), static_cast<int64_t>(i)));
    table.AppendBatch(std::move(base), /*up_to_csn=*/1);
  }

  // Stage the unmerged tail into each delta design.
  InMemoryDeltaStore mem_delta;
  L1L2DeltaStore l1l2(schema, 2048);
  LogDeltaStore log_delta;
  {
    std::vector<DeltaEntry> batch;
    for (size_t i = 0; i < kTailRows; ++i) {
      DeltaEntry e;
      e.op = ChangeOp::kInsert;
      e.key = static_cast<Key>(kBaseRows + i);
      e.row = MakeRow(e.key, static_cast<int64_t>(i));
      e.csn = 2 + i;
      mem_delta.Append(e);
      l1l2.Append(e);
      batch.push_back(e);
      if (batch.size() == 512) {
        log_delta.AppendFile(batch);
        batch.clear();
      }
    }
    if (!batch.empty()) log_delta.AppendFile(batch);
  }

  std::printf("%-34s | %9s | %12s | %11s | paper's cells\n", "Technique",
              "query ms", "fresh rows", "staging KiB");
  PrintRule(110);

  auto in_mem = RunWith(&mem_delta, table, true);
  std::printf("%-34s | %9.2f | %7zu/%zu | %11.1f | high freshness / large memory\n",
              "in-memory delta + column scan", in_mem.query_ms,
              in_mem.visible_fresh_rows, kTailRows,
              in_mem.staging_bytes / 1024.0);

  auto hana = RunWith(&l1l2, table, true);
  std::printf("%-34s | %9.2f | %7zu/%zu | %11.1f | (L1/L2 variant of the above)\n",
              "L1+L2 delta + column scan", hana.query_ms,
              hana.visible_fresh_rows, kTailRows, hana.staging_bytes / 1024.0);

  const uint64_t decoded_before = log_delta.bytes_decoded();
  auto log_scan = RunWith(&log_delta, table, true);
  std::printf("%-34s | %9.2f | %7zu/%zu | %11.1f | + %.1f KiB decoded per query\n",
              "log-based delta + column scan", log_scan.query_ms,
              log_scan.visible_fresh_rows, kTailRows,
              log_scan.staging_bytes / 1024.0,
              (log_delta.bytes_decoded() - decoded_before) / 1024.0);

  auto pure = RunWith(&mem_delta, table, false);
  std::printf("%-34s | %9.2f | %7zu/%zu | %11.1f | high efficiency / low freshness\n",
              "pure column scan (no delta)", pure.query_ms,
              pure.visible_fresh_rows, kTailRows, 0.0);

  PrintRule(110);
  std::printf(
      "\nExpected shape: delta-union scans see all %zu fresh rows; the pure\n"
      "column scan sees none. The log-based variant pays file decoding on\n"
      "every read; the in-memory variants pay resident staging memory.\n",
      kTailRows);
  return 0;
}

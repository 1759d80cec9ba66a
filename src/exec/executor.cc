#include "exec/executor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "exec/segment_filter.h"
#include "storage/spill_file.h"

namespace htap {

namespace {

/// Read-only state shared by every morsel of one HTAP scan.
struct HtapScanShared {
  const Predicate* pred;
  const std::vector<int>* projection;
  const std::unordered_map<Key, const DeltaEntry*>* overrides;
};

/// Computes one row group's surviving selection: live, non-overridden
/// positions that pass the predicate. Comparison conjuncts evaluate
/// directly on the encoded segments (exec/segment_filter.h) — code-space
/// dictionary compares, per-run RLE, zone-map-pruned FOR — and anything
/// non-conjunctive falls back to row-at-a-time EvalColumns over the
/// survivors. Returns false when zone maps skip the whole group.
bool ComputeGroupSelection(const RowGroup& g, const HtapScanShared& s,
                           std::vector<uint32_t>* sel, ScanStats* st) {
  const Predicate& pred = *s.pred;
  if (pred.CanSkipGroup(g.columns)) {
    ++st->groups_skipped;
    return false;
  }
  // Initial selection: live, non-overridden positions.
  sel->clear();
  sel->reserve(g.num_rows);
  const bool any_deleted = g.deleted.AnySet();
  const auto& overrides = *s.overrides;
  for (uint32_t i = 0; i < g.num_rows; ++i) {
    if (any_deleted && g.deleted.Test(i)) continue;
    if (!overrides.empty() && overrides.count(g.keys[i]) != 0) continue;
    sel->push_back(i);
  }
  st->rows_considered += sel->size();
  // Apply conjuncts column-at-a-time; non-conjunctive parts row-at-a-time.
  bool generic_needed = false;
  for (const Predicate* conj : pred.Conjuncts()) {
    if (conj->kind() == Predicate::Kind::kCompare) {
      const auto col = static_cast<size_t>(conj->column());
      FilterSegmentSelection(g.columns[col], conj->op(), conj->literal(),
                             sel);
    } else {
      generic_needed = true;
    }
  }
  if (generic_needed) {
    size_t o = 0;
    for (uint32_t i : *sel)
      if (pred.EvalColumns(g.columns, i)) (*sel)[o++] = i;
    sel->resize(o);
  }
  return true;
}

/// Scans one row group (one morsel): gathers the surviving selection into
/// compacted ColumnBatches of at most `batch_rows` rows (0 = whole group),
/// typed per-encoding gathers, no Value boxing.
void ScanGroupBatches(const RowGroup& g, const HtapScanShared& s,
                      size_t batch_rows, std::vector<ColumnBatch>* out,
                      ScanStats* st) {
  std::vector<uint32_t> sel;
  if (!ComputeGroupSelection(g, s, &sel, st)) return;
  if (sel.empty()) return;
  const std::vector<int>& projection = *s.projection;
  const size_t bsz = batch_rows == 0 ? sel.size() : batch_rows;
  for (size_t lo = 0; lo < sel.size(); lo += bsz) {
    const size_t n = std::min(bsz, sel.size() - lo);
    const std::vector<uint32_t> slice(sel.begin() + static_cast<long>(lo),
                                      sel.begin() + static_cast<long>(lo + n));
    ColumnBatch b;
    const auto gather = [&](size_t c) {
      ColumnVector cv(g.columns[c].type());
      cv.Reserve(n);
      GatherSegment(g.columns[c], slice, &cv);
      b.columns.push_back(std::move(cv));
    };
    if (projection.empty()) {
      b.columns.reserve(g.columns.size());
      for (size_t c = 0; c < g.columns.size(); ++c) gather(c);
    } else {
      b.columns.reserve(projection.size());
      for (int c : projection) gather(static_cast<size_t>(c));
    }
    st->main_rows_emitted += n;
    out->push_back(std::move(b));
  }
}

}  // namespace

std::string QueryResult::ToString(size_t max_rows) const {
  std::string s;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i) s += " | ";
    s += schema.column(i).name;
  }
  s += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    for (size_t i = 0; i < rows[r].size(); ++i) {
      if (i) s += " | ";
      s += rows[r].Get(i).ToString();
    }
    s += "\n";
  }
  if (rows.size() > max_rows)
    s += "... (" + std::to_string(rows.size()) + " rows total)\n";
  return s;
}

Result<std::vector<ColumnBatch>> ScanRowStore(
    const MvccRowStore& store, const Snapshot& snap, const Predicate& pred,
    const std::vector<int>& projection, const ExecContext& exec) {
  // The passing rows of keys [lo, hi], appended into batches as they are
  // read.
  const auto scan = [&](Key lo, Key hi,
                        std::vector<ColumnBatch>* out) -> Status {
    BatchBuilder builder(store.schema(), projection, exec.batch_rows);
    HTAP_RETURN_NOT_OK(store.ScanRange(snap, lo, hi, [&](Key, const Row& row) {
      if (pred.Eval(row)) builder.Append(row);
      return true;
    }));
    *out = builder.Finish();
    return Status::OK();
  };
  const std::vector<std::pair<Key, Key>> ranges =
      exec.parallel() ? store.SplitKeyRanges(exec.max_parallelism)
                      : std::vector<std::pair<Key, Key>>{};
  std::vector<ColumnBatch> out;
  if (ranges.size() <= 1) {
    HTAP_RETURN_NOT_OK(scan(std::numeric_limits<Key>::min(),
                            std::numeric_limits<Key>::max(), &out));
    return out;
  }

  std::vector<std::vector<ColumnBatch>> partial(ranges.size());
  std::vector<Status> status(ranges.size());
  {
    TaskGroup tg(exec.pool);
    for (size_t i = 0; i < ranges.size(); ++i)
      tg.Run([&, i] {
        status[i] = scan(ranges[i].first, ranges[i].second, &partial[i]);
      });
  }
  for (size_t i = 0; i < ranges.size(); ++i) {
    HTAP_RETURN_NOT_OK(status[i]);
    for (ColumnBatch& b : partial[i]) out.push_back(std::move(b));
  }
  return out;
}

std::vector<ColumnBatch> ScanHtapBatches(const ColumnTable& table,
                                         const DeltaReader* delta,
                                         CSN snapshot, const Predicate& pred,
                                         const std::vector<int>& projection,
                                         const ExecContext& exec,
                                         ScanStats* stats) {
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;

  // 1. Delta override set: the latest visible entry per key.
  std::unordered_map<Key, const DeltaEntry*> overrides;
  std::vector<DeltaEntry> delta_entries;
  if (delta != nullptr) {
    delta->ScanVisible(snapshot, [&](const DeltaEntry& e) {
      delta_entries.push_back(e);
    });
    st->delta_entries_read = delta_entries.size();
    for (const auto& e : delta_entries) overrides[e.key] = &e;
  }

  const HtapScanShared shared{&pred, &projection, &overrides};

  // Hold the table's scan latch for the whole pass so Compact() cannot
  // invalidate group pointers mid-scan.
  ReadGuard table_guard(table.latch());
  const size_t ngroups = table.num_groups_unlocked();
  st->groups_total = ngroups;

  // 2. The delta-override partition is its own morsel, emitted as typed
  // batches after every main group. Delta rows append through the
  // schema-typed vectors; rows are in override-map iteration order,
  // identical for serial and parallel.
  std::vector<ColumnBatch> delta_batches;
  ScanStats delta_st;
  auto delta_morsel = [&] {
    BatchBuilder builder(table.schema(), projection, exec.batch_rows);
    for (const auto& [key, e] : overrides) {
      if (e->op == ChangeOp::kDelete) continue;
      if (!pred.Eval(e->row)) continue;
      builder.Append(e->row);
      ++delta_st.delta_rows_emitted;
    }
    delta_batches = builder.Finish();
  };

  // 3. Main groups: one morsel per group, merged in group order — the batch
  // sequence is byte-identical to the serial pass at any thread count.
  std::vector<ColumnBatch> out;
  const size_t workers =
      exec.parallel() && ngroups > 1 ? std::min(exec.max_parallelism, ngroups)
                                     : 1;
  if (workers <= 1) {
    for (size_t gi = 0; gi < ngroups; ++gi)
      ScanGroupBatches(*table.group_unlocked(gi), shared, exec.batch_rows,
                       &out, st);
    delta_morsel();
  } else {
    std::vector<std::vector<ColumnBatch>> partial(ngroups);
    std::vector<ScanStats> wstats(workers);
    std::atomic<size_t> next{0};
    {
      TaskGroup tg(exec.pool);
      tg.Run(delta_morsel);
      for (size_t w = 0; w < workers; ++w) {
        tg.Run([&, w] {
          for (size_t gi = next.fetch_add(1, std::memory_order_relaxed);
               gi < ngroups;
               gi = next.fetch_add(1, std::memory_order_relaxed))
            ScanGroupBatches(*table.group_unlocked(gi), shared,
                             exec.batch_rows, &partial[gi], &wstats[w]);
        });
      }
    }
    for (const ScanStats& ws : wstats) {
      st->groups_skipped += ws.groups_skipped;
      st->main_rows_emitted += ws.main_rows_emitted;
      st->rows_considered += ws.rows_considered;
    }
    size_t total = 0;
    for (const auto& p : partial) total += p.size();
    out.reserve(total + delta_batches.size());
    for (auto& p : partial)
      for (ColumnBatch& b : p) out.push_back(std::move(b));
  }

  st->delta_rows_emitted += delta_st.delta_rows_emitted;
  for (ColumnBatch& b : delta_batches) out.push_back(std::move(b));
  return out;
}

// ---------------------------------------------------------------------------
// Hash join. Three regimes share one pair-emitting core (DESIGN.md §§8–9):
// serial single-table, radix-partitioned parallel, and the grace
// (out-of-core) path that spills oversized partitions to temporary runs.
// ---------------------------------------------------------------------------

namespace {

/// Chained hash table over one radix partition of the build side. Chains
/// preserve build-input order per hash, so probing emits matches exactly in
/// nested-loop order — the property the serial/parallel byte-identity of
/// the join rests on.
class JoinPartitionTable {
 public:
  void Reserve(size_t rows) {
    slots_.reserve(rows);
    entries_.reserve(rows);
  }

  void Insert(uint64_t hash, uint32_t row) {
    const auto e = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{row, kEnd});
    auto [it, fresh] = slots_.try_emplace(hash, Chain{e, e});
    if (!fresh) {
      entries_[it->second.tail].next = e;
      it->second.tail = e;
    }
  }

  template <typename Fn>
  void ForEachHashMatch(uint64_t hash, const Fn& fn) const {
    const auto it = slots_.find(hash);
    if (it == slots_.end()) return;
    for (uint32_t e = it->second.head; e != kEnd; e = entries_[e].next)
      fn(entries_[e].row);
  }

 private:
  static constexpr uint32_t kEnd = 0xffffffffu;
  struct Chain {
    uint32_t head;
    uint32_t tail;
  };
  struct Entry {
    uint32_t row;
    uint32_t next;
  };
  std::unordered_map<uint64_t, Chain> slots_;
  std::vector<Entry> entries_;
};

/// Probes key slots [lo, hi) against the partition tables, emitting
/// (probe, build) index pairs. Two passes: a hash-match pre-count sizes the
/// output reservation (overcounting only on hash collisions between unequal
/// keys), then the emit pass confirms key equality — typed, through
/// JoinKeyEquals, no Value boxing.
void ProbePairsRangeKeys(const JoinKeyColumn& probe, size_t lo, size_t hi,
                         const JoinKeyColumn& build,
                         const std::vector<JoinPartitionTable>& parts,
                         uint64_t part_mask, uint64_t hash_mask,
                         JoinPairs* out) {
  size_t estimate = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (!probe.valid[i]) continue;
    const uint64_t h = probe.hashes[i] & hash_mask;
    parts[h & part_mask].ForEachHashMatch(h, [&](uint32_t) { ++estimate; });
  }
  out->reserve(out->size() + estimate);
  for (size_t i = lo; i < hi; ++i) {
    if (!probe.valid[i]) continue;
    const uint64_t h = probe.hashes[i] & hash_mask;
    parts[h & part_mask].ForEachHashMatch(h, [&](uint32_t r) {
      if (!JoinKeyEquals(probe, i, build, r)) return;  // hash collision
      out->emplace_back(static_cast<uint32_t>(i), r);
    });
  }
}

/// Partition count: ~4 independent build morsels per worker for load
/// balance, power of two for mask addressing, capped at 64 so small builds
/// aren't shredded into allocation overhead.
size_t JoinPartitionCount(size_t workers) {
  size_t k = 16;
  while (k < workers * 4 && k < 64) k <<= 1;
  return k;
}

/// Below these sizes a scatter chunk / probe morsel isn't worth a task.
constexpr size_t kMinScatterRowsPerChunk = 8192;
constexpr size_t kMinProbeRowsPerMorsel = 4096;

// ---- grace (out-of-core) path ---------------------------------------------

/// Re-partition fan-out per recursion level: 4 radix bits.
constexpr size_t kSpillSubBits = 4;
constexpr size_t kSpillSubParts = size_t{1} << kSpillSubBits;

/// A partition that never shrinks (one hot key) bottoms out here and is
/// built in memory anyway — correctness over the budget.
constexpr size_t kMaxSpillRecursion = 4;

/// Top-level grace partition cap. Keeps the radix at <= 8 bits, which the
/// join_hash_mask test seam relies on (masking the low 8 bits funnels every
/// row into partition 0 to force recursion).
constexpr size_t kMaxGracePartitions = 256;

/// Spill runs are appended in ~256 KiB slabs, not per record.
constexpr size_t kSpillFlushBytes = 256 * 1024;

/// Top-level grace partition count: the parallel join's partition floor,
/// grown toward 2x the build/budget ratio so a typical partition fits the
/// budget with headroom.
size_t GracePartitionCount(size_t est_bytes, size_t budget, size_t workers) {
  size_t k = JoinPartitionCount(workers);
  const size_t want = 2 * (est_bytes / std::max<size_t>(budget, 1));
  while (k < want && k < kMaxGracePartitions) k <<= 1;
  return k;
}

/// Counters accumulated across the grace write path (concurrent probe
/// morsels append) and the serial read-back/recursion path.
struct SpillCounters {
  std::atomic<size_t> rows_written{0};
  std::atomic<size_t> bytes_written{0};
  std::atomic<size_t> pages_written{0};
  size_t bytes_read = 0;  // serial only
  size_t pages_read = 0;  // serial only
  size_t max_depth = 0;   // serial only
};

/// Accumulates (input index, key) slots from one key column into a
/// SpillPage, encoding into the bound buffer whenever the page's
/// approximate footprint reaches kSpillFlushBytes. The caller reads the
/// rows()/pages() tallies when a buffer goes to disk, then ResetCounters().
class SpillPageWriter {
 public:
  SpillPageWriter(const JoinKeyColumn* keys, std::string* buf)
      : keys_(keys), buf_(buf) {
    ResetPage();
  }

  void Add(uint32_t idx, size_t slot) {
    page_.idx.push_back(idx);
    approx_ += sizeof(uint32_t);
    switch (keys_->type) {
      case Type::kInt64:
        page_.ints.push_back(keys_->ints[slot]);
        approx_ += sizeof(int64_t);
        break;
      case Type::kDouble:
        page_.doubles.push_back(keys_->doubles[slot]);
        approx_ += sizeof(double);
        break;
      case Type::kString:
        page_.strs.push_back(keys_->strs[slot]);
        approx_ += sizeof(uint32_t) + page_.strs.back().size();
        break;
    }
    ++rows_;
    if (approx_ >= kSpillFlushBytes) Flush();
  }

  /// Encodes any buffered slots into the bound buffer as one page.
  void Flush() {
    if (page_.idx.empty()) return;
    EncodeSpillPage(page_, buf_);
    ++pages_;
    ResetPage();
  }

  size_t rows() const { return rows_; }
  size_t pages() const { return pages_; }
  void ResetCounters() {
    rows_ = 0;
    pages_ = 0;
  }

 private:
  void ResetPage() {
    page_ = SpillPage{};
    page_.type = keys_->type;
    approx_ = 0;
  }

  const JoinKeyColumn* keys_;
  std::string* buf_;
  SpillPage page_;
  size_t approx_ = 0;
  size_t rows_ = 0;
  size_t pages_ = 0;
};

/// A spilled partition rehydrated into batch form: a dense all-valid key
/// column (hashes recomputed through the Value::Hash-consistent typed
/// primitives) plus each slot's index in the original join input.
struct SpilledKeys {
  JoinKeyColumn keys;
  std::vector<uint32_t> idx;
};

/// Reads a whole run of key pages back. A never-opened run (no rows reached
/// it) reads as empty.
Result<SpilledKeys> ReadSpillPages(SpillRun* run, SpillCounters* sc) {
  SpilledKeys out;
  if (!run->is_open()) return out;
  HTAP_ASSIGN_OR_RETURN(const std::string data, run->ReadAll());
  sc->bytes_read += data.size();
  size_t pos = 0;
  while (pos < data.size()) {
    SpillPage page;
    if (!DecodeSpillPage(data, &pos, &page))
      return Status::Corruption("malformed spill page in " + run->path());
    ++sc->pages_read;
    out.keys.type = page.type;  // every page of a run has its column's type
    for (size_t r = 0; r < page.rows(); ++r) {
      out.idx.push_back(page.idx[r]);
      out.keys.valid.push_back(1);  // NULL keys never spill
      switch (page.type) {
        case Type::kInt64:
          out.keys.hashes.push_back(HashInt64(page.ints[r]));
          out.keys.ints.push_back(page.ints[r]);
          break;
        case Type::kDouble:
          out.keys.hashes.push_back(HashDouble(page.doubles[r]));
          out.keys.doubles.push_back(page.doubles[r]);
          break;
        case Type::kString:
          out.keys.hashes.push_back(HashString(page.strs[r]));
          out.keys.strs.push_back(std::move(page.strs[r]));
          break;
      }
    }
  }
  return out;
}

/// Correctness backstop: recomputes one radix partition's pairs straight
/// from the in-memory key columns (which outlive the whole join). Used when
/// the disk fails mid-partition; O(probe + build) per call but always right.
void JoinPartitionInMemoryKeys(const JoinKeyColumn& probe,
                               const JoinKeyColumn& build, uint64_t hash_mask,
                               uint64_t part_mask, size_t part,
                               JoinPairs* out) {
  JoinPartitionTable table;
  for (size_t j = 0; j < build.size(); ++j) {
    if (!build.valid[j]) continue;
    const uint64_t h = build.hashes[j] & hash_mask;
    if ((h & part_mask) != part) continue;
    table.Insert(h, static_cast<uint32_t>(j));
  }
  for (size_t i = 0; i < probe.size(); ++i) {
    if (!probe.valid[i]) continue;
    const uint64_t h = probe.hashes[i] & hash_mask;
    if ((h & part_mask) != part) continue;
    table.ForEachHashMatch(h, [&](uint32_t j) {
      if (!JoinKeyEquals(probe, i, build, j)) return;
      out->emplace_back(static_cast<uint32_t>(i), j);
    });
  }
}

/// Joins one spilled partition, partition-at-a-time. Partition weight is
/// measured through `build_weights` — the per-slot payload footprints of
/// the ORIGINAL build input (spilled records carry their input index, so a
/// partition weighs what its rows would occupy materialized, not the few
/// key bytes on disk). If that weight still exceeds the budget, both runs
/// re-partition on the next kSpillSubBits hash bits (`bit_shift` counts
/// bits already consumed) and recurse; at kMaxSpillRecursion the partition
/// is built regardless. Emits pairs in arbitrary order — the grace driver
/// sorts the full pair set at the end.
Status JoinSpilledPartition(SpillRun build_run, SpillRun probe_run,
                            const std::vector<size_t>& build_weights,
                            const ExecContext& exec, const std::string& dir,
                            size_t bit_shift, size_t depth, SpillCounters* sc,
                            JoinPairs* out) {
  const uint64_t hash_mask = exec.join_hash_mask;

  HTAP_ASSIGN_OR_RETURN(SpilledKeys build, ReadSpillPages(&build_run, sc));
  build_run.Discard();
  size_t build_bytes = 0;
  for (uint32_t idx : build.idx) build_bytes += build_weights[idx];

  if (build_bytes > exec.join_spill_budget_bytes &&
      depth < kMaxSpillRecursion) {
    std::array<SpillRun, kSpillSubParts> bsub;
    std::array<SpillRun, kSpillSubParts> psub;
    std::array<uint8_t, kSpillSubParts> has_build{};
    {
      std::array<std::string, kSpillSubParts> bufs;
      std::vector<SpillPageWriter> writers;
      writers.reserve(kSpillSubParts);
      for (size_t s = 0; s < kSpillSubParts; ++s)
        writers.emplace_back(&build.keys, &bufs[s]);
      for (size_t slot = 0; slot < build.keys.size(); ++slot) {
        const uint64_t h = build.keys.hashes[slot] & hash_mask;
        const size_t s = (h >> bit_shift) & (kSpillSubParts - 1);
        writers[s].Add(build.idx[slot], slot);
        has_build[s] = 1;
      }
      for (size_t s = 0; s < kSpillSubParts; ++s) {
        if (!has_build[s]) continue;
        writers[s].Flush();
        HTAP_RETURN_NOT_OK(
            bsub[s].Open(dir, "b" + std::to_string(depth + 1)));
        HTAP_RETURN_NOT_OK(bsub[s].Append(bufs[s]));
        sc->rows_written.fetch_add(writers[s].rows(),
                                   std::memory_order_relaxed);
        sc->pages_written.fetch_add(writers[s].pages(),
                                    std::memory_order_relaxed);
        sc->bytes_written.fetch_add(bufs[s].size(),
                                    std::memory_order_relaxed);
      }
      build = SpilledKeys{};
    }
    {
      HTAP_ASSIGN_OR_RETURN(SpilledKeys probe, ReadSpillPages(&probe_run, sc));
      probe_run.Discard();
      std::array<std::string, kSpillSubParts> bufs;
      std::vector<SpillPageWriter> writers;
      writers.reserve(kSpillSubParts);
      for (size_t s = 0; s < kSpillSubParts; ++s)
        writers.emplace_back(&probe.keys, &bufs[s]);
      for (size_t slot = 0; slot < probe.keys.size(); ++slot) {
        const uint64_t h = probe.keys.hashes[slot] & hash_mask;
        const size_t s = (h >> bit_shift) & (kSpillSubParts - 1);
        if (!has_build[s]) continue;  // no build rows -> cannot match
        writers[s].Add(probe.idx[slot], slot);
      }
      for (size_t s = 0; s < kSpillSubParts; ++s) {
        if (!has_build[s]) continue;
        writers[s].Flush();
        if (bufs[s].empty()) continue;
        HTAP_RETURN_NOT_OK(
            psub[s].Open(dir, "p" + std::to_string(depth + 1)));
        HTAP_RETURN_NOT_OK(psub[s].Append(bufs[s]));
        sc->rows_written.fetch_add(writers[s].rows(),
                                   std::memory_order_relaxed);
        sc->pages_written.fetch_add(writers[s].pages(),
                                    std::memory_order_relaxed);
        sc->bytes_written.fetch_add(bufs[s].size(),
                                    std::memory_order_relaxed);
      }
    }
    for (size_t s = 0; s < kSpillSubParts; ++s) {
      if (!has_build[s]) continue;
      HTAP_RETURN_NOT_OK(JoinSpilledPartition(
          std::move(bsub[s]), std::move(psub[s]), build_weights, exec, dir,
          bit_shift + kSpillSubBits, depth + 1, sc, out));
    }
    return Status::OK();
  }

  sc->max_depth = std::max(sc->max_depth, depth);
  JoinPartitionTable table;
  table.Reserve(build.keys.size());
  for (size_t j = 0; j < build.keys.size(); ++j)
    table.Insert(build.keys.hashes[j] & hash_mask, static_cast<uint32_t>(j));
  HTAP_ASSIGN_OR_RETURN(const SpilledKeys probe,
                        ReadSpillPages(&probe_run, sc));
  probe_run.Discard();
  for (size_t i = 0; i < probe.keys.size(); ++i) {
    const uint64_t h = probe.keys.hashes[i] & hash_mask;
    table.ForEachHashMatch(h, [&](uint32_t j) {
      if (!JoinKeyEquals(probe.keys, i, build.keys, j)) return;
      out->emplace_back(probe.idx[i], build.idx[j]);
    });
  }
  return Status::OK();
}

/// The grace driver (DESIGN.md §§9, 13): radix-scatter the build side, keep
/// a budget's worth of partitions resident, spill the rest (both sides, as
/// columnar key pages — payloads stay in memory and materialize after the
/// join), then join spilled partitions one at a time. Output order is
/// restored by a final sort of the pair set — valid because (probe, build)
/// pairs are unique and nested-loop order is exactly ascending (probe,
/// build). Runs even without a pool: TaskGroup degrades to inline calls.
JoinPairs GraceJoinPairsKeys(const JoinKeyColumn& probe,
                             const JoinKeyColumn& build,
                             const std::vector<size_t>& weights,
                             const ExecContext& exec, size_t est_build_bytes,
                             JoinStats* js) {
  const size_t budget = exec.join_spill_budget_bytes;
  const std::string& dir = exec.join_spill_dir;  // "" -> DefaultSpillDir()
  const size_t workers = exec.parallel() ? exec.max_parallelism : 1;
  const size_t nparts = GracePartitionCount(est_build_bytes, budget, workers);
  const uint64_t part_mask = nparts - 1;
  const uint64_t hash_mask = exec.join_hash_mask;
  size_t base_bits = 0;
  while ((size_t{1} << base_bits) < nparts) ++base_bits;
  SpillCounters sc;

  // 1. Scatter, as in the radix join, but also tallying per-partition
  // build footprint (payload weights, not key bytes) so the classifier
  // below can pick residents.
  const size_t nchunks =
      std::clamp<size_t>(build.size() / kMinScatterRowsPerChunk, 1, workers);
  const size_t chunk_rows = (build.size() + nchunks - 1) / nchunks;
  std::vector<std::vector<std::vector<std::pair<uint64_t, uint32_t>>>> scatter(
      nchunks);
  std::vector<std::vector<size_t>> chunk_bytes(nchunks);
  {
    TaskGroup tg(exec.pool);
    for (size_t c = 0; c < nchunks; ++c) {
      tg.Run([&, c] {
        auto& buckets = scatter[c];
        auto& bytes = chunk_bytes[c];
        buckets.resize(nparts);
        bytes.assign(nparts, 0);
        const size_t hi = std::min(build.size(), (c + 1) * chunk_rows);
        for (size_t i = c * chunk_rows; i < hi; ++i) {
          if (!build.valid[i]) continue;
          const uint64_t h = build.hashes[i] & hash_mask;
          const size_t p = h & part_mask;
          buckets[p].emplace_back(h, static_cast<uint32_t>(i));
          bytes[p] += weights[i];
        }
      });
    }
  }
  std::vector<size_t> part_bytes(nparts, 0);
  for (const auto& bytes : chunk_bytes)
    for (size_t p = 0; p < nparts; ++p) part_bytes[p] += bytes[p];

  // 2. Classify: walk partitions in index order, keeping them resident
  // while the running total fits the budget. Deterministic, and at least
  // one partition spills whenever the build side exceeds the budget.
  std::vector<uint8_t> resident(nparts, 0);
  size_t resident_bytes = 0;
  for (size_t p = 0; p < nparts; ++p) {
    if (resident_bytes + part_bytes[p] <= budget) {
      resident[p] = 1;
      resident_bytes += part_bytes[p];
    }
  }

  // 3. Write spilled partitions' build runs — one task per partition, in
  // chunk order so each run holds its rows in build-input order. Only the
  // (index, key) column pages go to disk. A write failure (unwritable dir,
  // disk full) reclassifies the partition as resident: the scatter buffers
  // are only released on success, so correctness never depends on the disk.
  std::vector<SpillRun> build_runs(nparts);
  std::vector<SpillRun> probe_runs(nparts);
  std::vector<uint8_t> spill_ok(nparts, 0);
  {
    TaskGroup tg(exec.pool);
    for (size_t p = 0; p < nparts; ++p) {
      if (resident[p]) continue;
      tg.Run([&, p] {
        Status st = build_runs[p].Open(dir, "b" + std::to_string(p));
        std::string buf;
        SpillPageWriter writer(&build, &buf);
        size_t wbytes = 0;
        for (const auto& buckets : scatter) {
          if (!st.ok()) break;
          for (const auto& [h, idx] : buckets[p]) {
            (void)h;
            writer.Add(idx, idx);
            if (buf.size() >= kSpillFlushBytes) {
              wbytes += buf.size();
              st = build_runs[p].Append(buf);
              buf.clear();
              if (!st.ok()) break;
            }
          }
        }
        if (st.ok()) {
          writer.Flush();
          wbytes += buf.size();
          st = build_runs[p].Append(buf);
        }
        if (st.ok()) {
          spill_ok[p] = 1;
          sc.rows_written.fetch_add(writer.rows(), std::memory_order_relaxed);
          sc.pages_written.fetch_add(writer.pages(),
                                     std::memory_order_relaxed);
          sc.bytes_written.fetch_add(wbytes, std::memory_order_relaxed);
        } else {
          build_runs[p].Discard();
        }
      });
    }
  }
  for (size_t p = 0; p < nparts; ++p) {
    if (resident[p]) continue;
    if (spill_ok[p]) {
      for (auto& buckets : scatter)
        std::vector<std::pair<uint64_t, uint32_t>>().swap(buckets[p]);
    } else {
      resident[p] = 1;
    }
  }

  // 4. Build the resident partitions' tables (chunk order, as ever).
  std::vector<JoinPartitionTable> parts(nparts);
  {
    TaskGroup tg(exec.pool);
    for (size_t p = 0; p < nparts; ++p) {
      if (!resident[p]) continue;
      tg.Run([&, p] {
        size_t total = 0;
        for (const auto& buckets : scatter) total += buckets[p].size();
        parts[p].Reserve(total);
        for (const auto& buckets : scatter)
          for (const auto& [h, idx] : buckets[p]) parts[p].Insert(h, idx);
      });
    }
  }

  // 5. Probe, streaming: rows hitting a resident partition emit pairs into
  // per-morsel buffers; rows hitting a spilled partition accumulate into
  // per-morsel key pages, flushed to the partition's probe run under a
  // per-partition mutex. Run write order is irrelevant — page slots carry
  // their probe index and the final sort restores order.
  const size_t nprobe =
      probe.size() == 0
          ? 0
          : std::clamp<size_t>(probe.size() / kMinProbeRowsPerMorsel, 1,
                               workers * 4);
  std::vector<JoinPairs> partial(nprobe);
  std::vector<uint8_t> probe_spill_ok(nparts, 1);
  // Leaf locks: workers hold nothing else while flushing a spill buffer.
  const std::unique_ptr<Mutex[]> part_mu(new Mutex[nparts]);
  if (nprobe > 0) {
    const size_t probe_rows = (probe.size() + nprobe - 1) / nprobe;
    std::atomic<size_t> next{0};
    TaskGroup tg(exec.pool);
    for (size_t w = 0; w < std::min(workers, nprobe); ++w) {
      tg.Run([&] {
        std::vector<std::string> bufs(nparts);
        std::vector<SpillPageWriter> writers;
        writers.reserve(nparts);
        for (size_t p = 0; p < nparts; ++p)
          writers.emplace_back(&probe, &bufs[p]);
        for (size_t m = next.fetch_add(1, std::memory_order_relaxed);
             m < nprobe; m = next.fetch_add(1, std::memory_order_relaxed)) {
          const size_t lo = m * probe_rows;
          const size_t hi = std::min(probe.size(), lo + probe_rows);
          JoinPairs& pout = partial[m];
          for (size_t i = lo; i < hi; ++i) {
            if (!probe.valid[i]) continue;
            const uint64_t h = probe.hashes[i] & hash_mask;
            const size_t p = h & part_mask;
            if (resident[p]) {
              parts[p].ForEachHashMatch(h, [&](uint32_t r) {
                if (!JoinKeyEquals(probe, i, build, r)) return;
                pout.emplace_back(static_cast<uint32_t>(i), r);
              });
            } else {
              writers[p].Add(static_cast<uint32_t>(i), i);
            }
          }
          for (size_t p = 0; p < nparts; ++p) {
            writers[p].Flush();
            if (bufs[p].empty()) continue;
            MutexLock lock(&part_mu[p]);
            Status st;
            if (!probe_runs[p].is_open())
              st = probe_runs[p].Open(dir, "p" + std::to_string(p));
            if (st.ok()) st = probe_runs[p].Append(bufs[p]);
            if (st.ok()) {
              sc.rows_written.fetch_add(writers[p].rows(),
                                        std::memory_order_relaxed);
              sc.pages_written.fetch_add(writers[p].pages(),
                                         std::memory_order_relaxed);
              sc.bytes_written.fetch_add(bufs[p].size(),
                                         std::memory_order_relaxed);
            } else {
              probe_spill_ok[p] = 0;  // guarded by part_mu[p]
            }
            bufs[p].clear();
            writers[p].ResetCounters();
          }
        }
      });
    }
  }
  JoinPairs pairs;
  size_t total = 0;
  for (const auto& m : partial) total += m.size();
  pairs.reserve(total);
  for (const auto& m : partial) pairs.insert(pairs.end(), m.begin(), m.end());

  // 6. Join the spilled partitions one at a time (index order). Any I/O
  // failure — including a probe flush that failed above — falls back to
  // recomputing that partition from the in-memory inputs.
  size_t spilled = 0;
  for (size_t p = 0; p < nparts; ++p) {
    if (resident[p]) continue;
    ++spilled;
    JoinPairs part_pairs;
    Status st;
    if (probe_spill_ok[p]) {
      st = JoinSpilledPartition(std::move(build_runs[p]),
                                std::move(probe_runs[p]), weights, exec, dir,
                                base_bits, 0, &sc, &part_pairs);
    } else {
      st = Status::IOError("probe-side spill failed");
      build_runs[p].Discard();
      probe_runs[p].Discard();
    }
    if (st.ok()) {
      pairs.insert(pairs.end(), part_pairs.begin(), part_pairs.end());
    } else {
      std::fprintf(stderr,
                   "htapdb: grace join partition %zu recomputed in memory "
                   "(%s)\n",
                   p, st.ToString().c_str());
      JoinPartitionInMemoryKeys(probe, build, hash_mask, part_mask, p,
                                &pairs);
    }
  }

  // 7. Restore nested-loop order: pairs are unique, so the (probe, build)
  // lexicographic sort is a total order identical to the serial join's.
  std::sort(pairs.begin(), pairs.end());

  js->partitions = nparts;
  js->parallel = exec.parallel();
  js->partitions_spilled = spilled;
  js->spill_rows_written = sc.rows_written.load(std::memory_order_relaxed);
  js->spill_bytes_written = sc.bytes_written.load(std::memory_order_relaxed);
  js->spill_bytes_read = sc.bytes_read;
  js->spill_pages_written = sc.pages_written.load(std::memory_order_relaxed);
  js->spill_pages_read = sc.pages_read;
  js->spill_max_recursion = sc.max_depth;
  return pairs;
}

}  // namespace

std::vector<size_t> EstimateBatchRowBytes(
    const std::vector<ColumnBatch>& batches) {
  std::vector<size_t> out;
  out.reserve(TotalActiveRows(batches));
  for (const ColumnBatch& b : batches) {
    b.ForEachActive([&](size_t i) {
      // Mirrors Row::MemoryBytes for the materialized image of this row:
      // the Row shell, one Value per column, and each string cell's
      // out-of-line std::string (pinned by RowsToBatchesTest).
      size_t bytes = sizeof(Row) + b.columns.size() * sizeof(Value);
      for (const ColumnVector& cv : b.columns)
        if (cv.type() == Type::kString && !cv.IsNull(i))
          bytes += Value::StringHeapBytes(cv.GetString(i));
      out.push_back(bytes);
    });
  }
  return out;
}

Value JoinKeyColumn::GetValue(size_t i) const {
  if (!valid[i]) return Value::Null();
  switch (type) {
    case Type::kInt64: return Value(ints[i]);
    case Type::kDouble: return Value(doubles[i]);
    case Type::kString: return Value(strs[i]);
  }
  return Value::Null();
}

bool JoinKeyEquals(const JoinKeyColumn& a, size_t i, const JoinKeyColumn& b,
                   size_t j) {
  if (a.type == b.type) {
    switch (a.type) {
      case Type::kInt64: return a.ints[i] == b.ints[j];
      case Type::kDouble: return a.doubles[i] == b.doubles[j];
      case Type::kString: return a.strs[i] == b.strs[j];
    }
    return false;
  }
  // Cross-type: numeric pairs compare as doubles; numeric never equals a
  // string (Value::Compare semantics).
  if (a.type == Type::kString || b.type == Type::kString) return false;
  const double av =
      a.type == Type::kInt64 ? static_cast<double>(a.ints[i]) : a.doubles[i];
  const double bv =
      b.type == Type::kInt64 ? static_cast<double>(b.ints[j]) : b.doubles[j];
  return av == bv;
}

JoinKeyColumn ExtractJoinKeys(const std::vector<ColumnBatch>& batches,
                              int col) {
  JoinKeyColumn k;
  const auto c = static_cast<size_t>(col);
  const size_t n = TotalActiveRows(batches);
  k.valid.assign(n, 0);
  k.hashes.assign(n, 0);
  for (const ColumnBatch& b : batches) {
    if (b.rows() > 0) {
      k.type = b.columns[c].type();
      break;
    }
  }
  switch (k.type) {
    case Type::kInt64: k.ints.assign(n, 0); break;
    case Type::kDouble: k.doubles.assign(n, 0); break;
    case Type::kString: k.strs.resize(n); break;
  }
  size_t o = 0;
  for (const ColumnBatch& b : batches) {
    const ColumnVector& cv = b.columns[c];
    b.ForEachActive([&](size_t i) {
      if (!cv.IsNull(i)) {
        switch (k.type) {
          case Type::kInt64: {
            const int64_t x = cv.GetInt64(i);
            k.ints[o] = x;
            k.hashes[o] = HashInt64(x);
            break;
          }
          case Type::kDouble: {
            const double x = cv.GetDouble(i);
            k.doubles[o] = x;
            k.hashes[o] = HashDouble(x);
            break;
          }
          case Type::kString:
            k.strs[o] = cv.GetString(i);
            k.hashes[o] = HashString(k.strs[o]);
            break;
        }
        k.valid[o] = 1;
      }
      ++o;
    });
  }
  return k;
}

JoinPairs HashJoinPairsKeys(const JoinKeyColumn& probe,
                            const JoinKeyColumn& build,
                            const ExecContext& exec, JoinStats* stats,
                            const std::vector<size_t>* build_weights) {
  const Stopwatch sw;
  JoinStats local;
  JoinStats* js = stats != nullptr ? stats : &local;
  js->build_rows = build.size();
  js->probe_rows = probe.size();
  const uint64_t hash_mask = exec.join_hash_mask;
  JoinPairs pairs;

  const size_t budget = exec.join_spill_budget_bytes;
  if (budget > 0) {
    assert(build_weights != nullptr && build_weights->size() == build.size());
    size_t est = 0;
    for (size_t w : *build_weights) est += w;
    if (est > budget) {
      // Grace regime: the build side does not fit the configured budget.
      // Checked before the serial fallback — spilling must trigger at any
      // thread count.
      pairs = GraceJoinPairsKeys(probe, build, *build_weights, exec, est, js);
      js->output_rows = pairs.size();
      js->seconds = sw.ElapsedSeconds();
      return pairs;
    }
  }

  if (!exec.parallel() || build.size() < exec.min_parallel_join_build) {
    // Serial regime: one partition, built and probed inline.
    std::vector<JoinPartitionTable> parts(1);
    parts[0].Reserve(build.size());
    for (size_t i = 0; i < build.size(); ++i) {
      if (!build.valid[i]) continue;
      parts[0].Insert(build.hashes[i] & hash_mask, static_cast<uint32_t>(i));
    }
    ProbePairsRangeKeys(probe, 0, probe.size(), build, parts,
                        /*part_mask=*/0, hash_mask, &pairs);
    js->partitions = 1;
    js->parallel = false;
  } else {
    // Radix-partitioned parallel regime (DESIGN.md §8).
    const size_t workers = exec.max_parallelism;
    const size_t nparts = JoinPartitionCount(workers);
    const uint64_t part_mask = nparts - 1;

    // 1. Partition pass: contiguous key chunks scatter (hash, slot) pairs
    // into per-chunk partition buffers. Workers never share a buffer.
    const size_t nchunks = std::clamp<size_t>(
        build.size() / kMinScatterRowsPerChunk, 1, workers);
    const size_t chunk_rows = (build.size() + nchunks - 1) / nchunks;
    std::vector<std::vector<std::vector<std::pair<uint64_t, uint32_t>>>>
        scatter(nchunks);
    {
      TaskGroup tg(exec.pool);
      for (size_t c = 0; c < nchunks; ++c) {
        tg.Run([&, c] {
          auto& buckets = scatter[c];
          buckets.resize(nparts);
          const size_t hi = std::min(build.size(), (c + 1) * chunk_rows);
          for (size_t i = c * chunk_rows; i < hi; ++i) {
            if (!build.valid[i]) continue;
            const uint64_t h = build.hashes[i] & hash_mask;
            buckets[h & part_mask].emplace_back(h, static_cast<uint32_t>(i));
          }
        });
      }
    }

    // 2. Build pass: each partition's table is an independent morsel.
    // Chunk buffers merge in chunk order, so per-hash chains hold build
    // rows in input order exactly as the serial build does.
    std::vector<JoinPartitionTable> parts(nparts);
    {
      TaskGroup tg(exec.pool);
      for (size_t p = 0; p < nparts; ++p) {
        tg.Run([&, p] {
          size_t total = 0;
          for (const auto& buckets : scatter) total += buckets[p].size();
          parts[p].Reserve(total);
          for (const auto& buckets : scatter)
            for (const auto& [h, idx] : buckets[p]) parts[p].Insert(h, idx);
        });
      }
    }

    // 3. Probe pass: probe chunks are morsels claimed through a shared
    // cursor; per-morsel pair outputs concatenate in morsel order,
    // preserving probe input order — byte-identical to the serial join.
    const size_t nprobe =
        probe.size() == 0
            ? 0
            : std::clamp<size_t>(probe.size() / kMinProbeRowsPerMorsel, 1,
                                 workers * 4);
    std::vector<JoinPairs> partial(nprobe);
    if (nprobe > 0) {
      const size_t probe_rows = (probe.size() + nprobe - 1) / nprobe;
      std::atomic<size_t> next{0};
      TaskGroup tg(exec.pool);
      for (size_t w = 0; w < std::min(workers, nprobe); ++w) {
        tg.Run([&] {
          for (size_t m = next.fetch_add(1, std::memory_order_relaxed);
               m < nprobe; m = next.fetch_add(1, std::memory_order_relaxed)) {
            const size_t lo = m * probe_rows;
            const size_t hi = std::min(probe.size(), lo + probe_rows);
            ProbePairsRangeKeys(probe, lo, hi, build, parts, part_mask,
                                hash_mask, &partial[m]);
          }
        });
      }
    }
    size_t total = 0;
    for (const auto& m : partial) total += m.size();
    pairs.reserve(total);
    for (const auto& m : partial)
      pairs.insert(pairs.end(), m.begin(), m.end());

    js->partitions = nparts;
    js->parallel = true;
  }

  js->output_rows = pairs.size();
  js->seconds = sw.ElapsedSeconds();
  return pairs;
}

namespace {

struct AggState {
  int64_t count = 0;
  double sum = 0;
  Value min, max;
  bool any = false;

  void Update(const Value& v) {
    ++count;
    if (v.is_null()) return;
    if (v.is_int64() || v.is_double()) sum += v.AsDouble();
    if (!any || v < min) min = v;
    if (!any || max < v) max = v;
    any = true;
  }

  void Merge(const AggState& o) {
    count += o.count;
    sum += o.sum;
    if (o.any) {
      if (!any || o.min < min) min = o.min;
      if (!any || max < o.max) max = o.max;
      any = true;
    }
  }
};

/// Hash of one batch cell, equal to cv.GetValue(i).Hash() without boxing —
/// Value::Hash delegates to the same typed primitives.
uint64_t HashCell(const ColumnVector& cv, size_t i) {
  if (cv.IsNull(i)) return HashNullValue();
  switch (cv.type()) {
    case Type::kInt64: return HashInt64(cv.GetInt64(i));
    case Type::kDouble: return HashDouble(cv.GetDouble(i));
    case Type::kString: return HashString(cv.GetString(i));
  }
  return HashNullValue();
}

/// Equal to (cv.GetValue(i) == key) — Value::Compare equality, where NULL
/// equals NULL (group keys bucket NULLs together) — without boxing the cell.
bool CellEqualsValue(const ColumnVector& cv, size_t i, const Value& key) {
  if (cv.IsNull(i)) return key.is_null();
  if (key.is_null()) return false;
  switch (cv.type()) {
    case Type::kInt64:
      if (key.is_string()) return false;
      if (key.is_int64()) return cv.GetInt64(i) == key.AsInt64();
      return static_cast<double>(cv.GetInt64(i)) == key.AsDouble();
    case Type::kDouble:
      if (key.is_string()) return false;
      return cv.GetDouble(i) == key.AsDouble();
    case Type::kString:
      return key.is_string() && cv.GetString(i) == key.AsString();
  }
  return false;
}

/// A (possibly partial) group-by hash table. Serial aggregation absorbs
/// every row into one table; parallel aggregation gives each worker its own
/// table over a disjoint row range and merges them single-threaded.
class GroupTable {
 public:
  GroupTable(const std::vector<int>& group_cols,
             const std::vector<AggSpec>& aggs)
      : group_cols_(group_cols), aggs_(aggs) {}

  /// Absorbs every active position of a batch. Group keys hash and compare
  /// through the typed cell helpers (no Value boxing on the hot path); a
  /// key row is boxed only when a new group materializes.
  void AbsorbBatch(const ColumnBatch& batch) {
    batch.ForEachActive([&](size_t i) {
      uint64_t h = 1469598103934665603ULL;
      for (int c : group_cols_)
        h = h * 1099511628211ULL ^
            HashCell(batch.columns[static_cast<size_t>(c)], i);
      GroupData* gd = FindOrCreate(h, [&](const Row& key_row) {
        for (size_t k = 0; k < group_cols_.size(); ++k)
          if (!CellEqualsValue(
                  batch.columns[static_cast<size_t>(group_cols_[k])], i,
                  key_row.Get(k)))
            return false;
        return true;
      }, [&] {
        Row key_row;
        for (int c : group_cols_)
          key_row.Append(batch.columns[static_cast<size_t>(c)].GetValue(i));
        return key_row;
      });
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (aggs_[a].column < 0)
          gd->states[a].Update(Value(static_cast<int64_t>(1)));
        else
          gd->states[a].Update(
              batch.columns[static_cast<size_t>(aggs_[a].column)].GetValue(i));
      }
    });
  }

  /// Merges another partial table into this one. Key rows hash identically
  /// in both tables (same FNV over the same group values), so the source
  /// bucket hash is reused directly.
  void MergeFrom(GroupTable&& other) {
    for (auto& [h, bucket] : other.groups_) {
      for (auto& theirs : bucket) {
        GroupData* mine = FindOrCreate(h, [&](const Row& key_row) {
          for (size_t i = 0; i < group_cols_.size(); ++i)
            if (theirs.key_row.Get(i) != key_row.Get(i)) return false;
          return true;
        }, [&] { return std::move(theirs.key_row); });
        for (size_t a = 0; a < aggs_.size(); ++a)
          mine->states[a].Merge(theirs.states[a]);
      }
    }
  }

  std::vector<Row> Finalize() {
    std::vector<Row> out;
    if (groups_.empty() && group_cols_.empty()) {
      // Global aggregate over zero rows: COUNT=0, others NULL.
      Row r;
      for (const auto& agg : aggs_)
        r.Append(agg.fn == AggSpec::Fn::kCount
                     ? Value(static_cast<int64_t>(0))
                     : Value::Null());
      out.push_back(std::move(r));
      return out;
    }
    for (auto& [h, bucket] : groups_) {
      for (auto& gd : bucket) {
        Row r = gd.key_row;
        for (size_t a = 0; a < aggs_.size(); ++a) {
          const AggState& s = gd.states[a];
          switch (aggs_[a].fn) {
            case AggSpec::Fn::kCount: r.Append(Value(s.count)); break;
            case AggSpec::Fn::kSum:
              r.Append(s.any ? Value(s.sum) : Value::Null());
              break;
            case AggSpec::Fn::kMin:
              r.Append(s.any ? s.min : Value::Null());
              break;
            case AggSpec::Fn::kMax:
              r.Append(s.any ? s.max : Value::Null());
              break;
            case AggSpec::Fn::kAvg:
              r.Append(s.any ? Value(s.sum / static_cast<double>(s.count))
                             : Value::Null());
              break;
          }
        }
        out.push_back(std::move(r));
      }
    }
    return out;
  }

 private:
  struct GroupData {
    Row key_row;
    std::vector<AggState> states;
  };

  template <typename MatchFn, typename MakeKeyFn>
  GroupData* FindOrCreate(uint64_t h, const MatchFn& matches,
                          const MakeKeyFn& make_key) {
    auto& bucket = groups_[h];
    for (auto& cand : bucket)
      if (matches(cand.key_row)) return &cand;
    GroupData fresh;
    fresh.key_row = make_key();
    fresh.states.resize(aggs_.size());
    bucket.push_back(std::move(fresh));
    return &bucket.back();
  }

  const std::vector<int>& group_cols_;
  const std::vector<AggSpec>& aggs_;
  std::unordered_map<uint64_t, std::vector<GroupData>> groups_;
};

/// Below this input size the fan-out overhead beats the win.
constexpr size_t kMinRowsPerAggWorker = 2048;

}  // namespace

std::vector<Row> HashAggregate(const std::vector<ColumnBatch>& batches,
                               const std::vector<int>& group_cols,
                               const std::vector<AggSpec>& aggs,
                               const ExecContext& exec) {
  const size_t total = TotalActiveRows(batches);
  const size_t workers =
      exec.parallel()
          ? std::min({exec.max_parallelism,
                      std::max<size_t>(total / kMinRowsPerAggWorker, 1),
                      std::max<size_t>(batches.size(), 1)})
          : 1;
  if (workers <= 1) {
    GroupTable table(group_cols, aggs);
    for (const ColumnBatch& b : batches) table.AbsorbBatch(b);
    return table.Finalize();
  }
  // Parallel: each worker absorbs a contiguous range of whole batches into
  // its own partial table; tables combine single-threaded in worker order,
  // so the output is deterministic for a given batch sequence.
  std::vector<GroupTable> tables;
  tables.reserve(workers);
  for (size_t w = 0; w < workers; ++w) tables.emplace_back(group_cols, aggs);
  const size_t chunk = (batches.size() + workers - 1) / workers;
  {
    TaskGroup tg(exec.pool);
    for (size_t w = 0; w < workers; ++w) {
      tg.Run([&, w] {
        const size_t lo = w * chunk;
        const size_t hi = std::min(batches.size(), lo + chunk);
        for (size_t b = lo; b < hi; ++b) tables[w].AbsorbBatch(batches[b]);
      });
    }
  }
  for (size_t w = 1; w < workers; ++w)
    tables[0].MergeFrom(std::move(tables[w]));
  return tables[0].Finalize();
}

void SortLimit(std::vector<Row>* rows, int col, bool desc, size_t limit) {
  auto cmp = [col, desc](const Row& a, const Row& b) {
    const int c = a.Get(static_cast<size_t>(col))
                      .Compare(b.Get(static_cast<size_t>(col)));
    return desc ? c > 0 : c < 0;
  };
  if (limit != 0 && limit < rows->size()) {
    std::partial_sort(rows->begin(),
                      rows->begin() + static_cast<long>(limit), rows->end(),
                      cmp);
    rows->resize(limit);
  } else {
    std::stable_sort(rows->begin(), rows->end(), cmp);
  }
}

}  // namespace htap

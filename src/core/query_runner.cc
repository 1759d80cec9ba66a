#include "core/query_runner.h"

#include <algorithm>
#include <utility>

#include "opt/join_planner.h"

namespace htap {

namespace {

/// One join clause resolved against the catalog.
struct BoundJoin {
  const TableInfo* table = nullptr;
  const Predicate* where = nullptr;
  int left_col = -1;   // plan-order combined layout
  int right_col = -1;  // the joined table's own layout
};

/// plan.joins resolved against the catalog, in plan order.
Result<std::vector<BoundJoin>> BindJoins(const QueryPlan& plan,
                                         const Catalog& catalog) {
  std::vector<BoundJoin> out;
  for (const JoinClause& jc : plan.joins) {
    const TableInfo* t = catalog.Find(jc.table);
    if (t == nullptr) return Status::NotFound("no table: " + jc.table);
    out.push_back({t, &jc.where, jc.left_col, jc.right_col});
  }
  return out;
}

/// Combined (post-join) schema: base columns, then each join's columns in
/// plan order.
Schema CombinedSchema(const TableInfo& base,
                      const std::vector<BoundJoin>& joins) {
  std::vector<ColumnDef> cols = base.schema.columns();
  for (const BoundJoin& j : joins)
    for (const auto& c : j.table->schema.columns()) cols.push_back(c);
  return Schema(std::move(cols), base.schema.pk_index());
}

Type AggOutputType(const AggSpec& agg, const Schema& input) {
  switch (agg.fn) {
    case AggSpec::Fn::kCount:
      return Type::kInt64;
    case AggSpec::Fn::kSum:
    case AggSpec::Fn::kAvg:
      return Type::kDouble;
    case AggSpec::Fn::kMin:
    case AggSpec::Fn::kMax:
      return agg.column >= 0
                 ? input.column(static_cast<size_t>(agg.column)).type
                 : Type::kInt64;
  }
  return Type::kDouble;
}

Schema OutputSchema(const QueryPlan& plan, const Schema& combined) {
  if (!plan.aggs.empty()) {
    std::vector<ColumnDef> cols;
    for (int g : plan.group_by)
      cols.push_back(combined.column(static_cast<size_t>(g)));
    for (const auto& agg : plan.aggs)
      cols.emplace_back(agg.name, AggOutputType(agg, combined));
    return Schema(std::move(cols), 0);
  }
  if (!plan.projection.empty()) return combined.Project(plan.projection);
  return combined;
}

/// Aggregates one executed join step into the plan-level JoinStats.
void FoldJoinStats(const JoinStats& step, JoinStats* total) {
  total->build_rows += step.build_rows;
  total->probe_rows += step.probe_rows;
  total->output_rows = step.output_rows;  // the last step's output
  total->partitions = std::max(total->partitions, step.partitions);
  total->parallel = total->parallel || step.parallel;
  total->build_swapped = total->build_swapped || step.build_swapped;
  total->partitions_spilled += step.partitions_spilled;
  total->spill_rows_written += step.spill_rows_written;
  total->spill_bytes_written += step.spill_bytes_written;
  total->spill_bytes_read += step.spill_bytes_read;
  total->spill_pages_written += step.spill_pages_written;
  total->spill_pages_read += step.spill_pages_read;
  total->join_batches += step.join_batches;
  total->rows_late_materialized += step.rows_late_materialized;
  total->spill_max_recursion =
      std::max(total->spill_max_recursion, step.spill_max_recursion);
  total->seconds += step.seconds;
}

/// Plan-order combined layout plus join-ordering dependencies, from the
/// schemas alone — no data access. A clause whose left_col lands inside an
/// earlier clause's column span must run after that clause.
struct JoinLayout {
  std::vector<size_t> width;              // schema width per clause
  std::vector<size_t> offset;             // combined-layout offset per clause
  std::vector<std::vector<size_t>> deps;  // clauses that must run earlier
  size_t total_cols = 0;
};

Status ComputeJoinLayout(const std::vector<BoundJoin>& joins,
                         size_t base_width, JoinLayout* lo) {
  const size_t njoins = joins.size();
  lo->width.resize(njoins);
  lo->offset.resize(njoins);
  lo->deps.assign(njoins, {});
  lo->total_cols = base_width;
  for (size_t j = 0; j < njoins; ++j) {
    lo->width[j] = joins[j].table->schema.columns().size();
    lo->offset[j] = lo->total_cols;
    lo->total_cols += lo->width[j];
  }
  for (size_t j = 0; j < njoins; ++j) {
    const int lc = joins[j].left_col;
    const int rc = joins[j].right_col;
    if (lc < 0 || static_cast<size_t>(lc) >= lo->offset[j] || rc < 0 ||
        static_cast<size_t>(rc) >= lo->width[j])
      return Status::InvalidArgument("join " + std::to_string(j) +
                                     ": key columns out of range");
    for (size_t k = 0; k < j; ++k)
      if (static_cast<size_t>(lc) >= lo->offset[k] &&
          static_cast<size_t>(lc) < lo->offset[k] + lo->width[k])
        lo->deps[j].push_back(k);
  }
  return Status::OK();
}

/// Rounds a fractional cardinality estimate to a row count.
size_t RoundRows(double est) {
  return est <= 0 ? 0 : static_cast<size_t>(est + 0.5);
}

/// Plan-time cardinality estimates from published catalog statistics
/// (DESIGN.md §10). Succeeds only when the base table and every join table
/// have published stats no staler than kStatsStalenessCsns commits
/// behind exec.committed_csn (0 = unknown frontier, trusted as fresh). On
/// success fills the filtered base-table estimate, one JoinRelEstimate per
/// clause, and the worst stats age observed.
bool CatalogJoinEstimates(const QueryPlan& plan, const Catalog& catalog,
                          const TableInfo& base,
                          const std::vector<BoundJoin>& joins,
                          const ExecContext& exec, size_t* base_rows,
                          std::vector<JoinRelEstimate>* rels,
                          uint64_t* max_age) {
  uint64_t worst = 0;
  const auto fetch = [&](const std::string& name, PublishedTableStats* p) {
    if (!catalog.GetStats(name, p)) return false;
    const uint64_t age = exec.committed_csn > p->as_of_csn
                             ? exec.committed_csn - p->as_of_csn
                             : 0;
    if (age > kStatsStalenessCsns) return false;
    worst = std::max(worst, age);
    return true;
  };
  PublishedTableStats bp;
  if (!fetch(base.name, &bp)) return false;
  *base_rows = RoundRows(static_cast<double>(bp.stats.row_count) *
                         EstimateSelectivity(plan.where, bp.stats));
  for (size_t j = 0; j < joins.size(); ++j) {
    PublishedTableStats jp;
    if (!fetch(joins[j].table->name, &jp)) return false;
    const double rows = static_cast<double>(jp.stats.row_count) *
                        EstimateSelectivity(*joins[j].where, jp.stats);
    const size_t rc = static_cast<size_t>(joins[j].right_col);
    double ndv = rc < jp.stats.columns.size() ? jp.stats.columns[rc].ndv : 1.0;
    // A predicate that filters rows can only shrink the key domain.
    ndv = std::max(1.0, std::min(ndv, std::max(rows, 1.0)));
    (*rels)[j].rows = RoundRows(rows);
    (*rels)[j].key_ndv = ndv;
  }
  *max_age = worst;
  return true;
}

// ---------------------------------------------------------------------------
// Batch-native join pipeline with late materialization (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// One join input's batch image plus derived per-row metadata. The dense
/// active index space (active positions in batch order) is the pipeline's
/// row identity: the input's row index in nested-loop order.
struct BatchInput {
  std::vector<ColumnBatch> batches;
  /// dense active index -> (batch, position): the late-materialization
  /// gather map.
  std::vector<std::pair<uint32_t, uint32_t>> dense;
  /// Per-row payload footprint (grace-budget weights); filled only when a
  /// spill budget is set.
  std::vector<size_t> row_bytes;
  /// Extracted key columns, cached per column (NDV sampling and the join
  /// itself share one extraction).
  std::vector<std::pair<int, JoinKeyColumn>> key_cache;

  size_t rows() const { return dense.size(); }
};

void FinishBatchInput(BatchInput* in, bool want_weights) {
  in->dense.reserve(TotalActiveRows(in->batches));
  for (size_t b = 0; b < in->batches.size(); ++b)
    in->batches[b].ForEachActive([&](size_t i) {
      in->dense.emplace_back(static_cast<uint32_t>(b),
                             static_cast<uint32_t>(i));
    });
  if (want_weights) in->row_bytes = EstimateBatchRowBytes(in->batches);
}

const JoinKeyColumn& InputKeys(BatchInput* in, int col) {
  for (const auto& kv : in->key_cache)
    if (kv.first == col) return kv.second;
  in->key_cache.emplace_back(col, ExtractJoinKeys(in->batches, col));
  return in->key_cache.back().second;
}

/// Gathers `src` at positions `idx` into a new key column (the probe side's
/// keys viewed through the intermediate's lineage).
JoinKeyColumn GatherKeys(const JoinKeyColumn& src,
                         const std::vector<uint32_t>& idx) {
  JoinKeyColumn out;
  out.type = src.type;
  const size_t n = idx.size();
  out.valid.reserve(n);
  out.hashes.reserve(n);
  for (uint32_t i : idx) {
    out.valid.push_back(src.valid[i]);
    out.hashes.push_back(src.hashes[i]);
  }
  switch (src.type) {
    case Type::kInt64:
      out.ints.reserve(n);
      for (uint32_t i : idx) out.ints.push_back(src.ints[i]);
      break;
    case Type::kDouble:
      out.doubles.reserve(n);
      for (uint32_t i : idx) out.doubles.push_back(src.doubles[i]);
      break;
    case Type::kString:
      out.strs.reserve(n);
      for (uint32_t i : idx) out.strs.push_back(src.strs[i]);
      break;
  }
  return out;
}

/// Late materialization of one output column: appends rows [lo, hi) of the
/// final lineage, gathered from the input's batches, onto `dst`. The type
/// switch is hoisted out of the row loop — this is the only point where
/// payload values are touched.
void GatherColumn(const BatchInput& in, size_t col,
                  const std::vector<uint32_t>& lineage, size_t lo, size_t hi,
                  ColumnVector* dst) {
  for (size_t r = lo; r < hi; ++r) {
    const auto [b, p] = in.dense[lineage[r]];
    const ColumnVector& src = in.batches[b].columns[col];
    if (src.IsNull(p)) {
      dst->AppendNull();
      continue;
    }
    switch (dst->type()) {
      case Type::kInt64: dst->AppendInt64(src.GetInt64(p)); break;
      case Type::kDouble: dst->AppendDouble(src.GetDouble(p)); break;
      case Type::kString: dst->AppendString(src.GetString(p)); break;
    }
  }
}

/// The scan of one table for `plan`: its pushed-down predicate, the plan's
/// path hint and freshness, and the query's read CSN. The projection is the
/// caller's to set (empty = all columns).
ScanRequest RequestFor(const QueryPlan& plan, const TableInfo& table,
                       const Predicate* pred, const ExecContext& exec) {
  ScanRequest req;
  req.table = &table;
  req.pred = pred;
  req.path = plan.path;
  req.require_fresh = plan.require_fresh;
  req.csn = exec.committed_csn;
  return req;
}

/// The columns an aggregating plan consumes from its input, ascending, with
/// the group and aggregate indexes remapped onto that narrowed layout.
/// COUNT(*) alone consumes no column, so the layout then holds just `pk`:
/// a batch needs one column to carry its row count.
struct NarrowedAggregate {
  std::vector<int> cols;
  std::vector<int> groups;
  std::vector<AggSpec> aggs;
};

NarrowedAggregate NarrowAggregate(const QueryPlan& plan, int pk) {
  NarrowedAggregate n;
  const auto add = [&](int c) {
    if (c >= 0 && std::find(n.cols.begin(), n.cols.end(), c) == n.cols.end())
      n.cols.push_back(c);
  };
  for (int g : plan.group_by) add(g);
  for (const AggSpec& a : plan.aggs) add(a.column);
  if (n.cols.empty()) n.cols.push_back(pk);
  std::sort(n.cols.begin(), n.cols.end());
  const auto pos_of = [&](int c) {
    return static_cast<int>(std::find(n.cols.begin(), n.cols.end(), c) -
                            n.cols.begin());
  };
  n.groups = plan.group_by;
  for (int& g : n.groups) g = pos_of(g);
  n.aggs = plan.aggs;
  for (AggSpec& a : n.aggs)
    if (a.column >= 0) a.column = pos_of(a.column);
  return n;
}

/// Executes the plan's joins batch-at-a-time (DESIGN.md §13) and returns
/// the plan's output rows before sort/limit: aggregated, projected, or the
/// full combined layout. Join keys are extracted straight from the typed
/// scan batches; between join steps only lineage flows — one dense input
/// index per joined input per intermediate row — and payload columns are
/// gathered exactly once, after the last join and the reorder fixup,
/// restricted to the columns the plan consumes.
///
/// Join ordering is decided BEFORE any join table is read. When every
/// referenced table has fresh published statistics in the catalog, the
/// greedy order is chosen at plan time purely from metadata and the join
/// tables are then scanned lazily in execution order; otherwise every join
/// table is scanned up front and its distinct join keys counted exactly.
/// Whatever the order and build sides, the output is in plan-order
/// nested-loop order: a build-side swap re-sorts its pairs, and a reordered
/// plan sorts the final lineage tuples in plan order.
Result<std::vector<Row>> RunJoins(const std::vector<BoundJoin>& joins,
                                  const TableInfo& base,
                                  const Catalog& catalog, const ScanFn& scan,
                                  const QueryPlan& plan,
                                  const ExecContext& exec, QueryExecInfo* xi) {
  const size_t njoins = joins.size();
  const size_t base_width = base.schema.columns().size();
  JoinLayout layout;
  HTAP_RETURN_NOT_OK(ComputeJoinLayout(joins, base_width, &layout));

  const bool want_weights = exec.join_spill_budget_bytes > 0;
  const size_t ninputs = njoins + 1;  // input 0 = base, input j+1 = join j
  std::vector<BatchInput> inputs(ninputs);
  std::vector<uint8_t> ready(ninputs, 0);
  const auto scan_input = [&](size_t t) -> Status {
    if (ready[t]) return Status::OK();
    const ScanRequest req =
        t == 0 ? RequestFor(plan, base, &plan.where, exec)
               : RequestFor(plan, *joins[t - 1].table, joins[t - 1].where,
                            exec);
    ScanStats* ss = t == 0 ? &xi->scan : nullptr;
    std::string* ap = t == 0 ? &xi->access_path : nullptr;
    HTAP_ASSIGN_OR_RETURN(inputs[t].batches, scan(req, ss, ap));
    FinishBatchInput(&inputs[t], want_weights);
    ready[t] = 1;
    return Status::OK();
  };
  HTAP_RETURN_NOT_OK(scan_input(0));

  // Join ordering (trivial for 0–1 joins): catalog estimates when fresh,
  // exact sampling otherwise, with NDV counted off the extracted key
  // columns.
  std::vector<size_t> order(njoins);
  for (size_t j = 0; j < njoins; ++j) order[j] = j;
  std::vector<JoinRelEstimate> rels(njoins);
  std::vector<double> est_steps;
  bool stats_planned = false;
  size_t base_est = 0;
  if (njoins > 1) {
    uint64_t stats_age = 0;
    stats_planned = CatalogJoinEstimates(plan, catalog, base, joins, exec,
                                         &base_est, &rels, &stats_age);
    if (stats_planned) {
      order = ChooseJoinOrder(base_est, rels, layout.deps, &est_steps);
      xi->join_used_catalog_stats = true;
      xi->join_stats_age_csns = stats_age;
    } else {
      for (size_t j = 0; j < njoins; ++j) HTAP_RETURN_NOT_OK(scan_input(j + 1));
      for (size_t j = 0; j < njoins; ++j) {
        rels[j].rows = inputs[j + 1].rows();
        rels[j].key_ndv = static_cast<double>(CountDistinctKeys(
            InputKeys(&inputs[j + 1], joins[j].right_col)));
      }
      order = ChooseJoinOrder(inputs[0].rows(), rels, layout.deps, &est_steps);
    }
    xi->join_order = order;
    xi->join_est_rows = est_steps;
  }
  bool reorder = false;
  for (size_t s = 0; s < njoins; ++s) reorder = reorder || order[s] != s;

  // Lineage: lineage[t][r] is intermediate row r's dense index into input
  // t (meaningful once `joined[t]`). This is the only per-row state the
  // join steps carry.
  std::vector<std::vector<uint32_t>> lineage(ninputs);
  std::vector<uint8_t> joined(ninputs, 0);
  lineage[0].resize(inputs[0].rows());
  for (size_t i = 0; i < lineage[0].size(); ++i)
    lineage[0][i] = static_cast<uint32_t>(i);
  joined[0] = 1;
  size_t total_batches = inputs[0].batches.size();

  for (size_t s = 0; s < njoins; ++s) {
    const size_t j = order[s];
    const size_t t = j + 1;
    HTAP_RETURN_NOT_OK(scan_input(t));
    total_batches += inputs[t].batches.size();

    // The probe key lives in some already-joined input: map the combined-
    // layout left_col to (input, own-layout column) and gather its key
    // column through the lineage.
    const auto lc = static_cast<size_t>(joins[j].left_col);
    size_t kt = 0;
    int kc = joins[j].left_col;
    if (lc >= base_width) {
      for (size_t k = 0; k < njoins; ++k)
        if (lc >= layout.offset[k] && lc < layout.offset[k] + layout.width[k]) {
          kt = k + 1;
          kc = static_cast<int>(lc - layout.offset[k]);
          break;
        }
    }
    if (!joined[kt])
      return Status::Internal("join order violated a key dependency");
    const size_t cur_n = lineage[0].size();
    const JoinKeyColumn cur_keys = GatherKeys(InputKeys(&inputs[kt], kc),
                                              lineage[kt]);
    const JoinKeyColumn& in_keys = InputKeys(&inputs[t], joins[j].right_col);

    const bool build_left =
        stats_planned
            ? ChooseBuildSideLeft(
                  s == 0 ? base_est : RoundRows(est_steps[s - 1]),
                  rels[j].rows)
            : ChooseBuildSideLeft(cur_n, inputs[t].rows());
    JoinStats step;
    JoinPairs pairs;
    if (!build_left) {
      const std::vector<size_t>* wts =
          want_weights ? &inputs[t].row_bytes : nullptr;
      pairs = HashJoinPairsKeys(cur_keys, in_keys, exec, &step, wts);
    } else {
      // Build on the intermediate: its grace weight is the footprint of the
      // row it would materialize — the sum of its inputs' row footprints.
      std::vector<size_t> cur_weights;
      if (want_weights) {
        cur_weights.assign(cur_n, 0);
        for (size_t t2 = 0; t2 < ninputs; ++t2) {
          if (!joined[t2]) continue;
          for (size_t r = 0; r < cur_n; ++r)
            cur_weights[r] += inputs[t2].row_bytes[lineage[t2][r]];
        }
      }
      pairs = HashJoinPairsKeys(in_keys, cur_keys, exec, &step,
                                want_weights ? &cur_weights : nullptr);
      step.build_swapped = true;
      std::sort(pairs.begin(), pairs.end(),
                [](const std::pair<uint32_t, uint32_t>& a,
                   const std::pair<uint32_t, uint32_t>& b) {
                  return a.second != b.second ? a.second < b.second
                                              : a.first < b.first;
                });
    }

    // Advance the lineage — the batch pipeline's whole join step output.
    const size_t n = pairs.size();
    std::vector<std::vector<uint32_t>> next(ninputs);
    for (size_t t2 = 0; t2 < ninputs; ++t2)
      if (joined[t2] || t2 == t) next[t2].resize(n);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t p = build_left ? pairs[k].second : pairs[k].first;
      const uint32_t b = build_left ? pairs[k].first : pairs[k].second;
      for (size_t t2 = 0; t2 < ninputs; ++t2)
        if (joined[t2]) next[t2][k] = lineage[t2][p];
      next[t][k] = b;
    }
    lineage = std::move(next);
    joined[t] = 1;

    FoldJoinStats(step, &xi->join);
    xi->join_steps.push_back(step);
    if (njoins > 1) xi->join_actual_rows.push_back(n);
  }

  if (reorder) {
    // Restore plan-order nested-loop order: the lineage tuple in plan order
    // is unique, and ascending tuples are exactly nested-loop order.
    const size_t n = lineage[0].size();
    std::vector<uint32_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
    std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      for (size_t t = 0; t < ninputs; ++t)
        if (lineage[t][a] != lineage[t][b]) return lineage[t][a] < lineage[t][b];
      return false;
    });
    for (size_t t = 0; t < ninputs; ++t) {
      std::vector<uint32_t> sorted(n);
      for (size_t i = 0; i < n; ++i) sorted[i] = lineage[t][perm[i]];
      lineage[t] = std::move(sorted);
    }
  }

  // Late materialization: gather only the plan-consumed columns, chunked
  // into output batches. Payload values are touched here for the first
  // time — everything upstream moved indices.
  const Schema combined = CombinedSchema(base, joins);
  NarrowedAggregate narrowed;
  std::vector<int> out_cols;
  if (!plan.aggs.empty()) {
    narrowed = NarrowAggregate(plan, combined.pk_index());
    out_cols = narrowed.cols;
  } else if (!plan.projection.empty()) {
    out_cols = plan.projection;
  } else {
    out_cols.resize(layout.total_cols);
    for (size_t c = 0; c < layout.total_cols; ++c)
      out_cols[c] = static_cast<int>(c);
  }
  const size_t n = lineage[0].size();
  const size_t chunk =
      exec.batch_rows == 0 ? std::max<size_t>(n, 1) : exec.batch_rows;
  std::vector<ColumnBatch> obatches;
  for (size_t lo = 0; lo < n; lo += chunk) {
    const size_t hi = std::min(n, lo + chunk);
    ColumnBatch ob = MakeBatch(combined, out_cols, hi - lo);
    for (size_t oc = 0; oc < out_cols.size(); ++oc) {
      const auto c = static_cast<size_t>(out_cols[oc]);
      size_t t = 0;
      size_t in_col = c;
      if (c >= base_width) {
        for (size_t k = 0; k < njoins; ++k)
          if (c >= layout.offset[k] &&
              c < layout.offset[k] + layout.width[k]) {
            t = k + 1;
            in_col = c - layout.offset[k];
            break;
          }
      }
      GatherColumn(inputs[t], in_col, lineage[t], lo, hi, &ob.columns[oc]);
    }
    obatches.push_back(std::move(ob));
  }
  xi->join.join_batches += total_batches;
  xi->join.rows_late_materialized += n;

  if (!plan.aggs.empty())
    return HashAggregate(obatches, narrowed.groups, narrowed.aggs, exec);
  return BatchesToRows(obatches);
}

}  // namespace

Result<Schema> PlanOutputSchema(const QueryPlan& plan,
                                const Catalog& catalog) {
  const TableInfo* base = catalog.Find(plan.table);
  if (base == nullptr) return Status::NotFound("no table: " + plan.table);
  HTAP_ASSIGN_OR_RETURN(const std::vector<BoundJoin> joins,
                        BindJoins(plan, catalog));
  return OutputSchema(plan, CombinedSchema(*base, joins));
}

Result<QueryResult> RunPlan(const QueryPlan& plan, const Catalog& catalog,
                            const ScanFn& scan, QueryExecInfo* info,
                            const ExecContext& exec) {
  const TableInfo* base = catalog.Find(plan.table);
  if (base == nullptr) return Status::NotFound("no table: " + plan.table);
  HTAP_ASSIGN_OR_RETURN(const std::vector<BoundJoin> joins,
                        BindJoins(plan, catalog));

  QueryExecInfo local_info;
  QueryExecInfo* xi = info != nullptr ? info : &local_info;
  xi->vectorized = true;

  // The joins fan build/probe morsels onto the same AP pool as scans, so
  // the scheduler's OLAP concurrency quota bounds their in-flight morsels
  // exactly as it bounds scan morsels.
  std::vector<Row> rows;
  if (!joins.empty()) {
    HTAP_ASSIGN_OR_RETURN(rows,
                          RunJoins(joins, *base, catalog, scan, plan, exec, xi));
  } else {
    // Projection pushdown: a plain scan pushes the user's projection; an
    // aggregate pushes exactly the columns it consumes, with its indexes
    // remapped onto the narrowed layout — the core benefit of columnar
    // access.
    ScanRequest req = RequestFor(plan, *base, &plan.where, exec);
    NarrowedAggregate narrowed;
    if (plan.aggs.empty()) {
      req.projection = plan.projection;
    } else {
      narrowed = NarrowAggregate(plan, base->schema.pk_index());
      req.projection = narrowed.cols;
    }
    HTAP_ASSIGN_OR_RETURN(const std::vector<ColumnBatch> batches,
                          scan(req, &xi->scan, &xi->access_path));
    rows = plan.aggs.empty()
               ? BatchesToRows(batches)
               : HashAggregate(batches, narrowed.groups, narrowed.aggs, exec);
  }

  if (plan.order_by >= 0)
    SortLimit(&rows, plan.order_by, plan.order_desc, plan.limit);
  else if (plan.limit != 0 && rows.size() > plan.limit)
    rows.resize(plan.limit);

  QueryResult result;
  result.schema = OutputSchema(plan, CombinedSchema(*base, joins));
  result.rows = std::move(rows);
  result.stats = xi->scan;
  return result;
}

}  // namespace htap

// bench_htap: the repository benchmark. One process runs one CH-benCHmark
// workload through the public Database/DbTxn API:
//
//   set up (Open + CreateChTables + LoadChData + ForceSyncAll); warm up for
//   --warmup seconds, not counted; measure for --seconds; stop the load,
//   ForceSyncAll and run the answer checks; remove the data directory; read
//   the peak RSS; then time --setup-reps - 1 more set-ups for the median
//   set-up time.
//
// With --trace 1 the run also records a span around every call the
// benchmark makes into a layer and derives the per-layer metrics from them.
// End-to-end numbers come from runs with --trace 0. The last line of stdout
// is one JSON object holding every metric; run_benchmark.py selects from it.
//
//   bench_htap --workload NAME --seed N [--seconds 10] [--warmup 2]
//              [--setup-reps 5] [--trace 0|1] [--out-dir .bench_out]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchlib/chbench.h"
#include "checks.h"
#include "core/database.h"
#include "sql/sql.h"
#include "tpcc.h"
#include "trace.h"

namespace htapbench {
namespace {

namespace fs = std::filesystem;
using htap::ArchitectureKind;
using htap::Database;
using htap::DatabaseOptions;
using htap::EngineStats;
using htap::QueryExecInfo;
using htap::QueryPlan;
using htap::Status;
using htap::bench::ChConfig;

constexpr int64_t kRetryNs = 1'000'000'000;  // conflict retries, per TP txn
constexpr int64_t kSampleNs = 10'000'000;  // freshness sampling period
constexpr size_t kMaxTraceEvents = 200'000;  // about 24 MB of JSON

/// One benchmark workload. The names are part of BENCHMARK.json.
struct Workload {
  const char* name;
  ArchitectureKind arch;
  int tp_clients;        // closed-loop TP clients
  double tp_rate;        // open-loop TP rate in txn/s, 0 = none
  int tp_paced_workers;  // threads sharing the open-loop rate
  bool ap;               // one closed-loop AP client
  bool ap_sql;           // its streams also run the SQL join chains
  bool fsync_commits;    // DatabaseOptions::sync_on_commit
};

// Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"oltp_saturate", ArchitectureKind::kRowPlusInMemoryColumn, 4, 0, 0,
     false, false, false},
    {"olap_static", ArchitectureKind::kRowPlusInMemoryColumn, 0, 0, 0, true,
     true, false},
    {"htap_rowcol", ArchitectureKind::kRowPlusInMemoryColumn, 0, 4000, 2,
     true, false, false},
    {"htap_colmain", ArchitectureKind::kColumnPlusDeltaRow, 0, 4000, 2, true,
     false, false},
    {"htap_disk", ArchitectureKind::kDiskRowPlusDistributedColumn, 0, 4000, 2,
     true, false, true},
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  double warmup = 2;
  int setup_reps = 5;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "bench_htap: %s\n", msg.c_str());
  std::exit(2);
}

void DieIfError(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

/// 8 warehouses x 10 districts x 300 customers, 10,000 items and 300 orders
/// per district: about 240k orderlines and 378k rows.
ChConfig DataConfig(uint64_t seed) {
  ChConfig c;
  c.warehouses = 8;
  c.districts_per_warehouse = 10;
  c.customers_per_district = 300;
  c.items = 10000;
  c.initial_orders_per_district = 300;
  c.seed = seed;
  return c;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The geometric mean of the positive values; 0 when there are none.
double GeoMean(const std::vector<double>& v) {
  double logs = 0;
  size_t n = 0;
  for (double x : v)
    if (x > 0) {
      logs += std::log(x);
      ++n;
    }
  return n > 0 ? std::exp(logs / static_cast<double>(n)) : 0;
}

/// The geometric mean of the medians of the non-empty groups.
double GeoMeanOfMedians(const std::vector<std::vector<double>>& groups) {
  std::vector<double> medians;
  for (const auto& g : groups)
    if (!g.empty()) medians.push_back(Quantile(g, 0.5));
  return GeoMean(medians);
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A database and its data directory; the directory is removed after the
/// database has closed.
class ScratchDb {
 public:
  ScratchDb(std::unique_ptr<Database> db, fs::path dir)
      : dir_(std::move(dir)), db_(std::move(db)) {}
  ~ScratchDb() {
    db_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  ScratchDb(const ScratchDb&) = delete;
  ScratchDb& operator=(const ScratchDb&) = delete;

  Database* get() const { return db_.get(); }

 private:
  fs::path dir_;
  std::unique_ptr<Database> db_;
};

struct SetupTiming {
  double seconds = 0;  // Open + load + ForceSyncAll
  double sync_ms = 0;  // the ForceSyncAll alone
};

std::unique_ptr<ScratchDb> SetUp(const Options& o, int rep,
                                 const TraceContext& parent,
                                 SetupTiming* timing) {
  const int64_t t0 = NowNs();
  const TraceContext trace = parent.Child("setup");
  const fs::path dir = fs::path(o.out_dir) / "data" /
                       (std::string(o.workload->name) + "-" +
                        std::to_string(getpid()) + "-" + std::to_string(rep));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir.string() + ": " + ec.message());

  DatabaseOptions opts;
  opts.architecture = o.workload->arch;
  opts.data_dir = dir.string();
  opts.background_sync = true;
  opts.sync_interval_micros = 10000;
  // Serial scans: on a 4-vCPU host the AP morsel pool competes with the
  // load generators and doubles the run-to-run spread of AP numbers.
  opts.parallel_scan_threads = 1;
  opts.sync_on_commit = o.workload->fsync_commits;
  auto opened =
      Traced(trace, "setup.open", [&] { return Database::Open(opts); });
  DieIfError(opened.status(), "open");
  auto db = std::make_unique<ScratchDb>(std::move(*opened), dir);

  DieIfError(Traced(trace, "setup.load",
                    [&] {
                      Status st = htap::bench::CreateChTables(db->get());
                      if (st.ok())
                        st = htap::bench::LoadChData(db->get(),
                                                     DataConfig(o.seed));
                      return st;
                    }),
             "load");
  const int64_t s0 = NowNs();
  DieIfError(Traced(trace, "setup.sync",
                    [&] { return db->get()->ForceSyncAll(); }),
             "initial sync");
  const int64_t s1 = NowNs();
  trace.Close();
  timing->sync_ms = static_cast<double>(s1 - s0) / 1e6;
  timing->seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return db;
}

// ---------------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------------

/// Timing of the run shared by every thread.
struct RunClock {
  int64_t start_ns = 0;    // workers start
  int64_t measure_ns = 0;  // measured window [measure_ns, end_ns)
  int64_t end_ns = 0;
  bool InWindow(int64_t t) const { return t >= measure_ns && t < end_ns; }
  /// The share of [start, end) inside the window: a request's contribution
  /// to throughput, so that requests cut by the window edges count in part.
  double Share(int64_t start, int64_t end) const {
    if (end <= start) return InWindow(end) ? 1 : 0;
    const int64_t in = std::min(end, end_ns) - std::max(start, measure_ns);
    return in > 0 ? static_cast<double>(in) / static_cast<double>(end - start)
                  : 0;
  }
};

struct TxnRecord {
  int64_t start_ns;  // the due time for open-loop requests
  int64_t end_ns;
  TxnType type;
  uint16_t attempts;
  bool ok;
  bool traced;
};

struct WakeRecord {
  int64_t due_ns;
  int64_t late_ns;  // wake time - due time of an idle paced worker
};

struct QueryRecord {
  uint64_t stream;  // the stream's sequence number
  size_t query;     // its position in the stream
  int64_t start_ns, end_ns;
  bool ok;
  QueryExecInfo info;
};

struct StreamRecord {
  uint64_t seq;
  int64_t start_ns, end_ns;
  bool ok;
  bool traced;
};

/// Everything one thread recorded; read only after the thread is joined.
struct WorkerLog {
  explicit WorkerLog(std::string n) : name(std::move(n)) {}

  std::string name;
  SpanBuffer spans;
  std::vector<TxnRecord> txns;
  std::vector<WakeRecord> wakes;
  std::vector<QueryRecord> queries;
  std::vector<StreamRecord> streams;
  std::vector<std::string> errors;  // the first few failures

  void Error(std::string msg) {
    if (errors.size() < 5) errors.push_back(std::move(msg));
  }
};

struct StreamQuery {
  std::string name;
  std::string span;  // span name, alive for the whole run
  QueryPlan plan;
  std::string sql;  // set for the SQL join chains
};

/// The 12 ChQueries() plans, then (olap_static) the 3 SQL join chains.
std::vector<StreamQuery> Stream(const Workload& w) {
  std::vector<StreamQuery> out;
  const auto queries = htap::bench::ChQueries();
  for (const auto& q : queries)
    out.push_back({q.name, "core.query." + q.name, q.plan, ""});
  if (w.ap_sql)
    for (const auto& q : queries)
      if (!q.sql.empty())
        out.push_back({q.name, "core.sql." + q.name, {}, q.sql});
  return out;
}

class Generators {
 public:
  Generators(Database* db, const Options& o, const RunClock& clock,
             const std::atomic<bool>& stop)
      : db_(db), o_(o), clock_(clock), stop_(stop) {}

  void ClosedLoopTp(int worker, WorkerLog* log) const {
    TxnDraw draw(DataConfig(o_.seed), WorkerSeed(worker));
    for (uint64_t seq = 0; !Stopped(); ++seq)
      Execute(draw.Next(), NowNs(), o_.trace && seq % 16 == 0,
              Request(worker, seq), log);
  }

  /// Requests are due at fixed spacing whatever the latency; each is timed
  /// from its due time, so a stall counts against the requests it delays.
  void OpenLoopTp(int worker, int workers, WorkerLog* log) const {
    const double rate = o_.workload->tp_rate / workers;
    const auto spacing = static_cast<int64_t>(1e9 / rate);
    int64_t due = clock_.start_ns + spacing * worker / workers;
    TxnDraw draw(DataConfig(o_.seed), WorkerSeed(worker));
    for (uint64_t seq = 0;; ++seq, due += spacing) {
      if (NowNs() < due) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        log->wakes.push_back(WakeRecord{due, NowNs() - due});
      }
      if (Stopped()) break;
      Execute(draw.Next(), due, o_.trace && seq % 4 != 3,
              Request(worker, seq), log);
    }
  }

  void ApClient(int worker, const std::vector<StreamQuery>& stream,
                WorkerLog* log) const {
    for (uint64_t seq = 0; !Stopped(); ++seq) {
      const bool traced = o_.trace && seq % 4 != 3;
      const TraceContext trace =
          TraceContext{traced ? &log->spans : nullptr, Request(worker, seq)}
              .Child("ap.stream");
      StreamRecord s{seq, NowNs(), 0, true, traced};
      for (size_t i = 0; i < stream.size(); ++i) {
        const StreamQuery& q = stream[i];
        QueryRecord r{seq, i, NowNs(), 0, false, {}};
        Status st;
        if (q.sql.empty()) {
          st = Traced(trace, q.span.c_str(),
                      [&] { return db_->Query(q.plan, &r.info); })
                   .status();
        } else {
          if (traced)
            st = Traced(trace, "sql.parse",
                        [&] { return htap::sql::Parse(q.sql); })
                     .status();
          if (st.ok())
            st = Traced(trace, q.span.c_str(),
                        [&] { return db_->ExecuteSql(q.sql, &r.info); })
                     .status();
        }
        r.end_ns = NowNs();
        r.ok = st.ok();
        if (!st.ok()) {
          s.ok = false;
          log->Error(q.name + ": " + st.ToString());
        }
        log->queries.push_back(std::move(r));
      }
      trace.Close();
      s.end_ns = NowNs();
      log->streams.push_back(s);
    }
  }

 private:
  bool Stopped() const {
    // order: acquire pairs with the main thread's release store of `stop`.
    return stop_.load(std::memory_order_acquire);
  }
  uint64_t WorkerSeed(int worker) const {
    return o_.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(worker) + 1;
  }
  static uint64_t Request(int worker, uint64_t seq) {
    return (static_cast<uint64_t>(worker) << 40) | seq;
  }

  void Execute(const TxnParams& p, int64_t start_ns, bool traced,
               uint64_t request, WorkerLog* log) const {
    const TraceContext trace =
        TraceContext{traced ? &log->spans : nullptr, request}.Child(
            TxnName(p.type));
    const TxnOutcome out = RunTxn(db_, p, kRetryNs, trace);
    trace.Close();
    log->txns.push_back(TxnRecord{
        start_ns, NowNs(), p.type, static_cast<uint16_t>(out.attempts),
        out.status.ok(), traced});
    if (!out.status.ok())
      log->Error(std::string(TxnName(p.type)) + " after " +
                 std::to_string(out.attempts) +
                 " attempts: " + out.status.ToString());
  }

  Database* db_;
  const Options& o_;
  const RunClock& clock_;
  const std::atomic<bool>& stop_;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Clock ticks summed over the host's CPUs (/proc/stat): all of them, and
/// those the hypervisor gave to other guests while this one wanted to run.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;  // the first line sums every CPU
  in >> cpu;
  CpuTicks t;
  // user nice system idle iowait irq softirq steal
  double v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Peak resident set size (VmHWM) in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Durations in `unit_ns` of the spans named `name` that ended in the
/// measured window.
std::vector<double> SpanDurations(const std::vector<WorkerLog>& logs,
                                  const RunClock& clock,
                                  const std::string& name, double unit_ns) {
  std::vector<double> out;
  for (const WorkerLog& log : logs)
    for (const Span& s : log.spans.spans())
      if (clock.InWindow(s.end_ns) && name == s.name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / unit_ns);
  return out;
}

/// Engine counters sampled by the main thread.
struct Samples {
  EngineStats at_start, at_end;  // the measured window's bounds (traced)
  double cpu_start = 0, cpu_end = 0;
  CpuTicks host_start, host_end;
  std::vector<double> freshness_ms;    // orderline time lag, every 10 ms
  std::vector<double> delta_mb;         // traced runs, every 500 ms
  std::vector<double> pending_entries;  // traced runs, every 500 ms
};

struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool saturated = false;
  double offered_per_s = 0;
  bool generator_late = false;  // the paced workers woke > 1 ms late at p99

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

Report Compute(const Options& o, const std::vector<WorkerLog>& logs,
               const std::vector<StreamQuery>& stream, const RunClock& clock,
               const Samples& samples,
               const EngineStats& final_stats, double final_rows,
               size_t failed_checks, size_t checks) {
  const Workload& w = *o.workload;
  const double secs =
      static_cast<double>(clock.end_ns - clock.measure_ns) / 1e9;
  Report rep;

  // Per-request records inside the window. The latencies are also kept per
  // kind of request: each TPC-C transaction type, each query of the stream.
  std::vector<double> tp_ms, tp_traced_ms, tp_untraced_ms, wake_us, stream_ms,
      stream_traced_ms, stream_untraced_ms;
  std::vector<std::vector<double>> txn_kind_ms(4), query_kind_ms(stream.size());
  uint64_t tp_ok = 0, tp_attempts = 0, tp_txns = 0;
  double tp_done = 0, queries_done = 0;  // window shares of successes
  std::vector<uint64_t> window_streams;
  for (const WorkerLog& log : logs) {
    for (const TxnRecord& t : log.txns) {
      ++rep.attempted;
      if (!t.ok) ++rep.failed;
      if (t.ok) tp_done += clock.Share(t.start_ns, t.end_ns);
      if (!clock.InWindow(t.end_ns)) continue;
      const double ms = static_cast<double>(t.end_ns - t.start_ns) / 1e6;
      tp_ms.push_back(ms);
      txn_kind_ms[static_cast<size_t>(t.type)].push_back(ms);
      (t.traced ? tp_traced_ms : tp_untraced_ms).push_back(ms);
      ++tp_txns;
      tp_attempts += t.attempts;
      if (t.ok) ++tp_ok;
    }
    for (const WakeRecord& k : log.wakes)
      if (clock.InWindow(k.due_ns))
        wake_us.push_back(static_cast<double>(k.late_ns) / 1e3);
    for (const QueryRecord& q : log.queries) {
      ++rep.attempted;
      if (!q.ok) ++rep.failed;
      if (q.ok) queries_done += clock.Share(q.start_ns, q.end_ns);
      if (!clock.InWindow(q.end_ns)) continue;
      query_kind_ms[q.query].push_back(
          static_cast<double>(q.end_ns - q.start_ns) / 1e6);
    }
    for (const StreamRecord& s : log.streams) {
      if (!clock.InWindow(s.end_ns) || !s.ok) continue;
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      stream_ms.push_back(ms);
      (s.traced ? stream_traced_ms : stream_untraced_ms).push_back(ms);
      window_streams.push_back(s.seq);
    }
  }
  rep.attempted += checks;
  rep.failed += failed_checks;

  // End to end. The closed-loop client sets the throughput: TP transactions
  // on oltp_saturate, AP queries elsewhere (the open-loop TP rate is fixed).
  const bool tp_closed = w.tp_clients > 0;
  rep.Add("throughput_per_s", (tp_closed ? tp_done : queries_done) / secs,
          "1/s");
  // Each kind's median latency, then the geometric mean over the kinds of a
  // side and over the sides, so that every kind and each side weigh the
  // same however often they run and however long they take.
  const double tp_gmean_ms = GeoMeanOfMedians(txn_kind_ms);
  const double ap_gmean_ms = GeoMeanOfMedians(query_kind_ms);
  rep.Add("latency_p50_gmean_ms", GeoMean({tp_gmean_ms, ap_gmean_ms}), "ms");

  // The paper's HTAP headline numbers, per side.
  rep.Add("tp_txn_per_s", tp_done / secs, "txn/s");
  rep.Add("tp_p50_gmean_ms", tp_gmean_ms, "ms");
  rep.Add("ap_query_p50_gmean_ms", ap_gmean_ms, "ms");
  rep.Add("tp_p50_ms", Quantile(tp_ms, 0.5), "ms");
  rep.Add("tp_p999_ms", Quantile(tp_ms, 0.999), "ms");
  rep.Add("ap_qph", queries_done * 3600 / secs, "queries/h");
  rep.Add("ap_stream_p50_ms", Quantile(stream_ms, 0.5), "ms");
  rep.Add("ap_stream_p90_ms", Quantile(stream_ms, 0.9), "ms");
  rep.Add("freshness_lag_ms_p50", Quantile(samples.freshness_ms, 0.5), "ms");
  rep.Add("freshness_lag_ms_p99", Quantile(samples.freshness_ms, 0.99), "ms");
  rep.Add("failed_ratio",
          Ratio(static_cast<double>(rep.failed),
                static_cast<double>(rep.attempted)),
          "fraction");
  // Validity: the share of the host's CPU time the hypervisor withheld
  // during the window. A shared VM slows by tens of percent for minutes at
  // a time, and every timed metric moves with it.
  rep.Add("host.steal_pct",
          100 * Ratio(samples.host_end.steal - samples.host_start.steal,
                      samples.host_end.total - samples.host_start.total),
          "%");

  if (w.tp_rate > 0) {
    rep.offered_per_s = w.tp_rate;
    rep.saturated = static_cast<double>(tp_txns) < 0.99 * w.tp_rate * secs;
    rep.generator_late = Quantile(wake_us, 0.99) > 1000;
  }
  if (!o.trace) return rep;

  // Per layer: spans around the calls into core, sql and txn.
  for (const StreamQuery& q : stream)
    rep.Add(q.span + ".ms_p50",
            Quantile(SpanDurations(logs, clock, q.span, 1e6), 0.5), "ms");
  if (!w.ap_sql)  // the names exist on every workload
    for (const char* q : {"Q3", "Q5", "Q14"})
      rep.Add(std::string("core.sql.") + q + ".ms_p50", 0, "ms");
  rep.Add("sql.parse_us_p50",
          Quantile(SpanDurations(logs, clock, "sql.parse", 1e3), 0.5), "us");

  // QueryExecInfo of the queries of every stream that ended in the window.
  std::sort(window_streams.begin(), window_streams.end());
  double qerror_max = 0, multi_join = 0, catalog = 0, join_s = 0, query_s = 0,
         build = 0, probe = 0, late = 0, spill = 0, considered = 0,
         emitted = 0, groups = 0, skipped = 0, vectorized = 0, queries = 0,
         delta_rows = 0;
  for (const WorkerLog& log : logs)
    for (const QueryRecord& q : log.queries) {
      if (!std::binary_search(window_streams.begin(), window_streams.end(),
                              q.stream))
        continue;
      const QueryExecInfo& i = q.info;
      ++queries;
      query_s += static_cast<double>(q.end_ns - q.start_ns) / 1e9;
      join_s += i.join.seconds;
      build += static_cast<double>(i.join.build_rows);
      probe += static_cast<double>(i.join.probe_rows);
      late += static_cast<double>(i.join.rows_late_materialized);
      spill += static_cast<double>(i.join.spill_bytes_written);
      considered += static_cast<double>(i.scan.rows_considered);
      emitted += static_cast<double>(i.scan.main_rows_emitted);
      groups += static_cast<double>(i.scan.groups_total);
      skipped += static_cast<double>(i.scan.groups_skipped);
      delta_rows += static_cast<double>(i.scan.delta_rows_emitted);
      if (i.vectorized) ++vectorized;
      if (i.join_steps.size() >= 2) {
        ++multi_join;
        if (i.join_used_catalog_stats) ++catalog;
      }
      for (size_t s = 0;
           s < i.join_est_rows.size() && s < i.join_actual_rows.size(); ++s) {
        const double est = i.join_est_rows[s];
        const double act = static_cast<double>(i.join_actual_rows[s]);
        if (est > 0 && act > 0)
          qerror_max = std::max(qerror_max, std::max(est / act, act / est));
      }
    }
  const double n_streams = static_cast<double>(window_streams.size());
  rep.Add("opt.join_qerror_max", qerror_max, "ratio");
  rep.Add("opt.catalog_stats_ratio", Ratio(catalog, multi_join), "fraction");
  rep.Add("exec.join.self_ms_share", Ratio(join_s, query_s), "fraction");
  rep.Add("exec.join.build_rows_per_stream", Ratio(build, n_streams), "rows");
  rep.Add("exec.join.probe_rows_per_stream", Ratio(probe, n_streams), "rows");
  rep.Add("exec.join.late_rows_per_stream", Ratio(late, n_streams), "rows");
  rep.Add("exec.join.spill_bytes", spill, "bytes");
  rep.Add("exec.scan.rows_considered_per_stream", Ratio(considered, n_streams),
          "rows");
  rep.Add("exec.scan.emitted_ratio", Ratio(emitted, considered), "fraction");
  rep.Add("exec.scan.groups_skipped_ratio", Ratio(skipped, groups), "fraction");
  rep.Add("exec.scan.delta_rows_per_stream", Ratio(delta_rows, n_streams),
          "rows");
  rep.Add("exec.vectorized_ratio", Ratio(vectorized, queries), "fraction");

  // Column store and row store at the end, after the final ForceSyncAll.
  const double mb = 1024.0 * 1024.0;
  rep.Add("columnar.mb_end",
          static_cast<double>(final_stats.column_store_bytes) / mb, "MB");
  rep.Add("columnar.bytes_per_row",
          Ratio(static_cast<double>(final_stats.column_store_bytes),
                final_rows),
          "bytes");
  const char* enc_names[] = {"PLAIN", "DICTIONARY", "RLE", "FOR_BITPACK"};
  for (size_t e = 0; e < htap::kNumEncodings; ++e)
    rep.Add(std::string("columnar.enc.") + enc_names[e] + ".mb",
            static_cast<double>(final_stats.column_encodings.bytes[e]) / mb,
            "MB");

  rep.Add("txn.begin_us_p50",
          Quantile(SpanDurations(logs, clock, "txn.begin", 1e3), 0.5), "us");
  const auto gets = SpanDurations(logs, clock, "txn.get", 1e3);
  rep.Add("txn.get_us_p50", Quantile(gets, 0.5), "us");
  rep.Add("txn.get_us_p99", Quantile(gets, 0.99), "us");
  rep.Add("txn.write_us_p50",
          Quantile(SpanDurations(logs, clock, "txn.write", 1e3), 0.5), "us");
  const auto commits = SpanDurations(logs, clock, "txn.commit", 1e3);
  rep.Add("txn.commit_us_p50", Quantile(commits, 0.5), "us");
  rep.Add("txn.commit_us_p99", Quantile(commits, 0.99), "us");
  rep.Add("txn.commit_ratio",
          Ratio(static_cast<double>(tp_ok), static_cast<double>(tp_attempts)),
          "fraction");
  rep.Add("txn.retries_per_txn",
          Ratio(static_cast<double>(tp_attempts - tp_txns),
                static_cast<double>(tp_txns)),
          "count");

  const EngineStats& a = samples.at_start;
  const EngineStats& b = samples.at_end;
  rep.Add("storage.row_mb_end",
          static_cast<double>(final_stats.row_store_bytes) / mb, "MB");
  rep.Add("storage.row_bytes_per_commit",
          Ratio(static_cast<double>(b.row_store_bytes) -
                    static_cast<double>(a.row_store_bytes),
                static_cast<double>(b.commits - a.commits)),
          "bytes");
  const double hits =
      static_cast<double>(b.buffer_pool_hits - a.buffer_pool_hits);
  const double misses =
      static_cast<double>(b.buffer_pool_misses - a.buffer_pool_misses);
  rep.Add("storage.bufferpool_hit_ratio", Ratio(hits, hits + misses),
          "fraction");
  rep.Add("delta.mb_p99", Quantile(samples.delta_mb, 0.99), "MB");
  rep.Add("delta.pending_entries_p99", Quantile(samples.pending_entries, 0.99),
          "count");
  rep.Add("sync.merges_per_s", static_cast<double>(b.merges - a.merges) / secs,
          "1/s");
  rep.Add("sync.entries_merged_per_s",
          static_cast<double>(b.entries_merged - a.entries_merged) / secs,
          "1/s");
  rep.Add("bench.gen_wake_late_us_p50", Quantile(wake_us, 0.5), "us");
  rep.Add("bench.gen_wake_late_us_p99", Quantile(wake_us, 0.99), "us");
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  rep.Add("proc.cpu_util",
          (samples.cpu_end - samples.cpu_start) / (secs * cores), "fraction");

  // Traced and untraced requests interleave in one run; the overhead is the
  // closed-loop unit's median latency with tracing against without.
  const auto& traced = tp_closed ? tp_traced_ms : stream_traced_ms;
  const auto& untraced = tp_closed ? tp_untraced_ms : stream_untraced_ms;
  const double base = Quantile(untraced, 0.5);
  rep.Add("trace_overhead_pct",
          traced.empty() || base <= 0
              ? 0
              : 100.0 * (Quantile(traced, 0.5) / base - 1.0),
          "%");
  return rep;
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

Options ParseArgs(int argc, char** argv) {
  Options o;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Die("missing value for " + arg);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
    } else if (arg == "--warmup") {
      o.warmup = std::strtod(val.c_str(), &end);
    } else if (arg == "--setup-reps") {
      o.setup_reps = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else if (arg == "--trace") {
      o.trace = std::strtol(val.c_str(), &end, 10) != 0;
    } else if (arg == "--out-dir") {
      o.out_dir = val;
    } else {
      Die("unknown argument " + arg);
    }
    if (end != nullptr && *end != '\0')
      Die("bad value for " + arg + ": " + val);
  }
  for (const Workload& w : kWorkloads)
    if (workload == w.name) o.workload = &w;
  if (o.workload == nullptr) Die("unknown --workload '" + workload + "'");
  if (!(o.seconds > 0) || !(o.warmup >= 0) || o.setup_reps < 1)
    Die("need --seconds > 0, --warmup >= 0 and --setup-reps >= 1");
  return o;
}

/// Live rows, summed over the seven tables.
double CountRows(Database* db) {
  double rows = 0;
  for (const char* t : {"warehouse", "district", "customer", "item", "stock",
                        "orders", "orderline"}) {
    QueryPlan p;
    p.table = t;
    p.aggs = {htap::AggSpec::Count("n")};
    auto res = db->Query(p);
    DieIfError(res.status(), "row count");
    rows += res->rows.at(0).Get(0).AsDouble();
  }
  return rows;
}

void PrintJson(const Options& o, const Report& rep, bool correct,
               const std::vector<CheckResult>& checks,
               const std::string& trace_file) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"tp_offered_per_s\": %.17g, \"tp_saturated\": %s, "
              "\"trace_file\": \"%s\", \"checks_failed\": [",
              o.workload->name, static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), rep.offered_per_s,
              rep.saturated ? "true" : "false", trace_file.c_str());
  bool first = true;
  for (const CheckResult& c : checks)
    if (!c.ok) {
      std::printf("%s\"%s\"", first ? "" : ", ", c.name.c_str());
      first = false;
    }
  std::printf("], \"metrics\": {");
  first = true;
  for (const Metric& mt : rep.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", mt.name.c_str(), mt.value, mt.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  const Workload& w = *o.workload;
  const int64_t origin_ns = NowNs();

  SpanBuffer main_spans;  // set-up and checks
  const TraceContext main_trace{o.trace ? &main_spans : nullptr, 0};

  // The first set-up is the database measured; the others (after the run)
  // only time set-up again.
  std::vector<SetupTiming> setups(static_cast<size_t>(o.setup_reps));
  std::unique_ptr<ScratchDb> scratch = SetUp(o, 0, main_trace, &setups[0]);
  Database* db = scratch->get();

  // Load generators: at most 4 threads, plus the main thread sampling.
  const std::vector<StreamQuery> stream = Stream(w);
  RunClock clock;
  std::atomic<bool> stop{false};
  std::vector<WorkerLog> logs;
  for (int i = 0; i < w.tp_clients; ++i)
    logs.emplace_back("tp-client-" + std::to_string(i));
  for (int i = 0; i < w.tp_paced_workers; ++i)
    logs.emplace_back("tp-paced-" + std::to_string(i));
  if (w.ap) logs.emplace_back("ap-client");

  clock.start_ns = NowNs();
  clock.measure_ns = clock.start_ns + static_cast<int64_t>(o.warmup * 1e9);
  clock.end_ns = clock.measure_ns + static_cast<int64_t>(o.seconds * 1e9);
  const Generators gen(db, o, clock, stop);
  std::vector<std::thread> threads;
  size_t next_log = 0;
  for (int i = 0; i < w.tp_clients; ++i) {
    WorkerLog* log = &logs[next_log++];
    threads.emplace_back([&gen, i, log] { gen.ClosedLoopTp(i, log); });
  }
  for (int i = 0; i < w.tp_paced_workers; ++i) {
    WorkerLog* log = &logs[next_log++];
    threads.emplace_back(
        [&gen, i, &w, log] { gen.OpenLoopTp(i, w.tp_paced_workers, log); });
  }
  if (w.ap) {
    WorkerLog* log = &logs[next_log++];
    const int id = w.tp_clients + w.tp_paced_workers;
    threads.emplace_back(
        [&gen, id, &stream, log] { gen.ApClient(id, stream, log); });
  }

  auto sleep_until = [](int64_t ns) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
  };
  const bool sample_freshness = w.tp_rate > 0;
  Samples samples;
  // Stats() holds the engine's table mutex, which every commit needs, for
  // 1-15 ms under load, so only the traced run calls it while load runs:
  // at the window's bounds and every 500 ms.
  sleep_until(clock.measure_ns);
  if (o.trace) samples.at_start = db->Stats();
  samples.cpu_start = CpuSeconds();
  samples.host_start = ReadCpuTicks();
  for (int64_t tick = 1;; ++tick) {
    const int64_t t = clock.measure_ns + tick * kSampleNs;
    if (t > clock.end_ns) break;
    sleep_until(t);
    if (sample_freshness)
      samples.freshness_ms.push_back(
          static_cast<double>(db->Freshness("orderline").time_lag_micros) /
          1e3);
    if (o.trace && tick % 50 == 0) {
      samples.delta_mb.push_back(static_cast<double>(db->Stats().delta_bytes) /
                                 (1024.0 * 1024.0));
      samples.pending_entries.push_back(static_cast<double>(
          db->Freshness("orderline").pending_delta_entries));
    }
  }
  sleep_until(clock.end_ns);
  if (o.trace) samples.at_end = db->Stats();
  samples.cpu_end = CpuSeconds();
  samples.host_end = ReadCpuTicks();
  // order: release pairs with the workers' acquire loads in Stopped().
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  // Answer checks on the quiesced database.
  std::vector<CheckResult> checks;
  {
    const TraceContext trace = main_trace.Child("checks");
    DieIfError(db->ForceSyncAll(), "final sync");
    if (w.tp_clients > 0 || w.tp_rate > 0) checks = CheckTpccConsistency(db);
    if (w.ap)
      for (CheckResult& c : CheckRowVsColumn(db, htap::bench::ChQueries()))
        checks.push_back(std::move(c));
    trace.Close();
  }
  size_t failed_checks = 0;
  for (const CheckResult& c : checks)
    if (!c.ok) {
      ++failed_checks;
      std::fprintf(stderr, "CHECK FAILED: %s: %s\n", c.name.c_str(),
                   c.detail.c_str());
    }
  const EngineStats final_stats = db->Stats();
  const double final_rows = CountRows(db);

  Report rep = Compute(o, logs, stream, clock, samples, final_stats,
                       final_rows, failed_checks, checks.size());
  for (const WorkerLog& log : logs)
    for (const std::string& e : log.errors)
      std::fprintf(stderr, "%s: %s\n", log.name.c_str(), e.c_str());
  if (rep.saturated)
    std::fprintf(stderr,
                 "warning: open-loop TP fell more than 1%% behind its "
                 "offered rate of %.0f txn/s (saturated)\n",
                 rep.offered_per_s);
  if (rep.generator_late)
    std::fprintf(stderr,
                 "warning: the paced TP workers woke more than 1 ms late at "
                 "p99; this run's TP latencies are not valid\n");

  std::string trace_file;
  if (o.trace) {
    trace_file = (fs::path(o.out_dir) / ("trace-" + std::string(w.name) + "-" +
                                         std::to_string(o.seed) + ".json"))
                     .string();
    // The main thread's few spans (set-up, checks) in full; the workers'
    // spans that end in the measured window.
    std::vector<TraceThread> threads_spans{{"main", &main_spans}};
    for (const WorkerLog& log : logs)
      threads_spans.push_back(
          {log.name, &log.spans, clock.measure_ns, clock.end_ns});
    if (WriteChromeTrace(trace_file, threads_spans, origin_ns,
                         kMaxTraceEvents) < 0)
      Die("cannot write " + trace_file);
  }
  scratch.reset();  // closes the database and removes its data directory
  // Read before the extra set-ups, which would only add allocator noise,
  // and after the answer checks, although their row-path scans raise the
  // peak (by about 7% on olap_static, 12-26% on oltp_saturate). Read before
  // them, the peak per row of oltp_saturate fell as throughput rose and
  // spread by 10% between runs, against about 1% here.
  const double peak_mb = PeakRssMb();
  std::vector<double> setup_s, sync_ms;
  for (size_t r = 0; r < setups.size(); ++r) {
    if (r > 0)  // the database is removed at once; only the timing is kept
      SetUp(o, static_cast<int>(r), TraceContext{}, &setups[r]);
    setup_s.push_back(setups[r].seconds);
    sync_ms.push_back(setups[r].sync_ms);
  }
  rep.Add("setup_s", Quantile(setup_s, 0.5), "s");
  if (o.trace) rep.Add("sync.initial_sync_ms", Quantile(sync_ms, 0.5), "ms");

  // Memory per live row, so that a run that commits more (oltp_saturate)
  // is not charged for the rows it added.
  rep.Add("mem_bytes_per_row", Ratio(peak_mb * 1024 * 1024, final_rows),
          "bytes");
  rep.Add("mem_peak_mb", peak_mb, "MB");
  for (const Metric& mt : rep.metrics)
    std::fprintf(stderr, "  %-40s %14.4f %s\n", mt.name.c_str(), mt.value,
                 mt.unit.c_str());
  const bool correct = rep.failed == 0;
  PrintJson(o, rep, correct, checks, trace_file);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace htapbench

int main(int argc, char** argv) { return htapbench::Main(argc, argv); }

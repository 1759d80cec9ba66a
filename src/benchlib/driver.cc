#include "benchlib/driver.h"

#include <atomic>
#include <cstdio>
#include <thread>

namespace htap {
namespace bench {

std::string DriverReport::ToString() const {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "%.2fs | txn/min %.0f (NewOrder/min %.0f, aborted %llu) | "
           "queries/h %.0f (avg %.2fms) | freshness lag avg %.2fms max %.2fms",
           seconds, tpm_total, tpmc,
           static_cast<unsigned long long>(txns_aborted), qph,
           avg_query_micros / 1000.0, avg_freshness_lag_micros / 1000.0,
           max_freshness_lag_micros / 1000.0);
  return buf;
}

namespace {

struct SharedCounters {
  std::atomic<uint64_t> txns{0}, new_orders{0}, aborts{0}, queries{0};
  std::atomic<uint64_t> query_micros{0};
  std::atomic<uint64_t> fresh_sum{0};
  std::atomic<uint64_t> fresh_max{0};
  std::atomic<uint64_t> fresh_samples{0};
};

void RecordFreshness(Database* db, bool fresh_scans, SharedCounters* c) {
  const FreshnessInfo f = db->Freshness("orderline");
  const uint64_t lag = static_cast<uint64_t>(
      fresh_scans ? f.fresh_time_lag_micros : f.time_lag_micros);
  c->fresh_sum.fetch_add(lag, std::memory_order_relaxed);
  c->fresh_samples.fetch_add(1, std::memory_order_relaxed);
  uint64_t cur = c->fresh_max.load(std::memory_order_relaxed);
  while (lag > cur &&
         !c->fresh_max.compare_exchange_weak(cur, lag,
                                             std::memory_order_relaxed)) {
  }
}

// Runs after every worker has been joined, so the counter reads are plain
// statistics reads — relaxed is sufficient (the joins provide the ordering).
DriverReport Finalize(const SharedCounters& c, double seconds) {
  DriverReport r;
  r.seconds = seconds;
  r.txns_committed = c.txns.load(std::memory_order_relaxed);
  r.new_orders = c.new_orders.load(std::memory_order_relaxed);
  r.txns_aborted = c.aborts.load(std::memory_order_relaxed);
  r.queries_completed = c.queries.load(std::memory_order_relaxed);
  r.tpm_total = static_cast<double>(r.txns_committed) / seconds * 60.0;
  r.tpmc = static_cast<double>(r.new_orders) / seconds * 60.0;
  r.qph = static_cast<double>(r.queries_completed) / seconds * 3600.0;
  r.avg_query_micros =
      r.queries_completed > 0
          ? static_cast<double>(c.query_micros.load(std::memory_order_relaxed)) /
                static_cast<double>(r.queries_completed)
          : 0;
  const uint64_t samples = c.fresh_samples.load(std::memory_order_relaxed);
  r.avg_freshness_lag_micros =
      samples > 0
          ? static_cast<double>(c.fresh_sum.load(std::memory_order_relaxed)) /
                static_cast<double>(samples)
          : 0;
  r.max_freshness_lag_micros =
      static_cast<double>(c.fresh_max.load(std::memory_order_relaxed));
  return r;
}

}  // namespace

DriverReport RunMixedWorkload(Database* db, const ChConfig& ch,
                              const DriverConfig& cfg) {
  SharedCounters counters;
  auto queries = ChQueries();
  for (auto& q : queries) q.plan.require_fresh = cfg.olap_require_fresh;

  const bool simulator_backed =
      db->architecture() == ArchitectureKind::kDistributedRowPlusColumnReplica;
  Stopwatch clock;

  if (simulator_backed) {
    // Single caller thread drives the simulation: interleave OLTP batches
    // with OLAP queries in proportion to the configured client counts.
    ChTransactions txns(db, ch, cfg.seed);
    size_t qi = 0;
    const int txn_batch = std::max(1, cfg.oltp_clients * 4);
    while (clock.ElapsedMicros() < cfg.duration_micros) {
      for (int i = 0; i < txn_batch; ++i) {
        if (txns.RunOne().ok())
          counters.txns.fetch_add(1, std::memory_order_relaxed);
        else
          counters.aborts.fetch_add(1, std::memory_order_relaxed);
      }
      counters.new_orders.store(txns.new_orders(), std::memory_order_relaxed);
      if (cfg.olap_clients > 0) {
        // Sample the replication lag the query starts from: a fresh learner
        // scan pumps the simulation until the learners catch up, so a
        // sample taken after it would always read zero.
        RecordFreshness(db, cfg.olap_require_fresh, &counters);
        const Stopwatch qt;
        auto res = db->Query(queries[qi % queries.size()].plan);
        ++qi;
        if (res.ok()) {
          counters.queries.fetch_add(1, std::memory_order_relaxed);
          counters.query_micros.fetch_add(
              static_cast<uint64_t>(qt.ElapsedMicros()),
              std::memory_order_relaxed);
        }
      }
    }
    return Finalize(counters, clock.ElapsedSeconds());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < cfg.oltp_clients; ++t) {
    workers.emplace_back([&, t] {
      ChTransactions txns(db, ch, cfg.seed + static_cast<uint64_t>(t) * 7919);
      // order: acquire pairs with the main thread's release stop store.
      while (!stop.load(std::memory_order_acquire)) {
        if (txns.RunOne().ok()) {
          counters.txns.fetch_add(1, std::memory_order_relaxed);
        } else {
          counters.aborts.fetch_add(1, std::memory_order_relaxed);
        }
      }
      counters.new_orders.fetch_add(txns.new_orders(),
                                    std::memory_order_relaxed);
    });
  }
  for (int t = 0; t < cfg.olap_clients; ++t) {
    workers.emplace_back([&, t] {
      size_t qi = static_cast<size_t>(t);
      // order: acquire pairs with the main thread's release stop store.
      while (!stop.load(std::memory_order_acquire)) {
        const Stopwatch qt;
        auto res = db->Query(queries[qi % queries.size()].plan);
        ++qi;
        if (res.ok()) {
          counters.queries.fetch_add(1, std::memory_order_relaxed);
          counters.query_micros.fetch_add(
              static_cast<uint64_t>(qt.ElapsedMicros()),
              std::memory_order_relaxed);
          RecordFreshness(db, cfg.olap_require_fresh, &counters);
        }
        if (cfg.olap_think_micros > 0) {
          const Micros executed = qt.ElapsedMicros();
          if (executed < cfg.olap_think_micros)
            std::this_thread::sleep_for(std::chrono::microseconds(
                cfg.olap_think_micros - executed));
        }
      }
    });
  }

  while (clock.ElapsedMicros() < cfg.duration_micros)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // order: release pairs with the workers' acquire stop loads so the flag
  // acts as a clean shutdown edge.
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  return Finalize(counters, clock.ElapsedSeconds());
}

}  // namespace bench
}  // namespace htap

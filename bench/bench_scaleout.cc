// Table 1 as curves: scale-out throughput and freshness of the survey's
// architecture (b) on the sim cluster (DESIGN.md §14, EXPERIMENTS.md).
//
// Two sweeps, all in virtual time (deterministic, host-independent — the
// JSON below is byte-identical across runs and machines for a given seed):
//
//  * Scaling curve: the sharded TPC-C-style workload at 1/3/5/9 shards —
//    tpmC, commit latency, learner freshness lag vs node count.
//  * Fault curve: 3 shards under increasing message loss, plus a leader
//    crash and a leader partition mid-run — throughput degrades, nothing
//    is lost: after heal + drain the cluster must converge (learner rows
//    byte-equal to leader rows, columnar scan included).
//
// `bench_scaleout smoke` runs a reduced matrix for CI; the gate re-runs it
// and byte-compares the output (determinism) and feeds the JSON to
// scripts/check_bench_regression.py (tight thresholds — no hardware noise).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/workload.h"

namespace htap {
namespace bench {
namespace {

using sim::DistributedDb;
using sim::SimEnv;
using sim::TpccTables;
using sim::TpccWorkload;
using sim::WorkloadOptions;

struct FaultPlan {
  double drop = 0.0;      // message-loss probability during the run
  bool crash = false;     // crash shard 0's leader at 25%, restart at 70%
  bool partition = false; // isolate shard's leader at 40%, heal at 70%
};

struct RunResult {
  sim::WorkloadStats w;
  sim::ClusterStats c;
  bool converged = false;
  bool state_equal = false;  // learner rows == leader rows on all tables
};

RunResult RunConfig(int shards, int clients, Micros duration, uint64_t seed,
                    const FaultPlan& faults) {
  SimEnv env(seed);
  DistributedDb::Options opts;
  opts.num_shards = shards;
  opts.learner_merge_interval = 50000;
  DistributedDb db(&env, opts);

  WorkloadOptions wopts;
  wopts.warehouses = std::max(4, shards * 2);
  wopts.clients = clients;
  wopts.seed = seed * 1000003 + static_cast<uint64_t>(shards);
  TpccWorkload workload(&db, wopts);
  workload.RegisterTables();
  db.Bootstrap();
  workload.Load();

  if (faults.drop > 0) db.SetMessageLoss(faults.drop);
  if (faults.crash)
    env.Schedule(duration / 4, [&db] { db.CrashShardLeader(0); });
  if (faults.partition)
    env.Schedule(2 * duration / 5, [&db, shards] {
      const int shard = shards > 1 ? 1 : 0;
      sim::RaftNode* leader = db.shard_group(shard)->leader();
      if (leader != nullptr) db.IsolateNode(shard, leader->id());
    });
  if (faults.crash || faults.partition)
    env.Schedule(7 * duration / 10, [&db] {
      db.HealNetwork();
      db.RestartDeadNodes();
    });

  workload.Run(duration);

  // Heal everything and drain to convergence: committed work must survive.
  db.SetMessageLoss(0);
  db.HealNetwork();
  db.RestartDeadNodes();
  RunResult r;
  const Micros conv_deadline = env.Now() + 60'000'000;
  while (!db.Converged() && env.Now() < conv_deadline)
    env.RunUntil(env.Now() + 10'000);
  r.converged = db.Converged();
  db.SyncLearners();

  r.state_equal = true;
  const uint32_t tables[] = {TpccTables::kWarehouse,  TpccTables::kDistrict,
                             TpccTables::kCustomer,   TpccTables::kOrder,
                             TpccTables::kOrderLine,  TpccTables::kStock};
  for (uint32_t t : tables) {
    const auto leader_rows = db.LeaderRows(t);
    if (db.LearnerRows(t) != leader_rows) r.state_equal = false;
    // The columnar path must expose the same row set after the merge.
    if (TotalActiveRows(db.AnalyticalScanBatches(
            t, Predicate::True(), {}, /*batch_rows=*/0,
            /*include_delta=*/false)) != leader_rows.size())
      r.state_equal = false;
  }

  r.w = workload.stats();
  r.c = db.GetClusterStats();
  return r;
}

void EmitScalingRecord(int shards, int clients, Micros duration,
                       const RunResult& r) {
  const int nodes = shards * 4 + 2;  // 3 voters + learner per shard, gw, tso
  std::printf(
      "{\"bench\":\"scaleout\",\"shards\":%d,\"nodes\":%d,\"clients\":%d,"
      "\"virtual_secs\":%.1f,\"tpmc\":%.1f,\"committed\":%llu,"
      "\"aborted\":%llu,\"cross_shard\":%llu,\"repl_lag_ms\":%.3f,"
      "\"merge_lag_ms\":%.3f,\"txn_p50_ms\":%.3f,\"txn_p99_ms\":%.3f}\n",
      shards, nodes, clients, static_cast<double>(duration) / 1e6, r.w.TpmC(),
      static_cast<unsigned long long>(r.w.committed()),
      static_cast<unsigned long long>(r.w.aborted()),
      static_cast<unsigned long long>(r.w.cross_shard_issued),
      static_cast<double>(r.w.repl_lag_max) / 1000.0,
      static_cast<double>(r.w.merge_lag_max) / 1000.0,
      static_cast<double>(r.c.commit_latency.Quantile(0.5)) / 1000.0,
      static_cast<double>(r.c.commit_latency.Quantile(0.99)) / 1000.0);
}

void EmitFaultRecord(int shards, int clients, Micros duration,
                     const FaultPlan& f, const RunResult& r) {
  std::printf(
      "{\"bench\":\"scaleout_faults\",\"shards\":%d,\"clients\":%d,"
      "\"drop_pct\":%.1f,\"crash\":%s,\"partition\":%s,\"converged\":%s,"
      "\"state_equal\":%s,\"tpmc\":%.1f,\"committed\":%llu,\"aborted\":%llu,"
      "\"client_retries\":%llu,\"rpc_retries\":%llu,\"resolver_retries\":%llu,"
      "\"elections\":%llu,\"msgs_dropped\":%llu,\"txn_p99_ms\":%.3f}\n",
      shards, clients, f.drop * 100.0, f.crash ? "true" : "false",
      f.partition ? "true" : "false", r.converged ? "true" : "false",
      r.state_equal ? "true" : "false", r.w.TpmC(),
      static_cast<unsigned long long>(r.w.committed()),
      static_cast<unsigned long long>(r.w.aborted()),
      static_cast<unsigned long long>(r.w.client_retries),
      static_cast<unsigned long long>(r.c.rpc_retries),
      static_cast<unsigned long long>(r.c.resolver_retries),
      static_cast<unsigned long long>([&] {
        unsigned long long e = 0;
        for (const auto& s : r.c.shards) e += s.elections_started;
        return e;
      }()),
      static_cast<unsigned long long>(r.c.messages_dropped),
      static_cast<double>(r.c.commit_latency.Quantile(0.99)) / 1000.0);
  (void)duration;
}

int RunAll(bool smoke) {
  bool ok = true;

  // ---- Scaling curve: tpmC and freshness vs shard count. Offered load
  // scales with the cluster (8 closed-loop terminals per shard), keeping
  // every config below leader-CPU saturation so the curve measures
  // capacity, not queueing collapse. ----
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 3} : std::vector<int>{1, 3, 5, 9};
  const Micros duration = smoke ? 500'000 : 2'000'000;
  std::printf("# scaleout: tpmC / freshness vs shards (virtual time)\n");
  for (int shards : shard_counts) {
    const int clients = 8 * shards;
    const RunResult r = RunConfig(shards, clients, duration, 11, FaultPlan{});
    EmitScalingRecord(shards, clients, duration, r);
    if (!r.converged || !r.state_equal || r.w.committed() == 0) {
      std::fprintf(stderr,
                   "FAIL scaleout shards=%d: converged=%d state_equal=%d "
                   "committed=%llu\n",
                   shards, r.converged, r.state_equal,
                   static_cast<unsigned long long>(r.w.committed()));
      ok = false;
    }
  }

  // ---- Fault curve: throughput under loss/crash/partition; no lost
  // committed work (converged + state_equal must hold after heal). ----
  const std::vector<FaultPlan> plans =
      smoke ? std::vector<FaultPlan>{{0.01, true, true}}
            : std::vector<FaultPlan>{{0.0, true, true},
                                     {0.005, true, true},
                                     {0.02, true, true}};
  const int fault_shards = 3;
  const int fault_clients = smoke ? 16 : 24;
  std::printf("# scaleout_faults: loss/crash/partition, then converge\n");
  for (const FaultPlan& f : plans) {
    const RunResult r = RunConfig(fault_shards, fault_clients, duration, 11, f);
    EmitFaultRecord(fault_shards, fault_clients, duration, f, r);
    if (!r.converged || !r.state_equal || r.w.committed() == 0) {
      std::fprintf(stderr,
                   "FAIL scaleout_faults drop=%.3f: converged=%d "
                   "state_equal=%d committed=%llu\n",
                   f.drop, r.converged, r.state_equal,
                   static_cast<unsigned long long>(r.w.committed()));
      ok = false;
    }
  }

  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: a run lost committed work or failed to converge\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace htap

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  return htap::bench::RunAll(smoke);
}

// Distributed HTAP database tests: single-shard commits, 2PC atomicity
// (including prepare conflicts and failure injection), learner replication
// and the log-delta merge path, analytical-scan freshness semantics.

#include <gtest/gtest.h>

#include "sim/dist_db.h"
#include "sim/workload.h"

namespace htap {
namespace sim {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64}});
}

WriteOp Put(Key k, int64_t v) {
  return WriteOp{1, ChangeOp::kInsert, k, Row{Value(k), Value(v)}};
}

class DistDbTest : public ::testing::Test {
 protected:
  void MakeDb(int shards, int replicas = 3, bool learners = true) {
    env_ = std::make_unique<SimEnv>(5);
    DistributedDb::Options opts;
    opts.num_shards = shards;
    opts.replicas_per_shard = replicas;
    opts.with_learners = learners;
    opts.learner_merge_interval = 0;  // merges driven explicitly in tests
    db_ = std::make_unique<DistributedDb>(env_.get(), opts);
    db_->RegisterTable(1, TestSchema());
    db_->Bootstrap();
  }

  bool Execute(std::vector<WriteOp> writes, Micros timeout = 10'000'000) {
    bool done = false, ok = false;
    db_->ExecuteTxn(std::move(writes), [&](bool committed) {
      done = true;
      ok = committed;
    });
    const Micros deadline = env_->Now() + timeout;
    while (!done && env_->Now() < deadline)
      env_->RunUntil(env_->Now() + 1000);
    return done && ok;
  }

  /// Keys guaranteed to land on distinct shards.
  std::vector<Key> KeysOnDistinctShards(int n) {
    std::vector<Key> keys;
    std::set<int> shards;
    for (Key k = 1; static_cast<int>(keys.size()) < n && k < 100000; ++k) {
      const int s = db_->ShardOf(k);
      if (shards.insert(s).second) keys.push_back(k);
    }
    return keys;
  }

  /// Heals every fault and pumps the sim until the cluster converges
  /// (every log applied everywhere, no outstanding 2PC decision).
  bool HealAndConverge(Micros budget = 60'000'000) {
    db_->SetMessageLoss(0);
    db_->HealNetwork();
    db_->RestartDeadNodes();
    const Micros deadline = env_->Now() + budget;
    while (!db_->Converged() && env_->Now() < deadline)
      env_->RunUntil(env_->Now() + 10'000);
    return db_->Converged();
  }

  std::unique_ptr<SimEnv> env_;
  std::unique_ptr<DistributedDb> db_;
};

TEST_F(DistDbTest, SingleShardCommitAndRead) {
  MakeDb(3);
  ASSERT_TRUE(Execute({Put(1, 100)}));
  EXPECT_EQ(db_->committed(), 1u);
  Row out;
  ASSERT_TRUE(db_->Read(1, 1, &out));
  EXPECT_EQ(out.Get(1).AsInt64(), 100);
}

TEST_F(DistDbTest, UpdateAndDelete) {
  MakeDb(2);
  ASSERT_TRUE(Execute({Put(1, 1)}));
  ASSERT_TRUE(Execute({WriteOp{1, ChangeOp::kUpdate, 1,
                               Row{Value(int64_t{1}), Value(int64_t{2})}}}));
  Row out;
  ASSERT_TRUE(db_->Read(1, 1, &out));
  EXPECT_EQ(out.Get(1).AsInt64(), 2);
  ASSERT_TRUE(Execute({WriteOp{1, ChangeOp::kDelete, 1, Row{}}}));
  EXPECT_FALSE(db_->Read(1, 1, &out));
}

TEST_F(DistDbTest, MultiShardTwoPhaseCommitIsAtomic) {
  MakeDb(4);
  const auto keys = KeysOnDistinctShards(3);
  ASSERT_EQ(keys.size(), 3u);
  std::vector<WriteOp> writes;
  for (Key k : keys) writes.push_back(Put(k, k * 10));
  ASSERT_TRUE(Execute(std::move(writes)));
  for (Key k : keys) {
    Row out;
    ASSERT_TRUE(db_->Read(1, k, &out)) << k;
    EXPECT_EQ(out.Get(1).AsInt64(), k * 10);
  }
}

TEST_F(DistDbTest, PreparedStateIsInvisibleUntilCommit) {
  // A lock held by an in-flight prepare makes a second 2PC touching the
  // same key abort (all-or-nothing), never partially apply.
  MakeDb(4);
  const auto keys = KeysOnDistinctShards(2);
  // Issue two overlapping multi-shard transactions back-to-back without
  // draining the simulator in between.
  bool done1 = false, ok1 = false, done2 = false, ok2 = false;
  db_->ExecuteTxn({Put(keys[0], 1), Put(keys[1], 1)}, [&](bool c) {
    done1 = true;
    ok1 = c;
  });
  db_->ExecuteTxn({Put(keys[0], 2), Put(keys[1], 2)}, [&](bool c) {
    done2 = true;
    ok2 = c;
  });
  const Micros deadline = env_->Now() + 30'000'000;
  while (!(done1 && done2) && env_->Now() < deadline)
    env_->RunUntil(env_->Now() + 1000);
  ASSERT_TRUE(done1 && done2);
  // At least one commits; if both, they serialized. Values must agree
  // across the two keys (atomicity: no interleaved halves).
  Row a, b;
  ASSERT_TRUE(db_->Read(1, keys[0], &a));
  ASSERT_TRUE(db_->Read(1, keys[1], &b));
  EXPECT_EQ(a.Get(1).AsInt64(), b.Get(1).AsInt64());
  EXPECT_TRUE(ok1 || ok2);
}

TEST_F(DistDbTest, LearnerReplicatesAndMerges) {
  MakeDb(2);
  for (Key k = 1; k <= 20; ++k) ASSERT_TRUE(Execute({Put(k, k)}));
  // Replication has happened (commits waited on quorum, learners lag only
  // by network); drain the wire then merge.
  env_->RunUntil(env_->Now() + 500000);
  EXPECT_GT(db_->LearnerReplicatedCsn(1), 0u);
  db_->SyncLearners();
  EXPECT_EQ(TotalActiveRows(db_->AnalyticalScanBatches(
                1, Predicate::True(), {}, /*batch_rows=*/0,
                /*include_delta=*/false)),
            20u);
  EXPECT_EQ(db_->LearnerMergedCsn(1), db_->LearnerReplicatedCsn(1));
}

TEST_F(DistDbTest, DeltaUnionSeesUnmergedChanges) {
  MakeDb(2);
  ASSERT_TRUE(Execute({Put(1, 1)}));
  env_->RunUntil(env_->Now() + 500000);
  // Without a merge, the pure column scan is blind; the log-delta union
  // sees the row — exactly the freshness trade-off of Table 2's AP row.
  EXPECT_EQ(TotalActiveRows(
                db_->AnalyticalScanBatches(1, Predicate::True(), {}, 0, false)),
            0u);
  EXPECT_EQ(TotalActiveRows(
                db_->AnalyticalScanBatches(1, Predicate::True(), {}, 0, true)),
            1u);
}

TEST_F(DistDbTest, FreshnessLagShrinksAfterMerge) {
  MakeDb(2);
  ASSERT_TRUE(Execute({Put(1, 1)}));
  ASSERT_TRUE(Execute({Put(2, 2)}));
  env_->RunUntil(env_->Now() + 500000);
  const CSN before = db_->LearnerMergedCsn(1);
  db_->SyncLearners();
  EXPECT_GT(db_->LearnerMergedCsn(1), before);
}

TEST_F(DistDbTest, SurvivesShardLeaderCrash) {
  MakeDb(2);
  ASSERT_TRUE(Execute({Put(1, 1)}));
  RaftNode* leader = db_->shard_group(db_->ShardOf(2))->leader();
  ASSERT_NE(leader, nullptr);
  leader->Crash();
  env_->RunUntil(env_->Now() + 1'000'000);  // failover
  EXPECT_TRUE(Execute({Put(2, 2)}, 30'000'000));
  Row out;
  EXPECT_TRUE(db_->Read(1, 2, &out));
}

TEST_F(DistDbTest, ScanStatsAggregateAcrossShards) {
  MakeDb(3);
  for (Key k = 1; k <= 30; ++k) ASSERT_TRUE(Execute({Put(k, k)}));
  env_->RunUntil(env_->Now() + 500000);
  db_->SyncLearners();
  ScanStats stats;
  db_->AnalyticalScanBatches(1, Predicate::True(), {}, 0, true, &stats);
  EXPECT_EQ(stats.main_rows_emitted, 30u);
  EXPECT_GE(stats.groups_total, 3u);  // at least one group per shard
}

TEST_F(DistDbTest, ThroughputScalesWithShardsInVirtualTime) {
  // The Table 1 TP-scalability claim in miniature: more shards means more
  // simulated CPUs appending Raft entries, so the same offered load
  // finishes in less virtual time.
  auto run = [&](int shards) {
    MakeDb(shards);
    const Micros start = env_->Now();
    constexpr int kTxns = 600;
    int done = 0;
    for (int i = 0; i < kTxns; ++i)
      db_->ExecuteTxn({Put(i + 1, i)}, [&](bool ok) { done += ok ? 1 : 0; });
    while (done < kTxns) env_->RunUntil(env_->Now() + 1000);
    return env_->Now() - start;
  };
  const Micros t1 = run(1);
  const Micros t4 = run(4);
  EXPECT_LT(t4, t1);
}

TEST_F(DistDbTest, LeaderCrashMidTwoPhaseCommitStaysAtomic) {
  // Crash a participant's leader while the prepare is on the wire: the
  // gateway retries against the new leader, the resolver drives phase 2,
  // and the outcome is atomic either way — never half a transaction.
  MakeDb(3);
  const auto keys = KeysOnDistinctShards(2);
  ASSERT_EQ(keys.size(), 2u);
  bool done = false, committed = false;
  db_->ExecuteTxn({Put(keys[0], 7), Put(keys[1], 7)}, [&](bool c) {
    done = true;
    committed = c;
  });
  ASSERT_NE(db_->CrashShardLeader(db_->ShardOf(keys[1])), -1);
  const Micros deadline = env_->Now() + 30'000'000;
  while (!done && env_->Now() < deadline) env_->RunUntil(env_->Now() + 1000);
  ASSERT_TRUE(done);
  ASSERT_TRUE(HealAndConverge());
  Row a, b;
  const bool has_a = db_->Read(1, keys[0], &a);
  const bool has_b = db_->Read(1, keys[1], &b);
  EXPECT_EQ(has_a, committed);
  EXPECT_EQ(has_b, committed);
  // Committed state also survived to the learners.
  EXPECT_EQ(db_->LearnerRows(1), db_->LeaderRows(1));
}

TEST_F(DistDbTest, PartitionDuringPrepareEventuallyResolves) {
  // Isolate a participant's leader mid-2PC: the prepare times out and
  // retries; after the heal the decision is applied on every shard and no
  // lock is left behind.
  MakeDb(3);
  const auto keys = KeysOnDistinctShards(2);
  bool done = false, committed = false;
  db_->ExecuteTxn({Put(keys[0], 9), Put(keys[1], 9)}, [&](bool c) {
    done = true;
    committed = c;
  });
  const int victim = db_->ShardOf(keys[1]);
  RaftNode* leader = db_->shard_group(victim)->leader();
  ASSERT_NE(leader, nullptr);
  db_->IsolateNode(victim, leader->id());
  env_->RunUntil(env_->Now() + 500'000);  // let timeouts/elections play out
  ASSERT_TRUE(HealAndConverge());
  const Micros deadline = env_->Now() + 30'000'000;
  while (!done && env_->Now() < deadline) env_->RunUntil(env_->Now() + 1000);
  ASSERT_TRUE(done);
  EXPECT_EQ(db_->unresolved_txns(), 0u);
  Row a, b;
  EXPECT_EQ(db_->Read(1, keys[0], &a), committed);
  EXPECT_EQ(db_->Read(1, keys[1], &b), committed);
}

TEST_F(DistDbTest, MessageLossLosesNoCommittedUpdates) {
  // Under 5% message loss, every transaction the gateway reported as
  // committed must be present on the leaders AND on the learners after the
  // network heals — retries may duplicate log entries, but idempotent
  // commands apply once and nothing committed is lost.
  MakeDb(2);
  db_->SetMessageLoss(0.05);
  std::set<Key> committed_keys;
  int done = 0;
  constexpr int kTxns = 40;
  for (int i = 0; i < kTxns; ++i) {
    const Key k = 1000 + i;
    db_->ExecuteTxn({Put(k, i)}, [&, k](bool c) {
      ++done;
      if (c) committed_keys.insert(k);
    });
  }
  const Micros deadline = env_->Now() + 60'000'000;
  while (done < kTxns && env_->Now() < deadline)
    env_->RunUntil(env_->Now() + 1000);
  ASSERT_EQ(done, kTxns);
  ASSERT_TRUE(HealAndConverge());
  db_->SyncLearners();
  const auto leader_rows = db_->LeaderRows(1);
  EXPECT_EQ(db_->LearnerRows(1), leader_rows);
  std::set<Key> leader_keys;
  for (const auto& [k, row] : leader_rows) leader_keys.insert(k);
  for (Key k : committed_keys)
    EXPECT_TRUE(leader_keys.count(k)) << "lost committed key " << k;
}

TEST_F(DistDbTest, ClusterStatsCountersAreCoherent) {
  MakeDb(3);
  const auto keys = KeysOnDistinctShards(2);
  ASSERT_TRUE(Execute({Put(500, 1)}));
  ASSERT_TRUE(Execute({Put(keys[0], 2), Put(keys[1], 2)}));
  const ClusterStats s = db_->GetClusterStats();
  EXPECT_EQ(s.committed, db_->committed());
  EXPECT_EQ(s.single_shard_txns, 1u);
  EXPECT_EQ(s.multi_shard_txns, 1u);
  EXPECT_EQ(s.commit_latency.total, s.committed);
  EXPECT_GT(s.commit_latency.Quantile(0.99), 0u);
  EXPECT_EQ(s.shards.size(), 3u);
  uint64_t single = 0, tpc = 0;
  for (const auto& sh : s.shards) {
    EXPECT_NE(sh.leader, -1);
    single += sh.single_shard_commits;
    tpc += sh.tpc_commits;
  }
  EXPECT_EQ(single, 1u);
  EXPECT_EQ(tpc, 2u);  // one 2PC commit applied on two shards
  ASSERT_EQ(s.tables.size(), 1u);
  EXPECT_GT(s.tables[0].leader_csn, 0u);
}

TEST_F(DistDbTest, WorkloadIsDeterministicAcrossRuns) {
  // Identical seeds produce byte-identical workload outcomes — the property
  // the bench_scaleout determinism gate (ci.sh) relies on.
  auto run = [](uint64_t seed) {
    SimEnv env(seed);
    DistributedDb::Options opts;
    opts.num_shards = 3;
    DistributedDb db(&env, opts);
    WorkloadOptions wopts;
    wopts.clients = 8;
    wopts.seed = 99;
    TpccWorkload w(&db, wopts);
    w.RegisterTables();
    db.Bootstrap();
    w.Load();
    w.Run(300'000);
    return w.stats();
  };
  const WorkloadStats a = run(7), b = run(7);
  EXPECT_EQ(a.committed(), b.committed());
  EXPECT_EQ(a.aborted(), b.aborted());
  EXPECT_EQ(a.cross_shard_issued, b.cross_shard_issued);
  EXPECT_EQ(a.duration_micros, b.duration_micros);
  EXPECT_GT(a.committed(), 0u);
  EXPECT_GT(a.new_orders_committed, 0u);
  EXPECT_GT(a.payments_committed, 0u);
  EXPECT_GT(a.cross_shard_issued, 0u);
  EXPECT_GT(a.TpmC(), 0.0);
}

}  // namespace
}  // namespace sim
}  // namespace htap

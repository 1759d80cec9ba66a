#include "sim/dist_db.h"

#include <algorithm>
#include <bit>

#include "sync/sync.h"

namespace htap {
namespace sim {

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

void LatencyHistogram::Record(Micros v) {
  if (v < 0) v = 0;
  const int bucket = std::min<int>(
      kBuckets - 1, std::bit_width(static_cast<uint64_t>(v)));
  ++counts[static_cast<size_t>(bucket)];
  ++total;
  sum += v;
  max = std::max(max, v);
}

Micros LatencyHistogram::Quantile(double q) const {
  if (total == 0) return 0;
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(total) + 0.5));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[static_cast<size_t>(i)];
    if (seen >= target) {
      // Bucket i holds values whose bit_width is i: [2^(i-1), 2^i - 1].
      const Micros upper =
          i == 0 ? 0 : static_cast<Micros>((uint64_t{1} << i) - 1);
      return std::min(upper, max);
    }
  }
  return max;
}

// ---------------------------------------------------------------------------
// ShardStateMachine
// ---------------------------------------------------------------------------

void ShardStateMachine::EncodeWrites(const std::vector<WriteOp>& writes,
                                     std::string* out) {
  Value(static_cast<int64_t>(writes.size())).EncodeTo(out);
  for (const WriteOp& w : writes) {
    out->push_back(static_cast<char>(w.op));
    Value(static_cast<int64_t>(w.table_id)).EncodeTo(out);
    Value(w.key).EncodeTo(out);
    w.row.EncodeTo(out);
  }
}

bool ShardStateMachine::DecodeWrites(const std::string& in, size_t* pos,
                                     std::vector<WriteOp>* out) {
  Value n;
  if (!Value::DecodeFrom(in, pos, &n) || !n.is_int64()) return false;
  for (int64_t i = 0; i < n.AsInt64(); ++i) {
    WriteOp w;
    if (*pos >= in.size()) return false;
    w.op = static_cast<ChangeOp>(in[(*pos)++]);
    Value v;
    if (!Value::DecodeFrom(in, pos, &v) || !v.is_int64()) return false;
    w.table_id = static_cast<uint32_t>(v.AsInt64());
    if (!Value::DecodeFrom(in, pos, &v) || !v.is_int64()) return false;
    w.key = v.AsInt64();
    if (!Row::DecodeFrom(in, pos, &w.row)) return false;
    out->push_back(std::move(w));
  }
  return true;
}

std::string ShardStateMachine::EncodeApplyWrites(
    uint64_t txn_id, CSN csn, const std::vector<WriteOp>& writes) {
  std::string out;
  out.push_back(static_cast<char>(ShardCmdType::kApplyWrites));
  Value(static_cast<int64_t>(txn_id)).EncodeTo(&out);
  Value(static_cast<int64_t>(csn)).EncodeTo(&out);
  EncodeWrites(writes, &out);
  return out;
}

std::string ShardStateMachine::EncodePrepare(
    uint64_t txn_id, const std::vector<WriteOp>& writes) {
  std::string out;
  out.push_back(static_cast<char>(ShardCmdType::kPrepare));
  Value(static_cast<int64_t>(txn_id)).EncodeTo(&out);
  Value(static_cast<int64_t>(0)).EncodeTo(&out);
  EncodeWrites(writes, &out);
  return out;
}

std::string ShardStateMachine::EncodeCommitTxn(uint64_t txn_id, CSN csn) {
  std::string out;
  out.push_back(static_cast<char>(ShardCmdType::kCommitTxn));
  Value(static_cast<int64_t>(txn_id)).EncodeTo(&out);
  Value(static_cast<int64_t>(csn)).EncodeTo(&out);
  EncodeWrites({}, &out);
  return out;
}

std::string ShardStateMachine::EncodeAbortTxn(uint64_t txn_id) {
  std::string out;
  out.push_back(static_cast<char>(ShardCmdType::kAbortTxn));
  Value(static_cast<int64_t>(txn_id)).EncodeTo(&out);
  Value(static_cast<int64_t>(0)).EncodeTo(&out);
  EncodeWrites({}, &out);
  return out;
}

bool ShardStateMachine::Apply(const std::string& payload) {
  size_t pos = 0;
  if (payload.empty()) return false;
  const auto type = static_cast<ShardCmdType>(payload[pos++]);
  Value v;
  if (!Value::DecodeFrom(payload, &pos, &v) || !v.is_int64()) return false;
  const uint64_t txn_id = static_cast<uint64_t>(v.AsInt64());
  if (!Value::DecodeFrom(payload, &pos, &v) || !v.is_int64()) return false;
  const CSN csn = static_cast<CSN>(v.AsInt64());
  std::vector<WriteOp> writes;
  if (!DecodeWrites(payload, &pos, &writes)) return false;

  switch (type) {
    case ShardCmdType::kApplyWrites:
      if (finished_.count(txn_id) != 0) return true;  // duplicate: no-op
      finished_.insert(txn_id);
      ApplyWrites(csn, writes);
      return true;

    case ShardCmdType::kPrepare: {
      // A duplicate prepare sequenced after the txn's decision must not
      // re-acquire locks that the decision already released.
      if (finished_.count(txn_id) != 0) return true;
      // All-or-nothing lock acquisition; deterministic on every replica.
      for (const WriteOp& w : writes) {
        const auto it = locks_.find(w.key);
        if (it != locks_.end() && it->second != txn_id) return false;
      }
      for (const WriteOp& w : writes) locks_[w.key] = txn_id;
      prepared_[txn_id] = std::move(writes);
      return true;
    }

    case ShardCmdType::kCommitTxn: {
      if (finished_.count(txn_id) != 0) return true;  // duplicate: no-op
      const auto it = prepared_.find(txn_id);
      if (it == prepared_.end()) return false;
      finished_.insert(txn_id);
      ApplyWrites(csn, it->second);
      for (const WriteOp& w : it->second) locks_.erase(w.key);
      prepared_.erase(it);
      return true;
    }

    case ShardCmdType::kAbortTxn: {
      if (finished_.count(txn_id) != 0) return true;
      finished_.insert(txn_id);
      const auto it = prepared_.find(txn_id);
      if (it == prepared_.end()) return true;  // prepare never landed here
      for (const WriteOp& w : it->second) locks_.erase(w.key);
      prepared_.erase(it);
      return true;
    }
  }
  return false;
}

void ShardStateMachine::ApplyWrites(CSN csn,
                                    const std::vector<WriteOp>& writes) {
  std::vector<ChangeEvent> events;
  events.reserve(writes.size());
  for (const WriteOp& w : writes) {
    switch (w.op) {
      case ChangeOp::kInsert:
      case ChangeOp::kUpdate:
        data_[{w.table_id, w.key}] = w.row;
        break;
      case ChangeOp::kDelete:
        data_.erase({w.table_id, w.key});
        break;
    }
    events.push_back(ChangeEvent{w.table_id, w.op, w.key, w.row, csn});
  }
  last_csn_ = std::max(last_csn_, csn);
  if (change_sink_ && !events.empty()) change_sink_(events);
}

bool ShardStateMachine::Get(uint32_t table_id, Key key, Row* out) const {
  const auto it = data_.find({table_id, key});
  if (it == data_.end()) return false;
  *out = it->second;
  return true;
}

size_t ShardStateMachine::row_count() const { return data_.size(); }

std::vector<std::pair<Key, Row>> ShardStateMachine::Rows(
    uint32_t table_id) const {
  std::vector<std::pair<Key, Row>> out;
  for (auto it = data_.lower_bound({table_id, std::numeric_limits<Key>::min()});
       it != data_.end() && it->first.first == table_id; ++it)
    out.emplace_back(it->first.second, it->second);
  return out;
}

// ---------------------------------------------------------------------------
// DistributedDb
// ---------------------------------------------------------------------------

DistributedDb::DistributedDb(SimEnv* env, Options options)
    : env_(env), options_(options), net_(env, options.net) {
  gateway_id_ = 100000;
  tso_id_ = 100001;
  gateway_ = std::make_unique<SimNode>(env_, gateway_id_);
  tso_ = std::make_unique<SimNode>(env_, tso_id_);

  shards_.resize(static_cast<size_t>(options_.num_shards));
  shard_counters_.resize(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    ShardRuntime& rt = shards_[static_cast<size_t>(s)];
    std::vector<NodeId> voters;
    for (int r = 0; r < options_.replicas_per_shard; ++r)
      voters.push_back(s * 100 + r);
    std::vector<NodeId> learners;
    if (options_.with_learners) {
      rt.learner_id = s * 100 + options_.replicas_per_shard;
      learners.push_back(rt.learner_id);
    }

    for (NodeId id : voters)
      rt.machines[id] = std::make_unique<ShardStateMachine>();
    if (options_.with_learners) {
      ShardRuntime* rtp = &rt;
      rt.machines[rt.learner_id] = std::make_unique<ShardStateMachine>(
          [rtp](const std::vector<ChangeEvent>& events) {
            std::vector<ChangeEvent> batch = events;
            ForEachTableRun(batch, [rtp](uint32_t tid,
                                         std::span<ChangeEvent> run) {
              const auto it = rtp->learner.deltas.find(tid);
              if (it != rtp->learner.deltas.end()) it->second->AppendBatch(run);
            });
          });
    }

    ShardRuntime* rtp = &rt;
    groups_.push_back(std::make_unique<RaftGroup>(
        env_, &net_, voters, learners, options_.raft,
        [rtp](NodeId id) -> RaftApplyFn {
          ShardStateMachine* sm = rtp->machines.at(id).get();
          return [sm](uint64_t, const std::string& payload) {
            sm->Apply(payload);
          };
        }));
  }
}

void DistributedDb::RegisterTable(uint32_t table_id, Schema schema) {
  schemas_.emplace(table_id, schema);
  for (auto& rt : shards_) {
    if (rt.learner_id < 0) continue;
    rt.learner.deltas[table_id] = std::make_unique<LogDeltaStore>();
    rt.learner.tables[table_id] = std::make_unique<ColumnTable>(schema);
  }
}

void DistributedDb::Bootstrap() {
  for (auto& g : groups_) g->WaitForLeader();
  if (options_.with_learners && options_.learner_merge_interval > 0)
    ScheduleLearnerMerge();
}

void DistributedDb::ScheduleLearnerMerge() {
  // Periodic learner merge, like TiFlash's background delta merge. The
  // event re-arms itself; simulations must use RunUntil (never Run).
  env_->Schedule(options_.learner_merge_interval, [this] {
    SyncLearners();
    ScheduleLearnerMerge();
  });
}

// ---- Gateway RPC layer (timeout / retry / backoff) ------------------------

void DistributedDb::CallShard(int shard, std::string cmd, bool want_vote,
                              uint64_t txn_id,
                              std::function<void(bool, bool)> done) {
  auto call = std::make_shared<RpcCall>();
  call->shard = shard;
  call->cmd = std::move(cmd);
  call->want_vote = want_vote;
  call->txn_id = txn_id;
  call->attempts_left = options_.rpc.max_attempts;
  call->backoff = options_.rpc.backoff_micros;
  call->done = std::move(done);
  StartRpcAttempt(std::move(call));
}

void DistributedDb::SettleRpc(std::shared_ptr<RpcCall> call, bool ok,
                              bool vote) {
  if (call->settled) return;
  call->settled = true;
  if (call->done) call->done(ok, vote);
}

void DistributedDb::RetryRpc(std::shared_ptr<RpcCall> call) {
  if (call->settled) return;
  if (--call->attempts_left <= 0) {
    SettleRpc(std::move(call), false, false);
    return;
  }
  ++rpc_retries_;
  // Invalidate the outstanding timeout so it cannot double-retry while
  // this retry waits out its backoff.
  ++call->attempt_serial;
  const Micros delay = call->backoff;
  call->backoff = std::min<Micros>(
      static_cast<Micros>(static_cast<double>(call->backoff) *
                          options_.rpc.backoff_multiplier),
      options_.rpc.max_backoff_micros);
  env_->Schedule(delay, [this, call = std::move(call)] {
    StartRpcAttempt(call);
  });
}

void DistributedDb::StartRpcAttempt(std::shared_ptr<RpcCall> call) {
  if (call->settled) return;
  ++rpc_attempts_;
  RaftNode* leader = groups_[static_cast<size_t>(call->shard)]->leader();
  if (leader == nullptr) {
    // Election window: back off and re-resolve.
    ++rpc_no_leader_;
    RetryRpc(std::move(call));
    return;
  }
  const int my = ++call->attempt_serial;
  const NodeId leader_id = leader->id();
  const int shard = call->shard;

  // Per-attempt timeout at the gateway; stale timeouts (a newer attempt
  // superseded this one) are ignored.
  env_->Schedule(options_.rpc.timeout_micros, [this, call, my] {
    if (!call->settled && call->attempt_serial == my) {
      ++rpc_timeouts_;
      RetryRpc(call);
    }
  });

  net_.Send(gateway_id_, leader_id, [this, call, my, leader, leader_id,
                                     shard] {
    leader->Execute(options_.raft.rpc_cpu_cost, [this, call, my, leader,
                                                 leader_id, shard] {
      // Replies travel the network back to the gateway. A success settles
      // the call even if it raced a newer attempt (the command is
      // idempotent); a failure only retries if it is the current attempt.
      auto reply = [this, call, my, leader_id](bool ok, bool vote) {
        net_.Send(leader_id, gateway_id_, [this, call, my, ok, vote] {
          if (call->settled) return;
          if (ok) {
            SettleRpc(call, true, vote);
          } else if (call->attempt_serial == my) {
            RetryRpc(call);
          }
        });
      };
      const bool accepted = leader->Propose(
          call->cmd,
          [this, call, leader_id, shard, reply](bool committed, uint64_t) {
            bool vote = true;
            if (committed && call->want_vote) {
              // Deterministic 2PC vote: read it off the serving node's
              // machine (the entry has been applied there).
              const auto& machines =
                  shards_[static_cast<size_t>(shard)].machines;
              const auto it = machines.find(leader_id);
              vote = it != machines.end() &&
                     it->second->PrepareSucceeded(call->txn_id);
            }
            reply(committed, vote);
          });
      if (!accepted) reply(false, false);  // lost leadership in flight
    });
  });
}

void DistributedDb::FetchCsn(std::function<void(bool, CSN)> done) {
  auto call = std::make_shared<TsoCall>();
  call->attempts_left = options_.rpc.max_attempts;
  call->done = std::move(done);
  StartTsoAttempt(std::move(call));
}

void DistributedDb::StartTsoAttempt(std::shared_ptr<TsoCall> call) {
  if (call->settled) return;
  if (--call->attempts_left < 0) {
    call->settled = true;
    call->done(false, 0);
    return;
  }
  const int my = ++call->serial;
  env_->Schedule(options_.rpc.timeout_micros, [this, call, my] {
    if (!call->settled && call->serial == my) {
      ++rpc_timeouts_;
      StartTsoAttempt(call);
    }
  });
  net_.Send(gateway_id_, tso_id_, [this, call] {
    tso_->Execute(options_.tso_cpu_cost, [this, call] {
      const CSN csn = next_csn_++;
      net_.Send(tso_id_, gateway_id_, [call, csn] {
        if (call->settled) return;
        call->settled = true;
        call->done(true, csn);
      });
    });
  });
}

// ---- Transactions ---------------------------------------------------------

void DistributedDb::FinishTxn(bool committed, CSN csn, Micros start,
                              std::function<void(bool)> done) {
  if (committed) {
    ++committed_;
    commit_times_[csn] = env_->Now();
    commit_latency_.Record(env_->Now() - start);
  } else {
    ++aborted_;
  }
  if (done) done(committed);
}

void DistributedDb::ExecuteTxn(std::vector<WriteOp> writes,
                               std::function<void(bool)> done) {
  const Micros start = env_->Now();
  gateway_->Execute(options_.gateway_cpu_cost, [this, start,
                                                writes = std::move(writes),
                                                done = std::move(done)]() mutable {
    std::map<int, std::vector<WriteOp>> by_shard;
    for (WriteOp& w : writes) by_shard[ShardOf(w.key)].push_back(std::move(w));
    if (by_shard.empty()) {
      done(true);
      return;
    }
    const uint64_t txn_id = next_txn_id_++;

    // Fetch a commit timestamp from the TSO (one retried round trip).
    FetchCsn([this, start, txn_id, by_shard = std::move(by_shard),
              done = std::move(done)](bool ok, CSN csn) mutable {
      if (!ok) {
        ++aborted_;
        done(false);
        return;
      }
      if (by_shard.size() == 1) {
        // Single-shard fast path: one Raft proposal.
        ++single_shard_txns_;
        const int shard = by_shard.begin()->first;
        CallShard(shard,
                  ShardStateMachine::EncodeApplyWrites(
                      txn_id, csn, by_shard.begin()->second),
                  /*want_vote=*/false, txn_id,
                  [this, shard, csn, start, done = std::move(done)](
                      bool committed, bool) {
                    if (committed)
                      ++shard_counters_[static_cast<size_t>(shard)]
                            .single_shard_commits;
                    FinishTxn(committed, csn, start, done);
                  });
      } else {
        ++multi_shard_txns_;
        RunTwoPhaseCommit(txn_id, csn, std::move(by_shard), start,
                          std::move(done));
      }
    });
  });
}

void DistributedDb::RunTwoPhaseCommit(
    uint64_t txn_id, CSN csn, std::map<int, std::vector<WriteOp>> by_shard,
    Micros start, std::function<void(bool)> done) {
  struct Phase1 {
    size_t waiting = 0;
    bool all_yes = true;
    std::vector<int> shards;
  };
  auto st = std::make_shared<Phase1>();
  for (const auto& [shard, writes] : by_shard) st->shards.push_back(shard);
  st->waiting = st->shards.size();

  // Phase 1: PREPARE on every shard through its Raft log. Each prepare RPC
  // retries through leader changes; its settled vote is final.
  for (const auto& [shard, writes] : by_shard) {
    const int s = shard;
    CallShard(
        s, ShardStateMachine::EncodePrepare(txn_id, writes),
        /*want_vote=*/true, txn_id,
        [this, st, s, txn_id, csn, start, done](bool ok, bool vote) {
          const bool yes = ok && vote;
          auto& counters = shard_counters_[static_cast<size_t>(s)];
          if (yes)
            ++counters.prepares_ok;
          else
            ++counters.prepares_failed;
          if (!yes) st->all_yes = false;
          if (--st->waiting != 0) return;

          // Decision point (presumed commit): all prepares are in the
          // Raft logs, so the outcome is now durable. Commit accounting
          // happens here; the client callback fires once every shard has
          // applied the decision (locks released everywhere).
          const bool commit = st->all_yes;
          if (commit) {
            ++committed_;
            commit_times_[csn] = env_->Now();
          } else {
            ++aborted_;
          }
          PendingDecision d;
          d.commit = commit;
          d.csn = csn;
          d.start = start;
          d.done = done;
          for (int sh : st->shards) {
            d.shards.insert(sh);
            auto& c = shard_counters_[static_cast<size_t>(sh)];
            if (commit)
              ++c.tpc_commits;
            else
              ++c.tpc_aborts;
          }
          pending_decisions_[txn_id] = std::move(d);
          for (int sh : st->shards) DriveDecision(txn_id, sh);
        });
  }
}

void DistributedDb::DriveDecision(uint64_t txn_id, int shard) {
  const auto it = pending_decisions_.find(txn_id);
  if (it == pending_decisions_.end() || it->second.shards.count(shard) == 0)
    return;
  const bool commit = it->second.commit;
  const std::string cmd =
      commit ? ShardStateMachine::EncodeCommitTxn(txn_id, it->second.csn)
             : ShardStateMachine::EncodeAbortTxn(txn_id);
  CallShard(shard, cmd, /*want_vote=*/false, txn_id,
            [this, txn_id, shard](bool ok, bool) {
              const auto it = pending_decisions_.find(txn_id);
              if (it == pending_decisions_.end()) return;
              if (ok) {
                it->second.shards.erase(shard);
                if (!it->second.shards.empty()) return;
                PendingDecision d = std::move(it->second);
                pending_decisions_.erase(it);
                if (d.commit)
                  commit_latency_.Record(env_->Now() - d.start);
                if (d.done) d.done(d.commit);
                return;
              }
              // RPC budget exhausted (shard partitioned / leaderless for
              // long): the resolver re-drives the decision until applied.
              ++resolver_retries_;
              env_->Schedule(options_.resolver_retry_interval,
                             [this, txn_id, shard] {
                               DriveDecision(txn_id, shard);
                             });
            });
}

// ---- Reads & scans --------------------------------------------------------

bool DistributedDb::Read(uint32_t table_id, Key key, Row* out) {
  const int shard = ShardOf(key);
  RaftNode* leader = groups_[static_cast<size_t>(shard)]->leader();
  if (leader == nullptr) return false;
  const auto& machines = shards_[static_cast<size_t>(shard)].machines;
  const auto it = machines.find(leader->id());
  if (it == machines.end()) return false;
  return it->second->Get(table_id, key, out);
}

std::vector<ColumnBatch> DistributedDb::AnalyticalScanBatches(
    uint32_t table_id, const Predicate& pred,
    const std::vector<int>& projection, size_t batch_rows, bool include_delta,
    ScanStats* stats) {
  ExecContext exec;  // learner scans are serial; only the batch size matters
  exec.batch_rows = batch_rows;
  std::vector<ColumnBatch> out;
  for (auto& rt : shards_) {
    if (rt.learner_id < 0) continue;
    const auto tit = rt.learner.tables.find(table_id);
    if (tit == rt.learner.tables.end()) continue;
    const DeltaReader* delta = nullptr;
    if (include_delta) {
      const auto dit = rt.learner.deltas.find(table_id);
      if (dit != rt.learner.deltas.end()) delta = dit->second.get();
    }
    ScanStats local;
    auto part = ScanHtapBatches(*tit->second, delta, kMaxCSN, pred, projection,
                                exec, &local);
    if (stats != nullptr) {
      stats->groups_total += local.groups_total;
      stats->groups_skipped += local.groups_skipped;
      stats->main_rows_emitted += local.main_rows_emitted;
      stats->delta_rows_emitted += local.delta_rows_emitted;
      stats->delta_entries_read += local.delta_entries_read;
    }
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

void DistributedDb::SyncLearners() {
  for (auto& rt : shards_) {
    if (rt.learner_id < 0) continue;
    for (auto& [tid, delta] : rt.learner.deltas) {
      ColumnTable* table = rt.learner.tables[tid].get();
      // Drain and apply as one step under the write latch, as the local
      // engine's merges do.
      WriteGuard g(table->latch());
      auto entries = delta->DrainUpTo(kMaxCSN);
      if (entries.empty()) continue;
      CSN up_to = table->merged_csn();
      for (const auto& e : entries) up_to = std::max(up_to, e.csn);
      ApplyEntriesToColumnTableLocked(table, std::move(entries), up_to);
    }
  }
}

// ---- Fault injection ------------------------------------------------------

NodeId DistributedDb::CrashShardLeader(int shard) {
  RaftNode* leader = groups_[static_cast<size_t>(shard)]->leader();
  if (leader == nullptr) return -1;
  ++crashes_injected_;
  leader->Crash();
  return leader->id();
}

void DistributedDb::RestartDeadNodes() {
  for (auto& g : groups_) {
    for (NodeId id : g->voter_ids()) {
      RaftNode* n = g->node(id);
      if (!n->alive()) n->Restart();
    }
    for (NodeId id : g->learner_ids()) {
      RaftNode* n = g->node(id);
      if (!n->alive()) n->Restart();
    }
  }
}

void DistributedDb::IsolateNode(int shard, NodeId node) {
  ++partitions_injected_;
  RaftGroup* g = groups_[static_cast<size_t>(shard)].get();
  for (NodeId id : g->voter_ids())
    if (id != node) net_.Partition(node, id);
  for (NodeId id : g->learner_ids())
    if (id != node) net_.Partition(node, id);
  net_.Partition(node, gateway_id_);
}

// ---- Observability --------------------------------------------------------

CSN DistributedDb::LearnerMergedCsn(uint32_t table_id) const {
  CSN csn = 0;
  for (const auto& rt : shards_) {
    const auto it = rt.learner.tables.find(table_id);
    if (it != rt.learner.tables.end())
      csn = std::max(csn, it->second->merged_csn());
  }
  return csn;
}

CSN DistributedDb::LearnerReplicatedCsn(uint32_t) const {
  CSN csn = 0;
  for (const auto& rt : shards_) {
    if (rt.learner_id < 0) continue;
    const auto it = rt.machines.find(rt.learner_id);
    if (it != rt.machines.end())
      csn = std::max(csn, it->second->last_applied_csn());
  }
  return csn;
}

size_t DistributedDb::LearnerPendingEntries(uint32_t table_id) const {
  size_t n = 0;
  for (const auto& rt : shards_) {
    const auto it = rt.learner.deltas.find(table_id);
    if (it != rt.learner.deltas.end()) n += it->second->EntryCount();
  }
  return n;
}

Micros DistributedDb::CommitTimeOf(CSN csn) const {
  const auto it = commit_times_.lower_bound(csn);
  return it == commit_times_.end() ? 0 : it->second;
}

Micros DistributedDb::FreshnessLagMicros(CSN frontier) const {
  if (commit_times_.empty()) return 0;
  if (frontier >= commit_times_.rbegin()->first) return 0;
  // Age of the oldest committed change the frontier has not yet covered.
  const auto it = commit_times_.upper_bound(frontier);
  if (it == commit_times_.end()) return 0;
  return env_->Now() - it->second;
}

bool DistributedDb::LearnersCaughtUp() const {
  if (!pending_decisions_.empty()) return false;
  for (const auto& g : groups_) {
    RaftNode* leader = g->leader();
    if (leader == nullptr) return false;
    const uint64_t commit = leader->commit_index();
    for (NodeId id : g->learner_ids()) {
      RaftNode* n = g->node(id);
      if (!n->alive() || n->commit_index() != commit ||
          n->last_applied() != commit)
        return false;
    }
  }
  return true;
}

bool DistributedDb::Converged() const {
  // The learner anchors freshness: it must be live and fully applied.
  if (!LearnersCaughtUp()) return false;
  for (const auto& g : groups_) {
    RaftNode* leader = g->leader();
    const uint64_t commit = leader->commit_index();
    if (leader->last_applied() != commit) return false;
    for (NodeId id : g->voter_ids()) {
      RaftNode* n = g->node(id);
      if (!n->alive()) continue;  // a crashed voter catches up on Restart
      if (n->commit_index() != commit || n->last_applied() != commit)
        return false;
    }
  }
  return true;
}

std::vector<std::pair<Key, Row>> DistributedDb::LeaderRows(
    uint32_t table_id) const {
  std::vector<std::pair<Key, Row>> out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    RaftNode* leader = groups_[s]->leader();
    if (leader == nullptr) continue;
    const auto it = shards_[s].machines.find(leader->id());
    if (it == shards_[s].machines.end()) continue;
    auto part = it->second->Rows(table_id);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::pair<Key, Row>> DistributedDb::LearnerRows(
    uint32_t table_id) const {
  std::vector<std::pair<Key, Row>> out;
  for (const auto& rt : shards_) {
    if (rt.learner_id < 0) continue;
    const auto it = rt.machines.find(rt.learner_id);
    if (it == rt.machines.end()) continue;
    auto part = it->second->Rows(table_id);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

ClusterStats DistributedDb::GetClusterStats() const {
  ClusterStats stats;
  stats.committed = committed_;
  stats.aborted = aborted_;
  stats.single_shard_txns = single_shard_txns_;
  stats.multi_shard_txns = multi_shard_txns_;
  stats.rpc_attempts = rpc_attempts_;
  stats.rpc_timeouts = rpc_timeouts_;
  stats.rpc_no_leader = rpc_no_leader_;
  stats.rpc_retries = rpc_retries_;
  stats.resolver_retries = resolver_retries_;
  stats.unresolved_txns = pending_decisions_.size();
  stats.crashes_injected = crashes_injected_;
  stats.partitions_injected = partitions_injected_;
  stats.messages_sent = net_.messages_sent();
  stats.messages_dropped = net_.messages_dropped();
  stats.commit_latency = commit_latency_;

  for (size_t s = 0; s < shards_.size(); ++s) {
    ClusterStats::Shard sh;
    sh.shard = static_cast<int>(s);
    const RaftGroup* g = groups_[s].get();
    RaftNode* leader = g->leader();
    if (leader != nullptr) {
      sh.leader = leader->id();
      sh.term = leader->term();
      sh.log_entries = leader->log_size();
    }
    for (NodeId id : g->voter_ids()) {
      sh.elections_started += g->node(id)->elections_started();
      sh.leader_changes += g->node(id)->leaderships_won();
    }
    const ShardCounters& c = shard_counters_[s];
    sh.single_shard_commits = c.single_shard_commits;
    sh.prepares_ok = c.prepares_ok;
    sh.prepares_failed = c.prepares_failed;
    sh.tpc_commits = c.tpc_commits;
    sh.tpc_aborts = c.tpc_aborts;
    stats.shards.push_back(sh);
  }

  std::vector<uint32_t> table_ids;
  table_ids.reserve(schemas_.size());
  for (const auto& [tid, schema] : schemas_) table_ids.push_back(tid);
  std::sort(table_ids.begin(), table_ids.end());
  const CSN leader_csn =
      commit_times_.empty() ? 0 : commit_times_.rbegin()->first;
  for (uint32_t tid : table_ids) {
    ClusterStats::TableFreshness f;
    f.table_id = tid;
    f.leader_csn = leader_csn;
    f.replicated_csn = LearnerReplicatedCsn(tid);
    f.merged_csn = LearnerMergedCsn(tid);
    f.replication_lag_micros = FreshnessLagMicros(f.replicated_csn);
    f.merge_lag_micros = FreshnessLagMicros(f.merged_csn);
    stats.tables.push_back(f);
  }
  return stats;
}

}  // namespace sim
}  // namespace htap

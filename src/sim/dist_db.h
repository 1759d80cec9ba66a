// The survey's architecture (b): a TiDB-style distributed HTAP database on
// the simulated network.
//
//  * Data is hash-sharded; each shard is a Raft group of `replicas` voting
//    row-store replicas plus one non-voting LEARNER.
//  * Transactions: a gateway ("SQL engine") node fetches a commit timestamp
//    from a TSO node, then commits single-shard transactions with one Raft
//    proposal and multi-shard transactions with 2PC (Prepare/Commit
//    proposals through each shard's Raft log) — "2PC + Raft + logging".
//  * Learners apply the same Raft log into a LogDeltaStore (encoded delta
//    files) and periodically merge into a ColumnTable — "log-based delta
//    and column scan" with "log-based delta merge".
//  * Every gateway→shard command travels the simulated network as an RPC
//    with timeout/retry/exponential-backoff, so leader-election windows,
//    crashes, partitions, and message loss are survived rather than
//    assumed away; 2PC decisions are driven to completion by a resolver
//    even when the deciding RPCs initially fail (DESIGN.md §14).
//
// Everything runs in virtual time, so throughput/scalability/freshness
// numbers are deterministic and host-independent.

#ifndef HTAP_SIM_DIST_DB_H_
#define HTAP_SIM_DIST_DB_H_

#include <array>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "columnar/column_table.h"
#include "delta/delta.h"
#include "exec/executor.h"
#include "sim/raft.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {
namespace sim {

/// One write in a distributed transaction.
struct WriteOp {
  uint32_t table_id = 0;
  ChangeOp op = ChangeOp::kInsert;
  Key key = 0;
  Row row;
};

/// Commands in the shard state machine's Raft log.
enum class ShardCmdType : uint8_t {
  kApplyWrites = 0,  // one-shot commit (single-shard transaction)
  kPrepare = 1,
  kCommitTxn = 2,
  kAbortTxn = 3,
};

/// The replicated state machine every member of a shard group applies.
/// Deterministic: all replicas (and the learner) reach identical state.
/// Commands are idempotent per txn_id — the gateway's RPC retries may
/// append the same command to the log more than once (a reply was lost,
/// not the request), and only the first application takes effect.
class ShardStateMachine {
 public:
  /// `change_sink`: called with the ChangeEvents of each applied commit
  /// (the learner wires this into its LogDeltaStore). May be null.
  explicit ShardStateMachine(
      std::function<void(const std::vector<ChangeEvent>&)> change_sink =
          nullptr)
      : change_sink_(std::move(change_sink)) {}

  /// Applies one encoded command; returns true if it represents a
  /// successful mutation (prepare-ok / committed).
  bool Apply(const std::string& payload);

  /// Reads the current value of a key (leader-side point reads).
  bool Get(uint32_t table_id, Key key, Row* out) const;
  size_t row_count() const;
  CSN last_applied_csn() const { return last_csn_; }

  /// Did transaction `txn_id`'s PREPARE succeed on this shard?
  bool PrepareSucceeded(uint64_t txn_id) const {
    return prepared_.count(txn_id) != 0;
  }
  size_t prepared_count() const { return prepared_.size(); }
  size_t locks_held() const { return locks_.size(); }

  /// Rows of one table, in key order (convergence assertions).
  std::vector<std::pair<Key, Row>> Rows(uint32_t table_id) const;

  // ---- Command codec ----
  static std::string EncodeApplyWrites(uint64_t txn_id, CSN csn,
                                       const std::vector<WriteOp>& writes);
  static std::string EncodePrepare(uint64_t txn_id,
                                   const std::vector<WriteOp>& writes);
  static std::string EncodeCommitTxn(uint64_t txn_id, CSN csn);
  static std::string EncodeAbortTxn(uint64_t txn_id);

 private:
  void ApplyWrites(CSN csn, const std::vector<WriteOp>& writes);
  static void EncodeWrites(const std::vector<WriteOp>& writes,
                           std::string* out);
  static bool DecodeWrites(const std::string& in, size_t* pos,
                           std::vector<WriteOp>* out);

  std::map<std::pair<uint32_t, Key>, Row> data_;
  std::unordered_map<Key, uint64_t> locks_;  // key -> preparing txn
  std::unordered_map<uint64_t, std::vector<WriteOp>> prepared_;
  // Txns whose outcome is final on this shard (applied or aborted): a
  // duplicate ApplyWrites/CommitTxn is a no-op, and a late duplicate
  // Prepare sequenced after the decision must not re-acquire locks.
  std::unordered_set<uint64_t> finished_;
  CSN last_csn_ = 0;
  std::function<void(const std::vector<ChangeEvent>&)> change_sink_;
};

/// Per-shard learner replica state: encoded delta files + column store.
struct LearnerState {
  std::unordered_map<uint32_t, std::unique_ptr<LogDeltaStore>> deltas;
  std::unordered_map<uint32_t, std::unique_ptr<ColumnTable>> tables;
};

/// Timeout/retry/backoff policy for gateway→shard-leader RPCs. An RPC is
/// retried (against the then-current leader) when no leader is known, the
/// attempt times out, or the leader replies "not committed" — which covers
/// leader-election windows, crashes, partitions, and message loss.
struct RpcRetryPolicy {
  int max_attempts = 16;
  Micros timeout_micros = 60000;       // per attempt, awaiting the reply
  Micros backoff_micros = 4000;        // initial backoff, grows geometrically
  double backoff_multiplier = 2.0;
  Micros max_backoff_micros = 100000;
};

/// Power-of-two-bucketed histogram over virtual-time latencies. Integer
/// arithmetic only, so bench output is byte-identical across hosts.
struct LatencyHistogram {
  static constexpr int kBuckets = 32;  // bucket i holds v with bit_width==i
  std::array<uint64_t, kBuckets> counts{};
  uint64_t total = 0;
  Micros sum = 0;
  Micros max = 0;

  void Record(Micros v);
  /// Inclusive upper bound (micros) of the bucket containing quantile `q`
  /// (0 < q <= 1); 0 when empty.
  Micros Quantile(double q) const;
  Micros Mean() const { return total == 0 ? 0 : sum / static_cast<Micros>(total); }
};

/// Cluster-wide observability snapshot (DESIGN.md §14 defines every
/// metric precisely).
struct ClusterStats {
  struct Shard {
    int shard = 0;
    NodeId leader = -1;          // -1 while no live leader
    uint64_t term = 0;           // leader's term (0 if none)
    uint64_t log_entries = 0;    // leader's Raft log length
    uint64_t elections_started = 0;  // summed over members, monotone
    uint64_t leader_changes = 0;     // elections won, summed over members
    uint64_t single_shard_commits = 0;
    uint64_t prepares_ok = 0;
    uint64_t prepares_failed = 0;
    uint64_t tpc_commits = 0;
    uint64_t tpc_aborts = 0;
  };
  struct TableFreshness {
    uint32_t table_id = 0;
    CSN leader_csn = 0;       // newest CSN assigned to a committed txn
    CSN replicated_csn = 0;   // LearnerReplicatedCsn
    CSN merged_csn = 0;       // LearnerMergedCsn
    Micros replication_lag_micros = 0;  // virtual-time age of oldest gap
    Micros merge_lag_micros = 0;
  };

  std::vector<Shard> shards;
  std::vector<TableFreshness> tables;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t single_shard_txns = 0;
  uint64_t multi_shard_txns = 0;
  uint64_t rpc_attempts = 0;
  uint64_t rpc_timeouts = 0;
  uint64_t rpc_no_leader = 0;
  uint64_t rpc_retries = 0;
  uint64_t resolver_retries = 0;   // phase-2 decisions re-driven
  uint64_t unresolved_txns = 0;    // decisions not yet applied everywhere
  uint64_t crashes_injected = 0;
  uint64_t partitions_injected = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_dropped = 0;
  LatencyHistogram commit_latency;  // gateway view, virtual micros
};

class DistributedDb {
 public:
  struct Options {
    int num_shards = 3;
    int replicas_per_shard = 3;
    bool with_learners = true;
    SimNetwork::Options net;
    RaftConfig raft;
    RpcRetryPolicy rpc;
    Micros gateway_cpu_cost = 10;   // per txn routing cost
    Micros tso_cpu_cost = 2;
    Micros learner_merge_interval = 50000;
    /// Cadence at which an un-applied 2PC decision is re-driven after its
    /// RPC retry budget is exhausted (e.g. a shard is partitioned away).
    Micros resolver_retry_interval = 100000;
  };

  DistributedDb(SimEnv* env, Options options);

  /// Registers a table (co-sharded by key with all others).
  void RegisterTable(uint32_t table_id, Schema schema);

  /// Runs elections until every shard has a leader.
  void Bootstrap();

  /// Executes a transaction asynchronously inside the simulation; `done`
  /// fires with commit/abort. Single-shard fast path, 2PC otherwise.
  void ExecuteTxn(std::vector<WriteOp> writes,
                  std::function<void(bool committed)> done);

  /// Leader-side point read (linearizable enough for the benches).
  bool Read(uint32_t table_id, Key key, Row* out);

  /// Columnar scan over the learner replicas (log-delta + column union
  /// when `include_delta`; pure column scan otherwise), whose freshness
  /// depends on replication + merge lag (DESIGN.md §§12–14). Each shard's
  /// learner emits ColumnBatches of at most `batch_rows` rows (0 = one
  /// batch per row group), concatenated in shard order.
  std::vector<ColumnBatch> AnalyticalScanBatches(
      uint32_t table_id, const Predicate& pred,
      const std::vector<int>& projection, size_t batch_rows,
      bool include_delta = true, ScanStats* stats = nullptr);

  /// Forces all learner deltas to merge into their column tables.
  void SyncLearners();

  int ShardOf(Key key) const {
    return static_cast<int>((static_cast<uint64_t>(key) * 2654435761u) %
                            static_cast<uint64_t>(options_.num_shards));
  }

  RaftGroup* shard_group(int shard) { return groups_[shard].get(); }
  SimEnv* env() { return env_; }
  SimNetwork* network() { return &net_; }

  // ---- Fault injection (wired through SimNetwork/SimNode primitives) ----
  /// Crashes the current leader of `shard`; returns its id (-1 if none).
  NodeId CrashShardLeader(int shard);
  /// Restarts every crashed node in every shard group.
  void RestartDeadNodes();
  /// Partitions `node` from every other member of its shard group and
  /// from the gateway (a fully isolated machine).
  void IsolateNode(int shard, NodeId node);
  /// Heals all partitions.
  void HealNetwork() { net_.HealAll(); }
  /// Sets the network's message-loss probability (0 disables).
  void SetMessageLoss(double p) { net_.set_drop_probability(p); }

  // Observability.
  uint64_t committed() const { return committed_; }
  uint64_t aborted() const { return aborted_; }
  CSN last_csn() const { return next_csn_; }
  /// Newest CSN visible to a learner scan of this table across all shards
  /// when merged only (no delta).
  CSN LearnerMergedCsn(uint32_t table_id) const;
  /// Newest CSN present in learner deltas+tables (replication frontier).
  /// The maximum over shards: one shard's learner can reach it while
  /// another still lags — LearnersCaughtUp() is the every-shard check.
  CSN LearnerReplicatedCsn(uint32_t table_id) const;
  /// True when every shard has a leader, each shard's learner is live and
  /// has applied its leader's whole committed log, and no 2PC decision is
  /// outstanding: a delta-union learner scan then reflects every commit.
  bool LearnersCaughtUp() const;
  /// Changes staged in the table's learner deltas, summed over shards.
  size_t LearnerPendingEntries(uint32_t table_id) const;
  /// Virtual-time lag between last commit and the learner frontier.
  Micros CommitTimeOf(CSN csn) const;
  /// Virtual-time age of the oldest committed change above `frontier`
  /// (0 when the frontier covers every commit) — the freshness-lag gauge
  /// behind ClusterStats::TableFreshness.
  Micros FreshnessLagMicros(CSN frontier) const;

  /// 2PC decisions not yet applied on every participant shard.
  size_t unresolved_txns() const { return pending_decisions_.size(); }
  /// True when every shard has a live leader, all Raft logs are fully
  /// applied on voters and learners, and no 2PC decision is outstanding.
  bool Converged() const;
  /// Rows of `table` as the shard leaders see them, sorted by key.
  std::vector<std::pair<Key, Row>> LeaderRows(uint32_t table_id) const;
  /// Rows of `table` as the learner row-state machines see them (the
  /// replication frontier, before any columnar merge), sorted by key.
  std::vector<std::pair<Key, Row>> LearnerRows(uint32_t table_id) const;

  /// Snapshot of every cluster counter/gauge (DESIGN.md §14).
  ClusterStats GetClusterStats() const;

 private:
  struct ShardRuntime {
    std::map<NodeId, std::unique_ptr<ShardStateMachine>> machines;
    NodeId learner_id = -1;
    LearnerState learner;
  };

  /// Per-shard gateway-side counters.
  struct ShardCounters {
    uint64_t single_shard_commits = 0;
    uint64_t prepares_ok = 0;
    uint64_t prepares_failed = 0;
    uint64_t tpc_commits = 0;
    uint64_t tpc_aborts = 0;
  };

  /// One gateway→shard RPC: command + retry chain state.
  struct RpcCall {
    int shard = 0;
    std::string cmd;
    bool want_vote = false;   // prepare RPCs carry the shard's 2PC vote
    uint64_t txn_id = 0;
    int attempts_left = 0;
    Micros backoff = 0;
    int attempt_serial = 0;   // stale timeouts/replies are ignored
    bool settled = false;
    std::function<void(bool ok, bool vote)> done;
  };

  /// A 2PC decision being driven to every participant; survives RPC
  /// failures (the resolver re-drives it until applied everywhere).
  struct PendingDecision {
    bool commit = false;
    CSN csn = 0;
    std::set<int> shards;  // still awaiting the decision
    Micros start = 0;      // gateway-side txn start (latency histogram)
    std::function<void(bool)> done;  // client callback, fires when empty
  };

  /// A commit-timestamp fetch from the TSO with timeout/retry (the
  /// allocation is not idempotent; a lost reply burns a CSN, which
  /// commit_times_ tolerates as a gap).
  struct TsoCall {
    bool settled = false;
    int serial = 0;
    int attempts_left = 0;
    std::function<void(bool ok, CSN csn)> done;
  };

  void CallShard(int shard, std::string cmd, bool want_vote, uint64_t txn_id,
                 std::function<void(bool ok, bool vote)> done);
  void StartRpcAttempt(std::shared_ptr<RpcCall> call);
  void RetryRpc(std::shared_ptr<RpcCall> call);
  void SettleRpc(std::shared_ptr<RpcCall> call, bool ok, bool vote);
  void FetchCsn(std::function<void(bool ok, CSN csn)> done);
  void StartTsoAttempt(std::shared_ptr<TsoCall> call);

  void ScheduleLearnerMerge();
  void RunTwoPhaseCommit(uint64_t txn_id, CSN csn,
                         std::map<int, std::vector<WriteOp>> by_shard,
                         Micros start, std::function<void(bool)> done);
  void DriveDecision(uint64_t txn_id, int shard);
  void FinishTxn(bool committed, CSN csn, Micros start,
                 std::function<void(bool)> done);

  SimEnv* env_;
  Options options_;
  SimNetwork net_;
  std::unordered_map<uint32_t, Schema> schemas_;
  std::vector<std::unique_ptr<RaftGroup>> groups_;
  std::vector<ShardRuntime> shards_;
  NodeId gateway_id_, tso_id_;
  std::unique_ptr<SimNode> gateway_, tso_;
  uint64_t next_txn_id_ = 1;
  CSN next_csn_ = 1;
  uint64_t committed_ = 0, aborted_ = 0;
  std::map<CSN, Micros> commit_times_;

  // Observability (gateway view).
  std::vector<ShardCounters> shard_counters_;
  LatencyHistogram commit_latency_;
  uint64_t single_shard_txns_ = 0, multi_shard_txns_ = 0;
  uint64_t rpc_attempts_ = 0, rpc_timeouts_ = 0, rpc_no_leader_ = 0;
  uint64_t rpc_retries_ = 0, resolver_retries_ = 0;
  uint64_t crashes_injected_ = 0, partitions_injected_ = 0;
  std::map<uint64_t, PendingDecision> pending_decisions_;
};

}  // namespace sim
}  // namespace htap

#endif  // HTAP_SIM_DIST_DB_H_

#include "sim/workload.h"

#include <algorithm>

namespace htap {
namespace sim {

namespace {

Schema Cols(std::initializer_list<const char*> names) {
  std::vector<ColumnDef> defs;
  for (const char* n : names) defs.push_back({n, Type::kInt64});
  return Schema(defs);
}

}  // namespace

TpccWorkload::TpccWorkload(DistributedDb* db, WorkloadOptions options)
    : db_(db), options_(options), rng_(options.seed) {
  // Anchor each warehouse to a home shard and probe a deterministic pool of
  // keys that hash there, so intra-warehouse transactions are single-shard.
  const int shards = [&] {
    // ShardOf is pure; derive the shard count from it.
    int max_shard = 0;
    for (Key k = 0; k < 4096; ++k)
      max_shard = std::max(max_shard, db_->ShardOf(k));
    return max_shard + 1;
  }();
  home_shards_.resize(static_cast<size_t>(options_.warehouses));
  home_keys_.resize(static_cast<size_t>(options_.warehouses));
  for (int w = 0; w < options_.warehouses; ++w) {
    const int home = w % shards;
    home_shards_[static_cast<size_t>(w)] = home;
    auto& pool = home_keys_[static_cast<size_t>(w)];
    pool.reserve(kHomeKeysPerWarehouse);
    for (Key k = static_cast<Key>(w) * 1'000'000 + 1;
         pool.size() < kHomeKeysPerWarehouse; ++k)
      if (db_->ShardOf(k) == home) pool.push_back(k);
  }
}

void TpccWorkload::RegisterTables() {
  // Column 0 is the globally-unique routing key (the engine's primary-key
  // convention — ColumnTable upserts by it during the learner merge).
  db_->RegisterTable(TpccTables::kWarehouse, Cols({"w_key", "w_ytd"}));
  db_->RegisterTable(TpccTables::kDistrict,
                     Cols({"d_key", "d_next_o_id", "d_ytd"}));
  db_->RegisterTable(TpccTables::kCustomer,
                     Cols({"c_key", "c_balance", "c_payment_cnt"}));
  db_->RegisterTable(TpccTables::kOrder,
                     Cols({"o_key", "o_c_id", "o_ol_cnt", "o_entry_ts"}));
  db_->RegisterTable(
      TpccTables::kOrderLine,
      Cols({"ol_key", "ol_o_id", "ol_number", "ol_i_id", "ol_amount"}));
  db_->RegisterTable(TpccTables::kStock, Cols({"s_key", "s_order_cnt"}));
}

// Dynamic keys recycle slots of the home pool past the static rows; an
// overwrite of an old order is just an upsert with a newer CSN.
Key TpccWorkload::OrderKey(int w, uint64_t serial) const {
  const size_t static_rows =
      1 + static_cast<size_t>(options_.districts_per_warehouse) *
              (1 + static_cast<size_t>(options_.customers_per_district)) +
      static_cast<size_t>(options_.stock_items);
  const size_t slots = (kHomeKeysPerWarehouse - static_rows) / 4;
  return HomeKey(w, static_cast<int>(static_rows + serial % slots));
}

Key TpccWorkload::OrderLineKey(int w, uint64_t serial, int line) const {
  const size_t static_rows =
      1 + static_cast<size_t>(options_.districts_per_warehouse) *
              (1 + static_cast<size_t>(options_.customers_per_district)) +
      static_cast<size_t>(options_.stock_items);
  const size_t order_slots = (kHomeKeysPerWarehouse - static_rows) / 4;
  const size_t line_slots = kHomeKeysPerWarehouse - static_rows - order_slots;
  return HomeKey(
      w, static_cast<int>(static_rows + order_slots +
                          (serial * 16 + static_cast<uint64_t>(line)) %
                              line_slots));
}

void TpccWorkload::Load() {
  // One single-shard transaction per warehouse carrying its static rows.
  size_t done = 0;
  for (int w = 0; w < options_.warehouses; ++w) {
    std::vector<WriteOp> writes;
    writes.push_back({TpccTables::kWarehouse, ChangeOp::kInsert,
                      WarehouseKey(w),
                      Row{Value(WarehouseKey(w)), Value(int64_t{0})}});
    for (int d = 0; d < options_.districts_per_warehouse; ++d) {
      writes.push_back({TpccTables::kDistrict, ChangeOp::kInsert,
                        DistrictKey(w, d),
                        Row{Value(DistrictKey(w, d)), Value(int64_t{1}),
                            Value(int64_t{0})}});
      for (int c = 0; c < options_.customers_per_district; ++c)
        writes.push_back({TpccTables::kCustomer, ChangeOp::kInsert,
                          CustomerKey(w, d, c),
                          Row{Value(CustomerKey(w, d, c)), Value(int64_t{0}),
                              Value(int64_t{0})}});
    }
    for (int i = 0; i < options_.stock_items; ++i)
      writes.push_back({TpccTables::kStock, ChangeOp::kInsert, StockKey(w, i),
                        Row{Value(StockKey(w, i)), Value(int64_t{0})}});
    db_->ExecuteTxn(std::move(writes), [&done](bool) { ++done; });
  }
  SimEnv* env = db_->env();
  const Micros deadline = env->Now() + 30'000'000;
  while (done < static_cast<size_t>(options_.warehouses) &&
         env->Now() < deadline)
    env->RunUntil(env->Now() + 1000);
}

TpccWorkload::Txn TpccWorkload::MakeNewOrder(int client) {
  Txn txn;
  txn.is_new_order = true;
  const int w = static_cast<int>(
      rng_.Uniform(static_cast<uint64_t>(options_.warehouses)));
  const int d = static_cast<int>(
      rng_.Uniform(static_cast<uint64_t>(options_.districts_per_warehouse)));
  const int c = static_cast<int>(rng_.NURand(
      255, 0, options_.customers_per_district - 1));
  const uint64_t serial = next_order_serial_++;
  const int lines = static_cast<int>(rng_.UniformRange(
      options_.order_lines_min, options_.order_lines_max));
  const int64_t ts =
      db_->env()->Now() * 1000 + client;  // unique, deterministic

  // District "update" + order insert + order lines + stock touches. Values
  // are pure functions of (w, d, serial, line): idempotent under retry.
  txn.writes.push_back({TpccTables::kDistrict, ChangeOp::kUpdate,
                        DistrictKey(w, d),
                        Row{Value(DistrictKey(w, d)),
                            Value(static_cast<int64_t>(serial + 1)),
                            Value(static_cast<int64_t>(serial) * 10)}});
  txn.writes.push_back({TpccTables::kOrder, ChangeOp::kInsert,
                        OrderKey(w, serial),
                        Row{Value(OrderKey(w, serial)), Value(int64_t{c}),
                            Value(int64_t{lines}), Value(ts)}});
  for (int l = 0; l < lines; ++l) {
    int supply_w = w;
    if (l == 0 && rng_.Bernoulli(options_.cross_shard_fraction)) {
      // Source the first line's stock from a warehouse on another shard.
      for (int probe = 1; probe < options_.warehouses; ++probe) {
        const int cand = (w + probe) % options_.warehouses;
        if (HomeShard(cand) != HomeShard(w)) {
          supply_w = cand;
          break;
        }
      }
    }
    const int item = static_cast<int>(
        rng_.NURand(1023, 0, options_.stock_items - 1));
    txn.writes.push_back(
        {TpccTables::kOrderLine, ChangeOp::kInsert, OrderLineKey(w, serial, l),
         Row{Value(OrderLineKey(w, serial, l)),
             Value(static_cast<int64_t>(serial)), Value(int64_t{l}),
             Value(int64_t{item}),
             Value(static_cast<int64_t>(serial % 97) * (l + 1))}});
    txn.writes.push_back(
        {TpccTables::kStock, ChangeOp::kUpdate, StockKey(supply_w, item),
         Row{Value(StockKey(supply_w, item)),
             Value(static_cast<int64_t>(serial))}});
    if (HomeShard(supply_w) != HomeShard(w)) txn.cross_shard = true;
  }
  return txn;
}

TpccWorkload::Txn TpccWorkload::MakePayment(int client) {
  (void)client;
  Txn txn;
  txn.is_payment = true;
  const int w = static_cast<int>(
      rng_.Uniform(static_cast<uint64_t>(options_.warehouses)));
  const int d = static_cast<int>(
      rng_.Uniform(static_cast<uint64_t>(options_.districts_per_warehouse)));
  int cust_w = w;
  if (rng_.Bernoulli(options_.cross_shard_fraction)) {
    for (int probe = 1; probe < options_.warehouses; ++probe) {
      const int cand = (w + probe) % options_.warehouses;
      if (HomeShard(cand) != HomeShard(w)) {
        cust_w = cand;
        break;
      }
    }
  }
  const int c = static_cast<int>(rng_.NURand(
      255, 0, options_.customers_per_district - 1));
  const int64_t amount = rng_.UniformRange(1, 5000);

  txn.writes.push_back({TpccTables::kWarehouse, ChangeOp::kUpdate,
                        WarehouseKey(w),
                        Row{Value(WarehouseKey(w)), Value(amount)}});
  txn.writes.push_back(
      {TpccTables::kDistrict, ChangeOp::kUpdate, DistrictKey(w, d),
       Row{Value(DistrictKey(w, d)), Value(amount), Value(amount)}});
  txn.writes.push_back({TpccTables::kCustomer, ChangeOp::kUpdate,
                        CustomerKey(cust_w, d, c),
                        Row{Value(CustomerKey(cust_w, d, c)), Value(-amount),
                            Value(amount % 100)}});
  if (HomeShard(cust_w) != HomeShard(w)) txn.cross_shard = true;
  return txn;
}

TpccWorkload::Txn TpccWorkload::MakeStockTouch(int client) {
  (void)client;
  Txn txn;
  const int w = static_cast<int>(
      rng_.Uniform(static_cast<uint64_t>(options_.warehouses)));
  const int item = static_cast<int>(
      rng_.Uniform(static_cast<uint64_t>(options_.stock_items)));
  const int64_t v = rng_.UniformRange(1, 1'000'000);
  txn.writes.push_back({TpccTables::kStock, ChangeOp::kUpdate,
                        StockKey(w, item),
                        Row{Value(StockKey(w, item)), Value(v)}});
  return txn;
}

void TpccWorkload::SubmitWithRetry(int client, Txn txn, int attempts_left,
                                   Micros deadline) {
  ++inflight_;
  // Copy the writes: the retry path re-submits the identical transaction.
  std::vector<WriteOp> writes = txn.writes;
  db_->ExecuteTxn(
      std::move(writes),
      [this, client, txn = std::move(txn), attempts_left,
       deadline](bool committed) mutable {
        --inflight_;
        if (committed) {
          if (txn.is_new_order)
            ++stats_.new_orders_committed;
          else if (txn.is_payment)
            ++stats_.payments_committed;
          else
            ++stats_.stock_touches_committed;
        } else if (attempts_left > 1 && db_->env()->Now() < deadline) {
          ++stats_.client_retries;
          db_->env()->Schedule(
              options_.retry_backoff_micros,
              [this, client, txn = std::move(txn), attempts_left, deadline] {
                SubmitWithRetry(client, txn, attempts_left - 1, deadline);
              });
          return;  // not a terminal outcome yet
        } else {
          if (txn.is_new_order)
            ++stats_.new_orders_aborted;
          else if (txn.is_payment)
            ++stats_.payments_aborted;
          else
            ++stats_.stock_touches_aborted;
        }
        // Closed loop: think, then issue the client's next transaction.
        if (db_->env()->Now() < deadline)
          db_->env()->Schedule(options_.think_time_micros,
                               [this, client, deadline] {
                                 RunClient(client, deadline);
                               });
      });
}

void TpccWorkload::RunClient(int client, Micros deadline) {
  if (db_->env()->Now() >= deadline) return;
  const double roll = rng_.NextDouble();
  Txn txn;
  if (roll < options_.new_order_pct)
    txn = MakeNewOrder(client);
  else if (roll < options_.new_order_pct + options_.payment_pct)
    txn = MakePayment(client);
  else
    txn = MakeStockTouch(client);
  if (txn.cross_shard) ++stats_.cross_shard_issued;
  SubmitWithRetry(client, std::move(txn), options_.max_txn_attempts, deadline);
}

void TpccWorkload::ScheduleApScan(Micros deadline) {
  if (db_->env()->Now() >= deadline) return;
  db_->env()->Schedule(options_.ap_scan_interval, [this, deadline] {
    if (db_->env()->Now() > deadline) return;
    ++stats_.ap_scans;
    stats_.ap_rows_read += TotalActiveRows(db_->AnalyticalScanBatches(
        TpccTables::kOrderLine, Predicate::True(), {}, /*batch_rows=*/0,
        /*include_delta=*/true));
    stats_.repl_lag_max = std::max(
        stats_.repl_lag_max,
        db_->FreshnessLagMicros(
            db_->LearnerReplicatedCsn(TpccTables::kOrderLine)));
    stats_.merge_lag_max = std::max(
        stats_.merge_lag_max,
        db_->FreshnessLagMicros(db_->LearnerMergedCsn(TpccTables::kOrderLine)));
    ScheduleApScan(deadline);
  });
}

void TpccWorkload::Run(Micros duration) {
  SimEnv* env = db_->env();
  const Micros start = env->Now();
  const Micros deadline = start + duration;
  for (int c = 0; c < options_.clients; ++c) RunClient(c, deadline);
  if (options_.ap_scan_interval > 0) ScheduleApScan(deadline);
  env->RunUntil(deadline);
  // Drain: clients stop issuing past the deadline; finish what is in flight
  // (bounded — a partitioned shard can hold a decision open for a while).
  const Micros drain_deadline = deadline + 30'000'000;
  while (inflight_ > 0 && env->Now() < drain_deadline)
    env->RunUntil(env->Now() + 10'000);
  stats_.duration_micros = env->Now() - start;
}

}  // namespace sim
}  // namespace htap

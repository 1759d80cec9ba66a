#include "tpcc.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "benchlib/keys.h"

namespace htapbench {

using htap::Database;
using htap::DbTxn;
using htap::Row;
using htap::Status;
using htap::Value;
using namespace htap::bench;  // key packing

const char* TxnName(TxnType t) {
  switch (t) {
    case TxnType::kNewOrder: return "txn.NewOrder";
    case TxnType::kPayment: return "txn.Payment";
    case TxnType::kDelivery: return "txn.Delivery";
    case TxnType::kOrderStatus: return "txn.OrderStatus";
  }
  return "txn.?";
}

TxnDraw::TxnDraw(const ChConfig& config, uint64_t seed)
    : config_(config), rng_(seed) {
  clock_ = 1000000 + static_cast<int64_t>(seed % 1000) * 100000;
}

TxnParams TxnDraw::Next() {
  auto uniform1 = [this](int n) {
    return 1 + static_cast<int64_t>(rng_.Uniform(static_cast<uint64_t>(n)));
  };
  TxnParams p;
  const uint64_t pick = rng_.Uniform(100);
  p.type = pick < 45   ? TxnType::kNewOrder
           : pick < 88 ? TxnType::kPayment
           : pick < 92 ? TxnType::kDelivery
                       : TxnType::kOrderStatus;
  p.w = uniform1(config_.warehouses);
  p.d = uniform1(config_.districts_per_warehouse);
  switch (p.type) {
    case TxnType::kNewOrder: {
      p.c = uniform1(config_.customers_per_district);
      const int64_t ol_cnt = 5 + static_cast<int64_t>(rng_.Uniform(11));
      for (int64_t l = 0; l < ol_cnt; ++l) {
        OrderLineParams line;
        line.item = rng_.NURand(8191, 1, config_.items);
        line.quantity = 1 + static_cast<int64_t>(rng_.Uniform(10));
        p.lines.push_back(line);
      }
      p.timestamp = ++clock_;
      break;
    }
    case TxnType::kPayment:
      p.c = rng_.NURand(1023, 1, config_.customers_per_district);
      p.amount = 1.0 + rng_.NextDouble() * 4999.0;
      break;
    case TxnType::kDelivery:
      p.pick = rng_.Next64();
      p.carrier = uniform1(10);
      p.timestamp = ++clock_;
      break;
    case TxnType::kOrderStatus:
      p.c = uniform1(config_.customers_per_district);
      break;
  }
  return p;
}

namespace {

/// One attempt of a transaction, its calls into the database traced.
class Attempt {
 public:
  Attempt(Database* db, const TraceContext& trace)
      : trace_(trace),
        txn_(Traced(trace_, "txn.begin", [db] { return db->Begin(); })) {}

  Status Get(const char* table, htap::Key key, Row* out) {
    return Traced(trace_, "txn.get",
                  [&] { return txn_->Get(table, key, out); });
  }
  Status Update(const char* table, const Row& row) {
    return Traced(trace_, "txn.write",
                  [&] { return txn_->Update(table, row); });
  }
  Status Insert(const char* table, const Row& row) {
    return Traced(trace_, "txn.write",
                  [&] { return txn_->Insert(table, row); });
  }
  Status Commit() {
    return Traced(trace_, "txn.commit", [&] { return txn_->Commit(); });
  }

 private:
  const TraceContext trace_;
  std::unique_ptr<DbTxn> txn_;  // aborts on destruction if not committed
};

Status NewOrder(Attempt* t, const TxnParams& p) {
  const int64_t w = p.w, d = p.d;
  Row dist;
  HTAP_RETURN_NOT_OK(t->Get("district", DistrictKey(w, d), &dist));
  const int64_t o_id = dist.Get(col::kDNextOId).AsInt64();
  dist.Set(col::kDNextOId, Value(o_id + 1));
  HTAP_RETURN_NOT_OK(t->Update("district", dist));

  const int64_t ol_cnt = static_cast<int64_t>(p.lines.size());
  HTAP_RETURN_NOT_OK(t->Insert(
      "orders", Row{Value(OrderKey(w, d, o_id)), Value(w), Value(d),
                    Value(o_id), Value(CustomerKey(w, d, p.c)),
                    Value(p.timestamp), Value(int64_t{0}), Value(ol_cnt)}));
  for (int64_t l = 1; l <= ol_cnt; ++l) {
    const OrderLineParams& line = p.lines[static_cast<size_t>(l - 1)];
    Row item_row;
    HTAP_RETURN_NOT_OK(t->Get("item", line.item, &item_row));
    const double price = item_row.Get(col::kIPrice).AsDouble();

    Row stock;
    HTAP_RETURN_NOT_OK(t->Get("stock", StockKey(w, line.item), &stock));
    const int64_t s_qty = stock.Get(col::kSQuantity).AsInt64();
    stock.Set(col::kSQuantity, Value(s_qty - line.quantity >= 10
                                         ? s_qty - line.quantity
                                         : s_qty - line.quantity + 91));
    stock.Set(col::kSYtd,
              Value(stock.Get(col::kSYtd).AsInt64() + line.quantity));
    stock.Set(col::kSOrderCnt, Value(stock.Get(col::kSOrderCnt).AsInt64() + 1));
    HTAP_RETURN_NOT_OK(t->Update("stock", stock));

    HTAP_RETURN_NOT_OK(t->Insert(
        "orderline",
        Row{Value(OrderLineKey(w, d, o_id, l)), Value(OrderKey(w, d, o_id)),
            Value(w), Value(d), Value(o_id), Value(l), Value(line.item),
            Value(line.quantity),
            Value(static_cast<double>(line.quantity) * price),
            Value(int64_t{0})}));
  }
  return t->Commit();
}

Status Payment(Attempt* t, const TxnParams& p) {
  Row wh;
  HTAP_RETURN_NOT_OK(t->Get("warehouse", p.w, &wh));
  wh.Set(col::kWYtd, Value(wh.Get(col::kWYtd).AsDouble() + p.amount));
  HTAP_RETURN_NOT_OK(t->Update("warehouse", wh));

  Row dist;
  HTAP_RETURN_NOT_OK(t->Get("district", DistrictKey(p.w, p.d), &dist));
  dist.Set(col::kDYtd, Value(dist.Get(col::kDYtd).AsDouble() + p.amount));
  HTAP_RETURN_NOT_OK(t->Update("district", dist));

  Row cust;
  HTAP_RETURN_NOT_OK(t->Get("customer", CustomerKey(p.w, p.d, p.c), &cust));
  cust.Set(col::kCBalance,
           Value(cust.Get(col::kCBalance).AsDouble() - p.amount));
  cust.Set(col::kCYtdPayment,
           Value(cust.Get(col::kCYtdPayment).AsDouble() + p.amount));
  cust.Set(col::kCPaymentCnt,
           Value(cust.Get(col::kCPaymentCnt).AsInt64() + 1));
  HTAP_RETURN_NOT_OK(t->Update("customer", cust));
  return t->Commit();
}

Status Delivery(Attempt* t, const TxnParams& p) {
  Row dist;
  HTAP_RETURN_NOT_OK(t->Get("district", DistrictKey(p.w, p.d), &dist));
  const int64_t next = dist.Get(col::kDNextOId).AsInt64();
  if (next <= 1) return t->Commit();
  const int64_t o_id =
      1 + static_cast<int64_t>(p.pick % static_cast<uint64_t>(next - 1));
  Row order;
  if (!t->Get("orders", OrderKey(p.w, p.d, o_id), &order).ok())
    return t->Commit();
  order.Set(col::kOCarrierId, Value(p.carrier));
  HTAP_RETURN_NOT_OK(t->Update("orders", order));
  const int64_t ol_cnt = order.Get(col::kOOlCnt).AsInt64();
  for (int64_t l = 1; l <= ol_cnt; ++l) {
    Row ol;
    if (!t->Get("orderline", OrderLineKey(p.w, p.d, o_id, l), &ol).ok())
      continue;
    ol.Set(col::kOlDeliveryD, Value(p.timestamp));
    HTAP_RETURN_NOT_OK(t->Update("orderline", ol));
  }
  return t->Commit();
}

Status OrderStatus(Attempt* t, const TxnParams& p) {
  Row cust;
  HTAP_RETURN_NOT_OK(t->Get("customer", CustomerKey(p.w, p.d, p.c), &cust));
  Row dist;
  HTAP_RETURN_NOT_OK(t->Get("district", DistrictKey(p.w, p.d), &dist));
  const int64_t last = dist.Get(col::kDNextOId).AsInt64() - 1;
  Row order;
  (void)t->Get("orders", OrderKey(p.w, p.d, last), &order);  // may be absent
  return t->Commit();
}

}  // namespace

TxnOutcome RunTxn(Database* db, const TxnParams& p, int64_t retry_ns,
                  const TraceContext& trace) {
  TxnOutcome out;
  const int64_t deadline = NowNs() + retry_ns;
  for (;;) {
    ++out.attempts;
    {
      Attempt t(db, trace);  // a failed attempt aborts at the end of scope
      switch (p.type) {
        case TxnType::kNewOrder: out.status = NewOrder(&t, p); break;
        case TxnType::kPayment: out.status = Payment(&t, p); break;
        case TxnType::kDelivery: out.status = Delivery(&t, p); break;
        case TxnType::kOrderStatus: out.status = OrderStatus(&t, p); break;
      }
    }
    if (!out.status.IsConflict() || NowNs() >= deadline) break;
    // Exponential backoff from 20 us, capped at 20 ms: an immediate retry
    // meets the same uncommitted writer or the same stale snapshot, and the
    // committed-CSN watermark can stall for tens of milliseconds under
    // saturation. On oltp_saturate a budget of 16 attempts (about 120 ms)
    // still let 4 of about 10 million transactions fail, all Payments
    // losing to writers of their warehouse row.
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min(20000, 10 << std::min(out.attempts, 11))));
  }
  return out;
}

}  // namespace htapbench

#include "benchlib/chbench.h"

namespace htap {
namespace bench {

// Column layouts (keep in sync with CreateChTables).
namespace warehouse {
enum { kId = 0, kName, kState, kYtd };
}
namespace district {
enum { kKey = 0, kWId, kDId, kName, kYtd, kNextOId };
}
namespace customer {
enum { kKey = 0, kWId, kDId, kCId, kName, kState, kBalance, kYtdPayment,
       kPaymentCnt };
}
namespace item {
enum { kId = 0, kName, kPrice, kCategory };
}
namespace stock {
enum { kKey = 0, kWId, kIId, kQuantity, kYtd, kOrderCnt };
}
namespace orders {
enum { kKey = 0, kWId, kDId, kOId, kCKey, kEntryD, kCarrierId, kOlCnt };
}
namespace orderline {
enum { kKey = 0, kOKey, kWId, kDId, kOId, kNumber, kIId, kQuantity, kAmount,
       kDeliveryD };
}

Status CreateChTables(Database* db) {
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "warehouse", Schema({{"w_id", Type::kInt64},
                           {"w_name", Type::kString},
                           {"w_state", Type::kString},
                           {"w_ytd", Type::kDouble}})));
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "district", Schema({{"d_key", Type::kInt64},
                          {"d_w_id", Type::kInt64},
                          {"d_id", Type::kInt64},
                          {"d_name", Type::kString},
                          {"d_ytd", Type::kDouble},
                          {"d_next_o_id", Type::kInt64}})));
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "customer", Schema({{"c_key", Type::kInt64},
                          {"c_w_id", Type::kInt64},
                          {"c_d_id", Type::kInt64},
                          {"c_id", Type::kInt64},
                          {"c_name", Type::kString},
                          {"c_state", Type::kString},
                          {"c_balance", Type::kDouble},
                          {"c_ytd_payment", Type::kDouble},
                          {"c_payment_cnt", Type::kInt64}})));
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "item", Schema({{"i_id", Type::kInt64},
                      {"i_name", Type::kString},
                      {"i_price", Type::kDouble},
                      {"i_category", Type::kInt64}})));
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "stock", Schema({{"s_key", Type::kInt64},
                       {"s_w_id", Type::kInt64},
                       {"s_i_id", Type::kInt64},
                       {"s_quantity", Type::kInt64},
                       {"s_ytd", Type::kInt64},
                       {"s_order_cnt", Type::kInt64}})));
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "orders", Schema({{"o_key", Type::kInt64},
                        {"o_w_id", Type::kInt64},
                        {"o_d_id", Type::kInt64},
                        {"o_id", Type::kInt64},
                        {"o_c_key", Type::kInt64},
                        {"o_entry_d", Type::kInt64},
                        {"o_carrier_id", Type::kInt64},
                        {"o_ol_cnt", Type::kInt64}})));
  return db->CreateTable(
      "orderline", Schema({{"ol_key", Type::kInt64},
                           {"ol_o_key", Type::kInt64},
                           {"ol_w_id", Type::kInt64},
                           {"ol_d_id", Type::kInt64},
                           {"ol_o_id", Type::kInt64},
                           {"ol_number", Type::kInt64},
                           {"ol_i_id", Type::kInt64},
                           {"ol_quantity", Type::kInt64},
                           {"ol_amount", Type::kDouble},
                           {"ol_delivery_d", Type::kInt64}}));
}

namespace {

const char* kStates[] = {"CA", "NY", "TX", "WA", "IL", "MA", "FL", "PA"};

/// Commits `rows` into `table` in batches to bound transaction size.
Status BatchInsert(Database* db, const std::string& table,
                   std::vector<Row> rows) {
  constexpr size_t kBatch = 256;
  size_t i = 0;
  while (i < rows.size()) {
    auto txn = db->Begin();
    for (size_t j = 0; j < kBatch && i < rows.size(); ++j, ++i)
      HTAP_RETURN_NOT_OK(txn->Insert(table, rows[i]));
    HTAP_RETURN_NOT_OK(txn->Commit());
  }
  return Status::OK();
}

}  // namespace

Status LoadChData(Database* db, const ChConfig& cfg) {
  Random rng(cfg.seed);

  std::vector<Row> rows;
  for (int i = 1; i <= cfg.items; ++i)
    rows.push_back(Row{Value(static_cast<int64_t>(i)),
                       Value("item_" + std::to_string(i)),
                       Value(1.0 + rng.NextDouble() * 99.0),
                       Value(static_cast<int64_t>(rng.Uniform(10)))});
  HTAP_RETURN_NOT_OK(BatchInsert(db, "item", std::move(rows)));

  rows.clear();
  for (int w = 1; w <= cfg.warehouses; ++w)
    rows.push_back(Row{Value(static_cast<int64_t>(w)),
                       Value("warehouse_" + std::to_string(w)),
                       Value(std::string(kStates[w % 8])),
                       Value(0.0)});
  HTAP_RETURN_NOT_OK(BatchInsert(db, "warehouse", std::move(rows)));

  rows.clear();
  for (int w = 1; w <= cfg.warehouses; ++w)
    for (int d = 1; d <= cfg.districts_per_warehouse; ++d)
      rows.push_back(Row{Value(DistrictKey(w, d)),
                         Value(static_cast<int64_t>(w)),
                         Value(static_cast<int64_t>(d)),
                         Value("district_" + std::to_string(d)),
                         Value(0.0),
                         Value(static_cast<int64_t>(
                             cfg.initial_orders_per_district + 1))});
  HTAP_RETURN_NOT_OK(BatchInsert(db, "district", std::move(rows)));

  rows.clear();
  for (int w = 1; w <= cfg.warehouses; ++w)
    for (int d = 1; d <= cfg.districts_per_warehouse; ++d)
      for (int c = 1; c <= cfg.customers_per_district; ++c)
        rows.push_back(Row{Value(CustomerKey(w, d, c)),
                           Value(static_cast<int64_t>(w)),
                           Value(static_cast<int64_t>(d)),
                           Value(static_cast<int64_t>(c)),
                           Value("customer_" + std::to_string(c)),
                           Value(std::string(kStates[rng.Uniform(8)])),
                           Value(-10.0),
                           Value(10.0),
                           Value(static_cast<int64_t>(1))});
  HTAP_RETURN_NOT_OK(BatchInsert(db, "customer", std::move(rows)));

  rows.clear();
  for (int w = 1; w <= cfg.warehouses; ++w)
    for (int i = 1; i <= cfg.items; ++i)
      rows.push_back(Row{Value(StockKey(w, i)),
                         Value(static_cast<int64_t>(w)),
                         Value(static_cast<int64_t>(i)),
                         Value(static_cast<int64_t>(10 + rng.Uniform(91))),
                         Value(static_cast<int64_t>(0)),
                         Value(static_cast<int64_t>(0))});
  HTAP_RETURN_NOT_OK(BatchInsert(db, "stock", std::move(rows)));

  std::vector<Row> order_rows, ol_rows;
  int64_t entry_clock = 1;
  for (int w = 1; w <= cfg.warehouses; ++w) {
    for (int d = 1; d <= cfg.districts_per_warehouse; ++d) {
      for (int o = 1; o <= cfg.initial_orders_per_district; ++o) {
        const int64_t ol_cnt = 5 + static_cast<int64_t>(rng.Uniform(11));
        const int64_t c = 1 + static_cast<int64_t>(
                                  rng.Uniform(static_cast<uint64_t>(
                                      cfg.customers_per_district)));
        order_rows.push_back(Row{Value(OrderKey(w, d, o)),
                                 Value(static_cast<int64_t>(w)),
                                 Value(static_cast<int64_t>(d)),
                                 Value(static_cast<int64_t>(o)),
                                 Value(CustomerKey(w, d, c)),
                                 Value(entry_clock++),
                                 Value(static_cast<int64_t>(rng.Uniform(10))),
                                 Value(ol_cnt)});
        for (int64_t l = 1; l <= ol_cnt; ++l) {
          const int64_t i =
              1 + static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(cfg.items)));
          const int64_t qty = 1 + static_cast<int64_t>(rng.Uniform(10));
          ol_rows.push_back(Row{Value(OrderLineKey(w, d, o, l)),
                                Value(OrderKey(w, d, o)),
                                Value(static_cast<int64_t>(w)),
                                Value(static_cast<int64_t>(d)),
                                Value(static_cast<int64_t>(o)),
                                Value(l),
                                Value(i),
                                Value(qty),
                                Value(static_cast<double>(qty) *
                                      (1.0 + rng.NextDouble() * 99.0)),
                                Value(entry_clock)});
        }
      }
    }
  }
  HTAP_RETURN_NOT_OK(BatchInsert(db, "orders", std::move(order_rows)));
  return BatchInsert(db, "orderline", std::move(ol_rows));
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

ChTransactions::ChTransactions(Database* db, const ChConfig& config,
                               uint64_t seed)
    : db_(db), config_(config), rng_(seed) {
  clock_ = 1000000 + static_cast<int64_t>(seed % 1000) * 100000;
}

Status ChTransactions::RunOne() {
  ++total_;
  const uint64_t pick = rng_.Uniform(100);
  Status st;
  if (pick < 45) {
    st = NewOrder();
    if (st.ok()) ++new_orders_;
  } else if (pick < 88) {
    st = Payment();
  } else if (pick < 92) {
    st = Delivery();
  } else {
    st = OrderStatus();
  }
  if (!st.ok()) ++aborts_;
  return st;
}

Status ChTransactions::NewOrder() {
  const int64_t w = 1 + static_cast<int64_t>(
                            rng_.Uniform(static_cast<uint64_t>(config_.warehouses)));
  const int64_t d = 1 + static_cast<int64_t>(rng_.Uniform(
                            static_cast<uint64_t>(config_.districts_per_warehouse)));
  const int64_t c = 1 + static_cast<int64_t>(rng_.Uniform(
                            static_cast<uint64_t>(config_.customers_per_district)));
  auto txn = db_->Begin();

  Row dist;
  HTAP_RETURN_NOT_OK(txn->Get("district", DistrictKey(w, d), &dist));
  const int64_t o_id = dist.Get(district::kNextOId).AsInt64();
  dist.Set(district::kNextOId, Value(o_id + 1));
  HTAP_RETURN_NOT_OK(txn->Update("district", dist));

  const int64_t ol_cnt = 5 + static_cast<int64_t>(rng_.Uniform(11));
  HTAP_RETURN_NOT_OK(txn->Insert(
      "orders", Row{Value(OrderKey(w, d, o_id)), Value(w), Value(d),
                    Value(o_id), Value(CustomerKey(w, d, c)), Value(++clock_),
                    Value(static_cast<int64_t>(0)), Value(ol_cnt)}));

  for (int64_t l = 1; l <= ol_cnt; ++l) {
    const int64_t i = rng_.NURand(8191, 1, config_.items);
    Row item_row;
    HTAP_RETURN_NOT_OK(txn->Get("item", i, &item_row));
    const double price = item_row.Get(item::kPrice).AsDouble();

    Row stock_row;
    HTAP_RETURN_NOT_OK(txn->Get("stock", StockKey(w, i), &stock_row));
    const int64_t qty = 1 + static_cast<int64_t>(rng_.Uniform(10));
    int64_t s_qty = stock_row.Get(stock::kQuantity).AsInt64();
    s_qty = s_qty - qty >= 10 ? s_qty - qty : s_qty - qty + 91;
    stock_row.Set(stock::kQuantity, Value(s_qty));
    stock_row.Set(stock::kYtd,
                  Value(stock_row.Get(stock::kYtd).AsInt64() + qty));
    stock_row.Set(stock::kOrderCnt,
                  Value(stock_row.Get(stock::kOrderCnt).AsInt64() + 1));
    HTAP_RETURN_NOT_OK(txn->Update("stock", stock_row));

    HTAP_RETURN_NOT_OK(txn->Insert(
        "orderline",
        Row{Value(OrderLineKey(w, d, o_id, l)), Value(OrderKey(w, d, o_id)),
            Value(w), Value(d), Value(o_id), Value(l), Value(i), Value(qty),
            Value(static_cast<double>(qty) * price),
            Value(static_cast<int64_t>(0))}));
  }
  return txn->Commit();
}

Status ChTransactions::Payment() {
  const int64_t w = 1 + static_cast<int64_t>(
                            rng_.Uniform(static_cast<uint64_t>(config_.warehouses)));
  const int64_t d = 1 + static_cast<int64_t>(rng_.Uniform(
                            static_cast<uint64_t>(config_.districts_per_warehouse)));
  const int64_t c = rng_.NURand(1023, 1, config_.customers_per_district);
  const double amount = 1.0 + rng_.NextDouble() * 4999.0;
  auto txn = db_->Begin();

  Row wh;
  HTAP_RETURN_NOT_OK(txn->Get("warehouse", w, &wh));
  wh.Set(warehouse::kYtd, Value(wh.Get(warehouse::kYtd).AsDouble() + amount));
  HTAP_RETURN_NOT_OK(txn->Update("warehouse", wh));

  Row dist;
  HTAP_RETURN_NOT_OK(txn->Get("district", DistrictKey(w, d), &dist));
  dist.Set(district::kYtd, Value(dist.Get(district::kYtd).AsDouble() + amount));
  HTAP_RETURN_NOT_OK(txn->Update("district", dist));

  Row cust;
  HTAP_RETURN_NOT_OK(txn->Get("customer", CustomerKey(w, d, c), &cust));
  cust.Set(customer::kBalance,
           Value(cust.Get(customer::kBalance).AsDouble() - amount));
  cust.Set(customer::kYtdPayment,
           Value(cust.Get(customer::kYtdPayment).AsDouble() + amount));
  cust.Set(customer::kPaymentCnt,
           Value(cust.Get(customer::kPaymentCnt).AsInt64() + 1));
  HTAP_RETURN_NOT_OK(txn->Update("customer", cust));
  return txn->Commit();
}

Status ChTransactions::Delivery() {
  const int64_t w = 1 + static_cast<int64_t>(
                            rng_.Uniform(static_cast<uint64_t>(config_.warehouses)));
  const int64_t d = 1 + static_cast<int64_t>(rng_.Uniform(
                            static_cast<uint64_t>(config_.districts_per_warehouse)));
  auto txn = db_->Begin();
  Row dist;
  HTAP_RETURN_NOT_OK(txn->Get("district", DistrictKey(w, d), &dist));
  const int64_t next = dist.Get(district::kNextOId).AsInt64();
  if (next <= 1) return txn->Commit();
  const int64_t o_id =
      1 + static_cast<int64_t>(rng_.Uniform(static_cast<uint64_t>(next - 1)));

  Row order;
  Status st = txn->Get("orders", OrderKey(w, d, o_id), &order);
  if (!st.ok()) return txn->Commit();  // already pruned / not found: no-op
  order.Set(orders::kCarrierId,
            Value(1 + static_cast<int64_t>(rng_.Uniform(10))));
  HTAP_RETURN_NOT_OK(txn->Update("orders", order));

  const int64_t ol_cnt = order.Get(orders::kOlCnt).AsInt64();
  for (int64_t l = 1; l <= ol_cnt; ++l) {
    Row ol;
    st = txn->Get("orderline", OrderLineKey(w, d, o_id, l), &ol);
    if (!st.ok()) continue;
    ol.Set(orderline::kDeliveryD, Value(++clock_));
    HTAP_RETURN_NOT_OK(txn->Update("orderline", ol));
  }
  return txn->Commit();
}

Status ChTransactions::OrderStatus() {
  const int64_t w = 1 + static_cast<int64_t>(
                            rng_.Uniform(static_cast<uint64_t>(config_.warehouses)));
  const int64_t d = 1 + static_cast<int64_t>(rng_.Uniform(
                            static_cast<uint64_t>(config_.districts_per_warehouse)));
  const int64_t c = 1 + static_cast<int64_t>(rng_.Uniform(
                            static_cast<uint64_t>(config_.customers_per_district)));
  auto txn = db_->Begin();
  Row cust;
  HTAP_RETURN_NOT_OK(txn->Get("customer", CustomerKey(w, d, c), &cust));
  Row dist;
  HTAP_RETURN_NOT_OK(txn->Get("district", DistrictKey(w, d), &dist));
  const int64_t last = dist.Get(district::kNextOId).AsInt64() - 1;
  Row order;
  txn->Get("orders", OrderKey(w, d, last), &order);  // may be absent
  return txn->Commit();
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

std::vector<ChQuery> ChQueries() {
  std::vector<ChQuery> qs;
  const size_t ol_cols = 10;   // orderline column count
  const size_t o_cols = 8;     // orders column count
  const size_t s_cols = 6;     // stock column count

  {  // Q1: pricing summary by line number.
    ChQuery q;
    q.name = "Q1";
    q.description = "orderline summary grouped by ol_number";
    q.plan.table = "orderline";
    q.plan.group_by = {orderline::kNumber};
    q.plan.aggs = {AggSpec::Count("count_order"),
                   AggSpec::Sum(orderline::kQuantity, "sum_qty"),
                   AggSpec::Sum(orderline::kAmount, "sum_amount"),
                   AggSpec::Avg(orderline::kAmount, "avg_amount")};
    q.plan.order_by = 0;
    qs.push_back(std::move(q));
  }
  {  // Q6: forecast revenue change.
    ChQuery q;
    q.name = "Q6";
    q.description = "revenue from mid-quantity lines";
    q.plan.table = "orderline";
    q.plan.where = Predicate::And({Predicate::Between(
                                       orderline::kQuantity, Value(int64_t{2}),
                                       Value(int64_t{8})),
                                   Predicate::Gt(orderline::kAmount,
                                                 Value(50.0))});
    q.plan.aggs = {AggSpec::Sum(orderline::kAmount, "revenue")};
    qs.push_back(std::move(q));
  }
  {  // Q3-ish: district revenue from recent orders (join).
    ChQuery q;
    q.name = "Q3";
    q.description = "revenue per district via orderline JOIN orders";
    q.plan.table = "orderline";
    q.plan.joins = {
        {"orders", Predicate::True(), orderline::kOKey, orders::kKey}};
    q.plan.group_by = {static_cast<int>(ol_cols) + orders::kDId};
    q.plan.aggs = {AggSpec::Sum(orderline::kAmount, "revenue")};
    q.plan.order_by = 1;
    q.plan.order_desc = true;
    // Full CH shape adds the customer dimension (3-table chain).
    q.sql =
        "SELECT o_d_id, SUM(ol_amount) AS revenue FROM orderline "
        "JOIN orders ON ol_o_key = o_key "
        "JOIN customer ON o_c_key = c_key "
        "WHERE c_balance < 0 GROUP BY o_d_id ORDER BY revenue DESC";
    qs.push_back(std::move(q));
  }
  {  // Q4-ish: order-size distribution over an entry window.
    ChQuery q;
    q.name = "Q4";
    q.description = "order count by ol_cnt for an entry-date window";
    q.plan.table = "orders";
    q.plan.where = Predicate::Gt(orders::kEntryD, Value(int64_t{100}));
    q.plan.group_by = {orders::kOlCnt};
    q.plan.aggs = {AggSpec::Count("order_count")};
    q.plan.order_by = 0;
    qs.push_back(std::move(q));
  }
  {  // Q5-ish: sold volume per item category (stock JOIN item).
    ChQuery q;
    q.name = "Q5";
    q.description = "stock ytd volume per item category";
    q.plan.table = "stock";
    q.plan.joins = {{"item", Predicate::True(), stock::kIId, item::kId}};
    q.plan.group_by = {static_cast<int>(s_cols) + item::kCategory};
    q.plan.aggs = {AggSpec::Sum(stock::kYtd, "volume")};
    q.plan.order_by = 1;
    q.plan.order_desc = true;
    // Full CH shape also walks stock back to its warehouse (3-table chain).
    q.sql =
        "SELECT i_category, SUM(s_ytd) AS volume FROM stock "
        "JOIN item ON s_i_id = i_id "
        "JOIN warehouse ON s_w_id = w_id "
        "GROUP BY i_category ORDER BY volume DESC";
    qs.push_back(std::move(q));
  }
  {  // Q12-ish: carrier distribution.
    ChQuery q;
    q.name = "Q12";
    q.description = "orders and avg size per carrier";
    q.plan.table = "orders";
    q.plan.group_by = {orders::kCarrierId};
    q.plan.aggs = {AggSpec::Count("order_count"),
                   AggSpec::Avg(orders::kOlCnt, "avg_lines")};
    q.plan.order_by = 0;
    qs.push_back(std::move(q));
  }
  {  // Q14-ish: revenue share of premium items (orderline JOIN item).
    ChQuery q;
    q.name = "Q14";
    q.description = "revenue by category for premium items";
    q.plan.table = "orderline";
    q.plan.joins = {{"item", Predicate::Gt(item::kPrice, Value(50.0)),
                     orderline::kIId, item::kId}};
    q.plan.group_by = {static_cast<int>(ol_cols) + item::kCategory};
    q.plan.aggs = {AggSpec::Sum(orderline::kAmount, "revenue")};
    // Full CH shape ties lines back to their order header (3-table chain).
    q.sql =
        "SELECT i_category, SUM(ol_amount) AS revenue FROM orderline "
        "JOIN item ON ol_i_id = i_id "
        "JOIN orders ON ol_o_key = o_key "
        "WHERE i_price > 50 GROUP BY i_category ORDER BY revenue DESC";
    qs.push_back(std::move(q));
  }
  {  // Q18-ish: top customers by ordered volume.
    ChQuery q;
    q.name = "Q18";
    q.description = "top-10 customers by total ordered lines";
    q.plan.table = "orders";
    q.plan.group_by = {orders::kCKey};
    q.plan.aggs = {AggSpec::Sum(orders::kOlCnt, "total_lines"),
                   AggSpec::Count("order_count")};
    q.plan.order_by = 1;
    q.plan.order_desc = true;
    q.plan.limit = 10;
    qs.push_back(std::move(q));
  }
  {  // Q19-ish: revenue from mid-priced items at given quantities.
    ChQuery q;
    q.name = "Q19";
    q.description = "revenue from quantity band joined to item price band";
    q.plan.table = "orderline";
    q.plan.where = Predicate::Between(orderline::kQuantity, Value(int64_t{3}),
                                      Value(int64_t{7}));
    q.plan.joins = {
        {"item", Predicate::Between(item::kPrice, Value(20.0), Value(80.0)),
         orderline::kIId, item::kId}};
    q.plan.aggs = {AggSpec::Sum(orderline::kAmount, "revenue")};
    qs.push_back(std::move(q));
  }
  {  // Stock-level (TPC-C's analytical flavor).
    ChQuery q;
    q.name = "QSL";
    q.description = "low-stock item count";
    q.plan.table = "stock";
    q.plan.where = Predicate::Lt(stock::kQuantity, Value(int64_t{15}));
    q.plan.aggs = {AggSpec::Count("low_stock")};
    qs.push_back(std::move(q));
  }
  {  // Customer balance by state.
    ChQuery q;
    q.name = "QCB";
    q.description = "customer count and avg balance per state";
    q.plan.table = "customer";
    q.plan.group_by = {customer::kState};
    q.plan.aggs = {AggSpec::Count("customers"),
                   AggSpec::Avg(customer::kBalance, "avg_balance")};
    q.plan.order_by = 0;
    qs.push_back(std::move(q));
  }
  {  // Orders per district (freshness-sensitive: grows with NewOrders).
    ChQuery q;
    q.name = "QOD";
    q.description = "order count per district";
    q.plan.table = "orders";
    q.plan.group_by = {orders::kDId};
    q.plan.aggs = {AggSpec::Count("order_count")};
    q.plan.order_by = 1;
    q.plan.order_desc = true;
    qs.push_back(std::move(q));
  }
  (void)o_cols;
  return qs;
}

}  // namespace bench
}  // namespace htap

// The TPC-C transaction mix of the CH-benCHmark, split into a parameter draw
// and a Run over fixed parameters, so that a transaction that loses a
// write-write conflict is retried with identical inputs, as a TPC-C terminal
// does. Rows and keys match benchlib's CreateChTables/LoadChData, and the mix
// matches ChTransactions::RunOne (45% NewOrder, 43% Payment, 4% Delivery,
// 8% OrderStatus).

#ifndef HTAPBENCH_TPCC_H_
#define HTAPBENCH_TPCC_H_

#include <cstdint>
#include <vector>

#include "benchlib/chbench.h"
#include "common/random.h"
#include "core/database.h"
#include "trace.h"

namespace htapbench {

// Column positions of the CH tables (benchlib's CreateChTables).
namespace col {
enum Warehouse { kWYtd = 3 };
enum District { kDYtd = 4, kDNextOId = 5 };
enum Customer { kCBalance = 6, kCYtdPayment = 7, kCPaymentCnt = 8 };
enum Item { kIPrice = 2 };
enum Stock { kSQuantity = 3, kSYtd = 4, kSOrderCnt = 5 };
enum Orders { kOCarrierId = 6, kOOlCnt = 7 };
enum OrderLine { kOlDeliveryD = 9 };
}  // namespace col

enum class TxnType : uint8_t { kNewOrder, kPayment, kDelivery, kOrderStatus };
const char* TxnName(TxnType t);

struct OrderLineParams {
  int64_t item = 0;
  int64_t quantity = 0;
};

/// Everything a transaction needs from the random stream. Delivery draws the
/// order it delivers as `pick` modulo the district's order count at run time.
struct TxnParams {
  TxnType type = TxnType::kPayment;
  int64_t w = 1, d = 1, c = 1;
  double amount = 0;                  // Payment
  std::vector<OrderLineParams> lines;  // NewOrder
  int64_t carrier = 0;                // Delivery
  uint64_t pick = 0;                  // Delivery
  int64_t timestamp = 0;              // NewOrder entry / Delivery date
};

/// One client's parameter stream. Not thread-safe; one per worker.
class TxnDraw {
 public:
  TxnDraw(const htap::bench::ChConfig& config, uint64_t seed);
  TxnParams Next();

 private:
  htap::bench::ChConfig config_;
  htap::Random rng_;
  int64_t clock_;
};

/// What one transaction did, for the benchmark's counters.
struct TxnOutcome {
  htap::Status status;
  int attempts = 0;
};

/// Runs `p` to commit, retrying a Conflict with the same parameters until
/// `retry_ns` have passed since the first attempt. When `trace` is traced
/// every Begin/Get/Insert/Update/Commit call is recorded as a span.
TxnOutcome RunTxn(htap::Database* db, const TxnParams& p, int64_t retry_ns,
                  const TraceContext& trace);

}  // namespace htapbench

#endif  // HTAPBENCH_TPCC_H_

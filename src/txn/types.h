// Core transaction vocabulary: commit sequence numbers (CSNs), transaction
// ids, snapshots, and change events.
//
// Timestamp scheme (Hekaton-style): version begin/end fields hold either a
// CSN (high bit clear) or the id of the still-active transaction that wrote
// them (high bit set). Commit replaces txn ids with the commit CSN.

#ifndef HTAP_TXN_TYPES_H_
#define HTAP_TXN_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "types/row.h"

namespace htap {

/// Commit sequence number. Strictly increasing across commits; doubles as
/// the snapshot timestamp for readers.
using CSN = uint64_t;

/// Sentinel: version is the current (live) one.
inline constexpr CSN kMaxCSN = ~0ULL;

/// Transaction-id bit: raw timestamps with this bit set name an in-flight
/// transaction rather than a CSN.
inline constexpr uint64_t kTxnIdBit = 1ULL << 63;

inline bool IsTxnId(uint64_t raw) {
  return raw != kMaxCSN && (raw & kTxnIdBit) != 0;
}

/// A consistent read view: sees all versions committed at or before
/// `begin_csn`, plus its own transaction's writes (if txn_id != 0).
struct Snapshot {
  CSN begin_csn = 0;
  uint64_t txn_id = 0;  // 0 for read-only snapshot queries
};

/// Logical operation in a change stream / WAL record.
enum class ChangeOp : uint8_t { kInsert = 0, kUpdate = 1, kDelete = 2 };

inline const char* ChangeOpName(ChangeOp op) {
  switch (op) {
    case ChangeOp::kInsert: return "INSERT";
    case ChangeOp::kUpdate: return "UPDATE";
    case ChangeOp::kDelete: return "DELETE";
  }
  return "?";
}

/// A committed row change, as published to delta stores, replication
/// streams, and the column-store sync pipeline.
struct ChangeEvent {
  uint32_t table_id = 0;
  ChangeOp op = ChangeOp::kInsert;
  Key key = 0;
  Row row;       // full new image (empty for deletes)
  CSN csn = 0;   // commit CSN
};

/// The consumer of committed changes: a transaction manager hands every
/// commit's batch to its one sink, which routes it on (delta stores,
/// freshness tracking).
class ChangeSink {
 public:
  virtual ~ChangeSink() = default;
  /// Called once per commit that wrote, in commit (CSN) order, after the
  /// versions are stamped. `events` is non-empty, every event carries the
  /// commit CSN, and the sink owns the batch (rows move on from here). Must
  /// not call back into the transaction manager.
  virtual void OnCommit(std::vector<ChangeEvent> events) = 0;
};

}  // namespace htap

#endif  // HTAP_TXN_TYPES_H_

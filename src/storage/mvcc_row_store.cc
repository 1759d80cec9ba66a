#include "storage/mvcc_row_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <new>

#include "txn/txn_manager.h"

namespace htap {

namespace {

/// The begin stamp of an evicted image restored as a version: at or below
/// every snapshot. An image is evicted only once its CSN is at or below the
/// GC watermark, so no snapshot that can still read the chain predates it.
constexpr CSN kHeapImageCsn = 1;

}  // namespace

// ---- RowVersion blocks ------------------------------------------------------

RowVersion* RowVersion::Make(const Row& row) {
  const size_t n = row.size();
  void* block = ::operator new(BlockBytes(n));
  auto* v = new (block) RowVersion();
  const auto count = static_cast<uint32_t>(n);
  std::memcpy(v->bytes() + kCountOffset, &count, sizeof(count));
  uint8_t* tags = v->tags();
  uint64_t* payloads = v->payloads();
  for (size_t i = 0; i < n; ++i) row.Get(i).PackTo(&tags[i], &payloads[i]);
  return v;
}

void RowVersion::Free(RowVersion* v) {
  const size_t n = v->num_cells();
  const uint8_t* tags = v->tags();
  const uint64_t* payloads = v->payloads();
  for (size_t i = 0; i < n; ++i) Value::FreePacked(tags[i], payloads[i]);
  v->~RowVersion();
  ::operator delete(v);
}

void RowVersion::Overwrite(const Row& row) {
  const size_t n = num_cells();
  assert(row.size() == n);
  uint8_t* t = tags();
  uint64_t* p = payloads();
  for (size_t i = 0; i < n; ++i) {
    Value::FreePacked(t[i], p[i]);
    row.Get(i).PackTo(&t[i], &p[i]);
  }
}

size_t RowVersion::HeapBytes() const {
  const size_t n = num_cells();
  const uint8_t* t = tags();
  const uint64_t* p = payloads();
  size_t b = BlockBytes(n);
  for (size_t i = 0; i < n; ++i) b += Value::PackedHeapBytes(t[i], p[i]);
  return b;
}

void RowVersion::DecodeTo(Row* out) const {
  const size_t n = num_cells();
  if (out->size() != n) *out = Row(std::vector<Value>(n));
  const uint8_t* t = tags();
  const uint64_t* p = payloads();
  for (size_t i = 0; i < n; ++i) out->Mutable(i).AssignPacked(t[i], p[i]);
}

// ---- MvccRowStore -----------------------------------------------------------

MvccRowStore::MvccRowStore(uint32_t table_id, Schema schema,
                           TransactionManager* txn_mgr, WalWriter* wal,
                           DiskRowStore* heap)
    : table_id_(table_id),
      schema_(std::move(schema)),
      txn_mgr_(txn_mgr),
      wal_(wal),
      heap_(heap) {}

MvccRowStore::~MvccRowStore() {
  if (txn_mgr_ != nullptr) txn_mgr_->ForgetStore(this);
  for (ChainStripe& s : stripes_) {
    for (VersionChain& chain : s.chains) {
      RowVersion* v = chain.latest;
      while (v != nullptr) {
        RowVersion* older = v->older;
        Destroy(v);
        v = older;
      }
    }
  }
}

VersionChain* MvccRowStore::GetOrCreateChain(Key key) {
  uint64_t payload;
  if (index_.Lookup(key, &payload))
    return reinterpret_cast<VersionChain*>(payload);
  ChainStripe& s = stripe(key);
  SpinGuard g(s.latch);
  // Double-check under the stripe latch: a same-key writer hashes to the
  // same stripe, so another creation attempt is either visible in the index
  // by now or serialized behind us.
  if (index_.Lookup(key, &payload))
    return reinterpret_cast<VersionChain*>(payload);
  VersionChain* chain = &s.chains.emplace_back(key);
  index_.Insert(key, reinterpret_cast<uint64_t>(chain));
  mem_bytes_.fetch_add(sizeof(VersionChain), std::memory_order_relaxed);
  return chain;
}

VersionChain* MvccRowStore::FindChain(Key key) const {
  uint64_t payload;
  if (!index_.Lookup(key, &payload)) return nullptr;
  return reinterpret_cast<VersionChain*>(payload);
}

bool MvccRowStore::Visible(const RowVersion* v, const Snapshot& snap) const {
  // Resolve the begin stamp.
  while (true) {
    // order: acquire pairs with the release stores that stamp begin (writer
    // publish in Insert/Update, CSN re-stamp in TransactionManager::Commit)
    // so the version's cells and older field written before the stamp are
    // visible.
    const uint64_t raw_b = v->begin.load(std::memory_order_acquire);
    if (IsTxnId(raw_b)) {
      if (raw_b == snap.txn_id) break;  // our own write
      CSN csn;
      TxnState state;
      if (!txn_mgr_->GetCommitInfo(raw_b, &csn, &state)) continue;  // re-read
      if (state == TxnState::kCommitted && csn != 0 && csn <= snap.begin_csn)
        break;
      return false;  // active, aborted, or committed after our snapshot
    }
    if (raw_b > snap.begin_csn) return false;
    break;
  }
  // Resolve the end stamp.
  while (true) {
    // order: acquire pairs with the release end-stamp stores (delete/update
    // claim, commit re-stamp) — same publication edge as begin above.
    const uint64_t raw_e = v->end.load(std::memory_order_acquire);
    if (raw_e == kMaxCSN) return true;
    if (IsTxnId(raw_e)) {
      if (raw_e == snap.txn_id) return false;  // we superseded/deleted it
      CSN csn;
      TxnState state;
      if (!txn_mgr_->GetCommitInfo(raw_e, &csn, &state)) continue;  // re-read
      if (state == TxnState::kCommitted && csn != 0)
        return csn > snap.begin_csn;
      return true;  // deleter still in flight or aborted: visible to us
    }
    return raw_e > snap.begin_csn;
  }
}

void MvccRowStore::LogDml(Transaction* txn, WalRecordType type, Key key,
                          const Row& row) {
  if (wal_ != nullptr) wal_->AppendDml(type, txn->id(), table_id_, key, row);
}

RowVersion* MvccRowStore::NewVersion(const Row& row) {
  RowVersion* v = RowVersion::Make(row);
  versions_.fetch_add(1, std::memory_order_relaxed);
  mem_bytes_.fetch_add(v->HeapBytes(), std::memory_order_relaxed);
  return v;
}

void MvccRowStore::Destroy(RowVersion* v) {
  ReleaseBytes(v->HeapBytes());
  versions_.fetch_sub(1, std::memory_order_relaxed);
  RowVersion::Free(v);
}

void MvccRowStore::ReleaseBytes(size_t bytes) {
  mem_bytes_.fetch_sub(
      std::min(mem_bytes_.load(std::memory_order_relaxed), bytes),
      std::memory_order_relaxed);
}

Status MvccRowStore::Insert(Transaction* txn, const Row& row) {
  if (row.size() != schema_.num_columns())
    return Status::InvalidArgument("row arity mismatch");
  if (heap_ != nullptr && !DiskRowStore::Fits(row))
    return Status::InvalidArgument("row exceeds a heap page");
  const Key key = row.GetKey(schema_);
  VersionChain* chain = GetOrCreateChain(key);
  SpinGuard g(chain->latch);

  // An evicted chain is a live row every snapshot sees: no heap read needed.
  if (chain->heap_epoch % 2 != 0)
    return Status::AlreadyExists("key exists: " + std::to_string(key));
  RowVersion* latest = chain->latest;
  if (latest != nullptr) {
    // order: acquire pairs with the commit-time release re-stamp
    // (TransactionManager::Commit), which runs without the chain latch.
    const uint64_t raw_b = latest->begin.load(std::memory_order_acquire);
    const uint64_t raw_e = latest->end.load(std::memory_order_acquire);  // order: ^
    if (raw_e == kMaxCSN) {
      // A live version exists (or is being created).
      if (IsTxnId(raw_b) && raw_b != txn->id()) {
        txn_mgr_->RecordConflict();
        return Status::Conflict("uncommitted insert by another txn");
      }
      return Status::AlreadyExists("key exists: " + std::to_string(key));
    }
    if (IsTxnId(raw_e) && raw_e != txn->id()) {
      txn_mgr_->RecordConflict();
      return Status::Conflict("uncommitted delete by another txn");
    }
    if (!IsTxnId(raw_e) && raw_e > txn->begin_csn()) {
      // Deleted after our snapshot began: write-write conflict under SI.
      txn_mgr_->RecordConflict();
      return Status::Conflict("key deleted after snapshot");
    }
  }

  RowVersion* v = NewVersion(row);
  // order: release so a latch-free reader that acquires this stamp also
  // sees the version's construction, cells included.
  v->begin.store(txn->id(), std::memory_order_release);
  v->older = latest;
  chain->latest = v;

  txn->undo().push_back(
      UndoEntry{UndoEntry::Kind::kInsert, this, chain, v, nullptr});
  txn->RecordChange(table_id_, ChangeOp::kInsert, key, v);
  LogDml(txn, WalRecordType::kInsert, key, row);
  return Status::OK();
}

Status MvccRowStore::Update(Transaction* txn, const Row& row) {
  if (row.size() != schema_.num_columns())
    return Status::InvalidArgument("row arity mismatch");
  if (heap_ != nullptr && !DiskRowStore::Fits(row))
    return Status::InvalidArgument("row exceeds a heap page");
  const Key key = row.GetKey(schema_);
  VersionChain* chain = FindChain(key);
  if (chain == nullptr) return Status::NotFound("no such key");
  Row image;
  uint32_t image_epoch = 0;  // the chain's heap_epoch `image` was read at
  while (true) {
    {
      SpinGuard g(chain->latch);
      if (MakeResident(chain, image, &image_epoch))
        return UpdateLocked(txn, chain, key, row);
    }
    HTAP_RETURN_NOT_OK(ReadImage(chain, image_epoch, &image));
  }
}

Status MvccRowStore::UpdateLocked(Transaction* txn, VersionChain* chain,
                                  Key key, const Row& row) {
  RowVersion* latest = chain->latest;
  if (latest == nullptr) return Status::NotFound("no such key");
  // order: acquire pairs with the commit-time release re-stamp
  // (TransactionManager::Commit), which runs without the chain latch.
  const uint64_t raw_b = latest->begin.load(std::memory_order_acquire);
  const uint64_t raw_e = latest->end.load(std::memory_order_acquire);  // order: ^

  if (raw_e != kMaxCSN) {
    if (IsTxnId(raw_e)) {
      if (raw_e == txn->id()) return Status::NotFound("deleted by this txn");
      txn_mgr_->RecordConflict();
      return Status::Conflict("row claimed by another txn");
    }
    if (raw_e > txn->begin_csn()) {
      txn_mgr_->RecordConflict();
      return Status::Conflict("row deleted after snapshot");
    }
    return Status::NotFound("row deleted");
  }
  if (IsTxnId(raw_b)) {
    if (raw_b != txn->id()) {
      txn_mgr_->RecordConflict();
      return Status::Conflict("uncommitted insert by another txn");
    }
    // Updating our own uncommitted version: rewrite its cells in place
    // (the schema fixes the arity, so the block never grows).
    const size_t before = latest->HeapBytes();
    latest->Overwrite(row);
    mem_bytes_.fetch_add(latest->HeapBytes(), std::memory_order_relaxed);
    ReleaseBytes(before);
    txn->RecordChange(table_id_, ChangeOp::kUpdate, key, latest);
    LogDml(txn, WalRecordType::kUpdate, key, row);
    return Status::OK();
  }
  if (raw_b > txn->begin_csn()) {
    txn_mgr_->RecordConflict();
    return Status::Conflict("row written after snapshot");
  }

  RowVersion* v = NewVersion(row);
  // order: release publishes the new version's construction to latch-free
  // stamp readers (same edge as the Insert path).
  v->begin.store(txn->id(), std::memory_order_release);
  v->older = latest;
  // order: release so the end claim is never reordered before the new
  // version's publication above.
  latest->end.store(txn->id(), std::memory_order_release);
  chain->latest = v;

  txn->undo().push_back(
      UndoEntry{UndoEntry::Kind::kUpdate, this, chain, v, latest});
  txn->RecordChange(table_id_, ChangeOp::kUpdate, key, v);
  LogDml(txn, WalRecordType::kUpdate, key, row);
  return Status::OK();
}

Status MvccRowStore::Delete(Transaction* txn, Key key) {
  VersionChain* chain = FindChain(key);
  if (chain == nullptr) return Status::NotFound("no such key");
  Row image;
  uint32_t image_epoch = 0;  // the chain's heap_epoch `image` was read at
  while (true) {
    {
      SpinGuard g(chain->latch);
      if (MakeResident(chain, image, &image_epoch))
        return DeleteLocked(txn, chain, key);
    }
    HTAP_RETURN_NOT_OK(ReadImage(chain, image_epoch, &image));
  }
}

Status MvccRowStore::DeleteLocked(Transaction* txn, VersionChain* chain,
                                  Key key) {
  RowVersion* latest = chain->latest;
  if (latest == nullptr) return Status::NotFound("no such key");
  // order: acquire pairs with the commit-time release re-stamp
  // (TransactionManager::Commit), which runs without the chain latch.
  const uint64_t raw_b = latest->begin.load(std::memory_order_acquire);
  const uint64_t raw_e = latest->end.load(std::memory_order_acquire);  // order: ^

  if (raw_e != kMaxCSN) {
    if (IsTxnId(raw_e)) {
      if (raw_e == txn->id()) return Status::NotFound("already deleted");
      txn_mgr_->RecordConflict();
      return Status::Conflict("row claimed by another txn");
    }
    if (raw_e > txn->begin_csn()) {
      txn_mgr_->RecordConflict();
      return Status::Conflict("row deleted after snapshot");
    }
    return Status::NotFound("row deleted");
  }
  if (IsTxnId(raw_b) && raw_b != txn->id()) {
    txn_mgr_->RecordConflict();
    return Status::Conflict("uncommitted insert by another txn");
  }
  if (!IsTxnId(raw_b) && raw_b > txn->begin_csn()) {
    txn_mgr_->RecordConflict();
    return Status::Conflict("row written after snapshot");
  }

  // order: release so a latch-free Visible() that acquires this claim also
  // sees everything this txn wrote before it.
  latest->end.store(txn->id(), std::memory_order_release);
  txn->undo().push_back(
      UndoEntry{UndoEntry::Kind::kDelete, this, chain, nullptr, latest});
  txn->RecordChange(table_id_, ChangeOp::kDelete, key, nullptr);
  LogDml(txn, WalRecordType::kDelete, key, Row{});
  return Status::OK();
}

bool MvccRowStore::MakeResident(VersionChain* chain, const Row& image,
                                uint32_t* image_epoch) {
  if (chain->heap_epoch % 2 == 0) return true;
  if (chain->heap_epoch != *image_epoch) {
    *image_epoch = chain->heap_epoch;
    return false;
  }
  // Put the image back as the chain's only version before anyone replaces
  // it, so snapshots that predate the write keep reading it from memory.
  RowVersion* v = NewVersion(image);
  // order: release publishes the restored version to latch-free stamp
  // readers (same edge as the Insert path).
  v->begin.store(kHeapImageCsn, std::memory_order_release);
  chain->latest = v;
  ++chain->heap_epoch;
  return true;
}

Status MvccRowStore::ReadImage(VersionChain* chain, uint32_t epoch,
                               Row* out) const {
  const Status st = heap_->Get(chain->key, out);
  if (st.ok()) return st;
  SpinGuard g(chain->latch);
  // The chain moved on: a writer restored it, and may since have committed
  // a delete or a new image to the heap. The caller's re-check of the
  // epoch sees the move and starts again.
  if (chain->heap_epoch != epoch) return Status::OK();
  // Still evicted at `epoch`: its image must be in the heap.
  return st.IsNotFound() ? Status::Corruption("evicted row not in heap") : st;
}

bool MvccRowStore::ReadVisible(VersionChain* chain, const Snapshot& snap,
                               Row* out, bool* found, Status* error) const {
  {
    SpinGuard g(chain->latch);
    if (chain->heap_epoch % 2 == 0) {
      const RowVersion* v = VisibleVersion(chain, snap);
      *found = v != nullptr;
      if (*found) v->DecodeTo(out);
      return true;
    }
  }
  return ReadEvicted(chain, snap, out, found, error);
}

bool MvccRowStore::ReadEvicted(VersionChain* chain, const Snapshot& snap,
                               Row* out, bool* found, Status* error) const {
  uint32_t image_epoch;
  {
    SpinGuard g(chain->latch);
    image_epoch = chain->heap_epoch;
  }
  if (image_epoch % 2 == 0) return ReadVisible(chain, snap, out, found, error);
  *error = ReadImage(chain, image_epoch, out);
  if (!error->ok()) return false;
  {
    SpinGuard g(chain->latch);
    // Still evicted at the same epoch: the image is the chain's, and every
    // snapshot sees it. Otherwise start again.
    *found = chain->heap_epoch == image_epoch;
  }
  return *found || ReadVisible(chain, snap, out, found, error);
}

Status MvccRowStore::Get(const Snapshot& snap, Key key, Row* out) const {
  VersionChain* chain = FindChain(key);
  if (chain == nullptr) return Status::NotFound("no such key");
  bool found;
  Status error;
  if (!ReadVisible(chain, snap, out, &found, &error)) return error;
  return found ? Status::OK() : Status::NotFound("no visible version");
}

Status MvccRowStore::Scan(
    const Snapshot& snap,
    const std::function<bool(Key, const Row&)>& visit) const {
  return ScanRange(snap, std::numeric_limits<Key>::min(),
                   std::numeric_limits<Key>::max(), visit);
}

Status MvccRowStore::ScanRange(
    const Snapshot& snap, Key lo, Key hi,
    const std::function<bool(Key, const Row&)>& visit) const {
  Row scratch;  // decoded into for every key; reuses its string buffers
  Status error;
  index_.Scan(lo, hi, [&](Key key, uint64_t payload) {
    auto* chain = reinterpret_cast<VersionChain*>(payload);
    bool found;
    bool evicted;
    {
      // ReadVisible's resident path, inline: a scan pays it per key.
      SpinGuard g(chain->latch);
      evicted = chain->heap_epoch % 2 != 0;
      if (!evicted) {
        const RowVersion* v = VisibleVersion(chain, snap);
        found = v != nullptr;
        if (found) v->DecodeTo(&scratch);
      }
    }
    if (evicted && !ReadEvicted(chain, snap, &scratch, &found, &error))
      return false;
    return !found || visit(key, scratch);  // nothing visible: keep scanning
  });
  return error;
}

std::vector<std::pair<Key, Key>> MvccRowStore::SplitKeyRanges(size_t n) const {
  constexpr Key kLo = std::numeric_limits<Key>::min();
  constexpr Key kHi = std::numeric_limits<Key>::max();
  std::vector<std::pair<Key, Key>> ranges;
  const size_t total = index_.size();
  if (n <= 1 || total < 2 * n) {
    ranges.emplace_back(kLo, kHi);
    return ranges;
  }
  // One index pass collecting every stride-th key as a partition boundary.
  const size_t stride = (total + n - 1) / n;
  std::vector<Key> bounds;
  bounds.reserve(n);
  size_t i = 0;
  index_.ScanAll([&](Key k, uint64_t) {
    if (i != 0 && i % stride == 0) bounds.push_back(k);
    ++i;
    return true;
  });
  Key lo = kLo;
  for (Key b : bounds) {
    // b follows at least one smaller indexed key, so b > kLo and b-1 is safe.
    ranges.emplace_back(lo, b - 1);
    lo = b;
  }
  ranges.emplace_back(lo, kHi);
  return ranges;
}

void MvccRowStore::ApplyCommitted(ChangeOp op, Key key, const Row& row,
                                  CSN csn) {
  assert(heap_ == nullptr);
  VersionChain* chain = GetOrCreateChain(key);
  SpinGuard g(chain->latch);
  switch (op) {
    case ChangeOp::kInsert:
    case ChangeOp::kUpdate: {
      RowVersion* v = NewVersion(row);
      // order: release/acquire — same begin/end publication edges as the
      // transactional DML paths; concurrent snapshot readers resolve these
      // stamps latch-free in Visible().
      v->begin.store(csn, std::memory_order_release);
      v->older = chain->latest;
      if (chain->latest != nullptr &&
          chain->latest->end.load(std::memory_order_acquire) ==  // order: ^
              kMaxCSN) {
        chain->latest->end.store(csn, std::memory_order_release);  // order: ^
      } else if (chain->latest == nullptr || op == ChangeOp::kInsert) {
        live_rows_.fetch_add(1, std::memory_order_relaxed);
      }
      chain->latest = v;
      break;
    }
    case ChangeOp::kDelete: {
      if (chain->latest != nullptr &&
          chain->latest->end.load(std::memory_order_acquire) ==  // order: ^
              kMaxCSN) {
        chain->latest->end.store(csn, std::memory_order_release);  // order: ^
        live_rows_.fetch_sub(1, std::memory_order_relaxed);
      }
      break;
    }
  }
}

void MvccRowStore::AccountCommittedEntry(const UndoEntry& u) {
  switch (u.kind) {
    case UndoEntry::Kind::kInsert:
      live_rows_.fetch_add(1, std::memory_order_relaxed);
      break;
    case UndoEntry::Kind::kDelete:
      live_rows_.fetch_sub(1, std::memory_order_relaxed);
      break;
    case UndoEntry::Kind::kUpdate:
      break;
  }
}

void MvccRowStore::RollbackEntry(const UndoEntry& u) {
  SpinGuard g(u.chain->latch);
  switch (u.kind) {
    case UndoEntry::Kind::kInsert: {
      assert(u.chain->latest == u.new_version);
      u.chain->latest = u.new_version->older;
      Destroy(u.new_version);
      break;
    }
    case UndoEntry::Kind::kUpdate: {
      assert(u.chain->latest == u.new_version);
      u.chain->latest = u.old_version;
      // order: release — resurrecting the old version is a publication a
      // latch-free stamp reader may consume with its acquire load.
      u.old_version->end.store(kMaxCSN, std::memory_order_release);
      Destroy(u.new_version);
      break;
    }
    case UndoEntry::Kind::kDelete: {
      u.old_version->end.store(kMaxCSN, std::memory_order_release);  // order: ^
      break;
    }
  }
}

size_t MvccRowStore::PruneChain(VersionChain* chain, CSN watermark) {
  RowVersion* dead = nullptr;
  {
    SpinGuard g(chain->latch);
    if (chain->latest == nullptr) return 0;
    // Keep the latest version; cut at the first older version whose end CSN
    // is at or below the watermark. It is invisible to every registered
    // snapshot (all begin at or after the watermark), and so is everything
    // older, whose end CSNs are smaller still.
    RowVersion* keep = chain->latest;
    for (RowVersion* v = keep->older; v != nullptr; keep = v, v = v->older) {
      // order: acquire pairs with the commit-time release re-stamp so a
      // freshly retired CSN is read consistently with the version data.
      const uint64_t raw_e = v->end.load(std::memory_order_acquire);
      if (!IsTxnId(raw_e) && raw_e != kMaxCSN && raw_e <= watermark) {
        keep->older = nullptr;
        dead = v;
        break;
      }
    }
    RowVersion* only = chain->latest;
    if (heap_ != nullptr && only->older == nullptr) {
      // order: acquire, as for the end stamps above.
      const uint64_t raw_b = only->begin.load(std::memory_order_acquire);
      const uint64_t raw_e = only->end.load(std::memory_order_acquire);  // ^
      const bool deleted =
          !IsTxnId(raw_e) && raw_e != kMaxCSN && raw_e <= watermark;
      const bool evict = raw_e == kMaxCSN && !IsTxnId(raw_b) &&
                         raw_b <= watermark && raw_b <= HeapCsn();
      if (deleted || evict) {
        only->older = dead;  // freed with the cut tail below
        dead = only;
        chain->latest = nullptr;
        if (evict) ++chain->heap_epoch;  // odd: the image is in the heap
      }
    }
  }
  // Unlinked under the latch, which every reader holds while it walks the
  // chain, so no reader can still reach these versions.
  size_t reclaimed = 0;
  while (dead != nullptr) {
    RowVersion* older = dead->older;
    Destroy(dead);
    ++reclaimed;
    dead = older;
  }
  return reclaimed;
}

void MvccRowStore::HeapWritten(CSN csn, bool ok) {
  // Only the change sink calls this, one commit at a time.
  if (!ok) heap_failed_.store(true, std::memory_order_relaxed);
  if (heap_failed_.load(std::memory_order_relaxed)) return;
  // order: release pairs with HeapCsn()'s acquire.
  heap_csn_.store(csn, std::memory_order_release);
}

size_t MvccRowStore::Vacuum(CSN watermark) {
  size_t reclaimed = 0;
  std::vector<VersionChain*> chains;
  for (ChainStripe& s : stripes_) {
    chains.clear();
    {
      SpinGuard g(s.latch);
      for (VersionChain& chain : s.chains) chains.push_back(&chain);
    }
    for (VersionChain* chain : chains) reclaimed += PruneChain(chain, watermark);
  }
  return reclaimed;
}

}  // namespace htap

#include "delta/delta.h"

#include <algorithm>

namespace htap {

namespace {

size_t EntryBytes(const DeltaEntry& e) {
  return sizeof(DeltaEntry) + e.row.MemoryBytes();
}

DeltaEntry FromEvent(ChangeEvent&& ev) {
  return DeltaEntry{ev.op, ev.key, std::move(ev.row), ev.csn};
}

}  // namespace

// ---------------------------------------------------------------------------
// InMemoryDeltaStore
// ---------------------------------------------------------------------------

void InMemoryDeltaStore::Append(const DeltaEntry& e) {
  MutexLock lk(&mu_);
  mem_bytes_ += EntryBytes(e);
  entries_.push_back(e);
}

void InMemoryDeltaStore::AppendBatch(std::span<ChangeEvent> events) {
  MutexLock lk(&mu_);
  for (auto& ev : events) {
    entries_.push_back(FromEvent(std::move(ev)));
    mem_bytes_ += EntryBytes(entries_.back());
  }
}

void InMemoryDeltaStore::ScanVisible(
    CSN snapshot, const std::function<void(const DeltaEntry&)>& visit) const {
  MutexLock lk(&mu_);
  for (const auto& e : entries_) {
    if (e.csn > snapshot) break;  // commit order: everything after is newer
    visit(e);
  }
}

size_t InMemoryDeltaStore::EntryCount() const {
  MutexLock lk(&mu_);
  return entries_.size();
}

size_t InMemoryDeltaStore::MemoryBytes() const {
  MutexLock lk(&mu_);
  return mem_bytes_;
}

std::vector<DeltaEntry> InMemoryDeltaStore::DrainUpTo(CSN csn) {
  MutexLock lk(&mu_);
  std::vector<DeltaEntry> out;
  while (!entries_.empty() && entries_.front().csn <= csn) {
    mem_bytes_ -= std::min(mem_bytes_, EntryBytes(entries_.front()));
    out.push_back(std::move(entries_.front()));
    entries_.pop_front();
  }
  return out;
}

CSN InMemoryDeltaStore::max_csn() const {
  MutexLock lk(&mu_);
  return entries_.empty() ? 0 : entries_.back().csn;
}

// ---------------------------------------------------------------------------
// L1L2DeltaStore
// ---------------------------------------------------------------------------

L1L2DeltaStore::L1L2DeltaStore(Schema schema, size_t l1_spill_threshold)
    : schema_(std::move(schema)), l1_spill_threshold_(l1_spill_threshold) {}

void L1L2DeltaStore::Append(const DeltaEntry& e) {
  MutexLock lk(&mu_);
  l1_.push_back(e);
  if (l1_.size() >= l1_spill_threshold_) SpillL1Locked();
}

void L1L2DeltaStore::AppendBatch(std::span<ChangeEvent> events) {
  MutexLock lk(&mu_);
  for (auto& ev : events) l1_.push_back(FromEvent(std::move(ev)));
  if (l1_.size() >= l1_spill_threshold_) SpillL1Locked();
}

void L1L2DeltaStore::SpillL1() {
  MutexLock lk(&mu_);
  SpillL1Locked();
}

void L1L2DeltaStore::SpillL1Locked() {
  if (l1_.empty()) return;
  L2Chunk chunk;
  chunk.num_rows = l1_.size();
  chunk.ops.reserve(l1_.size());
  chunk.keys.reserve(l1_.size());
  chunk.csns.reserve(l1_.size());
  for (size_t c = 0; c < schema_.num_columns(); ++c)
    chunk.columns.emplace_back(schema_.column(c).type);

  for (const DeltaEntry& e : l1_) {
    chunk.ops.push_back(e.op);
    chunk.keys.push_back(e.key);
    chunk.csns.push_back(e.csn);
    chunk.max_csn = std::max(chunk.max_csn, e.csn);
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      if (e.op == ChangeOp::kDelete)
        chunk.columns[c].AppendNull();
      else
        chunk.columns[c].AppendValue(e.row.Get(c));
    }
  }
  l1_.clear();
  l2_.push_back(std::move(chunk));
}

DeltaEntry L1L2DeltaStore::L2Entry(const L2Chunk& c, size_t i) const {
  DeltaEntry e;
  e.op = c.ops[i];
  e.key = c.keys[i];
  e.csn = c.csns[i];
  if (e.op != ChangeOp::kDelete) {
    for (size_t col = 0; col < c.columns.size(); ++col)
      e.row.Append(c.columns[col].GetValue(i));
  }
  return e;
}

void L1L2DeltaStore::ScanVisible(
    CSN snapshot, const std::function<void(const DeltaEntry&)>& visit) const {
  MutexLock lk(&mu_);
  // L2 chunks are strictly older than L1 (spill preserves order).
  for (const auto& chunk : l2_) {
    for (size_t i = 0; i < chunk.num_rows; ++i) {
      if (chunk.csns[i] > snapshot) return;
      visit(L2Entry(chunk, i));
    }
  }
  for (const auto& e : l1_) {
    if (e.csn > snapshot) return;
    visit(e);
  }
}

size_t L1L2DeltaStore::EntryCount() const {
  MutexLock lk(&mu_);
  size_t n = l1_.size();
  for (const auto& c : l2_) n += c.num_rows;
  return n;
}

size_t L1L2DeltaStore::L2Chunk::MemoryBytes() const {
  size_t b = sizeof(*this) + ops.capacity() + keys.capacity() * 8 +
             csns.capacity() * 8;
  for (const auto& col : columns) b += col.MemoryBytes();
  return b;
}

size_t L1L2DeltaStore::MemoryBytes() const {
  MutexLock lk(&mu_);
  size_t b = 0;
  for (const auto& e : l1_) b += EntryBytes(e);
  for (const auto& c : l2_) b += c.MemoryBytes();
  return b;
}

std::vector<DeltaEntry> L1L2DeltaStore::DrainUpTo(CSN csn) {
  MutexLock lk(&mu_);
  std::vector<DeltaEntry> out;
  while (!l2_.empty() && l2_.front().max_csn <= csn) {
    const L2Chunk& c = l2_.front();
    for (size_t i = 0; i < c.num_rows; ++i) out.push_back(L2Entry(c, i));
    l2_.pop_front();
  }
  // Partial L2 chunk: split it.
  if (!l2_.empty() && !l2_.front().csns.empty() && l2_.front().csns[0] <= csn) {
    L2Chunk& c = l2_.front();
    std::deque<DeltaEntry> keep;
    for (size_t i = 0; i < c.num_rows; ++i) {
      DeltaEntry e = L2Entry(c, i);
      if (e.csn <= csn)
        out.push_back(std::move(e));
      else
        keep.push_back(std::move(e));
    }
    l2_.pop_front();
    for (auto it = keep.rbegin(); it != keep.rend(); ++it)
      l1_.push_front(std::move(*it));  // demote remainder back to L1
  }
  while (!l1_.empty() && l1_.front().csn <= csn) {
    out.push_back(std::move(l1_.front()));
    l1_.pop_front();
  }
  return out;
}

size_t L1L2DeltaStore::l1_size() const {
  MutexLock lk(&mu_);
  return l1_.size();
}

size_t L1L2DeltaStore::l2_size() const {
  MutexLock lk(&mu_);
  size_t n = 0;
  for (const auto& c : l2_) n += c.num_rows;
  return n;
}

// ---------------------------------------------------------------------------
// LogDeltaStore
// ---------------------------------------------------------------------------

void LogDeltaStore::EncodeEntry(const DeltaEntry& e, std::string* out) {
  out->push_back(static_cast<char>(e.op));
  Value(e.key).EncodeTo(out);
  Value(static_cast<int64_t>(e.csn)).EncodeTo(out);
  e.row.EncodeTo(out);
}

bool LogDeltaStore::DecodeEntry(const std::string& in, size_t* pos,
                                DeltaEntry* out) {
  if (*pos >= in.size()) return false;
  out->op = static_cast<ChangeOp>(in[(*pos)++]);
  Value v;
  if (!Value::DecodeFrom(in, pos, &v) || !v.is_int64()) return false;
  out->key = v.AsInt64();
  if (!Value::DecodeFrom(in, pos, &v) || !v.is_int64()) return false;
  out->csn = static_cast<CSN>(v.AsInt64());
  return Row::DecodeFrom(in, pos, &out->row);
}

void LogDeltaStore::AppendFile(const std::vector<DeltaEntry>& entries) {
  if (entries.empty()) return;
  DeltaFile f;
  f.count = entries.size();
  f.min_csn = entries.front().csn;
  f.max_csn = entries.front().csn;
  for (const auto& e : entries) {
    f.min_csn = std::min(f.min_csn, e.csn);
    f.max_csn = std::max(f.max_csn, e.csn);
    EncodeEntry(e, &f.blob);
  }
  MutexLock lk(&mu_);
  const uint64_t seq = file_seq_base_ + files_.size();
  files_.push_back(std::move(f));
  for (size_t i = 0; i < entries.size(); ++i)
    key_index_.Insert(entries[i].key, (seq << 32) | i);
}

void LogDeltaStore::AppendBatch(std::span<ChangeEvent> events) {
  std::vector<DeltaEntry> entries;
  entries.reserve(events.size());
  for (auto& ev : events) entries.push_back(FromEvent(std::move(ev)));
  AppendFile(entries);
}

void LogDeltaStore::ScanVisible(
    CSN snapshot, const std::function<void(const DeltaEntry&)>& visit) const {
  MutexLock lk(&mu_);
  for (const auto& f : files_) {
    if (f.min_csn > snapshot) break;
    // Reads must decode the file — the cost the survey flags for this design.
    bytes_decoded_.fetch_add(f.blob.size(), std::memory_order_relaxed);
    size_t pos = 0;
    DeltaEntry e;
    while (DecodeEntry(f.blob, &pos, &e)) {
      if (e.csn > snapshot) return;
      visit(e);
    }
  }
}

size_t LogDeltaStore::EntryCount() const {
  MutexLock lk(&mu_);
  size_t n = 0;
  for (const auto& f : files_) n += f.count;
  return n;
}

size_t LogDeltaStore::MemoryBytes() const {
  MutexLock lk(&mu_);
  size_t b = key_index_.MemoryBytes();
  for (const auto& f : files_) b += f.blob.capacity() + sizeof(DeltaFile);
  return b;
}

bool LogDeltaStore::LookupLatest(Key key, DeltaEntry* out) const {
  MutexLock lk(&mu_);
  uint64_t payload;
  if (!key_index_.Lookup(key, &payload)) return false;
  const uint64_t seq = payload >> 32;
  const uint32_t idx = static_cast<uint32_t>(payload & 0xffffffffu);
  if (seq < file_seq_base_) return false;  // stale index entry: file merged
  const DeltaFile& f = files_[seq - file_seq_base_];
  bytes_decoded_.fetch_add(f.blob.size(), std::memory_order_relaxed);
  size_t pos = 0;
  DeltaEntry e;
  uint32_t i = 0;
  while (DecodeEntry(f.blob, &pos, &e)) {
    if (i == idx) {
      *out = std::move(e);
      return true;
    }
    ++i;
  }
  return false;
}

std::vector<DeltaEntry> LogDeltaStore::DrainUpTo(CSN csn) {
  MutexLock lk(&mu_);
  std::vector<DeltaEntry> out;
  while (!files_.empty() && files_.front().max_csn <= csn) {
    const DeltaFile& f = files_.front();
    size_t pos = 0;
    DeltaEntry e;
    while (DecodeEntry(f.blob, &pos, &e)) out.push_back(std::move(e));
    files_.pop_front();
    ++file_seq_base_;
  }
  return out;
}

size_t LogDeltaStore::num_files() const {
  MutexLock lk(&mu_);
  return files_.size();
}

}  // namespace htap

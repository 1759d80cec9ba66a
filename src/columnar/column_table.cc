#include "columnar/column_table.h"

#include "columnar/compression_advisor.h"

namespace htap {

void ColumnTable::EnableCompressionAdvisor(bool on) {
  WriteGuard g(latch_);
  advise_encodings_ = on;
}

void ColumnTable::AppendBatch(std::vector<Row> rows, CSN up_to_csn) {
  WriteGuard g(latch_);
  AppendBatchLocked(std::move(rows), up_to_csn);
}

void ColumnTable::AppendBatchLocked(std::vector<Row> rows, CSN up_to_csn) {
  AppendGroupLocked(std::move(rows));
  // order: release — freshness probes read merged_csn_ with acquire outside
  // the latch; the merged rows must be visible before the watermark.
  merged_csn_.store(up_to_csn, std::memory_order_release);
}

void ColumnTable::AppendGroupLocked(std::vector<Row> rows) {
  if (rows.empty()) return;
  auto group = std::make_unique<RowGroup>();
  group->num_rows = rows.size();
  group->keys.reserve(rows.size());
  for (const Row& r : rows) {
    const Key key = r.GetKey(schema_);
    // Updates: delete-mark existing positions first.
    const auto it = key_index_.find(key);
    if (it != key_index_.end())
      groups_[it->second.first]->deleted.Set(it->second.second);
    group->keys.push_back(key);
  }
  group->deleted.Resize(rows.size());

  group->columns.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    ColumnVector vec(schema_.column(c).type);
    vec.Reserve(rows.size());
    for (const Row& r : rows) vec.AppendValue(r.Get(c));
    group->columns.push_back(
        advise_encodings_
            ? Segment::BuildWithEncoding(vec, AdviseEncoding(vec).chosen)
            : Segment::Build(vec));
  }

  const uint32_t gidx = static_cast<uint32_t>(groups_.size());
  for (size_t i = 0; i < rows.size(); ++i)
    key_index_[group->keys[i]] = {gidx, static_cast<uint32_t>(i)};
  groups_.push_back(std::move(group));
}

bool ColumnTable::DeleteKey(Key key, CSN csn) {
  WriteGuard g(latch_);
  return DeleteKeyLocked(key, csn);
}

bool ColumnTable::DeleteKeyLocked(Key key, CSN csn) {
  const auto it = key_index_.find(key);
  bool found = false;
  if (it != key_index_.end()) {
    groups_[it->second.first]->deleted.Set(it->second.second);
    key_index_.erase(it);
    found = true;
  }
  if (csn > merged_csn_.load(std::memory_order_relaxed))
    // order: release — as AppendBatch: the delete must be visible before
    // the watermark that advertises it.
    merged_csn_.store(csn, std::memory_order_release);
  return found;
}

size_t ColumnTable::Compact() {
  WriteGuard g(latch_);
  size_t before = 0, after = 0;
  for (auto& gp : groups_) before += gp->MemoryBytes();

  // Gather all live rows, rebuild as a fresh group list.
  std::vector<Row> live;
  for (const auto& gp : groups_) {
    for (size_t i = 0; i < gp->num_rows; ++i) {
      if (gp->deleted.Test(i)) continue;
      Row r;
      for (const auto& col : gp->columns) r.Append(col.Get(i));
      live.push_back(std::move(r));
    }
  }
  groups_.clear();
  key_index_.clear();
  AppendGroupLocked(std::move(live));
  for (auto& gp : groups_) after += gp->MemoryBytes();
  return before > after ? before - after : 0;
}

size_t ColumnTable::num_groups() const {
  ReadGuard g(latch_);
  return groups_.size();
}

const RowGroup* ColumnTable::group(size_t i) const {
  ReadGuard g(latch_);
  return groups_[i].get();
}

Row ColumnTable::MaterializeRow(const RowGroup& g, size_t offset) const {
  Row r;
  for (const auto& col : g.columns) r.Append(col.Get(offset));
  return r;
}

bool ColumnTable::FindKey(Key key, size_t* group_idx, size_t* offset) const {
  ReadGuard g(latch_);
  const auto it = key_index_.find(key);
  if (it == key_index_.end()) return false;
  if (groups_[it->second.first]->deleted.Test(it->second.second)) return false;
  *group_idx = it->second.first;
  *offset = it->second.second;
  return true;
}

size_t ColumnTable::live_rows() const {
  ReadGuard g(latch_);
  size_t n = 0;
  for (const auto& gp : groups_) n += gp->num_rows - gp->deleted.Count();
  return n;
}

size_t ColumnTable::MemoryBytes() const {
  ReadGuard g(latch_);
  size_t b = sizeof(*this) +
             KeyIndexBytes(key_index_.size(), key_index_.bucket_count());
  for (const auto& gp : groups_) b += gp->MemoryBytes();
  return b;
}

size_t ColumnTable::KeyIndexBytes(size_t entries, size_t buckets) {
  // glibc malloc: an 8-byte chunk header, chunks in 16-byte steps.
  constexpr size_t kNodeBytes =
      (sizeof(void*) + sizeof(KeyIndex::value_type) + sizeof(size_t) + 15) /
      16 * 16;
  return buckets * sizeof(void*) + entries * kNodeBytes;
}

EncodingBreakdown ColumnTable::EncodingStats() const {
  ReadGuard g(latch_);
  EncodingBreakdown out;
  for (const auto& gp : groups_) {
    for (const Segment& seg : gp->columns) {
      const auto e = static_cast<size_t>(seg.encoded().encoding);
      ++out.segments[e];
      out.bytes[e] += seg.MemoryBytes();
    }
  }
  return out;
}

}  // namespace htap

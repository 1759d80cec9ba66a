#include "storage/disk_row_store.h"

#include <cstring>

namespace htap {

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

void BufferPool::Touch(Frame& f) {
  lru_.splice(lru_.begin(), lru_, f.lru_it);  // f.lru_it stays valid
}

Status BufferPool::EvictIfNeeded() {
  while (frames_.size() >= capacity_) {
    const uint32_t victim = lru_.back();
    Frame& f = frames_[victim];
    if (f.dirty) HTAP_RETURN_NOT_OK(writer_(victim, f.data));
    lru_.pop_back();
    frames_.erase(victim);
    ++evictions_;
  }
  return Status::OK();
}

Status BufferPool::Fetch(uint32_t page_id, std::string** out) {
  const auto it = frames_.find(page_id);
  if (it != frames_.end()) {
    ++hits_;
    Touch(it->second);
    *out = &it->second.data;
    return Status::OK();
  }
  ++misses_;
  HTAP_RETURN_NOT_OK(EvictIfNeeded());
  std::string data;
  HTAP_RETURN_NOT_OK(loader_(page_id, &data));
  lru_.push_front(page_id);
  Frame f;
  f.data = std::move(data);
  f.lru_it = lru_.begin();
  auto [ins_it, ok] = frames_.emplace(page_id, std::move(f));
  *out = &ins_it->second.data;
  return Status::OK();
}

Status BufferPool::FetchForWrite(uint32_t page_id, std::string** out) {
  HTAP_RETURN_NOT_OK(Fetch(page_id, out));
  frames_.find(page_id)->second.dirty = true;
  return Status::OK();
}

Status BufferPool::PutDirty(uint32_t page_id, std::string page) {
  const auto it = frames_.find(page_id);
  if (it != frames_.end()) {
    it->second.data = std::move(page);
    it->second.dirty = true;
    Touch(it->second);
    return Status::OK();
  }
  HTAP_RETURN_NOT_OK(EvictIfNeeded());
  lru_.push_front(page_id);
  Frame f;
  f.data = std::move(page);
  f.dirty = true;
  f.lru_it = lru_.begin();
  frames_.emplace(page_id, std::move(f));
  return Status::OK();
}

Status BufferPool::FlushDirty() {
  for (auto& [id, f] : frames_) {
    if (!f.dirty) continue;
    HTAP_RETURN_NOT_OK(writer_(id, f.data));
    f.dirty = false;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DiskRowStore
// ---------------------------------------------------------------------------

DiskRowStore::DiskRowStore(std::string path, Schema schema, size_t pool_pages)
    : path_(std::move(path)), schema_(std::move(schema)), pool_(pool_pages) {
  pool_.SetBackend(
      [this](uint32_t id, std::string* out) { return LoadPageFromFile(id, out); },
      [this](uint32_t id, const std::string& data) {
        return WritePageToFile(id, data);
      });
}

DiskRowStore::~DiskRowStore() {
  Flush();
  if (file_) std::fclose(file_);
}

Status DiskRowStore::Open() {
  MutexLock lk(&mu_);
  file_ = std::fopen(path_.c_str(), "r+b");
  if (!file_) file_ = std::fopen(path_.c_str(), "w+b");
  if (!file_) return Status::IOError("cannot open heap file: " + path_);

  std::fseek(file_, 0, SEEK_END);
  const long size = std::ftell(file_);
  num_pages_ = static_cast<uint32_t>((size + kDiskPageSize - 1) /
                                     static_cast<long>(kDiskPageSize));

  // Rebuild the index by scanning every page; the newest record per key
  // wins (heap order == append order).
  index_.clear();
  for (uint32_t p = 0; p < num_pages_; ++p) {
    std::string page;
    HTAP_RETURN_NOT_OK(LoadPageFromFile(p, &page));
    size_t pos = 0;
    while (pos + 4 < page.size()) {
      const size_t rec_start = pos;
      bool tombstone;
      Key key;
      if (!ParseRecord(page, &pos, &tombstone, &key, nullptr)) break;
      if (tombstone)
        index_.erase(key);
      else
        index_[key] = RecordLoc{p, static_cast<uint32_t>(rec_start)};
    }
    if (p + 1 == num_pages_) {
      tail_page_id_ = p;
      tail_used_ = 0;
      // Find actual used bytes in the tail page.
      size_t q = 0;
      while (q + 4 < page.size()) {
        uint32_t len;
        std::memcpy(&len, page.data() + q, 4);
        if (len == 0 || q + 4 + len > page.size()) break;
        q += 4 + len;
      }
      tail_used_ = q;
    }
  }
  if (num_pages_ == 0) {
    tail_page_id_ = 0;
    tail_used_ = 0;
    num_pages_ = 1;
    HTAP_RETURN_NOT_OK(pool_.PutDirty(0, std::string(kDiskPageSize, '\0')));
  }
  return Status::OK();
}

bool DiskRowStore::ParseRecord(std::string_view page, size_t* pos,
                               bool* tombstone, Key* key, Row* row) {
  if (*pos + 4 > page.size()) return false;
  uint32_t len;
  std::memcpy(&len, page.data() + *pos, 4);
  if (len == 0 || *pos + 4 + len > page.size()) return false;
  size_t p = *pos + 4;
  *tombstone = page[p++] != 0;
  uint64_t k;
  std::memcpy(&k, page.data() + p, 8);
  p += 8;
  *key = static_cast<Key>(k);
  // The row payload occupies the rest of the record; decode it in place.
  if (!*tombstone && row != nullptr &&
      !Row::DecodeFrom(page.substr(0, *pos + 4 + len), &p, row))
    return false;
  *pos += 4 + len;
  return true;
}

Status DiskRowStore::LoadPageFromFile(uint32_t page_id, std::string* out) {
  out->assign(kDiskPageSize, '\0');
  if (!file_) return Status::IOError("store not open");
  if (std::fseek(file_, static_cast<long>(page_id) *
                            static_cast<long>(kDiskPageSize),
                 SEEK_SET) != 0)
    return Status::IOError("seek failed");
  const size_t n = std::fread(out->data(), 1, kDiskPageSize, file_);
  (void)n;  // short read at EOF is fine: zero-filled
  return Status::OK();
}

Status DiskRowStore::WritePageToFile(uint32_t page_id,
                                     const std::string& data) {
  if (!file_) return Status::IOError("store not open");
  if (std::fseek(file_, static_cast<long>(page_id) *
                            static_cast<long>(kDiskPageSize),
                 SEEK_SET) != 0)
    return Status::IOError("seek failed");
  if (std::fwrite(data.data(), 1, kDiskPageSize, file_) != kDiskPageSize)
    return Status::IOError("short page write");
  return Status::OK();
}

Status DiskRowStore::AppendRecord(bool tombstone, Key key, const Row& row) {
  std::string& body = record_;
  body.clear();
  body.push_back(tombstone ? 1 : 0);
  const uint64_t k = static_cast<uint64_t>(key);
  body.append(reinterpret_cast<const char*>(&k), 8);
  if (!tombstone) row.EncodeTo(&body);
  const uint32_t len = static_cast<uint32_t>(body.size());
  if (4 + len > kDiskPageSize)
    return Status::InvalidArgument("row exceeds page size");

  if (tail_used_ + 4 + len > kDiskPageSize) {
    // Tail page full: start a new one.
    ++tail_page_id_;
    ++num_pages_;
    tail_used_ = 0;
    HTAP_RETURN_NOT_OK(
        pool_.PutDirty(tail_page_id_, std::string(kDiskPageSize, '\0')));
  }

  // Write the record into the pooled tail page itself.
  std::string* page;
  HTAP_RETURN_NOT_OK(pool_.FetchForWrite(tail_page_id_, &page));
  std::memcpy(page->data() + tail_used_, &len, 4);
  std::memcpy(page->data() + tail_used_ + 4, body.data(), body.size());
  const RecordLoc loc{tail_page_id_, static_cast<uint32_t>(tail_used_)};
  tail_used_ += 4 + len;
  if (tombstone)
    index_.erase(key);
  else
    index_[key] = loc;
  return Status::OK();
}

Status DiskRowStore::PutLocked(Key key, const Row& row) {
  if (row.size() != schema_.num_columns())
    return Status::InvalidArgument("row arity mismatch");
  return AppendRecord(false, key, row);
}

Status DiskRowStore::DeleteLocked(Key key) {
  if (!index_.contains(key)) return Status::NotFound("no such key");
  return AppendRecord(true, key, Row{});
}

Status DiskRowStore::Put(const Row& row) {
  MutexLock lk(&mu_);
  return PutLocked(row.GetKey(schema_), row);
}

Status DiskRowStore::Delete(Key key) {
  MutexLock lk(&mu_);
  return DeleteLocked(key);
}

Status DiskRowStore::Apply(std::span<const ChangeEvent> events) {
  MutexLock lk(&mu_);
  for (const ChangeEvent& ev : events)
    HTAP_RETURN_NOT_OK(ev.op == ChangeOp::kDelete ? DeleteLocked(ev.key)
                                                  : PutLocked(ev.key, ev.row));
  return Status::OK();
}

Status DiskRowStore::ReadRecordAt(RecordLoc loc, bool* tombstone, Key* key,
                                  Row* out) {
  std::string* page;
  HTAP_RETURN_NOT_OK(pool_.Fetch(loc.page_id, &page));
  size_t pos = loc.offset;
  if (!ParseRecord(*page, &pos, tombstone, key, out))
    return Status::Corruption("bad record");
  return Status::OK();
}

Status DiskRowStore::Get(Key key, Row* out) {
  MutexLock lk(&mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return Status::NotFound("no such key");
  bool tombstone;
  Key k;
  HTAP_RETURN_NOT_OK(ReadRecordAt(it->second, &tombstone, &k, out));
  if (tombstone || k != key) return Status::Corruption("index out of sync");
  return Status::OK();
}

Status DiskRowStore::Flush() {
  MutexLock lk(&mu_);
  if (!file_) return Status::OK();
  HTAP_RETURN_NOT_OK(pool_.FlushDirty());
  std::fflush(file_);
  return Status::OK();
}

size_t DiskRowStore::live_keys() const {
  MutexLock lk(&mu_);
  return index_.size();
}

}  // namespace htap

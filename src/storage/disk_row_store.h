// Disk-backed row heap with an LRU buffer pool — the "disk row store" of
// architecture (c) (MySQL Heatwave's InnoDB side).
//
// Layout: an append-only heap file of fixed-size pages; each record is an
// upsert or tombstone for a key; an in-memory index maps each key to its
// newest record. Reads go through the buffer pool, so cold reads pay real
// page I/O. (c)'s MVCC store evicts the versions this heap holds and reads
// them back with Get (DESIGN.md §22), so its row scans and TP point reads
// pay the pool — the cost behind the survey's Table 1 "Medium" AP rating
// when queries fall back to the row store.

#ifndef HTAP_STORAGE_DISK_ROW_STORE_H_
#define HTAP_STORAGE_DISK_ROW_STORE_H_

#include <cstdio>
#include <functional>
#include <list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "txn/types.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// Fixed page size of the heap file.
inline constexpr size_t kDiskPageSize = 8192;

/// Counter snapshot of a BufferPool, copied out under the owner's lock.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t cached_pages = 0;
};

/// LRU page cache. Not internally synchronized: the owning DiskRowStore
/// serializes every call (and every counter read) under its own mutex.
class BufferPool {
 public:
  using LoadFn = std::function<Status(uint32_t, std::string*)>;
  using WriteFn = std::function<Status(uint32_t, const std::string&)>;

  explicit BufferPool(size_t capacity_pages)
      : capacity_(capacity_pages == 0 ? 1 : capacity_pages) {}

  void SetBackend(LoadFn loader, WriteFn writer) {
    loader_ = std::move(loader);
    writer_ = std::move(writer);
  }

  /// Returns the cached page, loading on a miss (may evict, writing back a
  /// dirty victim). Returned pointer is valid until the next pool call.
  Status Fetch(uint32_t page_id, std::string** out);

  /// Fetch for a write in place: also marks the page dirty, so the pool
  /// writes it back on eviction or flush. Counts a hit or miss as Fetch does.
  Status FetchForWrite(uint32_t page_id, std::string** out);

  /// Installs/overwrites a page image and marks it dirty.
  Status PutDirty(uint32_t page_id, std::string page);

  /// Writes back all dirty pages.
  Status FlushDirty();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  size_t cached_pages() const { return frames_.size(); }

 private:
  struct Frame {
    std::string data;
    bool dirty = false;
    std::list<uint32_t>::iterator lru_it;
  };

  void Touch(Frame& f);
  Status EvictIfNeeded();

  const size_t capacity_;
  LoadFn loader_;
  WriteFn writer_;
  std::unordered_map<uint32_t, Frame> frames_;
  std::list<uint32_t> lru_;  // front = most recent
  uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

class DiskRowStore {
 public:
  DiskRowStore(std::string path, Schema schema, size_t pool_pages = 64);
  ~DiskRowStore();

  /// Opens (creating if absent) and rebuilds the key index from the heap.
  Status Open();

  /// Whether `row`'s record fits in one page. Put rejects a row that does
  /// not with InvalidArgument: a record never spans pages.
  static bool Fits(const Row& row) {
    return kRecordHeaderBytes + row.EncodedBytes() <= kDiskPageSize;
  }

  /// Upserts the row under its primary key.
  Status Put(const Row& row);
  Status Delete(Key key);
  Status Get(Key key, Row* out);

  /// Writes a commit's events for this heap, in order, under one hold of
  /// the mutex: an upsert per insert or update, a tombstone per delete.
  /// Stops at the first failure.
  Status Apply(std::span<const ChangeEvent> events);

  /// Flushes buffered pages to the file.
  Status Flush();

  size_t live_keys() const;
  uint32_t num_pages() const {
    MutexLock lk(&mu_);
    return num_pages_;
  }
  /// Buffer-pool counters, copied out under the store mutex (the pool itself
  /// is not internally synchronized, so no reference escapes).
  BufferPoolStats pool_stats() const {
    MutexLock lk(&mu_);
    return BufferPoolStats{pool_.hits(), pool_.misses(), pool_.evictions(),
                           pool_.cached_pages()};
  }
  const Schema& schema() const { return schema_; }

 private:
  // A record: 4-byte length, tombstone byte, 8-byte key, encoded row.
  static constexpr size_t kRecordHeaderBytes = 4 + 1 + 8;

  struct RecordLoc {
    uint32_t page_id;
    uint32_t offset;
  };

  Status PutLocked(Key key, const Row& row) REQUIRES(mu_);
  Status DeleteLocked(Key key) REQUIRES(mu_);
  Status AppendRecord(bool tombstone, Key key, const Row& row) REQUIRES(mu_);
  Status LoadPageFromFile(uint32_t page_id, std::string* out) REQUIRES(mu_);
  Status WritePageToFile(uint32_t page_id, const std::string& data)
      REQUIRES(mu_);
  Status ReadRecordAt(RecordLoc loc, bool* tombstone, Key* key, Row* out)
      REQUIRES(mu_);
  /// Decodes the record at *pos in place and advances *pos past it. A null
  /// `row` skips the payload.
  static bool ParseRecord(std::string_view page, size_t* pos, bool* tombstone,
                          Key* key, Row* row);

  const std::string path_;
  const Schema schema_;
  mutable Mutex mu_{LockRank::kDiskHeap, "disk-row-store"};
  FILE* file_ GUARDED_BY(mu_) = nullptr;
  BufferPool pool_ GUARDED_BY(mu_);
  std::unordered_map<Key, RecordLoc> index_ GUARDED_BY(mu_);
  uint32_t num_pages_ GUARDED_BY(mu_) = 0;  // includes tail page once non-empty
  uint32_t tail_page_id_ GUARDED_BY(mu_) = 0;
  size_t tail_used_ GUARDED_BY(mu_) = 0;  // bytes used in the tail page
  std::string record_ GUARDED_BY(mu_);  // AppendRecord's reused encode buffer
};

}  // namespace htap

#endif  // HTAP_STORAGE_DISK_ROW_STORE_H_

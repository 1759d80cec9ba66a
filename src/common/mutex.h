// Annotated, ranked lock wrappers. htap::Mutex / htap::SharedMutex are
// drop-in replacements for std::mutex / std::shared_mutex that
//   (a) carry Clang thread-safety CAPABILITY annotations so -Wthread-safety
//       can follow our own lock vocabulary across the codebase, and
//   (b) in HTAP_LOCK_RANK builds carry a LockRank + name and feed a runtime
//       lock-rank checker: a thread-local stack of held ranks that aborts —
//       printing both lock names — the moment any thread acquires a lock
//       whose rank is lower than one it already holds. Capability analysis
//       is intra-procedural and cannot see cross-mutex ordering; the rank
//       checker covers exactly that gap (DESIGN.md §11).
//
// In release builds (HTAP_LOCK_RANK off) the rank/name are not stored and
// every check compiles away: sizeof(htap::Mutex) == sizeof(std::mutex),
// enforced by static_assert below. The toggle is a project-wide compile
// definition (not NDEBUG) so mixed translation units can never disagree on
// the wrapper layout (ODR).

#ifndef HTAP_COMMON_MUTEX_H_
#define HTAP_COMMON_MUTEX_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

#if !defined(HTAP_LOCK_RANK_CHECKS)
#if defined(HTAP_ENABLE_LOCK_RANK_CHECKS)
#define HTAP_LOCK_RANK_CHECKS 1
#else
#define HTAP_LOCK_RANK_CHECKS 0
#endif
#endif

namespace htap {

/// Global lock-acquisition order, ascending: a thread holding a lock of rank
/// R may only acquire locks of rank >= R. Equal ranks are permitted (no two
/// same-rank locks nest anywhere today; a future same-rank pair must order
/// by address or use TryLock). The ranking is derived from the real nesting
/// chains in the code — see DESIGN.md §11 for the evidence per edge.
enum class LockRank : uint16_t {
  kDistEngine = 50,     // DistributedHtapEngine::mu_ (outermost: held across a whole call)
  kSyncDaemon = 100,    // SyncDaemon::tasks_mu_ (outermost: holds across MergeDelta)
  kTxnCommit = 200,     // TransactionManager::publish_mu_ (orders sink publication)
  kTxnShard = 210,      // TransactionManager per-shard commit frontier (inflight CSNs)
  kEngineTableSync = 280,  // per-TableState merge mutex (local engine; held
                           // across generation snapshot + drain + stats)
  kEngineTables = 300,  // LocalHtapEngine::tables_mu_ (table map + state)
  kDiskHeap = 450,      // DiskRowStore::mu_ (heap file + buffer pool)
  kTableLatch = 500,    // ColumnTable::latch_ (RWLatch over row groups)
  kDeltaStore = 550,    // delta-store mutexes (in-memory, L1/L2, log)
  kStoreChains = 600,   // MvccRowStore chain-directory stripes
  kBtree = 650,         // BTree::smo_mu_ (serializes merges/root collapse)
  kEbr = 660,           // EpochManager::limbo_mu_ (taken under SMO via Retire)
  kVersionChain = 700,  // per-VersionChain SpinLatch
  kTxnActive = 750,     // TransactionManager::active_mu_ (taken under chain latch
                        // via Visible() -> GetCommitInfo())
  kWal = 800,           // WalWriter::mu_ (taken under chain latch via LogDml)
  kCatalog = 850,       // Catalog::mu_ (innermost registry; published to from sync)
  kFreshness = 860,     // FreshnessTracker::mu_
  kAdvisor = 870,       // ColumnAdvisor::mu_
  kTaskGroup = 900,     // TaskGroup::mu_ (taken under table latch during fan-out)
  kThreadPool = 910,    // ThreadPool::mu_ (taken under TaskGroup::Run)
  kLeaf = 1000,         // default: strictly-leaf locks that never nest others
};

namespace lock_rank {

// Internals of the runtime checker; compiled unconditionally (tiny), called
// only when HTAP_LOCK_RANK_CHECKS is on. Exposed for lock_rank_test.
//
// OnAcquire: validate `rank` against every rank this thread already holds
// and abort with both names on violation, then record the hold.
// OnTryAcquire: record without validating (try-lock escape hatch — a failed
// ordering cannot deadlock because TryLock never blocks).
// OnRelease: drop the most recent record for `lock` (non-LIFO release ok).
void OnAcquire(const void* lock, uint16_t rank, const char* name);
void OnTryAcquire(const void* lock, uint16_t rank, const char* name);
void OnRelease(const void* lock);

/// Number of locks the calling thread currently holds (test hook).
int HeldCountForTest();

}  // namespace lock_rank

/// Annotated, ranked std::mutex. Also satisfies the standard Lockable
/// concept (lowercase lock/unlock/try_lock) so it works with
/// std::condition_variable_any and std::scoped_lock.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex([[maybe_unused]] LockRank rank = LockRank::kLeaf,
                 [[maybe_unused]] const char* name = "mutex")
#if HTAP_LOCK_RANK_CHECKS
      : rank_(static_cast<uint16_t>(rank)), name_(name)
#endif
  {
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if HTAP_LOCK_RANK_CHECKS
    lock_rank::OnAcquire(this, rank_, name_);
#endif
    mu_.lock();
  }

  void Unlock() RELEASE() {
    mu_.unlock();
#if HTAP_LOCK_RANK_CHECKS
    lock_rank::OnRelease(this);
#endif
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if HTAP_LOCK_RANK_CHECKS
    lock_rank::OnTryAcquire(this, rank_, name_);
#endif
    return true;
  }

  // Lockable concept (condition_variable_any, std::scoped_lock).
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }

 private:
  std::mutex mu_;
#if HTAP_LOCK_RANK_CHECKS
  uint16_t rank_;
  const char* name_;
#endif
};

/// Annotated, ranked std::shared_mutex. Shared (reader) acquisitions obey
/// the same rank order as exclusive ones.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex([[maybe_unused]] LockRank rank = LockRank::kLeaf,
                       [[maybe_unused]] const char* name = "shared_mutex")
#if HTAP_LOCK_RANK_CHECKS
      : rank_(static_cast<uint16_t>(rank)), name_(name)
#endif
  {
  }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
#if HTAP_LOCK_RANK_CHECKS
    lock_rank::OnAcquire(this, rank_, name_);
#endif
    mu_.lock();
  }

  void Unlock() RELEASE() {
    mu_.unlock();
#if HTAP_LOCK_RANK_CHECKS
    lock_rank::OnRelease(this);
#endif
  }

  void LockShared() ACQUIRE_SHARED() {
#if HTAP_LOCK_RANK_CHECKS
    lock_rank::OnAcquire(this, rank_, name_);
#endif
    mu_.lock_shared();
  }

  void UnlockShared() RELEASE_SHARED() {
    mu_.unlock_shared();
#if HTAP_LOCK_RANK_CHECKS
    lock_rank::OnRelease(this);
#endif
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if HTAP_LOCK_RANK_CHECKS
    lock_rank::OnTryAcquire(this, rank_, name_);
#endif
    return true;
  }

 private:
  std::shared_mutex mu_;
#if HTAP_LOCK_RANK_CHECKS
  uint16_t rank_;
  const char* name_;
#endif
};

/// RAII exclusive lock on an htap::Mutex (std::lock_guard counterpart the
/// capability analysis understands).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable paired with htap::Mutex. Waits relock through the
/// annotated/ranked Lock(), so the checker stays consistent across waits.
/// Call sites use explicit `while (!cond) cv.Wait(mu);` loops — predicate
/// lambdas are opaque to the capability analysis.
class CondVar {
 public:
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

#if !HTAP_LOCK_RANK_CHECKS
// Zero-cost guarantee: with the checker off the wrappers are layout-identical
// to the standard types they wrap.
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "htap::Mutex must add no state in release builds");
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex),
              "htap::SharedMutex must add no state in release builds");
#endif

}  // namespace htap

#endif  // HTAP_COMMON_MUTEX_H_

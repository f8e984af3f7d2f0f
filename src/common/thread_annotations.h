// Clang Thread Safety Analysis support: attribute macros plus annotated
// mutex/guard wrappers. Under Clang with -Wthread-safety the compiler proves
// that every GUARDED_BY field is only touched with its mutex held and that
// REQUIRES contracts hold at each call site; under GCC the macros expand to
// nothing and the wrappers cost exactly a std::mutex/std::shared_mutex.
//
// Usage pattern (see shuffle.h, pinned_thread_pool.h, local_engine.h):
//
//   AnnotatedMutex mu_;
//   int state_ S3_GUARDED_BY(mu_);
//   void touch() { MutexLock lock(mu_); ++state_; }
//   void touch_locked() S3_REQUIRES(mu_);   // caller must hold mu_
//
// The macros mirror the LLVM documentation's canonical names with an S3_
// prefix so they cannot collide with other libraries' unprefixed spellings.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/lock_rank.h"

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define S3_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef S3_THREAD_ANNOTATION
#define S3_THREAD_ANNOTATION(x)  // no-op outside Clang TSA
#endif

#define S3_CAPABILITY(x) S3_THREAD_ANNOTATION(capability(x))
#define S3_SCOPED_CAPABILITY S3_THREAD_ANNOTATION(scoped_lockable)
#define S3_GUARDED_BY(x) S3_THREAD_ANNOTATION(guarded_by(x))
#define S3_PT_GUARDED_BY(x) S3_THREAD_ANNOTATION(pt_guarded_by(x))
#define S3_ACQUIRED_BEFORE(...) S3_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define S3_ACQUIRED_AFTER(...) S3_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define S3_REQUIRES(...) S3_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define S3_REQUIRES_SHARED(...) \
  S3_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define S3_ACQUIRE(...) S3_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define S3_ACQUIRE_SHARED(...) \
  S3_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define S3_RELEASE(...) S3_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define S3_RELEASE_SHARED(...) \
  S3_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define S3_RELEASE_GENERIC(...) \
  S3_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define S3_TRY_ACQUIRE(...) \
  S3_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define S3_TRY_ACQUIRE_SHARED(...) \
  S3_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define S3_EXCLUDES(...) S3_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define S3_ASSERT_CAPABILITY(x) S3_THREAD_ANNOTATION(assert_capability(x))
#define S3_ASSERT_SHARED_CAPABILITY(x) \
  S3_THREAD_ANNOTATION(assert_shared_capability(x))
#define S3_RETURN_CAPABILITY(x) S3_THREAD_ANNOTATION(lock_returned(x))
#define S3_NO_THREAD_SAFETY_ANALYSIS \
  S3_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace s3 {

class MutexLock;

// std::mutex with the capability attribute so fields can be GUARDED_BY it.
// Mutexes in src/ construct with an explicit LockRank from the hierarchy in
// lock_rank.h; debug/sanitizer builds then validate rank monotonicity on
// every acquisition. The default (kUnranked) skips validation — tests and
// fixtures only.
class S3_CAPABILITY("mutex") AnnotatedMutex {
 public:
  AnnotatedMutex() = default;
  explicit AnnotatedMutex(LockRank rank) : rank_(rank) {}
  AnnotatedMutex(const AnnotatedMutex&) = delete;
  AnnotatedMutex& operator=(const AnnotatedMutex&) = delete;

  void lock() S3_ACQUIRE() {
    // Validated before blocking, so an inversion aborts instead of
    // deadlocking.
    lock_rank::note_acquire(rank_, this);
    mu_.lock();
  }
  void unlock() S3_RELEASE() {
    mu_.unlock();
    lock_rank::note_release(rank_, this);
  }
  bool try_lock() S3_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank::note_acquire(rank_, this);
    return true;
  }

  LockRank rank() const { return rank_; }

 private:
  friend class MutexLock;
  std::mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
};

// std::shared_mutex with the capability attribute; writer side is exclusive,
// reader side is shared.
class S3_CAPABILITY("shared_mutex") AnnotatedSharedMutex {
 public:
  AnnotatedSharedMutex() = default;
  explicit AnnotatedSharedMutex(LockRank rank) : rank_(rank) {}
  AnnotatedSharedMutex(const AnnotatedSharedMutex&) = delete;
  AnnotatedSharedMutex& operator=(const AnnotatedSharedMutex&) = delete;

  void lock() S3_ACQUIRE() {
    lock_rank::note_acquire(rank_, this);
    mu_.lock();
  }
  void unlock() S3_RELEASE() {
    mu_.unlock();
    lock_rank::note_release(rank_, this);
  }
  // Reader and writer sides share one rank: the hierarchy orders mutexes,
  // not access modes, and readers can still deadlock against writers.
  void lock_shared() S3_ACQUIRE_SHARED() {
    lock_rank::note_acquire(rank_, this);
    mu_.lock_shared();
  }
  void unlock_shared() S3_RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_rank::note_release(rank_, this);
  }

  LockRank rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
};

// RAII exclusive guard over AnnotatedMutex. Exposes wait() so condition
// variables keep working under the annotated type (std::condition_variable
// needs the underlying std::unique_lock<std::mutex>).
class S3_SCOPED_CAPABILITY MutexLock {
 public:
  // Bypasses AnnotatedMutex::lock() (the cv needs the raw unique_lock), so
  // the rank bookkeeping is repeated here: note before blocking, release on
  // unwind.
  explicit MutexLock(AnnotatedMutex& mu) S3_ACQUIRE(mu)
      : mu_(&mu), lock_(mu.mu_, std::defer_lock) {
    lock_rank::note_acquire(mu_->rank_, mu_);
    lock_.lock();
  }
  ~MutexLock() S3_RELEASE() {
    lock_.unlock();
    lock_rank::note_release(mu_->rank_, mu_);
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Releases the mutex while blocked, reacquires before returning. Callers
  // re-check their predicate in a loop (spurious wakeups); TSA sees the lock
  // as continuously held, which matches the invariant at every point the
  // caller's code actually runs — so the rank frame also stays held across
  // the wait.
  void wait(std::condition_variable& cv) { cv.wait(lock_); }

  // Timed variant for periodic workers (the snapshot exporter's interval
  // loop): same release-while-parked contract, returns std::cv_status.
  template <typename Rep, typename Period>
  std::cv_status wait_for(std::condition_variable& cv,
                          const std::chrono::duration<Rep, Period>& timeout) {
    return cv.wait_for(lock_, timeout);
  }

 private:
  AnnotatedMutex* mu_;
  std::unique_lock<std::mutex> lock_;
};

// RAII exclusive (writer) guard over AnnotatedSharedMutex.
class S3_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(AnnotatedSharedMutex& mu) S3_ACQUIRE(mu)
      : mu_(&mu) {
    mu_->lock();
  }
  ~WriterMutexLock() S3_RELEASE() { mu_->unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  AnnotatedSharedMutex* mu_;
};

// RAII shared (reader) guard over AnnotatedSharedMutex.
class S3_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(AnnotatedSharedMutex& mu) S3_ACQUIRE_SHARED(mu)
      : mu_(&mu) {
    mu_->lock_shared();
  }
  ~ReaderMutexLock() S3_RELEASE_SHARED() { mu_->unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  AnnotatedSharedMutex* mu_;
};

}  // namespace s3

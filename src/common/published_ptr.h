// PublishedPtr: an immutable snapshot that one side republishes and many
// readers load, behind a mutex held only for the pointer copy or swap.
//
// The mutex is never the lock an apply path holds, so a reader waits at
// most for another pointer copy, never for a reorder or a stitch pass.
// std::atomic<std::shared_ptr> would not avoid the lock: libstdc++'s is not
// lock-free either, and the lock bit it hides in the pointer word reads as
// a data race to ThreadSanitizer. One implementation serves every build, so
// the sanitized tests exercise the code release builds ship.

#pragma once

#include <memory>
#include <mutex>
#include <utility>

namespace spade {

template <typename T>
class PublishedPtr {
 public:
  std::shared_ptr<const T> Load() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ptr_;
  }

  /// Replaces the published pointer; the old snapshot is released after
  /// the mutex, so a reader never waits on its destructor.
  void Store(std::shared_ptr<const T> next) {
    std::lock_guard<std::mutex> lock(mutex_);
    ptr_.swap(next);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const T> ptr_;
};

}  // namespace spade

#ifndef QMAP_COMMON_LAZY_SHARED_H_
#define QMAP_COMMON_LAZY_SHARED_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

namespace qmap {

/// Double-checked, atomically published lazy shared value.
///
/// The publication discipline of MappingSpec's compiled rule plan: readers
/// take the fast path — a single acquire load of the shared_ptr, no lock —
/// and only the first builder (or a reader racing the first builder) takes
/// the mutex. The value
/// is stored via release so a reader that observes the pointer observes the
/// fully built object. GetOrBuild never runs `build` twice for one published
/// value: losers of the build race re-check under the lock and adopt the
/// winner's result.
///
/// Invalidate() clears the published value; a later GetOrBuild rebuilds.
/// Invalidate must not race GetOrBuild on semantics the caller cares about
/// (MappingSpec already forbids AddRule racing readers), but the helper
/// itself is data-race-free either way.
template <typename T>
class LazyShared {
 public:
  LazyShared() = default;
  LazyShared(const LazyShared&) = delete;
  LazyShared& operator=(const LazyShared&) = delete;

  /// The published value, building and publishing it first if absent.
  /// `build` must return std::shared_ptr<const T>.
  template <typename Build>
  std::shared_ptr<const T> GetOrBuild(Build&& build) const {
    if (std::shared_ptr<const T> v = value_.load(std::memory_order_acquire)) {
      return v;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (std::shared_ptr<const T> v = value_.load(std::memory_order_acquire)) {
      return v;
    }
    std::shared_ptr<const T> built = build();
    value_.store(built, std::memory_order_release);
    return built;
  }

  /// The published value without building: nullptr when absent.
  std::shared_ptr<const T> Peek() const {
    return value_.load(std::memory_order_acquire);
  }

  /// Drops the published value (next GetOrBuild rebuilds).
  void Invalidate() { value_.store(nullptr, std::memory_order_release); }

  /// Adopts an already built value (copy/move of the owning object).
  void Set(std::shared_ptr<const T> v) {
    value_.store(std::move(v), std::memory_order_release);
  }

 private:
  mutable std::mutex mu_;
  mutable std::atomic<std::shared_ptr<const T>> value_{nullptr};
};

}  // namespace qmap

#endif  // QMAP_COMMON_LAZY_SHARED_H_

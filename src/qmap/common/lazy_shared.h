#ifndef QMAP_COMMON_LAZY_SHARED_H_
#define QMAP_COMMON_LAZY_SHARED_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace qmap {

/// Double-checked, atomically published lazy shared value.
///
/// The publication discipline of MappingSpec's compiled rule plan: readers
/// take the fast path — an acquire load of a pointer to an immutable slot
/// and a copy of its shared_ptr, no lock — and only the first builder (or a
/// reader racing the first builder) takes the mutex. GetOrBuild never runs
/// `build` twice for one published value: losers of the build race re-check
/// under the lock and adopt the winner's result.
///
/// Invalidate() clears the published value; a later GetOrBuild rebuilds.
/// A reader may still be copying out of an unpublished slot, so slots (and
/// their values) live until the LazyShared dies; publications are
/// setup-phase events, so there are few. Invalidate must not race
/// GetOrBuild on semantics the caller cares about (MappingSpec already
/// forbids AddRule racing readers), but the helper itself is data-race-free
/// either way — in terms ThreadSanitizer models, unlike libstdc++'s
/// lock-bit std::atomic<std::shared_ptr>.
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
    if (const Slot* slot = slot_.load(std::memory_order_acquire)) return *slot;
    std::lock_guard<std::mutex> lock(mu_);
    if (const Slot* slot = slot_.load(std::memory_order_acquire)) return *slot;
    std::shared_ptr<const T> built = build();
    PublishLocked(built);
    return built;
  }

  /// The published value without building: nullptr when absent.
  std::shared_ptr<const T> Peek() const {
    const Slot* slot = slot_.load(std::memory_order_acquire);
    return slot != nullptr ? *slot : nullptr;
  }

  /// Drops the published value (next GetOrBuild rebuilds).
  void Invalidate() { Set(nullptr); }

  /// Adopts an already built value (copy/move of the owning object).
  void Set(std::shared_ptr<const T> v) {
    std::lock_guard<std::mutex> lock(mu_);
    PublishLocked(std::move(v));
  }

 private:
  using Slot = const std::shared_ptr<const T>;

  // Publishes `v` in a new slot; null unpublishes.
  void PublishLocked(std::shared_ptr<const T> v) const {
    const Slot* next = nullptr;
    if (v != nullptr) {
      slots_.push_back(std::make_unique<Slot>(std::move(v)));
      next = slots_.back().get();
    }
    slot_.store(next, std::memory_order_release);
  }

  mutable std::mutex mu_;
  mutable std::atomic<const Slot*> slot_{nullptr};
  // Every slot ever published, the current one included (guarded by mu_).
  mutable std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace qmap

#endif  // QMAP_COMMON_LAZY_SHARED_H_

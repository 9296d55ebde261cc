#ifndef QMAP_SERVICE_TIERED_CACHE_H_
#define QMAP_SERVICE_TIERED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "qmap/service/phases.h"
#include "qmap/service/resilience.h"
#include "qmap/service/translation_cache.h"
#include "qmap/store/translation_store.h"

namespace qmap {

class MetricsRegistry;
class Trace;

/// The RAM cache → store tier under each per-source call (DESIGN.md §10):
/// a RAM hit returns; a store hit is promoted into RAM (a negative record
/// returns its failure); a miss translates and fills both tiers. A hit never
/// reaches the source, so resilience guards and injected faults do not
/// apply. A degraded (widened) translation is never cached or persisted,
/// and only permanent failures become negative records (with
/// StoreOptions::cache_negatives) — see docs/ROBUSTNESS.md. A store that
/// fails to open leaves the tier RAM-only. Thread-safe.
class TieredCache {
 public:
  /// `enabled` false turns both tiers off. The store opens when `enabled`
  /// and `store.path` is set. `metrics` (may be null) must outlive the tier,
  /// as must the histograms `phases` names for the cache.lookup,
  /// store.lookup and cache.insert phases.
  TieredCache(bool enabled, TranslationCacheOptions cache, StoreOptions store,
              MetricsRegistry* metrics, const PhaseHistograms& phases = {});
  ~TieredCache();

  /// The translation stored under `key`, else `translate()` filled into
  /// both tiers unless `report` (which `translate` writes) says degraded.
  /// Stats describe this call: a hit carries only cache_hits/store_hits, a
  /// miss adds cache_misses and the fill's evictions.
  template <typename TranslateFn>
  Result<Translation> GetOrTranslate(const TranslationCacheKey& key,
                                     Trace* trace, uint64_t parent_span,
                                     const ResilienceManager::CallReport& report,
                                     const TranslateFn& translate) {
    if (!enabled_) return translate();
    Status negative;
    if (std::optional<Translation> hit =
            Lookup(key, trace, parent_span, &negative)) {
      return *std::move(hit);
    }
    if (!negative.ok()) return negative;
    Result<Translation> translation = translate();
    Fill(key, translation, report.degraded, trace, parent_span);
    return translation;
  }

  /// One-time boot replay (StoreOptions::replay_on_boot) into RAM of the
  /// store records whose (context, rule-set) pair is in `live()`'s map.
  template <typename LiveKeys>
  void WarmUpOnce(const LiveKeys& live) {
    if (store_ == nullptr || !store_->options().replay_on_boot) return;
    std::call_once(warmup_once_, [&] { Replay(live()); });
  }

  /// Drops the RAM entries; store keys hash the full query, so they stay.
  void ClearCache() { cache_.Clear(); }

  TranslationStore* store() const { return store_.get(); }
  const Status& store_open_status() const { return store_open_status_; }
  bool store_configured() const { return store_configured_; }
  bool warmed_up() const { return warmed_up_.load(std::memory_order_acquire); }
  /// The store opened (or none is configured) and the replay has run (or
  /// is not configured).
  bool ready() const {
    return store_open_status_.ok() &&
           (store_ == nullptr || !store_->options().replay_on_boot ||
            warmed_up());
  }

  TranslationCacheStats cache_stats() const { return cache_.stats(); }
  StoreStats store_stats() const {
    return store_ != nullptr ? store_->stats() : StoreStats{};
  }
  size_t cache_entries() const { return enabled_ ? cache_.size() : 0; }
  size_t store_entries() const {
    return store_ != nullptr ? store_->num_entries() : 0;
  }

 private:
  // A hit, or nullopt with `*negative` set when a negative record matched.
  std::optional<Translation> Lookup(const TranslationCacheKey& key,
                                    Trace* trace, uint64_t parent_span,
                                    Status* negative);
  void Fill(const TranslationCacheKey& key, Result<Translation>& translation,
            bool degraded, Trace* trace, uint64_t parent_span);
  void Replay(const std::unordered_map<uint64_t, uint64_t>& live);

  const bool enabled_;
  const bool store_configured_;
  MetricsRegistry* const metrics_;
  const PhaseHistograms phases_;
  TranslationCache cache_;
  std::unique_ptr<TranslationStore> store_;
  Status store_open_status_;
  std::once_flag warmup_once_;
  std::atomic<bool> warmed_up_{false};
};

}  // namespace qmap

#endif  // QMAP_SERVICE_TIERED_CACHE_H_

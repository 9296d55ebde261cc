#include "qmap/service/tiered_cache.h"

#include <utility>

#include "qmap/obs/trace.h"

namespace qmap {
namespace {

// Failures worth a negative store record: permanent properties of (query,
// rule set) that will recur identically until the rules change. Transient
// resilience-category failures (unavailable, deadline, cancelled, internal)
// must never be persisted — the next attempt may succeed.
bool IsPermanentFailure(StatusCode code) {
  return code == StatusCode::kInvalidArgument ||
         code == StatusCode::kNotFound || code == StatusCode::kUnsupported ||
         code == StatusCode::kParseError;
}

}  // namespace

TieredCache::TieredCache(bool enabled, TranslationCacheOptions cache,
                         StoreOptions store, MetricsRegistry* metrics,
                         const PhaseHistograms& phases)
    : enabled_(enabled),
      store_configured_(enabled && !store.path.empty()),
      metrics_(metrics),
      phases_(phases),
      cache_(cache) {
  if (store_configured_) {
    auto opened = TranslationStore::Open(std::move(store));
    if (opened.ok()) {
      store_ = std::move(opened).value();
    } else {
      // RAM-only degradation: a service that cannot reach its disk tier
      // still translates correctly, just without restart warmth.
      store_open_status_ = opened.status();
    }
  }
  cache_.AttachMetrics(metrics_);
  if (store_ != nullptr) store_->AttachMetrics(metrics_);
}

TieredCache::~TieredCache() {
  cache_.DetachMetricsIf(metrics_);
  if (store_ != nullptr) store_->DetachMetricsIf(metrics_);
}

std::optional<Translation> TieredCache::Lookup(const TranslationCacheKey& key,
                                               Trace* trace,
                                               uint64_t parent_span,
                                               Status* negative) {
  PhaseTimer ram(trace, "cache.lookup", parent_span, phases_.cache_lookup);
  std::optional<Translation> hit = cache_.Get(key);
  if (ram.span().enabled()) ram.span().AddAttr("hit", hit ? "true" : "false");
  ram.End();
  // Covers the promotion below too.
  std::optional<PhaseTimer> disk;
  bool from_store = false;
  if (!hit && store_ != nullptr) {
    disk.emplace(trace, "store.lookup", parent_span, phases_.store_lookup);
    std::optional<Result<Translation>> stored = store_->Get(key);
    if (disk->span().enabled()) {
      disk->span().AddAttr("hit", stored ? "true" : "false");
    }
    if (stored && !stored->ok()) {
      *negative = stored->status();
    } else if (stored) {
      hit.emplace(*std::move(*stored));
      from_store = true;
    }
  }
  if (hit) {
    // Stats describe the work done *for this call*: a hit does no rule
    // matching, so the computation counters reset and only the hit shows.
    hit->stats = TranslationStats{};
    if (from_store) {
      // Promote, so the next lookup stops at RAM.
      hit->stats.store_hits = 1;
      hit->stats.cache_evictions = cache_.Put(key, *hit);
    } else {
      hit->stats.cache_hits = 1;
    }
  }
  return hit;  // the only return, so NRVO hands the LRU copy straight out
}

void TieredCache::Fill(const TranslationCacheKey& key,
                       Result<Translation>& translation, bool degraded,
                       Trace* trace, uint64_t parent_span) {
  if (!translation.ok()) {
    if (store_ != nullptr && store_->options().cache_negatives &&
        IsPermanentFailure(translation.status().code())) {
      store_->PutNegative(key, translation.status()).ok();
    }
    return;
  }
  if (!degraded) {
    PhaseTimer insert(trace, "cache.insert", parent_span, phases_.cache_insert);
    translation->stats.cache_evictions += cache_.Put(key, *translation);
    if (store_ != nullptr) store_->Put(key, *translation).ok();
  }
  translation->stats.cache_misses = 1;
}

void TieredCache::Replay(const std::unordered_map<uint64_t, uint64_t>& live) {
  store_->ReplayInto(cache_, [&live](const TranslationCacheKey& key) {
    auto it = live.find(key.source);
    return it != live.end() && it->second == key.rule_set;
  });
  warmed_up_.store(true, std::memory_order_release);
}

}  // namespace qmap

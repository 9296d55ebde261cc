#ifndef QMAP_SERVICE_PHASES_H_
#define QMAP_SERVICE_PHASES_H_

namespace qmap {

class Histogram;

/// The service phases timed on every request once a registry is attached:
/// X(member, span name). Each feeds qmap_span_<name>_us (see
/// SpanHistogram), so the dashboards read the same histograms a folded trace
/// used to feed. The first nine are PhaseTimer sites; "translate" and
/// "tdqm" are the core's own times, returned in TranslationStats
/// (translate_ns, tdqm_ns) because the core never sees the registry.
#define QMAP_SERVICE_PHASES(X)                  \
  X(service_translate, "service.translate")     \
  X(fanout_wait, "fanout.wait")                 \
  X(pool_wait, "pool.wait")                     \
  X(source_translate, "source.translate")       \
  X(cache_lookup, "cache.lookup")               \
  X(store_lookup, "store.lookup")               \
  X(cache_insert, "cache.insert")               \
  X(join, "join")                               \
  X(filter, "filter")                           \
  X(translate, "translate")                     \
  X(tdqm, "tdqm")

/// One histogram per service phase, resolved once by RequestObserver; all
/// null without a registry, in which case the phase timers read no clock.
struct PhaseHistograms {
#define QMAP_PHASE_MEMBER(member, name) Histogram* member = nullptr;
  QMAP_SERVICE_PHASES(QMAP_PHASE_MEMBER)
#undef QMAP_PHASE_MEMBER
};

}  // namespace qmap

#endif  // QMAP_SERVICE_PHASES_H_

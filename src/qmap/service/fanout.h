#ifndef QMAP_SERVICE_FANOUT_H_
#define QMAP_SERVICE_FANOUT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "qmap/core/translator.h"
#include "qmap/service/phases.h"
#include "qmap/service/resilience.h"

namespace qmap {

class Span;
class ThreadPool;
class Trace;

/// The mediator's answer to "translate Q for everyone" (Eq. 3):
/// Q = F ∧ S_1(Q) ∧ ... ∧ S_n(Q).
struct MediatorTranslation {
  /// S_i(Q), keyed by source name. Sources listed in `partial.failed` are
  /// absent; sources in `partial.degraded` are present with a widened
  /// (still subsuming) translation.
  std::map<std::string, Translation> per_source;
  /// The residue filter F: the original constraints not fully realized at
  /// any source (plus cross-source view constraints, which no single source
  /// can evaluate). Built from the *successful* sources' coverage only, so
  /// a constraint that was exactly realized only at a failed or degraded
  /// source moves back into F — that recomputation is what keeps partial
  /// and degraded answers sound (Definition 1's subsumption guarantee).
  Query filter;
  /// Which sources were dropped or answered degraded (empty/complete unless
  /// resilience is enabled — see qmap/service/resilience.h).
  PartialResult partial;
  /// Cost counters merged across all per-source translations (plus the
  /// service layer's cache/parallelism counters when produced by a
  /// TranslationService). Observability only: not part of the translation's
  /// semantic payload.
  TranslationStats stats;
};

/// How the sources' answers combine (Section 2).
enum class Integration {
  /// Eq. 2 crosses every source: the answer carries the merged residue
  /// filter F over the surviving sources' exact coverage.
  kJoin,
  /// Each member answers on its own, filtered by its own F_i
  /// (FederatedCatalog): no merged F is built.
  kUnion,
};

/// The one implementation of Eq. 2–3's mediation rule — translate Q for
/// every source, then build F only from the sources that answered exactly —
/// shared by Mediator::Translate, FederatedCatalog::Query and
/// TranslationService::Translate.
///
/// A fan-out calls each source once (inline, or on a pool), then folds the
/// outcomes in source order: resilience accounting into the stats, failed
/// sources dropped into PartialResult when the failure is a source-drop
/// category (IsSourceDropFailure) and partials are allowed, degraded
/// sources listed, the min_sources gate, and for a join the merged residue
/// filter. Every source is called even after one fails hard; the first
/// hard failure in source order fails the call. Results are therefore
/// independent of the thread count and of task completion order.
class FanOut {
 public:
  /// The sources one fan-out calls, in fold order.
  class Sources {
   public:
    virtual size_t size() const = 0;
    virtual const std::string& name(size_t i) const = 0;
    /// Source i's translation of the request's query, run on the calling
    /// thread or a pool worker. Spans go under `parent_span` of `trace`;
    /// `report` (never null) collects the resilience guard's account.
    virtual Result<Translation> Translate(
        size_t i, const CancelToken* cancel, Trace* trace,
        uint64_t parent_span, ResilienceManager::CallReport* report) const = 0;

   protected:
    ~Sources() = default;
  };

  /// `resilience` null means no guards, no deadline and no partial results:
  /// every failure fails the call. `pool` null runs every call inline.
  /// `phases` (null: untimed) receives the fan-out's phase samples. All
  /// three must outlive the fan-out.
  explicit FanOut(ResilienceManager* resilience, ThreadPool* pool = nullptr,
                  const PhaseHistograms* phases = nullptr)
      : resilience_(resilience), pool_(pool), phases_(phases) {}

  /// The request-level cancel token: `storage` bounded by the configured
  /// request_deadline_us from now, or null when there is none. `storage`
  /// lives in the caller's frame and must outlive every call that uses it.
  const CancelToken* RequestToken(CancelToken* storage) const;

  /// `attempt` under the resilience guards (breaker, retry, deadline, fault
  /// injection) of `source`, or called bare — without wrapping it in a
  /// std::function — when no resilience is configured.
  template <typename Attempt>
  Result<Translation> Guarded(const std::string& source, const Query& full,
                              const CancelToken* cancel, const Attempt& attempt,
                              ResilienceManager::CallReport* report,
                              Trace* trace, uint64_t parent_span) const {
    if (resilience_ == nullptr) return attempt();
    return resilience_->GuardedTranslate(source, full, cancel, attempt, report,
                                         trace, parent_span);
  }

  /// True when a fan-out over `n` sources runs on the pool.
  bool Parallel(size_t n) const { return pool_ != nullptr && n > 1; }

  /// Calls every source for `full` (view constraints already conjoined) and
  /// folds the outcomes. Under `root` it times one "source.translate" phase
  /// per source (plus "pool.wait" and "fanout.wait" on the pool), "join",
  /// and for a join "filter" — as spans when root has a trace, into
  /// `phases` when set; it sets root's stats and its "partial" attr.
  ///
  /// Cancellation/lifetime contract: pool tasks write into this call's
  /// frame, so it ALWAYS waits for every task — even when `cancel` has
  /// already expired. Tasks poll the token and finish fast instead of being
  /// abandoned (docs/ROBUSTNESS.md).
  Result<MediatorTranslation> Run(const Query& full, const Sources& sources,
                                  Integration integration,
                                  const CancelToken* cancel, Span& root) const;

 private:
  ResilienceManager* const resilience_;
  ThreadPool* const pool_;
  const PhaseHistograms* const phases_;
};

}  // namespace qmap

#endif  // QMAP_SERVICE_FANOUT_H_

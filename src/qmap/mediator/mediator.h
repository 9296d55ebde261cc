#ifndef QMAP_MEDIATOR_MEDIATOR_H_
#define QMAP_MEDIATOR_MEDIATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "qmap/core/translator.h"
#include "qmap/mediator/source.h"
#include "qmap/relalg/conversion.h"
#include "qmap/service/fanout.h"
#include "qmap/service/resilience.h"
#include "qmap/service/source_transport.h"

namespace qmap {

/// A mediation pipeline over heterogeneous sources (Section 2): view
/// expansion has already rewritten the user query into the constraint query
/// Q over qualified source relations and view attributes; this class owns
/// the per-source constraint mapping and the execution of Eq. 2.
///
/// Execution data flow (Eq. 2):
///   per source:   σ_{S_i(Q)}(R_i)        — push the mapped query down
///   across:       × of the source results
///   conversions:  apply the conceptual relations X (format conversions,
///                 renames from source paths to view attributes)
///   mediator:     σ_F — the residue filter removes the false positives the
///                 relaxed mappings admitted (Figure 1)
class Mediator {
 public:
  explicit Mediator(TranslatorOptions options = {}) : options_(options) {}

  void AddSource(SourceContext source);
  const SourceContext* FindSource(const std::string& name) const;
  const std::vector<SourceContext>& sources() const { return sources_; }

  /// Registers a conversion function (applied in order, after crossing).
  void AddConversion(ConversionFn conversion);

  /// Declares constraints that are part of the *view definitions* (e.g. the
  /// cross-source join tying aubib.name to prof's ln/fn in Example 3).
  /// They are conjoined to every translated query and — being cross-source —
  /// evaluate at the mediator, through the filter.
  void SetViewConstraints(Query constraints);
  const Query& view_constraints() const { return view_constraints_; }

  /// Enables graceful degradation for Translate: per-source retry/backoff,
  /// circuit breaking, deadline budgets, and (with options.allow_partial)
  /// partial translations that drop failed sources into
  /// MediatorTranslation::partial instead of failing the call. `clock`,
  /// `injector` and `metrics` may be null (system clock, no fault injection,
  /// no metrics); non-null pointers must outlive the mediator.
  void SetResilience(const ResilienceOptions& options,
                     ResilienceClock* clock = nullptr,
                     FaultInjector* injector = nullptr,
                     MetricsRegistry* metrics = nullptr);
  ResilienceManager* resilience() const { return resilience_.get(); }

  /// Translates `query` for every source and builds the combined filter:
  /// a constraint is dropped from F only if some source realizes it exactly.
  /// Runs the shared fan-out core (qmap/service/fanout.h) inline, as a
  /// join. With a trace attached, records a "mediator.translate" span under
  /// `parent_span` with the core's "source.translate" (attr "source" =
  /// name, stats = that source's counters), "join" and "filter" children.
  Result<MediatorTranslation> Translate(const Query& query,
                                        Trace* trace = nullptr,
                                        uint64_t parent_span = 0) const;

  /// Runs the full pipeline of Eq. 2 and returns the result tuples (in the
  /// converted, view-attribute vocabulary).
  Result<TupleSet> Execute(const Query& query) const;

  /// Runs the execution half of Eq. 2 against a previously computed
  /// translation (e.g. one cached by a TranslationService): per-source
  /// push-down selects, cross, conversions, then the residue filter.
  /// `translation` must cover every current source — if a source was added
  /// after the translation was computed, returns NotFound (it never throws).
  /// A partial translation (translation.partial incomplete) is rejected
  /// with Unavailable: the mediator's integration is a *join* (Eq. 2
  /// crosses every source), so a missing source cannot be compensated —
  /// only union integrations (FederatedCatalog) can serve partial answers.
  Result<TupleSet> ExecuteTranslated(const MediatorTranslation& translation) const;

  /// Ground truth via Eq. 1: cross everything unfiltered, convert, then
  /// select with the original query.  Execute() must agree with this —
  /// the empirical form of the correctness property Eq. 3.
  Result<TupleSet> ExecuteDirect(const Query& query) const;

 private:
  class FanOutSources;

  Result<TupleSet> ConvertedCross(const MediatorTranslation* translation) const;

  TranslatorOptions options_;
  std::vector<SourceContext> sources_;
  /// In-process transport of each source, parallel to sources_: built once
  /// by AddSource, so the rule plan is compiled once per source, not per
  /// call.
  std::vector<std::shared_ptr<SourceTransport>> in_process_;
  std::vector<ConversionFn> conversions_;
  Query view_constraints_ = Query::True();
  // Shared (not unique) so Mediator stays copyable; copies share breaker
  // state, which is the desired behavior for one logical federation.
  std::shared_ptr<ResilienceManager> resilience_;
};

}  // namespace qmap

#endif  // QMAP_MEDIATOR_MEDIATOR_H_

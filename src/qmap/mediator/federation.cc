#include "qmap/mediator/federation.h"

#include "qmap/obs/trace.h"

namespace qmap {

void FederatedCatalog::SetResilience(const ResilienceOptions& options,
                                     ResilienceClock* clock,
                                     FaultInjector* injector,
                                     MetricsRegistry* metrics) {
  resilience_ =
      std::make_shared<ResilienceManager>(options, clock, injector, metrics);
}

// The members as the fan-out core sees them: each member's guarded
// translate, followed by its data-conversion check.
class FederatedCatalog::FanOutSources : public FanOut::Sources {
 public:
  FanOutSources(const FederatedCatalog& catalog, const FanOut& fanout,
                const qmap::Query& query)
      : catalog_(catalog), fanout_(fanout), query_(query) {}

  size_t size() const override { return catalog_.members_.size(); }
  const std::string& name(size_t i) const override {
    return catalog_.members_[i].name;
  }
  Result<Translation> Translate(
      size_t i, const CancelToken* cancel, Trace* trace, uint64_t parent_span,
      ResilienceManager::CallReport* report) const override {
    const Member& member = catalog_.members_[i];
    Result<Translation> translation = fanout_.Guarded(
        member.name, query_, cancel,
        [&] {
          return member.transport->Translate(query_, trace, parent_span,
                                             /*unused=*/nullptr, cancel);
        },
        report, trace, parent_span);
    // The data-conversion direction is a source call too: a fault scripted
    // under "<member>.convert" drops the member even though its translation
    // succeeded (e.g. a conversion service being down).
    const ResilienceManager* resilience = catalog_.resilience_.get();
    if (translation.ok() && resilience != nullptr &&
        resilience->injector() != nullptr) {
      Fault fault = resilience->injector()->Next(member.name + ".convert");
      if (fault.kind == FaultKind::kFail) {
        return fault.status.ok()
                   ? Status::Unavailable("injected conversion fault")
                   : fault.status;
      }
    }
    return translation;
  }

 private:
  const FederatedCatalog& catalog_;
  const FanOut& fanout_;
  const qmap::Query& query_;
};

Result<FederatedCatalog::FederatedResult> FederatedCatalog::Query(
    const qmap::Query& query) const {
  const FanOut fanout(resilience_.get());
  CancelToken token;
  const CancelToken* cancel = fanout.RequestToken(&token);
  Span untraced;
  Result<MediatorTranslation> translated =
      fanout.Run(query, FanOutSources(*this, fanout, query),
                 Integration::kUnion, cancel, untraced);
  if (!translated.ok()) return translated.status();
  FederatedResult out;
  out.partial = std::move(translated->partial);
  for (const Member& member : members_) {
    auto it = translated->per_source.find(member.name);
    if (it == translated->per_source.end()) continue;  // dropped: see partial
    const Translation& translation = it->second;
    MemberResult result;
    result.name = member.name;
    result.pushed = translation.mapped;
    result.filter = translation.filter;
    TupleSet hits;
    for (const Tuple& tuple : member.data) {
      if (EvalQuery(translation.mapped, member.convert(tuple),
                    member.semantics)) {
        hits.push_back(tuple);
      }
    }
    result.raw_hits = hits.size();
    result.tuples = Select(hits, translation.filter);
    out.combined = Union(out.combined, result.tuples);
    out.per_member.push_back(std::move(result));
  }
  return out;
}

TupleSet FederatedCatalog::QueryDirect(const qmap::Query& query) const {
  TupleSet all;
  for (const Member& member : members_) {
    all = Union(all, member.data);
  }
  return Select(all, query);
}

}  // namespace qmap

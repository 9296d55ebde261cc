#include "qmap/mediator/mediator.h"

#include "qmap/obs/trace.h"
#include "qmap/relalg/ops.h"

namespace qmap {

void Mediator::AddSource(SourceContext source) {
  in_process_.push_back(std::make_shared<InProcessTransport>(
      Translator(source.spec(), options_)));
  sources_.push_back(std::move(source));
}

const SourceContext* Mediator::FindSource(const std::string& name) const {
  for (const SourceContext& source : sources_) {
    if (source.name() == name) return &source;
  }
  return nullptr;
}

void Mediator::AddConversion(ConversionFn conversion) {
  conversions_.push_back(std::move(conversion));
}

void Mediator::SetViewConstraints(Query constraints) {
  view_constraints_ = std::move(constraints);
}

void Mediator::SetResilience(const ResilienceOptions& options,
                             ResilienceClock* clock, FaultInjector* injector,
                             MetricsRegistry* metrics) {
  resilience_ =
      std::make_shared<ResilienceManager>(options, clock, injector, metrics);
}

// The mediator's sources as the fan-out core sees them: each source's
// in-process translator under the guards.
class Mediator::FanOutSources : public FanOut::Sources {
 public:
  FanOutSources(const Mediator& mediator, const FanOut& fanout,
                const Query& full)
      : mediator_(mediator), fanout_(fanout), full_(full) {}

  size_t size() const override { return mediator_.sources_.size(); }
  const std::string& name(size_t i) const override {
    return mediator_.sources_[i].name();
  }
  Result<Translation> Translate(
      size_t i, const CancelToken* cancel, Trace* trace, uint64_t parent_span,
      ResilienceManager::CallReport* report) const override {
    SourceTransport* transport = mediator_.in_process_[i].get();
    return fanout_.Guarded(
        name(i), full_, cancel,
        [&] {
          return transport->Translate(full_, trace, parent_span,
                                      /*unused=*/nullptr, cancel);
        },
        report, trace, parent_span);
  }

 private:
  const Mediator& mediator_;
  const FanOut& fanout_;
  const Query& full_;
};

Result<MediatorTranslation> Mediator::Translate(const Query& query, Trace* trace,
                                                uint64_t parent_span) const {
  Span root(trace, "mediator.translate", parent_span);
  const Query full = query & view_constraints_;
  const FanOut fanout(resilience_.get());
  CancelToken token;
  const CancelToken* cancel = fanout.RequestToken(&token);
  return fanout.Run(full, FanOutSources(*this, fanout, full),
                    Integration::kJoin, cancel, root);
}

Result<TupleSet> Mediator::ConvertedCross(const MediatorTranslation* translation) const {
  TupleSet combined = {Tuple()};
  for (const SourceContext& source : sources_) {
    Result<TupleSet> tuples = source.CrossOfBoundRelations();
    if (!tuples.ok()) return tuples.status();
    TupleSet source_tuples = *std::move(tuples);
    if (translation != nullptr) {
      auto it = translation->per_source.find(source.name());
      if (it == translation->per_source.end()) {
        return Status::NotFound("no translation for source '" + source.name() +
                                "' (source added after Translate?)");
      }
      source_tuples = Select(source_tuples, it->second.mapped);
    }
    combined = Cross(combined, source_tuples);
  }
  TupleSet converted = std::move(combined);
  for (const ConversionFn& conversion : conversions_) {
    Result<TupleSet> applied = ApplyConversion(converted, conversion);
    if (!applied.ok()) return applied.status();
    converted = *std::move(applied);
  }
  return converted;
}

Result<TupleSet> Mediator::Execute(const Query& query) const {
  Result<MediatorTranslation> translation = Translate(query);
  if (!translation.ok()) return translation.status();
  return ExecuteTranslated(*translation);
}

Result<TupleSet> Mediator::ExecuteTranslated(
    const MediatorTranslation& translation) const {
  if (!translation.partial.complete()) {
    // Eq. 2 crosses *every* source: with one missing there is no sound
    // answer for a join integration (unlike FederatedCatalog's union).
    return Status::Unavailable(
        "partial translation cannot be executed by the join pipeline (" +
        translation.partial.ToString() + ")");
  }
  Result<TupleSet> converted = ConvertedCross(&translation);
  if (!converted.ok()) return converted;
  return Select(*converted, translation.filter);
}

Result<TupleSet> Mediator::ExecuteDirect(const Query& query) const {
  Result<TupleSet> converted = ConvertedCross(nullptr);
  if (!converted.ok()) return converted;
  Query full = query & view_constraints_;
  return Select(*converted, full);
}

}  // namespace qmap

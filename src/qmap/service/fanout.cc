#include "qmap/service/fanout.h"

#include <algorithm>
#include <latch>
#include <optional>
#include <utility>
#include <vector>

#include "qmap/core/filter.h"
#include "qmap/obs/trace.h"
#include "qmap/service/thread_pool.h"

namespace qmap {

const CancelToken* FanOut::RequestToken(CancelToken* storage) const {
  if (resilience_ == nullptr ||
      resilience_->options().request_deadline_us == 0) {
    return nullptr;
  }
  storage->budget = DeadlineBudget{}.Narrowed(
      resilience_->clock()->NowUs(),
      resilience_->options().request_deadline_us);
  return storage;
}

Result<MediatorTranslation> FanOut::Run(const Query& full,
                                        const Sources& sources,
                                        Integration integration,
                                        const CancelToken* cancel,
                                        Span& root) const {
  Trace* const trace = root.trace();
  const uint64_t root_id = root.id();
  const size_t n = sources.size();
  std::vector<std::optional<Result<Translation>>> outcomes(n);
  std::vector<ResilienceManager::CallReport> reports(n);
  if (Parallel(n)) {
    // Covers the whole fan-out window on the calling thread: submits, the
    // workers' overlapping spans, and the latch wake-up latency.
    Span fanout_span(trace, "fanout.wait", root_id);
    std::latch done(static_cast<ptrdiff_t>(n));
    for (size_t i = 0; i < n; ++i) {
      const int64_t submit_ns = trace != nullptr ? trace->NowNs() : 0;
      pool_->Submit([&sources, &outcomes, &reports, &done, trace, root_id,
                     submit_ns, cancel, i] {
        const int64_t start_ns = trace != nullptr ? trace->NowNs() : 0;
        Span source_span(trace, "source.translate", root_id);
        if (source_span.enabled()) {
          source_span.AddAttr("source", sources.name(i));
          trace->AddCompleteSpan("pool.wait", root_id, submit_ns, start_ns);
        }
        Result<Translation> translation = sources.Translate(
            i, cancel, trace, source_span.id(), &reports[i]);
        if (translation.ok()) {
          translation->stats.queue_wait_ns +=
              static_cast<uint64_t>(start_ns - submit_ns);
          source_span.SetStats(translation->stats);
        }
        outcomes[i].emplace(std::move(translation));
        // End the span before releasing the latch: count_down() lets the
        // calling thread return and destroy the trace, so nothing in this
        // task may touch it afterwards (the Span destructor would).
        source_span.End();
        done.count_down();
      });
    }
    // ALWAYS wait, even when `cancel` has expired mid-fan-out: the workers
    // write into this frame's `outcomes`/`reports`, so returning before the
    // latch releases would leave detached tasks scribbling on a dead stack.
    // Expiry makes the workers *finish fast* (the guard checks the token
    // before each attempt), never makes the caller leave early.
    done.wait();
  } else {
    for (size_t i = 0; i < n; ++i) {
      Span source_span(trace, "source.translate", root_id);
      if (source_span.enabled()) source_span.AddAttr("source", sources.name(i));
      Result<Translation> translation =
          sources.Translate(i, cancel, trace, source_span.id(), &reports[i]);
      if (translation.ok()) source_span.SetStats(translation->stats);
      outcomes[i].emplace(std::move(translation));
    }
  }

  // Deterministic join: the fold runs in source order, independent of task
  // completion order.
  Span join_span(trace, "join", root_id);
  MediatorTranslation out;
  std::vector<const ExactCoverage*> coverages;
  const bool allow_partial =
      resilience_ != nullptr && resilience_->options().allow_partial;
  for (size_t i = 0; i < n; ++i) {
    const ResilienceManager::CallReport& report = reports[i];
    out.stats.retries += report.retries;
    out.stats.deadline_hits += report.deadline_hit ? 1 : 0;
    out.stats.breaker_rejections += report.breaker_rejected ? 1 : 0;
    Result<Translation>& translation = *outcomes[i];
    if (!translation.ok()) {
      // Drop the failed source into the partial result: its coverage never
      // reaches `coverages`, so MergedResidueFilter below regains every
      // constraint only that source would have realized — the recomputation
      // that keeps partial answers sound.
      if (allow_partial && IsSourceDropFailure(translation.status().code())) {
        out.partial.failed.push_back(
            {sources.name(i), translation.status(), report.attempts});
        out.stats.failed_sources += 1;
        continue;
      }
      return translation.status();
    }
    if (report.degraded) {
      out.partial.degraded.push_back(sources.name(i));
      out.stats.degraded_sources += 1;
    }
    out.stats.MergeFrom(translation->stats);
    auto [slot, inserted] =
        out.per_source.emplace(sources.name(i), *std::move(translation));
    if (inserted) coverages.push_back(&slot->second.coverage);
  }
  if (resilience_ != nullptr && !out.partial.failed.empty()) {
    const size_t survivors = n - out.partial.failed.size();
    if (survivors < std::max<size_t>(1, resilience_->options().min_sources)) {
      return Status::Unavailable(
          "only " + std::to_string(survivors) + " of " + std::to_string(n) +
          " sources available: " + out.partial.ToString());
    }
    resilience_->RecordPartialResult(out.partial.failed.size());
    if (root.enabled()) root.AddAttr("partial", out.partial.ToString());
  }
  if (Parallel(n)) out.stats.parallel_tasks += n;
  join_span.End();
  if (integration == Integration::kJoin) {
    // A constraint stays in F unless some source covered it exactly; a
    // disjunction stays unless one single source covers all its leaves.
    Span filter_span(trace, "filter", root_id);
    out.filter = MergedResidueFilter(full, coverages);
  }
  root.SetStats(out.stats);
  return out;
}

}  // namespace qmap

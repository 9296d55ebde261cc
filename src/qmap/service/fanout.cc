#include "qmap/service/fanout.h"

#include <algorithm>
#include <chrono>
#include <latch>
#include <optional>
#include <utility>
#include <vector>

#include "qmap/core/filter.h"
#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
#include "qmap/service/thread_pool.h"

namespace qmap {

namespace {

using Clock = std::chrono::steady_clock;

// One source's share of a fan-out frame.
struct Slot {
  std::optional<Result<Translation>> outcome;
  ResilienceManager::CallReport report;
  Clock::time_point submitted;  // pool path, when timed
};

// What every source call of one Run shares. Pool tasks capture a pointer
// to it plus their index.
struct Call {
  const FanOut::Sources& sources;
  std::vector<Slot>& slots;
  Trace* trace;
  uint64_t root_id;
  const CancelToken* cancel;
  const PhaseHistograms& phases;
  std::latch* done;  // the pool path's; null inline

  // Source i into its slot under a "source.translate" phase. A pool task
  // also times its "pool.wait" since the submit, then counts down.
  void Run(size_t i) const {
    Slot& slot = slots[i];
    const bool timed =
        done != nullptr && (trace != nullptr || phases.pool_wait != nullptr);
    const Clock::time_point started = timed ? Clock::now() : Clock::time_point{};
    const Clock::duration waited = started - slot.submitted;
    PhaseTimer source(trace, "source.translate", root_id,
                      phases.source_translate);
    if (source.span().enabled()) {
      source.span().AddAttr("source", sources.name(i));
      if (timed) {
        trace->AddCompleteSpan("pool.wait", root_id,
                               trace->OffsetNs(slot.submitted),
                               trace->OffsetNs(started));
      }
    }
    if (timed && phases.pool_wait != nullptr) {
      phases.pool_wait->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(waited)
              .count()));
    }
    Result<Translation> translation =
        sources.Translate(i, cancel, trace, source.span().id(), &slot.report);
    if (translation.ok()) {
      if (timed) {
        translation->stats.queue_wait_ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                .count());
      }
      source.span().SetStats(translation->stats);
    }
    slot.outcome.emplace(std::move(translation));
    // End the phase before releasing the latch: count_down() lets the
    // calling thread return and destroy the trace and this frame, so
    // nothing here may touch them afterwards (the timer's destructor would).
    source.End();
    if (done != nullptr) done->count_down();
  }
};

}  // namespace

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
  static const PhaseHistograms kUntimed;
  const PhaseHistograms& phases = phases_ != nullptr ? *phases_ : kUntimed;
  Trace* const trace = root.trace();
  const uint64_t root_id = root.id();
  const size_t n = sources.size();
  std::vector<Slot> slots(n);
  if (Parallel(n)) {
    // Covers the whole fan-out window on the calling thread: submits, the
    // workers' overlapping spans, and the latch wake-up latency.
    PhaseTimer fanout_timer(trace, "fanout.wait", root_id, phases.fanout_wait);
    std::latch done(static_cast<ptrdiff_t>(n));
    const Call call{sources, slots, trace, root_id, cancel, phases, &done};
    const bool timed = trace != nullptr || phases.pool_wait != nullptr;
    for (size_t i = 0; i < n; ++i) {
      if (timed) slots[i].submitted = Clock::now();
      // Two words of capture: std::function keeps the task in its local
      // buffer instead of allocating one per source.
      pool_->Submit([&call, i] { call.Run(i); });
    }
    // ALWAYS wait, even when `cancel` has expired mid-fan-out: the workers
    // write into this frame's slots, so returning before the latch releases
    // would leave detached tasks scribbling on a dead stack. Expiry makes
    // the workers *finish fast* (the guard checks the token before each
    // attempt), never makes the caller leave early.
    done.wait();
  } else {
    const Call call{sources, slots, trace, root_id, cancel, phases, nullptr};
    for (size_t i = 0; i < n; ++i) call.Run(i);
  }

  // Deterministic join: the fold runs in source order, independent of task
  // completion order.
  PhaseTimer join_timer(trace, "join", root_id, phases.join);
  MediatorTranslation out;
  std::vector<const ExactCoverage*> coverages;
  const bool allow_partial =
      resilience_ != nullptr && resilience_->options().allow_partial;
  for (size_t i = 0; i < n; ++i) {
    const ResilienceManager::CallReport& report = slots[i].report;
    out.stats.retries += report.retries;
    out.stats.deadline_hits += report.deadline_hit ? 1 : 0;
    out.stats.breaker_rejections += report.breaker_rejected ? 1 : 0;
    Result<Translation>& translation = *slots[i].outcome;
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
  join_timer.End();
  if (integration == Integration::kJoin) {
    // A constraint stays in F unless some source covered it exactly; a
    // disjunction stays unless one single source covers all its leaves.
    PhaseTimer filter_timer(trace, "filter", root_id, phases.filter);
    out.filter = MergedResidueFilter(full, coverages);
  }
  root.SetStats(out.stats);
  return out;
}

}  // namespace qmap

#include "qmap/service/request_observer.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "qmap/expr/printer.h"
#include "qmap/obs/metrics.h"

namespace qmap {
namespace {

// Spans fed by a phase timer on every request; folding them out of a built
// trace too would count them twice.
bool IsTimedPhase(std::string_view span_name) {
#define QMAP_PHASE_MATCH(member, name) \
  if (span_name == name) return true;
  QMAP_SERVICE_PHASES(QMAP_PHASE_MATCH)
#undef QMAP_PHASE_MATCH
  return false;
}

}  // namespace

RequestObserver::RequestObserver(const ObsOptions& options)
    : slow_(options.slow_query), metrics_(options.metrics) {
  if (options.trace_ring.enabled) {
    trace_ring_ = std::make_unique<TraceRing>(options.trace_ring);
  }
  if (metrics_ != nullptr) {
    slow_counter_ = &metrics_->counter(
        "qmap_slow_queries_total",
        "Queries captured by the slow-query log (lifetime, not ring size).");
    latency_hist_ = &metrics_->histogram(
        "qmap_translate_latency_us",
        "End-to-end Translate wall time in microseconds.");
#define QMAP_PHASE_RESOLVE(member, name) \
  phases_.member = &SpanHistogram(*metrics_, name);
    QMAP_SERVICE_PHASES(QMAP_PHASE_RESOLVE)
#undef QMAP_PHASE_RESOLVE
  }
}

void RequestObserver::Record(const Query& full, const Trace* trace,
                             size_t first_span, bool sampled,
                             std::chrono::steady_clock::time_point start,
                             const Result<MediatorTranslation>& out) {
  const uint64_t total_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  // Slow-query classification (ok results only — failures have no
  // per-source stats to inspect).
  uint64_t max_disjuncts = 0;
  bool is_partial = false;
  bool is_slow = false;
  if (out.ok() && slow_.enabled) {
    for (const auto& [name, translation] : out->per_source) {
      max_disjuncts = std::max(max_disjuncts, translation.stats.dnf_disjuncts);
    }
    is_partial = !out->partial.complete();
    is_slow = total_us >= slow_.latency_threshold_us ||
              (slow_.disjunct_threshold > 0 &&
               max_disjuncts >= slow_.disjunct_threshold) ||
              (slow_.capture_partial && is_partial);
  }

  // Trace retention: head-sampled traces always (even for failed
  // translations — those are the interesting ones); slow outliers go to the
  // guaranteed ring. Retention happens before the latency record below so
  // an exemplar written into a histogram bucket always resolves via
  // /tracez — the ring holds the trace by the time the bucket names it.
  const bool retained = trace_ring_ != nullptr && (sampled || is_slow);
  if (retained) trace_ring_->Insert(trace->ToParsed(), /*outlier=*/is_slow);

  if (latency_hist_ != nullptr) {
    if (retained) {
      latency_hist_->RecordWithExemplar(total_us, trace->serial());
    } else {
      latency_hist_->Record(total_us);
    }
  }
  // The core's inner spans (node.*, scm, psafe, ...) reach qmap_span_* only
  // from a trace that was built anyway; each span of this call is folded
  // once.
  if (metrics_ != nullptr && trace != nullptr) {
    for (const SpanRecord& span : trace->spans(first_span)) {
      if (!IsTimedPhase(span.name)) RecordSpanMetric(span, *metrics_);
    }
  }
  if (!is_slow) return;

  slow_queries_.fetch_add(1, std::memory_order_relaxed);
  if (slow_counter_ != nullptr) slow_counter_->Inc();
  SlowQueryRecord record;
  // The only rendering on the slow path — and only for captured queries.
  record.query_text = ToParseableText(full);
  record.total_us = total_us;
  record.max_disjuncts = max_disjuncts;
  record.stats = out->stats.ToString();
  if (is_partial) record.partial_summary = out->partial.ToString();
  record.trace_json = trace->ToJson();
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_log_.push_back(std::move(record));
  while (slow_log_.size() > std::max<size_t>(1, slow_.capacity)) {
    slow_log_.pop_front();
  }
}

std::vector<SlowQueryRecord> RequestObserver::slow_queries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return std::vector<SlowQueryRecord>(slow_log_.begin(), slow_log_.end());
}

uint64_t RequestObserver::LatencyExemplar(int bucket) const {
  return latency_hist_ != nullptr ? latency_hist_->exemplar(bucket) : 0;
}

}  // namespace qmap

#ifndef QMAP_SERVICE_REQUEST_OBSERVER_H_
#define QMAP_SERVICE_REQUEST_OBSERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "qmap/obs/trace.h"
#include "qmap/obs/trace_ring.h"
#include "qmap/service/fanout.h"
#include "qmap/service/phases.h"

namespace qmap {

class Counter;
class Histogram;
class MetricsRegistry;

/// When to capture a query into the service's slow-query log (see
/// docs/OBSERVABILITY.md). A query is "slow" when its wall time reaches
/// `latency_threshold_us`, or when any source's translation produced at
/// least `disjunct_threshold` DNF disjuncts — the paper's 2^n blowup
/// (Section 8) shows up as disjunct count before it shows up as latency
/// on small inputs, so both axes are worth watching.
struct SlowQueryLogOptions {
  bool enabled = false;
  /// Wall-time threshold in microseconds; 0 logs every query.
  uint64_t latency_threshold_us = 1000;
  /// Per-source DNF disjunct threshold; 0 ignores disjunct counts.
  uint64_t disjunct_threshold = 0;
  /// Ring-buffer size: only the most recent `capacity` slow queries are
  /// kept (the qmap_slow_queries_total counter keeps the lifetime count).
  size_t capacity = 32;
  /// Also capture every query that came back partial or degraded (see
  /// MediatorTranslation::partial), regardless of latency — a dropped
  /// source is worth a log entry even when the survivors answered fast.
  bool capture_partial = true;
};

/// Observability wiring for the service. All of it defaults to off, in
/// which case the service adds no clock reads or locking to the
/// translation path.
struct ObsOptions {
  /// When set, the service registers and updates counters/histograms here
  /// (qmap_translate_total, qmap_translate_latency_us, qmap_cache_*_total,
  /// qmap_pool_*_us, qmap_slow_queries_total, the rule-matching counters
  /// qmap_match_pattern_attempts_total / qmap_match_index_hits_total /
  /// qmap_match_attempts_saved_total, and per-phase qmap_span_*_us: the
  /// service phases on every request, the core's inner spans from the
  /// traces that are built). Must outlive the service.
  MetricsRegistry* metrics = nullptr;
  SlowQueryLogOptions slow_query;
  /// Sampled trace retention (see qmap/obs/trace_ring.h): every Nth query
  /// is traced and kept in a bounded ring, latency outliers (the slow-query
  /// criteria) are always kept, and the latency histogram's buckets remember
  /// the retained traces as exemplars. Off by default; when enabled the
  /// admin server's /tracez serves the ring.
  TraceRingOptions trace_ring;
};

/// One captured slow query (see SlowQueryLogOptions).
struct SlowQueryRecord {
  /// The normalized printed form of the full query (view constraints
  /// conjoined), rendered lazily for the log — the translation path itself
  /// keys caches by Query::fingerprint() and never prints.
  std::string query_text;
  uint64_t total_us = 0;
  /// Max dnf_disjuncts over the per-source translations.
  uint64_t max_disjuncts = 0;
  /// TranslationStats::ToString() of the aggregated stats.
  std::string stats;
  /// PartialResult::ToString() when the query came back partial or
  /// degraded; empty for complete answers.
  std::string partial_summary;
  /// Trace::ToJson() of the per-query trace (per-source spans, pool waits,
  /// cache lookups). Present even when the caller did not pass a Trace:
  /// the service records an internal trace whenever the slow-query log is
  /// enabled.
  std::string trace_json;
};

/// The observation envelope around each service request: the latency
/// histogram and its exemplars, the per-phase histograms the service's
/// phase timers record into, sampled and outlier trace retention (the
/// trace ring), and the slow-query log. Thread-safe.
class RequestObserver {
 public:
  explicit RequestObserver(const ObsOptions& options);

  /// Returns `run(trace)`, observed. With no ring, slow log or registry it
  /// calls straight through and reads no clock. A caller without a Trace
  /// gets an internal one only when something reads it: a sampled request
  /// (the ring) or the slow log (trace_json); a registry alone is fed by the
  /// phase timers and gets a null Trace*. A sampled trace is retained even
  /// when the translation fails, and before its latency is recorded, so
  /// every exemplar names a retained trace.
  template <typename Run>
  Result<MediatorTranslation> Observe(const Query& full, Trace* trace,
                                      const Run& run) {
    // The sampler counts every query it sees, sampled or not.
    const bool sampled = trace_ring_ != nullptr && trace_ring_->ShouldSample();
    if (!sampled && !slow_.enabled && latency_hist_ == nullptr) {
      return run(trace);
    }
    std::optional<Trace> local_trace;
    if (trace == nullptr && (sampled || slow_.enabled)) {
      trace = &local_trace.emplace("service");
    }
    // Spans before this mark belong to earlier calls on a reused trace.
    const size_t first_span = trace != nullptr ? trace->num_spans() : 0;
    const auto start = std::chrono::steady_clock::now();
    Result<MediatorTranslation> out = run(trace);
    Record(full, trace, first_span, sampled, start, out);
    return out;
  }

  /// The phase histograms, resolved from the registry at construction; all
  /// null without one.
  const PhaseHistograms& phases() const { return phases_; }

  std::vector<SlowQueryRecord> slow_queries() const;  // oldest first
  uint64_t slow_query_count() const {
    return slow_queries_.load(std::memory_order_relaxed);
  }
  TraceRing* trace_ring() const { return trace_ring_.get(); }
  /// The trace serial latency bucket `bucket` names; 0 when none.
  uint64_t LatencyExemplar(int bucket) const;

 private:
  // `trace` is null when nothing reads one (see Observe).
  void Record(const Query& full, const Trace* trace, size_t first_span,
              bool sampled, std::chrono::steady_clock::time_point start,
              const Result<MediatorTranslation>& out);

  const SlowQueryLogOptions slow_;
  MetricsRegistry* const metrics_;
  std::unique_ptr<TraceRing> trace_ring_;  // null unless enabled
  // Null without a registry.
  Counter* slow_counter_ = nullptr;
  Histogram* latency_hist_ = nullptr;
  PhaseHistograms phases_;
  std::atomic<uint64_t> slow_queries_{0};
  mutable std::mutex slow_mu_;
  std::deque<SlowQueryRecord> slow_log_;  // guarded by slow_mu_, newest last
};

}  // namespace qmap

#endif  // QMAP_SERVICE_REQUEST_OBSERVER_H_

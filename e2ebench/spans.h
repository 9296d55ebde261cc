#ifndef QMAP_E2EBENCH_SPANS_H_
#define QMAP_E2EBENCH_SPANS_H_

// Benchmark-side tracing: spans recorded in memory around the calls into
// each layer's public functions, never inside the library. A client thread
// records one RequestRecord per request (its request, expr.parse and
// service.translate spans); a TracedTransport decorator records one
// SourceSpan per per-source call on whichever pool thread runs it. After a
// traced phase the two are joined by query fingerprint and time, giving
// every source span its request and parent.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qmap/service/source_transport.h"

namespace e2e {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Turns span recording on or off for the whole process. Off by default;
/// the timed (untraced) phases never record.
void SetTracing(bool on);
bool Tracing();

/// One request as seen by its client thread. The request span is
/// [start, end], expr.parse is [start, parse_end] and service.translate is
/// [translate_start, end].
struct RequestRecord {
  uint64_t fingerprint = 0;  // of the full query the service translates
  int64_t start = 0;
  int64_t parse_end = 0;
  int64_t translate_start = 0;
  int64_t end = 0;
  uint32_t client = 0;
  uint64_t translate_allocs = 0;  // client-thread allocations in translate
};

/// One per-source call through a TracedTransport.
struct SourceSpan {
  uint64_t fingerprint = 0;
  int64_t start = 0;
  int64_t end = 0;
  uint64_t allocs = 0;  // allocations on the calling thread inside the call
};

/// Moves every recorded source span out of the per-thread buffers. Call it
/// only while no translation is running.
std::vector<SourceSpan> TakeSourceSpans();

/// A SourceTransport decorator that forwards every call to `inner` and,
/// while tracing is on, records a SourceSpan around it. It forwards spec()
/// and endpoint() too, so match memos and cache keys are those of the
/// undecorated source.
class TracedTransport : public qmap::SourceTransport {
 public:
  explicit TracedTransport(std::shared_ptr<qmap::SourceTransport> inner)
      : inner_(std::move(inner)) {}

  qmap::Result<qmap::Translation> Translate(
      const qmap::Query& full, qmap::Trace* trace, uint64_t parent_span,
      qmap::MatchMemo* memo, const qmap::CancelToken* cancel) override;
  const qmap::MappingSpec* spec() const override { return inner_->spec(); }
  std::string endpoint() const override { return inner_->endpoint(); }

 private:
  std::shared_ptr<qmap::SourceTransport> inner_;
};

/// Per-layer figures of one traced phase, in microseconds.
struct Ledger {
  uint64_t requests = 0;
  std::vector<double> parse_us;
  std::vector<double> translate_us;
  std::vector<double> service_self_us;  // translate minus covered source time
  std::vector<double> source_us;        // one entry per source span
  double wall_us = 0;         // sum of request spans
  double parse_sum_us = 0;    // sum of expr.parse self time
  double self_sum_us = 0;     // sum of service self time
  double source_sum_us = 0;   // sum of wall time covered by source spans
  double unattributed_us = 0; // request time outside every named span
  uint64_t translate_allocs = 0;
  uint64_t source_allocs = 0;
  uint64_t unmatched_spans = 0;  // source spans no request claimed
};

/// Joins `spans` to `requests` and computes each layer's self time.
/// `request_ids[i]` receives the id of the request span source span i
/// belongs to (0 when unmatched).
Ledger BuildLedger(const std::vector<RequestRecord>& requests,
                   const std::vector<SourceSpan>& spans,
                   std::vector<uint64_t>* request_ids);

/// Writes the spans as a Chrome trace_event JSON file (open it in Perfetto
/// or chrome://tracing). Request i gets id i+1; `source_name` names the
/// per-source spans. At most `max_requests` requests (and the source spans
/// they own) are written. Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<RequestRecord>& requests,
                      const std::vector<SourceSpan>& spans,
                      const std::vector<uint64_t>& request_ids,
                      const std::string& source_name, size_t max_requests);

/// Nearest-rank percentile of `values` (reordered in place); 0 when empty.
double Percentile(std::vector<double>& values, double p);

}  // namespace e2e

#endif  // QMAP_E2EBENCH_SPANS_H_

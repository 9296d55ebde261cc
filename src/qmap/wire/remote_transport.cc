#include "qmap/wire/remote_transport.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "qmap/expr/printer.h"
#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
#include "qmap/wire/messages.h"

namespace qmap {

RemoteTransport::RemoteTransport(std::string source, std::string endpoint,
                                 std::shared_ptr<WireClient> client,
                                 RemoteTransportOptions options)
    : source_(std::move(source)),
      endpoint_(std::move(endpoint)),
      client_(std::move(client)),
      options_(options) {
  if (options_.metrics != nullptr) {
    calls_counter_ = &options_.metrics->counter(
        "qmap_rpc_calls_total", "Remote translate calls issued.");
    failures_counter_ = &options_.metrics->counter(
        "qmap_rpc_failures_total",
        "Remote translate calls that returned a non-ok status.");
    latency_hist_ = &options_.metrics->histogram(
        "qmap_rpc_latency_us", "Remote translate round-trip in microseconds.");
  }
}

Result<Translation> RemoteTransport::Translate(const Query& full, Trace* trace,
                                               uint64_t parent_span,
                                               MatchMemo* /*unused*/,
                                               const CancelToken* cancel) {
  Span rpc_span(trace, "rpc.translate", parent_span);
  if (rpc_span.enabled()) {
    rpc_span.AddAttr("source", source_);
    rpc_span.AddAttr("endpoint", endpoint_);
  }
  if (calls_counter_ != nullptr) calls_counter_->Inc();

  TranslateRequest request;
  request.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  request.source = source_;
  request.query_text = ToParseableText(full);
  request.deadline_ms = options_.default_deadline_ms;
  if (cancel != nullptr && cancel->budget.bounded()) {
    ResilienceClock& clock = options_.clock != nullptr
                                 ? *options_.clock
                                 : DefaultResilienceClock();
    const uint64_t remaining_us = cancel->budget.remaining_us(clock.NowUs());
    if (remaining_us == 0) {
      if (failures_counter_ != nullptr) failures_counter_->Inc();
      return Status::DeadlineExceeded("rpc " + source_ +
                                      ": budget exhausted before send");
    }
    // Round up so a sub-millisecond remainder still reaches the wire as a
    // positive deadline instead of "unbounded" (0).
    request.deadline_ms = static_cast<uint32_t>(
        std::min<uint64_t>((remaining_us + 999) / 1000, UINT32_MAX));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  Result<std::pair<FrameType, std::string>> reply =
      client_->Call(endpoint_, FrameType::kTranslateRequest,
                    EncodeTranslateRequest(request), request.deadline_ms);
  if (latency_hist_ != nullptr) {
    latency_hist_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count()));
  }
  if (!reply.ok()) {
    if (failures_counter_ != nullptr) failures_counter_->Inc();
    if (rpc_span.enabled()) rpc_span.AddAttr("error", reply.status().message());
    return reply.status();
  }
  if (reply->first != FrameType::kTranslateResponse) {
    if (failures_counter_ != nullptr) failures_counter_->Inc();
    return Status::Internal("rpc " + source_ +
                            ": unexpected response frame type");
  }
  Result<TranslateResponse> response = DecodeTranslateResponse(reply->second);
  if (!response.ok()) {
    if (failures_counter_ != nullptr) failures_counter_->Inc();
    return Status::Internal("rpc " + source_ + ": " +
                            response.status().message());
  }
  if (response->request_id != request.request_id) {
    // Connections carry one call at a time, so a mismatched id means the
    // pooled connection desynchronized — treat it like a protocol error.
    if (failures_counter_ != nullptr) failures_counter_->Inc();
    return Status::Internal("rpc " + source_ + ": response id mismatch");
  }
  if (!response->ok) {
    if (failures_counter_ != nullptr) failures_counter_->Inc();
    if (rpc_span.enabled()) {
      rpc_span.AddAttr("error", response->failure.message());
    }
    return response->failure;
  }
  return std::move(response->value);
}

}  // namespace qmap

#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "alloc_count.h"

namespace e2e {
namespace {

std::atomic<bool> g_tracing{false};

// Per-thread span buffers, owned here so they outlive the pool threads that
// fill them. A thread registers its buffer on its first recorded span.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<SourceSpan>>> g_buffers;
thread_local std::vector<SourceSpan>* t_buffer = nullptr;

std::vector<SourceSpan>& ThreadBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<SourceSpan>>();
    buffer->reserve(1 << 12);
    t_buffer = buffer.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_release); }
bool Tracing() { return g_tracing.load(std::memory_order_acquire); }

std::vector<SourceSpan> TakeSourceSpans() {
  std::vector<SourceSpan> out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& buffer : g_buffers) {
    out.insert(out.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return out;
}

qmap::Result<qmap::Translation> TracedTransport::Translate(
    const qmap::Query& full, qmap::Trace* trace, uint64_t parent_span,
    qmap::MatchMemo* memo, const qmap::CancelToken* cancel) {
  if (!Tracing()) return inner_->Translate(full, trace, parent_span, memo, cancel);
  SourceSpan span;
  span.fingerprint = full.fingerprint();
  const uint64_t allocs_before = ThreadAllocs();
  span.start = NowNs();
  qmap::Result<qmap::Translation> result =
      inner_->Translate(full, trace, parent_span, memo, cancel);
  span.end = NowNs();
  span.allocs = ThreadAllocs() - allocs_before;
  ThreadBuffer().push_back(span);
  return result;
}

Ledger BuildLedger(const std::vector<RequestRecord>& requests,
                   const std::vector<SourceSpan>& spans,
                   std::vector<uint64_t>* request_ids) {
  Ledger ledger;
  ledger.requests = requests.size();
  std::unordered_map<uint64_t, std::vector<size_t>> by_fingerprint;
  for (size_t i = 0; i < requests.size(); ++i) {
    by_fingerprint[requests[i].fingerprint].push_back(i);
  }
  // A source span belongs to the request translating the same query whose
  // service.translate span contains the source span's start.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(requests.size());
  request_ids->assign(spans.size(), 0);
  for (size_t s = 0; s < spans.size(); ++s) {
    const SourceSpan& span = spans[s];
    ledger.source_us.push_back(Us(span.end - span.start));
    ledger.source_allocs += span.allocs;
    auto it = by_fingerprint.find(span.fingerprint);
    bool matched = false;
    if (it != by_fingerprint.end()) {
      for (size_t r : it->second) {
        const RequestRecord& req = requests[r];
        if (span.start >= req.translate_start && span.start <= req.end) {
          children[r].emplace_back(span.start, std::min(span.end, req.end));
          (*request_ids)[s] = r + 1;
          matched = true;
          break;
        }
      }
    }
    if (!matched) ++ledger.unmatched_spans;
  }
  for (size_t r = 0; r < requests.size(); ++r) {
    const RequestRecord& req = requests[r];
    // Wall time covered by the request's source spans: the union of their
    // intervals (sources run concurrently on the pool).
    auto& intervals = children[r];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = req.translate_start;
    for (const auto& [start, end] : intervals) {
      const int64_t from = std::max(start, cursor);
      if (end > from) {
        covered += end - from;
        cursor = end;
      }
    }
    const int64_t parse = req.parse_end - req.start;
    const int64_t translate = req.end - req.translate_start;
    const int64_t wall = req.end - req.start;
    ledger.parse_us.push_back(Us(parse));
    ledger.translate_us.push_back(Us(translate));
    ledger.service_self_us.push_back(Us(translate - covered));
    ledger.wall_us += Us(wall);
    ledger.parse_sum_us += Us(parse);
    ledger.self_sum_us += Us(translate - covered);
    ledger.source_sum_us += Us(covered);
    ledger.unattributed_us += Us(wall - parse - translate);
    ledger.translate_allocs += req.translate_allocs;
  }
  return ledger;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<RequestRecord>& requests,
                      const std::vector<SourceSpan>& spans,
                      const std::vector<uint64_t>& request_ids,
                      const std::string& source_name, size_t max_requests) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = requests.empty() ? 0 : requests.front().start;
  bool first = true;
  auto event = [&](const char* name, int64_t start, int64_t end, uint64_t tid,
                   uint64_t request, const char* parent) {
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"parent\":\"%s\"}}",
                 first ? "" : ",", name, static_cast<unsigned long long>(tid),
                 Us(start - origin), Us(end - start),
                 static_cast<unsigned long long>(request), parent);
    first = false;
  };
  std::fprintf(out, "[");
  const size_t n = std::min(max_requests, requests.size());
  for (size_t r = 0; r < n; ++r) {
    const RequestRecord& req = requests[r];
    const uint64_t id = r + 1;
    const uint64_t tid = req.client + 1;
    event("request", req.start, req.end, tid, id, "");
    event("expr.parse", req.start, req.parse_end, tid, id, "request");
    event("service.translate", req.translate_start, req.end, tid, id,
          "request");
  }
  // Source spans run on pool threads; they get their own track (tid 100).
  for (size_t s = 0; s < spans.size(); ++s) {
    const uint64_t id = request_ids[s];
    if (id == 0 || id > n) continue;
    event(source_name.c_str(), spans[s].start, spans[s].end, 100, id,
          "service.translate");
  }
  std::fprintf(out, "\n]\n");
  return std::fclose(out) == 0;
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

}  // namespace e2e

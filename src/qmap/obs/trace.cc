#include "qmap/obs/trace.h"

#include <atomic>
#include <cstdio>

#include "qmap/obs/json.h"
#include "qmap/obs/metrics.h"

namespace qmap {
namespace {

std::atomic<uint64_t> g_next_trace_serial{1};

void AppendSpanJson(const SpanRecord& span, std::string* out) {
  *out += "{\"id\":" + std::to_string(span.id);
  *out += ",\"parent\":" + std::to_string(span.parent);
  *out += ",\"name\":\"" + JsonEscape(span.name) + "\"";
  *out += ",\"thread\":" + std::to_string(span.thread);
  *out += ",\"start_ns\":" + std::to_string(span.start_ns);
  *out += ",\"dur_ns\":" + std::to_string(span.dur_ns < 0 ? int64_t{0} : span.dur_ns);
  if (!span.attrs.empty()) {
    *out += ",\"attrs\":[";
    for (size_t i = 0; i < span.attrs.size(); ++i) {
      if (i > 0) *out += ',';
      *out += "[\"" + JsonEscape(span.attrs[i].first) + "\",\"" +
              JsonEscape(span.attrs[i].second) + "\"]";
    }
    *out += ']';
  }
  if (span.has_stats) {
    *out += ",\"stats\":{";
    bool first = true;
    span.stats.ForEachField([&](const char* name, uint64_t value) {
      if (value == 0) return;
      if (!first) *out += ',';
      first = false;
      *out += "\"" + std::string(name) + "\":" + std::to_string(value);
    });
    *out += '}';
  }
  *out += '}';
}

std::string TraceJson(const std::string& trace_id, const std::string& label,
                      bool detail, const std::vector<SpanRecord>& spans) {
  std::string out = "{\"trace_id\":\"" + JsonEscape(trace_id) + "\"";
  out += ",\"label\":\"" + JsonEscape(label) + "\"";
  out += ",\"detail\":";
  out += detail ? "true" : "false";
  out += ",\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    AppendSpanJson(spans[i], &out);
  }
  out += "]}";
  return out;
}

Result<SpanRecord> SpanFromJson(const JsonValue& value) {
  if (value.kind != JsonValue::Kind::kObject) {
    return Status::ParseError("trace JSON: span is not an object");
  }
  SpanRecord span;
  const JsonValue* field = value.Find("id");
  if (field == nullptr) return Status::ParseError("trace JSON: span missing id");
  span.id = field->number;
  if ((field = value.Find("parent")) != nullptr) span.parent = field->number;
  if ((field = value.Find("name")) != nullptr) span.name = field->string;
  if ((field = value.Find("thread")) != nullptr) {
    span.thread = static_cast<int>(field->number);
  }
  if ((field = value.Find("start_ns")) != nullptr) {
    span.start_ns = static_cast<int64_t>(field->number);
  }
  if ((field = value.Find("dur_ns")) != nullptr) {
    span.dur_ns = static_cast<int64_t>(field->number);
  }
  if ((field = value.Find("attrs")) != nullptr) {
    for (const JsonValue& pair : field->array) {
      if (pair.array.size() != 2) {
        return Status::ParseError("trace JSON: attr is not a [key, value] pair");
      }
      span.attrs.emplace_back(pair.array[0].string, pair.array[1].string);
    }
  }
  if ((field = value.Find("stats")) != nullptr) {
    span.has_stats = true;
    for (const auto& [name, counter] : field->object) {
      bool known = false;
      span.stats.ForEachFieldMutable([&](const char* field_name, uint64_t& slot) {
        if (name == field_name) {
          slot = counter.number;
          known = true;
        }
      });
      if (!known) {
        return Status::ParseError("trace JSON: unknown stats field '" + name + "'");
      }
    }
  }
  return span;
}

}  // namespace

Trace::Trace(std::string label, bool capture_detail)
    : label_(std::move(label)),
      capture_detail_(capture_detail),
      serial_(g_next_trace_serial.fetch_add(1, std::memory_order_relaxed)),
      epoch_(Clock::now()) {}

std::string Trace::trace_id() const { return "qt" + std::to_string(serial_); }

int64_t Trace::OffsetNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int Trace::ThreadIndexLocked() {
  auto [it, inserted] =
      thread_idx_.emplace(std::this_thread::get_id(),
                          static_cast<int>(thread_idx_.size()));
  return it->second;
}

uint64_t Trace::StartSpan(std::string_view name, uint64_t parent) {
  int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& span = spans_.emplace_back();
  span.id = spans_.size();
  span.parent = parent;
  span.name = name;
  span.thread = ThreadIndexLocked();
  span.start_ns = start;
  return span.id;
}

void Trace::EndSpan(uint64_t id) {
  int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  SpanRecord& span = spans_[id - 1];
  if (span.dur_ns < 0) span.dur_ns = end - span.start_ns;
}

void Trace::AddAttr(uint64_t id, std::string_view key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].attrs.emplace_back(std::string(key), std::move(value));
}

void Trace::SetStats(uint64_t id, const TranslationStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].stats = stats;
  spans_[id - 1].has_stats = true;
}

uint64_t Trace::AddCompleteSpan(std::string_view name, uint64_t parent,
                                int64_t start_ns, int64_t end_ns) {
  int64_t dur_ns = end_ns - start_ns;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& span = spans_.emplace_back();
  span.id = spans_.size();
  span.parent = parent;
  span.name = name;
  span.thread = ThreadIndexLocked();
  span.start_ns = start_ns;
  span.dur_ns = dur_ns < 0 ? 0 : dur_ns;
  return span.id;
}

std::vector<SpanRecord> Trace::spans(size_t first) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (first >= spans_.size()) return {};
  return std::vector<SpanRecord>(spans_.begin() + static_cast<ptrdiff_t>(first),
                                 spans_.end());
}

size_t Trace::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void PhaseTimer::RecordSample() {
  histogram_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Trace::Clock::now() - start_)
          .count()));
  histogram_ = nullptr;
}

std::string Trace::ToJson() const {
  return TraceJson(trace_id(), label_, capture_detail_, spans());
}

ParsedTrace Trace::ToParsed() const {
  ParsedTrace out;
  out.trace_id = trace_id();
  out.label = label_;
  out.capture_detail = capture_detail_;
  out.spans = spans();
  return out;
}

std::string ParsedTrace::ToJson() const {
  return TraceJson(trace_id, label, capture_detail, spans);
}

std::string Trace::ToChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans()) {
    if (!first) out += ',';
    first = false;
    char ts[64];
    std::snprintf(ts, sizeof(ts), "%.3f",
                  static_cast<double>(span.start_ns) / 1000.0);
    char dur[64];
    std::snprintf(dur, sizeof(dur), "%.3f",
                  static_cast<double>(span.dur_ns < 0 ? 0 : span.dur_ns) / 1000.0);
    out += "{\"name\":\"" + JsonEscape(span.name) + "\",\"cat\":\"qmap\"";
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(span.thread);
    out += ",\"ts\":" + std::string(ts) + ",\"dur\":" + std::string(dur);
    out += ",\"args\":{\"span_id\":" + std::to_string(span.id);
    out += ",\"parent\":" + std::to_string(span.parent);
    for (const auto& [key, attr_value] : span.attrs) {
      out += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(attr_value) + "\"";
    }
    if (span.has_stats) {
      span.stats.ForEachField([&](const char* name, uint64_t value) {
        if (value == 0) return;
        out += ",\"" + std::string(name) + "\":" + std::to_string(value);
      });
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

Result<ParsedTrace> ParseTraceJson(const std::string& json) {
  Result<JsonValue> root = ParseJson(json);
  if (!root.ok()) return root.status();
  if (root->kind != JsonValue::Kind::kObject) {
    return Status::ParseError("trace JSON: root is not an object");
  }
  ParsedTrace out;
  const JsonValue* field = root->Find("trace_id");
  if (field != nullptr) out.trace_id = field->string;
  if ((field = root->Find("label")) != nullptr) out.label = field->string;
  if ((field = root->Find("detail")) != nullptr) out.capture_detail = field->boolean;
  if ((field = root->Find("spans")) == nullptr) {
    return Status::ParseError("trace JSON: missing spans array");
  }
  for (const JsonValue& value : field->array) {
    Result<SpanRecord> span = SpanFromJson(value);
    if (!span.ok()) return span.status();
    out.spans.push_back(*std::move(span));
  }
  return out;
}

Histogram& SpanHistogram(MetricsRegistry& registry, std::string_view span_name) {
  std::string name = "qmap_span_";
  for (char c : span_name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    name += ok ? c : '_';
  }
  name += "_us";
  return registry.histogram(name);
}

void RecordSpanMetric(const SpanRecord& span, MetricsRegistry& registry) {
  if (span.dur_ns < 0) return;
  SpanHistogram(registry, span.name)
      .Record(static_cast<uint64_t>(span.dur_ns) / 1000);
}

void RecordTraceMetrics(const Trace& trace, MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (const SpanRecord& span : trace.spans()) RecordSpanMetric(span, *registry);
}

}  // namespace qmap

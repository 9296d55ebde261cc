// The observation envelope on its own, without a service around it, and
// then the phase timers it resolves, as a service drives them. The slow
// log, sampling and exemplars of successful translations are covered end
// to end by the ObsService.* tests in obs_service_test.cc.
//
// Suite names start with "RequestObserver" — the TSan CI job selects them
// by that regex.

#include "qmap/service/request_observer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "qmap/contexts/faculty.h"
#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
#include "qmap/service/translation_service.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

TEST(RequestObserver, SampledFailureIsRetainedButNeverLoggedAsSlow) {
  MetricsRegistry registry;
  ObsOptions options;
  options.metrics = &registry;
  options.trace_ring.enabled = true;
  options.trace_ring.sample_every = 1;  // the sampler picks every query
  options.slow_query.enabled = true;
  options.slow_query.latency_threshold_us = 0;  // any success is "slow"
  RequestObserver observer(options);

  Trace* seen = nullptr;
  Result<MediatorTranslation> out = observer.Observe(
      Q("[a = 1]"), nullptr, [&](Trace* trace) -> Result<MediatorTranslation> {
        seen = trace;
        Span root(trace, "service.translate");
        return Status::Unavailable("every source down");
      });
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  ASSERT_NE(seen, nullptr) << "an observed request runs under a trace";

  // Retained as a sampled trace, not as a slow outlier.
  std::vector<ParsedTrace> sampled = observer.trace_ring()->SampledSnapshot();
  ASSERT_EQ(sampled.size(), 1u);
  ASSERT_FALSE(sampled[0].spans.empty());
  EXPECT_EQ(sampled[0].spans[0].name, "service.translate");
  EXPECT_TRUE(observer.trace_ring()->OutlierSnapshot().empty());

  // A failure has no per-source stats to classify, so no slow record.
  EXPECT_TRUE(observer.slow_queries().empty());
  EXPECT_EQ(observer.slow_query_count(), 0u);
  EXPECT_EQ(registry.counter("qmap_slow_queries_total").value(), 0u);

  // The latency is still recorded, and its exemplar names the retained
  // trace.
  Histogram& latency = registry.histogram("qmap_translate_latency_us");
  ASSERT_EQ(latency.count(), 1u);
  uint64_t serial = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    if (latency.bucket_count(b) > 0) serial = observer.LatencyExemplar(b);
  }
  ASSERT_NE(serial, 0u);
  EXPECT_EQ("qt" + std::to_string(serial), sampled[0].trace_id);
}

TEST(RequestObserver, RegistryAloneBuildsNoTraceButASampleDoes) {
  MetricsRegistry registry;
  ObsOptions options;
  options.metrics = &registry;
  const auto run_seeing = [](Trace** seen) {
    return [seen](Trace* trace) -> Result<MediatorTranslation> {
      *seen = trace;
      return MediatorTranslation{};
    };
  };

  RequestObserver metrics_only(options);
  Trace* seen = nullptr;
  ASSERT_TRUE(metrics_only.Observe(Q("[a = 1]"), nullptr, run_seeing(&seen)).ok());
  EXPECT_EQ(seen, nullptr) << "nothing reads a trace, so none is built";
  EXPECT_EQ(registry.histogram("qmap_translate_latency_us").count(), 1u);

  options.trace_ring.enabled = true;
  options.trace_ring.sample_every = 1;
  RequestObserver sampling(options);
  ASSERT_TRUE(sampling.Observe(Q("[a = 1]"), nullptr, run_seeing(&seen)).ok());
  EXPECT_NE(seen, nullptr) << "a sampled request runs under a trace";
  EXPECT_EQ(sampling.trace_ring()->SampledSnapshot().size(), 1u);
}

TEST(RequestObserver, SlowLoggedRequestCarriesTraceJson) {
  MetricsRegistry registry;
  ObsOptions options;
  options.metrics = &registry;
  options.slow_query.enabled = true;
  options.slow_query.latency_threshold_us = 0;  // every success is "slow"
  RequestObserver observer(options);

  Result<MediatorTranslation> out = observer.Observe(
      Q("[a = 1]"), nullptr, [&](Trace* trace) -> Result<MediatorTranslation> {
        PhaseTimer root(trace, "service.translate", 0,
                        observer.phases().service_translate);
        return MediatorTranslation{};
      });
  ASSERT_TRUE(out.ok());
  std::vector<SlowQueryRecord> slow = observer.slow_queries();
  ASSERT_EQ(slow.size(), 1u);
  Result<ParsedTrace> parsed = ParseTraceJson(slow[0].trace_json);
  ASSERT_TRUE(parsed.ok()) << slow[0].trace_json;
  ASSERT_EQ(parsed->spans.size(), 1u);
  EXPECT_EQ(parsed->spans[0].name, "service.translate");
  // The timer fed the histogram; the fold did not feed it again.
  EXPECT_EQ(registry.histogram("qmap_span_service_translate_us").count(), 1u);
}

// The span names whose histograms the service's phase timers feed.
const char* const kTimedPhases[] = {
    "service.translate", "fanout.wait", "pool.wait", "source.translate",
    "cache.lookup",      "cache.insert", "join",     "filter",
    "translate",         "tdqm"};

std::string PhaseHistogramName(const std::string& span_name) {
  std::string name = "qmap_span_" + span_name + "_us";
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

std::unique_ptr<TranslationService> FacultyService(MetricsRegistry* registry,
                                                   uint64_t sample_every) {
  ServiceOptions options;
  options.num_threads = 4;
  options.obs.metrics = registry;
  if (sample_every > 0) {
    options.obs.trace_ring.enabled = true;
    options.obs.trace_ring.sample_every = sample_every;
  }
  auto service = std::make_unique<TranslationService>(options);
  service->AddSourcesFrom(MakeFacultyMediator());
  return service;
}

std::vector<Query> FacultyQueries() {
  return {Q("[fac.ln = pub.ln] and [fac.fn = pub.fn] and "
            "[fac.bib contains \"data(near)mining\"] and [fac.dept = \"cs\"]"),
          Q("[fac.dept = \"cs\"] or [fac.dept = \"ee\"]")};
}

TEST(RequestObserver, PhaseCountsAreTheSameWithSamplingOnAndOff) {
  MetricsRegistry unsampled_registry;
  MetricsRegistry sampled_registry;
  auto unsampled = FacultyService(&unsampled_registry, /*sample_every=*/0);
  auto sampled = FacultyService(&sampled_registry, /*sample_every=*/1);
  for (int round = 0; round < 2; ++round) {  // misses, then cache hits
    for (const Query& query : FacultyQueries()) {
      ASSERT_TRUE(unsampled->Translate(query).ok());
      ASSERT_TRUE(sampled->Translate(query).ok());
    }
  }
  ASSERT_EQ(sampled->trace_ring()->stats().sampled, 4u);

  EXPECT_EQ(sampled_registry.histogram("qmap_translate_latency_us").count(),
            4u);
  EXPECT_EQ(unsampled_registry.histogram("qmap_translate_latency_us").count(),
            4u);
  for (const char* phase : kTimedPhases) {
    const std::string name = PhaseHistogramName(phase);
    EXPECT_EQ(sampled_registry.histogram(name).count(),
              unsampled_registry.histogram(name).count())
        << name;
  }
  EXPECT_EQ(unsampled_registry.histogram("qmap_span_service_translate_us")
                .count(),
            4u);
  EXPECT_EQ(unsampled_registry.histogram("qmap_span_source_translate_us")
                .count(),
            4 * unsampled->num_sources());
  EXPECT_GT(unsampled_registry.histogram("qmap_span_tdqm_us").count(), 0u);
  // The core's inner spans come only from the traces that were built.
  EXPECT_EQ(unsampled_registry.histogram("qmap_span_scm_us").count(), 0u);
  EXPECT_GT(sampled_registry.histogram("qmap_span_scm_us").count(), 0u);
}

TEST(RequestObserver, ReusedCallerTraceCountsEachCallOnce) {
  MetricsRegistry registry;
  auto service = FacultyService(&registry, /*sample_every=*/0);
  const Query query = FacultyQueries()[0];
  Trace trace("reused");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service->Translate(query, &trace).ok());
  }
  EXPECT_EQ(registry.histogram("qmap_span_service_translate_us").count(), 3u);
  // A core span reaches its histogram once per span in the trace.
  size_t scm_spans = 0;
  for (const SpanRecord& span : trace.spans()) {
    if (span.name == "scm") ++scm_spans;
  }
  ASSERT_GT(scm_spans, 0u);
  EXPECT_EQ(registry.histogram("qmap_span_scm_us").count(), scm_spans);
}

}  // namespace
}  // namespace qmap

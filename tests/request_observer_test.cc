// The observation envelope on its own, without a service around it. The
// slow log, sampling and exemplars of successful translations are covered
// end to end by the ObsService.* tests in obs_service_test.cc.
//
// Suite names start with "RequestObserver" — the TSan CI job selects them
// by that regex.

#include "qmap/service/request_observer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
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

}  // namespace
}  // namespace qmap

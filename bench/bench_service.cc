// B9 — translation-service throughput vs the serial one-shot mediator, on a
// 6-source synthetic federation serving a repeated-query workload (the
// production shape: a hot set of distinct queries arriving over and over).
//
// Three levers are measured separately:
//   SerialMediatorTranslate   — the baseline: Mediator::Translate re-runs
//                               rule matching per source, per call.
//   ServiceCached             — thread-pool fan-out + shared LRU cache;
//                               after the first pass every per-source
//                               translation is a cache hit.
//   ServiceParallelNoCache    — fan-out only (cold translation every call).
//   ServiceBatchCached        — TranslateBatch with intra-batch duplicates.
//
// The fixture also asserts the determinism contract once at startup: the
// 4-thread service renders byte-identically to the 1-thread service on the
// whole workload (reported as the `identical` counter).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "qmap/common/fnv.h"
#include "qmap/contexts/synthetic.h"
#include "qmap/expr/printer.h"
#include "qmap/mediator/mediator.h"
#include "qmap/service/translation_cache.h"
#include "qmap/service/translation_service.h"

namespace {

constexpr int kSources = 6;
constexpr int kDistinctQueries = 16;

std::vector<std::pair<std::string, qmap::MappingSpec>> Federation() {
  std::vector<std::pair<std::string, qmap::MappingSpec>> out;
  const std::vector<std::vector<std::pair<int, int>>> pair_sets = {
      {}, {{0, 1}}, {{2, 3}}, {{4, 5}}, {{0, 2}, {4, 6}}, {{1, 3}, {5, 7}}};
  for (int i = 0; i < kSources; ++i) {
    qmap::SyntheticOptions options;
    options.num_attrs = 8;
    options.dependent_pairs = pair_sets[static_cast<size_t>(i)];
    qmap::Result<qmap::MappingSpec> spec = qmap::MakeSyntheticSpec(options);
    if (!spec.ok()) std::abort();
    out.emplace_back("S" + std::to_string(i), *spec);
  }
  return out;
}

std::vector<qmap::Query> Workload() {
  std::mt19937 rng(97);
  qmap::RandomQueryOptions options;
  options.num_attrs = 8;
  options.max_depth = 3;
  std::vector<qmap::Query> out;
  for (int i = 0; i < kDistinctQueries; ++i) {
    out.push_back(qmap::RandomQuery(rng, options));
  }
  return out;
}

qmap::Mediator MakeMediator() {
  qmap::Mediator mediator;
  for (auto& [name, spec] : Federation()) {
    mediator.AddSource(qmap::SourceContext(name, spec));
  }
  return mediator;
}

std::unique_ptr<qmap::TranslationService> MakeService(int threads, bool cache) {
  qmap::ServiceOptions options;
  options.num_threads = threads;
  options.enable_cache = cache;
  options.cache.capacity = 4096;
  auto service = std::make_unique<qmap::TranslationService>(options);
  for (auto& [name, spec] : Federation()) {
    service->AddSource(name, spec);
  }
  return service;
}

std::string Render(const qmap::MediatorTranslation& t) {
  std::string out;
  for (const auto& [name, translation] : t.per_source) {
    out += name + ": " + qmap::ToParseableText(translation.mapped) + " / " +
           qmap::ToParseableText(translation.filter) + "\n";
  }
  out += "F: " + qmap::ToParseableText(t.filter) + "\n";
  return out;
}

// 1 iff the 4-thread service matches the 1-thread service byte-for-byte on
// every workload query (checked once; the result is cached).
double DeterminismIdentical() {
  static const double identical = [] {
    auto serial = MakeService(1, false);
    auto parallel = MakeService(4, false);
    for (const qmap::Query& q : Workload()) {
      auto a = serial->Translate(q);
      auto b = parallel->Translate(q);
      if (!a.ok() || !b.ok() || Render(*a) != Render(*b)) return 0.0;
    }
    return 1.0;
  }();
  return identical;
}

void SerialMediatorTranslate(benchmark::State& state) {
  qmap::Mediator mediator = MakeMediator();
  std::vector<qmap::Query> workload = Workload();
  size_t next = 0;
  for (auto _ : state) {
    qmap::Result<qmap::MediatorTranslation> t =
        mediator.Translate(workload[next++ % workload.size()]);
    benchmark::DoNotOptimize(t);
    if (!t.ok()) state.SkipWithError("translate failed");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["identical"] = DeterminismIdentical();
}
BENCHMARK(SerialMediatorTranslate);

void ServiceCached(benchmark::State& state) {
  auto service = MakeService(static_cast<int>(state.range(0)), true);
  std::vector<qmap::Query> workload = Workload();
  size_t next = 0;
  for (auto _ : state) {
    qmap::Result<qmap::MediatorTranslation> t =
        service->Translate(workload[next++ % workload.size()]);
    benchmark::DoNotOptimize(t);
    if (!t.ok()) state.SkipWithError("translate failed");
  }
  state.SetItemsProcessed(state.iterations());
  qmap::ServiceStats stats = service->stats();
  state.counters["cache_hits"] = static_cast<double>(stats.cache.hits);
  state.counters["identical"] = DeterminismIdentical();
}
BENCHMARK(ServiceCached)->Arg(1)->Arg(4);

void ServiceParallelNoCache(benchmark::State& state) {
  auto service = MakeService(static_cast<int>(state.range(0)), false);
  std::vector<qmap::Query> workload = Workload();
  size_t next = 0;
  for (auto _ : state) {
    qmap::Result<qmap::MediatorTranslation> t =
        service->Translate(workload[next++ % workload.size()]);
    benchmark::DoNotOptimize(t);
    if (!t.ok()) state.SkipWithError("translate failed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(ServiceParallelNoCache)->Arg(1)->Arg(4);

void ServiceBatchCached(benchmark::State& state) {
  auto service = MakeService(4, true);
  // A batch with 50% intra-batch duplication on top of the hot set.
  std::vector<qmap::Query> workload = Workload();
  std::vector<qmap::Query> batch = workload;
  batch.insert(batch.end(), workload.begin(), workload.end());
  for (auto _ : state) {
    auto results = service->TranslateBatch(batch);
    benchmark::DoNotOptimize(results);
    if (!results.ok()) state.SkipWithError("batch failed");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
  qmap::ServiceStats stats = service->stats();
  state.counters["batch_dups"] = static_cast<double>(stats.batch_duplicates);
}
BENCHMARK(ServiceBatchCached);

// B9b — cache key schemes: the cost of one warm TranslationCache probe under
// the legacy string key (render the query with ToParseableText, concatenate
// with the source prefix, hash the bytes) versus the typed fingerprint key
// ({context-fp, Query::fingerprint()} — what TranslationService now builds).
// key_bytes/iter records the bytes each scheme materializes per probe: the
// whole rendered query for strings, a constant 16 for the typed key.

void CacheProbe_StringKey(benchmark::State& state) {
  qmap::TranslationCache cache(qmap::TranslationCacheOptions{});
  std::vector<qmap::Query> workload = Workload();
  auto render_key = [](int source, const qmap::Query& q) {
    return "S" + std::to_string(source) + "\x1f" + qmap::ToParseableText(q);
  };
  // Folds the rendered string into the typed key space: three independent
  // FNV streams told apart by a leading tag byte.
  auto fold = [](const std::string& key) {
    return qmap::TranslationCacheKey{
        qmap::Fnv64().AddByte('s').Add(key).value(),
        qmap::Fnv64().AddByte('r').Add(key).value(),
        qmap::Fnv64().AddByte('q').Add(key).value()};
  };
  for (int s = 0; s < kSources; ++s) {
    for (const qmap::Query& q : workload) {
      cache.Put(fold(render_key(s, q)), qmap::Translation{});
    }
  }
  uint64_t key_bytes = 0;
  size_t next = 0;
  for (auto _ : state) {
    const qmap::Query& q = workload[next % workload.size()];
    std::string key = render_key(static_cast<int>(next % kSources), q);
    key_bytes += key.size();
    auto hit = cache.Get(fold(key));
    benchmark::DoNotOptimize(hit);
    ++next;
  }
  state.counters["key_bytes/iter"] = benchmark::Counter(
      static_cast<double>(key_bytes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(CacheProbe_StringKey);

void CacheProbe_FingerprintKey(benchmark::State& state) {
  qmap::TranslationCache cache(qmap::TranslationCacheOptions{});
  std::vector<qmap::Query> workload = Workload();
  for (int s = 0; s < kSources; ++s) {
    for (const qmap::Query& q : workload) {
      cache.Put(qmap::TranslationCacheKey{static_cast<uint64_t>(s),
                                          q.fingerprint()},
                qmap::Translation{});
    }
  }
  uint64_t key_bytes = 0;
  size_t next = 0;
  for (auto _ : state) {
    const qmap::Query& q = workload[next % workload.size()];
    qmap::TranslationCacheKey key{static_cast<uint64_t>(next % kSources),
                                  q.fingerprint()};
    key_bytes += sizeof(key);
    auto hit = cache.Get(key);
    benchmark::DoNotOptimize(hit);
    ++next;
  }
  state.counters["key_bytes/iter"] = benchmark::Counter(
      static_cast<double>(key_bytes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(CacheProbe_FingerprintKey);

}  // namespace

#include "bench_util.h"

QMAP_BENCH_MAIN(bench_service)

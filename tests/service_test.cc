#include "qmap/service/translation_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "qmap/contexts/amazon.h"
#include "qmap/contexts/faculty.h"
#include "qmap/contexts/synthetic.h"
#include "qmap/expr/intern.h"
#include "qmap/expr/printer.h"
#include "qmap/obs/metrics.h"
#include "qmap/service/thread_pool.h"
#include "qmap/service/translation_cache.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr int kTasks = 128;
  std::atomic<int> ran{0};
  std::latch done(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      ran.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::latch done(1);
  pool.Submit([&] { done.count_down(); });
  done.wait();
}

// ---------------------------------------------------------------------------
// TranslationCache

// Distinct typed keys; only the query half varies, as for one source under
// one rule set.
constexpr TranslationCacheKey kK1{1, 2, 0x11};
constexpr TranslationCacheKey kK2{1, 2, 0x12};
constexpr TranslationCacheKey kK{1, 2, 0x13};
constexpr TranslationCacheKey kOther{1, 2, 0x14};
constexpr TranslationCacheKey kA{1, 2, 0xa};
constexpr TranslationCacheKey kB{1, 2, 0xb};
constexpr TranslationCacheKey kC{1, 2, 0xc};

Translation DummyTranslation(const std::string& text) {
  Translation t;
  t.mapped = Query::Leaf(MakeSel(Attr::Simple("x"), Op::kEq, Value::Str(text)));
  return t;
}

TEST(TranslationCache, GetAfterPutReturnsValue) {
  TranslationCache cache({.capacity = 8, .shards = 2});
  cache.Put(kK1, DummyTranslation("v1"));
  std::optional<Translation> hit = cache.Get(kK1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->mapped.ToString(), "[x = \"v1\"]");
  EXPECT_FALSE(cache.Get(kK2).has_value());
  TranslationCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(TranslationCache, EvictsLeastRecentlyUsed) {
  // Single shard so LRU order is global.
  TranslationCache cache({.capacity = 2, .shards = 1});
  cache.Put(kA, DummyTranslation("a"));
  cache.Put(kB, DummyTranslation("b"));
  ASSERT_TRUE(cache.Get(kA).has_value());  // refresh a; b is now LRU
  cache.Put(kC, DummyTranslation("c"));    // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Get(kB).has_value());
  EXPECT_TRUE(cache.Get(kA).has_value());
  EXPECT_TRUE(cache.Get(kC).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TranslationCache, PutOverwritesExistingKey) {
  TranslationCache cache({.capacity = 4, .shards = 1});
  cache.Put(kK, DummyTranslation("old"));
  cache.Put(kK, DummyTranslation("new"));
  EXPECT_EQ(cache.size(), 1u);
  std::optional<Translation> hit = cache.Get(kK);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->mapped.ToString(), "[x = \"new\"]");
}

TEST(TranslationCache, CountsExistingKeyUpdatesSeparately) {
  TranslationCache cache({.capacity = 4, .shards = 1});
  MetricsRegistry registry;
  cache.AttachMetrics(&registry);
  cache.Put(kK, DummyTranslation("v1"));
  cache.Put(kK, DummyTranslation("v2"));
  cache.Put(kOther, DummyTranslation("x"));
  TranslationCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(registry.counter("qmap_cache_insertions_total").value(), 2u);
  EXPECT_EQ(registry.counter("qmap_cache_updates_total").value(), 1u);
  cache.DetachMetricsIf(&registry);
}

TEST(TranslationCache, DetachMetricsIfOnlySeversTheAttachedRegistry) {
  TranslationCache cache({.capacity = 4, .shards = 1});
  MetricsRegistry current;
  MetricsRegistry stale;
  cache.AttachMetrics(&current);
  // A stale owner's detach must not clobber the live attachment...
  cache.DetachMetricsIf(&stale);
  cache.Put(kK, DummyTranslation("v"));
  EXPECT_EQ(current.counter("qmap_cache_insertions_total").value(), 1u);
  // ...while the real owner's detach severs it before the registry dies.
  cache.DetachMetricsIf(&current);
  cache.Put(kK2, DummyTranslation("v2"));
  EXPECT_EQ(current.counter("qmap_cache_insertions_total").value(), 1u);
  EXPECT_EQ(cache.stats().insertions, 2u);
}

TEST(TranslationCache, ClearDropsEntriesKeepsCounters) {
  TranslationCache cache({.capacity = 8, .shards = 4});
  cache.Put(kA, DummyTranslation("a"));
  ASSERT_TRUE(cache.Get(kA).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(kA).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// TranslationService

// Canonical semantic rendering of a MediatorTranslation: everything the
// mediation pipeline consumes, deliberately excluding the observability-only
// stats. Used for byte-identical comparisons across thread counts.
std::string Render(const MediatorTranslation& t) {
  std::string out;
  for (const auto& [name, translation] : t.per_source) {
    out += name + ": " + ToParseableText(translation.mapped) + " / " +
           ToParseableText(translation.filter) + "\n";
  }
  out += "F: " + ToParseableText(t.filter) + "\n";
  return out;
}

// A 4-source synthetic federation with differing dependency structure, so
// per-source translations genuinely differ.
std::vector<std::pair<std::string, MappingSpec>> SyntheticFederation() {
  std::vector<std::pair<std::string, MappingSpec>> out;
  SyntheticOptions base;
  base.num_attrs = 8;
  const std::vector<std::vector<std::pair<int, int>>> pair_sets = {
      {}, {{0, 1}}, {{2, 3}, {4, 5}}, {{0, 2}, {1, 3}, {4, 6}}};
  for (size_t i = 0; i < pair_sets.size(); ++i) {
    SyntheticOptions options = base;
    options.dependent_pairs = pair_sets[i];
    Result<MappingSpec> spec = MakeSyntheticSpec(options);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    out.emplace_back("S" + std::to_string(i), *spec);
  }
  return out;
}

// TranslationService is pinned in place (it owns mutexes and atomics), so
// the factory hands out a unique_ptr.
std::unique_ptr<TranslationService> MakeService(int num_threads, bool enable_cache,
                                                size_t cache_capacity = 256) {
  ServiceOptions options;
  options.num_threads = num_threads;
  options.enable_cache = enable_cache;
  options.cache.capacity = cache_capacity;
  auto service = std::make_unique<TranslationService>(options);
  for (auto& [name, spec] : SyntheticFederation()) {
    service->AddSource(name, spec);
  }
  return service;
}

std::vector<Query> TestQueries(int count) {
  std::mt19937 rng(20260806);
  RandomQueryOptions options;
  options.num_attrs = 8;
  options.max_depth = 3;
  std::vector<Query> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(RandomQuery(rng, options));
  return out;
}

TEST(TranslationService, MatchesMediatorTranslateOnFaculty) {
  Mediator mediator = MakeFacultyMediator();
  TranslationService service;
  service.AddSourcesFrom(mediator);
  ASSERT_EQ(service.num_sources(), 2u);

  Query q = Q(
      "[fac.ln = pub.ln] and [fac.fn = pub.fn] and "
      "[fac.bib contains \"data(near)mining\"] and [fac.dept = \"cs\"]");
  Result<MediatorTranslation> from_mediator = mediator.Translate(q);
  Result<MediatorTranslation> from_service = service.Translate(q);
  ASSERT_TRUE(from_mediator.ok()) << from_mediator.status().ToString();
  ASSERT_TRUE(from_service.ok()) << from_service.status().ToString();
  EXPECT_EQ(Render(*from_mediator), Render(*from_service));
}

TEST(TranslationService, ParallelResultIsIdenticalToSerial) {
  // The determinism contract: N worker threads produce byte-identical
  // mapped queries, filters, and merged residue to the 1-thread path.
  auto serial = MakeService(/*num_threads=*/1, /*enable_cache=*/false);
  auto parallel = MakeService(/*num_threads=*/4, /*enable_cache=*/false);
  for (const Query& q : TestQueries(24)) {
    Result<MediatorTranslation> a = serial->Translate(q);
    Result<MediatorTranslation> b = parallel->Translate(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(Render(*a), Render(*b)) << "query: " << q.ToString();
  }
  ServiceStats stats = parallel->stats();
  EXPECT_GT(stats.parallel_tasks, 0u);
  EXPECT_EQ(stats.cache.hits, 0u);  // cache disabled
}

TEST(TranslationService, ParallelCoverageMatchesSerial) {
  // The merged coverage drives the residue filter; also probe it directly
  // through IsExact on every constraint of the query.
  auto serial = MakeService(1, false);
  auto parallel = MakeService(4, false);
  for (const Query& q : TestQueries(12)) {
    Result<MediatorTranslation> a = serial->Translate(q);
    Result<MediatorTranslation> b = parallel->Translate(q);
    ASSERT_TRUE(a.ok() && b.ok());
    for (const auto& [name, ta] : a->per_source) {
      const Translation& tb = b->per_source.at(name);
      for (const Constraint& c : q.AllConstraints()) {
        EXPECT_EQ(ta.coverage.IsExact(c), tb.coverage.IsExact(c));
      }
    }
  }
}

TEST(TranslationService, CacheHitEqualsFreshTranslation) {
  auto cached = MakeService(2, /*enable_cache=*/true);
  auto fresh = MakeService(2, /*enable_cache=*/false);
  std::vector<Query> queries = TestQueries(8);
  // Warm the cache, then re-translate and compare against a cacheless run.
  for (const Query& q : queries) ASSERT_TRUE(cached->Translate(q).ok());
  for (const Query& q : queries) {
    Result<MediatorTranslation> hit = cached->Translate(q);
    Result<MediatorTranslation> ref = fresh->Translate(q);
    ASSERT_TRUE(hit.ok() && ref.ok());
    EXPECT_EQ(Render(*hit), Render(*ref)) << "query: " << q.ToString();
    // The warm pass answered every source from the cache.
    EXPECT_EQ(hit->stats.cache_hits, cached->num_sources());
    EXPECT_EQ(hit->stats.match.pattern_attempts, 0u);
  }
  ServiceStats stats = cached->stats();
  EXPECT_GE(stats.cache.hits, queries.size() * cached->num_sources());
}

TEST(TranslationService, CacheMissesAreCountedOnColdPath) {
  auto service = MakeService(1, true);
  Result<MediatorTranslation> cold = service->Translate(Q("[a0 = 1] and [a1 = 2]"));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->stats.cache_misses, service->num_sources());
  EXPECT_EQ(cold->stats.cache_hits, 0u);
  Result<MediatorTranslation> warm = service->Translate(Q("[a0 = 1] and [a1 = 2]"));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.cache_hits, service->num_sources());
  EXPECT_EQ(warm->stats.cache_misses, 0u);
}

TEST(TranslationService, CacheEvictionStillCorrect) {
  // Tiny cache: every entry fights for space; results must stay correct.
  auto tiny = MakeService(2, true, /*cache_capacity=*/4);
  auto fresh = MakeService(2, false);
  std::vector<Query> queries = TestQueries(16);
  for (int round = 0; round < 2; ++round) {
    for (const Query& q : queries) {
      Result<MediatorTranslation> a = tiny->Translate(q);
      Result<MediatorTranslation> b = fresh->Translate(q);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(Render(*a), Render(*b));
    }
  }
  EXPECT_GT(tiny->stats().cache.evictions, 0u);
}

// The i-th of a stream of distinct queries over the synthetic attributes.
Query DistinctServiceQuery(int i) {
  auto leaf = [](int attr, int64_t v) {
    return Query::Leaf(MakeSel(Attr::Simple("a" + std::to_string(attr)),
                               Op::kEq, Value::Int(v)));
  };
  return Query::And({leaf(i % 8, i),
                     Query::Or({leaf((i + 1) % 8, i % 13), leaf((i + 3) % 8, 7)})});
}

TEST(TranslationService, PerCallEvictionsSumToTheCacheCounter) {
  ServiceOptions options;
  options.num_threads = 4;
  options.cache = {.capacity = 3, .shards = 1};
  TranslationService service(options);
  for (auto& [name, spec] : SyntheticFederation()) service.AddSource(name, spec);
  const uint64_t before = service.stats().cache.evictions;

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::atomic<uint64_t> reported{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        // Overlapping streams, so some calls hit what another just put.
        Result<MediatorTranslation> t =
            service.Translate(DistinctServiceQuery(c * kPerClient / 2 + i));
        EXPECT_TRUE(t.ok()) << t.status().ToString();
        if (t.ok()) reported.fetch_add(t->stats.cache_evictions);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const uint64_t evicted = service.stats().cache.evictions - before;
  EXPECT_GT(evicted, 0u);
  EXPECT_EQ(reported.load(), evicted);
}

TEST(TranslationService, LiveInternNodesAreBoundedByTheCache) {
  constexpr size_t kCapacity = 64;
  auto service = MakeService(4, true, kCapacity);
  const InternStats start = QueryInternStats();
  // The most nodes one cache entry (a per-source translation) can hold.
  int max_entry_nodes = 0;
  constexpr int kQueries = 5000;
  for (int i = 0; i < kQueries; ++i) {
    Result<MediatorTranslation> t = service->Translate(DistinctServiceQuery(i));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    for (const auto& [name, translation] : t->per_source) {
      max_entry_nodes = std::max(max_entry_nodes,
                                 translation.mapped.NodeCount() +
                                     translation.filter.NodeCount());
    }
  }
  const InternStats end = QueryInternStats();
  ASSERT_LE(service->stats().cache.insertions - service->stats().cache.evictions,
            kCapacity);
  // Every query inserted fresh nodes, but only what the cache still holds
  // stays in the tables.
  EXPECT_GE(end.query_nodes - start.query_nodes, static_cast<uint64_t>(kQueries));
  EXPECT_LE(end.query_live, start.query_live + kCapacity * max_entry_nodes);
  EXPECT_LE(end.constraint_live, start.constraint_live + kCapacity * max_entry_nodes);
}

TEST(TranslationService, BatchMatchesIndividualTranslates) {
  std::vector<Query> queries = TestQueries(6);
  // Duplicate some queries within the batch.
  std::vector<Query> batch = queries;
  batch.push_back(queries[0]);
  batch.push_back(queries[2]);
  batch.push_back(queries[0]);

  // With the cache on, the singles read what the batch cached; with it off,
  // every single is translated afresh.
  for (bool enable_cache : {true, false}) {
    SCOPED_TRACE(enable_cache ? "cache on" : "cache off");
    auto service = MakeService(4, enable_cache);
    Result<std::vector<MediatorTranslation>> results =
        service->TranslateBatch(batch);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      Result<MediatorTranslation> single = service->Translate(batch[i]);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ(Render((*results)[i]), Render(*single)) << "batch item " << i;
    }
    ServiceStats stats = service->stats();
    EXPECT_EQ(stats.batch_calls, 1u);
    EXPECT_EQ(stats.batch_queries, batch.size());
    EXPECT_EQ(stats.batch_duplicates, 3u);
  }
}

// Distinct queries over one constraint table, batched with the cache off:
// each must translate byte-identically to a lone Translate on a fresh
// service. The batch-wide match memo this once exercised is gone, so every
// translation reports zero memo hits.
TEST(MatchMemo, ServiceBatchSharesMemoAcrossUniqueQueries) {
  ServiceOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  TranslationService service(options);
  service.AddSource("amazon", AmazonSpec());

  std::vector<Query> batch = {
      Q("[pyear = 1997] and ([pmonth = 5] or [pmonth = 6])"),
      Q("([pyear = 1997] and [pmonth = 5]) or [pmonth = 6]"),
      Q("([pyear = 1997] or [pmonth = 5]) and [pmonth = 6]"),
  };
  Result<std::vector<MediatorTranslation>> results =
      service.TranslateBatch(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), batch.size());
  for (const MediatorTranslation& translation : *results) {
    EXPECT_EQ(translation.stats.memo_hits, 0u);
  }

  TranslationService plain(options);
  plain.AddSource("amazon", AmazonSpec());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<MediatorTranslation> expected = plain.Translate(batch[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*results)[i].filter.ToString(), expected->filter.ToString());
    EXPECT_EQ((*results)[i].per_source.at("amazon").mapped.ToString(),
              expected->per_source.at("amazon").mapped.ToString());
  }
}

TEST(TranslationService, ViewConstraintsFlowIntoEverySource) {
  Mediator mediator = MakeFacultyMediator();
  TranslationService service;
  service.AddSourcesFrom(mediator);
  // The fac view join rides along even for a trivial query, exactly as in
  // Mediator::Translate.
  Query q = Q("[fac.ln = \"Ullman\"]");
  Result<MediatorTranslation> a = mediator.Translate(q);
  Result<MediatorTranslation> b = service.Translate(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(Render(*a), Render(*b));
}

TEST(TranslationService, EmptyBatchIsOk) {
  auto service = MakeService(2, true);
  Result<std::vector<MediatorTranslation>> results =
      service->TranslateBatch(std::span<const Query>{});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

}  // namespace
}  // namespace qmap

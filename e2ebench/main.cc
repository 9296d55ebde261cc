// End-to-end query-mapping benchmark: closed-loop clients drive query text
// through ParseQuery -> TranslationService::Translate (and, on wire_remote,
// RemoteTransport -> QmapServer) and get a MediatorTranslation back. The
// run checks every answer, compares a seeded sample byte for byte against a
// fresh single-threaded uncached service, and prints one JSON result line.
//
//   qmap_e2ebench --workload hot_cached --seed 1 --seconds 10 --trace 0
//       [--out-dir .bench_out]
//
// --trace 0 prints the end-to-end metrics of an untraced timed phase.
// --trace 1 runs half the time untraced and half traced, prints the
// per-layer metrics and the ledger, and writes the spans to
// <out-dir>/trace-<workload>-seed<seed>.json. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "federation.h"
#include "qmap/expr/intern.h"
#include "qmap/expr/parser.h"
#include "querygen.h"
#include "spans.h"

namespace e2e {
namespace {

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kHotCached, kColdMix, kWireRemote, kStoreSpill };

struct Workload {
  const char* name;
  Kind kind;
  int clients;
  /// Untimed load before measuring. store_spill needs longer: its
  /// throughput climbs for several seconds after boot, until most stored
  /// records have been read back once.
  double warmup_s;
};

constexpr Workload kWorkloads[] = {
    {"hot_cached", Kind::kHotCached, 4, 1},
    {"cold_mix", Kind::kColdMix, 2, 1},
    {"wire_remote", Kind::kWireRemote, 2, 1},
    {"store_spill", Kind::kStoreSpill, 2, 6},
};

constexpr size_t kHotSetSize = 512;  // hot_cached and wire_remote
constexpr size_t kStoreWorkingSet = 4096;
constexpr double kStoreFreshShare = 0.05;
constexpr size_t kHotCacheCapacity = 16384;  // 512 queries x 7 sources, 4x over
constexpr size_t kSmallCacheCapacity = 1024;
// Set-up is repeated at least kMinSetupReps times and until kMinSetupSeconds
// have passed (at most kMaxSetupReps), so that a set-up of a few ms still
// gets a steady median.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 50;
constexpr double kMinSetupSeconds = 1.0;
constexpr int kColdWarmQueries = 32;
constexpr int64_t kWarmTagBase = 100000000;  // cold warm-up tags never collide
constexpr double kWindowSeconds = 1.0;
constexpr uint64_t kSampleEvery = 32;   // oracle samples ~1 in 32 requests
constexpr size_t kSamplesPerClient = 200;
constexpr size_t kStreamHashPrefix = 256;  // queries per client hashed
constexpr size_t kTraceFileRequests = 2000;

ShapeOptions BaseShape() { return ShapeOptions{}; }

ShapeOptions ColdShape() {
  ShapeOptions shape;
  shape.grid_share = 0.2;
  shape.grid_conjuncts = 3;
  shape.grid_disjuncts = 2;
  return shape;
}

/// What the clients of one workload draw from: a fixed pool (hot set or
/// store working set) and/or a generator of never-repeating fresh queries.
struct WorkloadData {
  std::vector<GeneratedQuery> pool;
  ShapeOptions fresh_shape;
  double fresh_share = 0;  // 1 = every query fresh
};

WorkloadData MakeData(const Workload& workload, uint64_t seed) {
  WorkloadData data;
  data.fresh_shape = BaseShape();
  switch (workload.kind) {
    case Kind::kHotCached:
    case Kind::kWireRemote:
      data.pool = DistinctQueries(MixSeed(seed, 1), BaseShape(), kHotSetSize);
      break;
    case Kind::kColdMix:
      data.fresh_shape = ColdShape();
      data.fresh_share = 1;
      break;
    case Kind::kStoreSpill:
      data.pool =
          DistinctQueries(MixSeed(seed, 1), BaseShape(), kStoreWorkingSet);
      data.fresh_share = kStoreFreshShare;
      break;
  }
  return data;
}

/// One client's deterministic request stream. Fresh queries are tagged
/// client, client + clients, ... so no two requests in a run share a text.
class Stream {
 public:
  Stream(const WorkloadData& data, uint64_t seed, uint32_t client,
         uint32_t clients)
      : data_(&data),
        pick_(MixSeed(seed, 100 + client)),
        gen_(MixSeed(seed, 200 + client), data.fresh_shape),
        next_tag_(client),
        tag_stride_(clients) {}

  /// The next query. `repeat` is set when it came from the pool, i.e. the
  /// system has seen it before (warmed in set-up or pre-filled in the store).
  const GeneratedQuery& Next(bool* repeat = nullptr) {
    const bool fresh =
        data_->pool.empty() ||
        (data_->fresh_share > 0 && pick_.Chance(data_->fresh_share));
    if (repeat != nullptr) *repeat = !fresh;
    if (!fresh) return data_->pool[pick_.Below(data_->pool.size())];
    fresh_ = gen_.Next(next_tag_);
    next_tag_ += tag_stride_;
    return fresh_;
  }

 private:
  const WorkloadData* data_;
  Rng pick_;
  QueryTextGen gen_;
  int64_t next_tag_;
  int64_t tag_stride_;
  GeneratedQuery fresh_;
};

std::vector<Stream> MakeStreams(const WorkloadData& data, uint64_t seed,
                                int clients) {
  std::vector<Stream> streams;
  for (int c = 0; c < clients; ++c) {
    streams.emplace_back(data, seed, static_cast<uint32_t>(c),
                         static_cast<uint32_t>(clients));
  }
  return streams;
}

/// Hash of the pool plus each client's first kStreamHashPrefix queries, and
/// the shape statistics of those queries. Uses its own Stream objects, so
/// the timed streams are untouched.
std::pair<uint64_t, ShapeStats> DescribeStream(const WorkloadData& data,
                                               uint64_t seed, int clients) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const GeneratedQuery& q : data.pool) hash = Fnv1a(q.text + "\n", hash);
  ShapeStats stats;
  std::vector<Stream> streams = MakeStreams(data, seed, clients);
  for (size_t i = 0; i < kStreamHashPrefix; ++i) {
    for (Stream& stream : streams) {
      bool repeat = false;
      const GeneratedQuery& q = stream.Next(&repeat);
      hash = Fnv1a(q.text + "\n", hash);
      stats.Add(q.shape, repeat);
    }
  }
  return {hash, stats};
}

// ---------------------------------------------------------------------------
// Phases

struct Sample {
  std::string text;
  std::string rendered;
};

/// Per-query translation counters summed over a phase.
struct StatsSums {
  uint64_t scm_calls = 0, psafe_calls = 0, ednf_terms = 0, dnf_disjuncts = 0;
  uint64_t memo_hits = 0, memo_misses = 0;
  uint64_t pattern_attempts = 0, matchings = 0;

  void Add(const qmap::TranslationStats& s) {
    scm_calls += s.scm_calls;
    psafe_calls += s.psafe_calls;
    ednf_terms += s.ednf_disjuncts_checked;
    dnf_disjuncts += s.dnf_disjuncts;
    memo_hits += s.memo_hits;
    memo_misses += s.memo_misses;
    pattern_attempts += s.match.pattern_attempts;
    matchings += s.match.matchings_found;
  }
  void Merge(const StatsSums& o) {
    scm_calls += o.scm_calls;
    psafe_calls += o.psafe_calls;
    ednf_terms += o.ednf_terms;
    dnf_disjuncts += o.dnf_disjuncts;
    memo_hits += o.memo_hits;
    memo_misses += o.memo_misses;
    pattern_attempts += o.pattern_attempts;
    matchings += o.matchings;
  }
};

struct ClientResult {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t thread_allocs = 0;  // all allocations on this client's thread
  /// Request latencies by the measurement window in which they completed.
  std::vector<std::vector<float>> latency_us;
  std::vector<RequestRecord> records;
  std::vector<Sample> samples;
  StatsSums sums;
  std::string first_error;
};

/// Counters of every layer, snapshotted around a phase.
struct Snapshot {
  qmap::ServiceStats service;
  qmap::ServiceStats worker;
  qmap::WireClientStats client;
  qmap::QmapServerStats server;
  qmap::InternStats intern;
  uint64_t process_allocs = 0;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

Snapshot TakeSnapshot(const System& system) {
  Snapshot snap;
  snap.service = system.service->stats();
  if (system.worker != nullptr) snap.worker = system.worker->stats();
  if (system.client != nullptr) snap.client = system.client->stats();
  if (system.server != nullptr) snap.server = system.server->stats();
  snap.intern = qmap::QueryInternStats();
  snap.process_allocs = ProcessAllocs();
  return snap;
}

/// One measurement window of a phase. The end-to-end figures are read
/// across a phase's windows (see GoodQuartile), so a burst of outside load
/// spoils a few windows rather than the whole run.
struct Window {
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_query = 0;
  size_t samples = 0;
};

struct PhaseResult {
  ClientResult total;
  std::vector<Window> windows;
  Snapshot before, after;
  uint64_t client_thread_allocs = 0;
};

struct PhaseOptions {
  double seconds = 1;
  bool measure = true;  // keep latencies and oracle samples
  bool traced = false;  // keep request records for the ledger
  size_t expected_sources = 0;
  uint64_t seed = 0;
};

/// A client's completed-request count, read by the main thread at window
/// boundaries. One per cache line; only its client writes it.
struct alignas(64) Progress {
  std::atomic<uint64_t> completed{0};
};

void ClientLoop(const qmap::TranslationService& service, Stream& stream,
                uint32_t client, const PhaseOptions& options,
                const std::atomic<bool>& go, const std::atomic<bool>& stop,
                const std::atomic<int>& window, Progress& progress,
                ClientResult& out) {
  Rng sampler(MixSeed(options.seed, 300 + client));
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  const uint64_t thread_allocs_start = ThreadAllocs();
  while (!stop.load(std::memory_order_relaxed)) {
    const GeneratedQuery& query = stream.Next();
    ++out.attempted;
    RequestRecord record;
    record.start = NowNs();
    qmap::Result<qmap::Query> parsed = qmap::ParseQuery(query.text);
    record.parse_end = NowNs();
    if (!parsed.ok()) {
      ++out.failed;
      if (out.first_error.empty()) {
        out.first_error = "parse: " + parsed.status().ToString();
      }
      continue;
    }
    const uint64_t translate_allocs = options.traced ? ThreadAllocs() : 0;
    record.translate_start = options.traced ? NowNs() : record.parse_end;
    qmap::Result<qmap::MediatorTranslation> result =
        service.Translate(*parsed);
    record.end = NowNs();
    if (options.traced) {
      record.translate_allocs = ThreadAllocs() - translate_allocs;
    }
    const bool ok = result.ok() && result->partial.complete() &&
                    result->partial.degraded.empty() &&
                    result->per_source.size() == options.expected_sources;
    if (!ok) {
      ++out.failed;
      if (out.first_error.empty()) {
        out.first_error = result.ok() ? "partial or degraded: " +
                                            result->partial.ToString()
                                      : result.status().ToString();
      }
      continue;
    }
    ++out.completed;
    progress.completed.store(out.completed, std::memory_order_relaxed);
    out.sums.Add(result->stats);
    if (!options.measure) continue;
    const size_t w = static_cast<size_t>(window.load(std::memory_order_relaxed));
    if (w < out.latency_us.size()) {
      out.latency_us[w].push_back(
          static_cast<float>(record.end - record.start) / 1000.0f);
    }
    if (options.traced) {
      record.client = client;
      record.fingerprint = (*parsed & qmap::Query::True()).fingerprint();
      out.records.push_back(record);
    }
    if (out.samples.size() < kSamplesPerClient &&
        sampler.Below(kSampleEvery) == 0) {
      out.samples.push_back({query.text, Render(*result)});
    }
  }
  out.thread_allocs = ThreadAllocs() - thread_allocs_start;
}

PhaseResult RunPhase(const System& system, std::vector<Stream>& streams,
                     const PhaseOptions& options) {
  PhaseResult phase;
  const size_t n = streams.size();
  const int windows = std::max(
      1, static_cast<int>(std::lround(options.seconds / kWindowSeconds)));
  std::vector<ClientResult> results(n);
  for (ClientResult& r : results) {
    if (options.measure) r.latency_us.resize(static_cast<size_t>(windows));
  }
  std::unique_ptr<Progress[]> progress(new Progress[n]);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> window{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < n; ++c) {
    clients.emplace_back(ClientLoop, std::cref(*system.service),
                         std::ref(streams[c]), static_cast<uint32_t>(c),
                         std::cref(options), std::cref(go), std::cref(stop),
                         std::cref(window), std::ref(progress[c]),
                         std::ref(results[c]));
  }
  auto completed = [&] {
    uint64_t sum = 0;
    for (size_t c = 0; c < n; ++c) {
      sum += progress[c].completed.load(std::memory_order_relaxed);
    }
    return sum;
  };

  // Window boundaries: wall time, process CPU time and completed count.
  std::vector<int64_t> at_ns(static_cast<size_t>(windows) + 1);
  std::vector<double> cpu_s(at_ns.size());
  std::vector<uint64_t> done(at_ns.size());
  phase.before = TakeSnapshot(system);
  at_ns[0] = NowNs();
  cpu_s[0] = CpuSeconds();
  go.store(true, std::memory_order_release);
  const auto start = std::chrono::steady_clock::now();
  for (int w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(options.seconds * w / windows)));
    window.store(w, std::memory_order_relaxed);
    done[static_cast<size_t>(w)] = completed();
    at_ns[static_cast<size_t>(w)] = NowNs();
    cpu_s[static_cast<size_t>(w)] = CpuSeconds();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  phase.after = TakeSnapshot(system);

  std::vector<std::vector<double>> window_latency(static_cast<size_t>(windows));
  for (ClientResult& r : results) {
    ClientResult& t = phase.total;
    t.attempted += r.attempted;
    t.completed += r.completed;
    t.failed += r.failed;
    phase.client_thread_allocs += r.thread_allocs;
    for (size_t w = 0; w < r.latency_us.size(); ++w) {
      window_latency[w].insert(window_latency[w].end(), r.latency_us[w].begin(),
                               r.latency_us[w].end());
    }
    t.records.insert(t.records.end(), r.records.begin(), r.records.end());
    for (Sample& s : r.samples) t.samples.push_back(std::move(s));
    t.sums.Merge(r.sums);
    if (t.first_error.empty()) t.first_error = r.first_error;
  }
  for (size_t w = 0; w < static_cast<size_t>(windows); ++w) {
    Window window;
    const double count = static_cast<double>(done[w + 1] - done[w]);
    window.qps = count / (static_cast<double>(at_ns[w + 1] - at_ns[w]) / 1e9);
    window.cpu_us_per_query =
        count > 0 ? (cpu_s[w + 1] - cpu_s[w]) * 1e6 / count : 0;
    window.samples = window_latency[w].size();
    window.p50_us = Percentile(window_latency[w], 0.50);
    window.p99_us = Percentile(window_latency[w], 0.99);
    phase.windows.push_back(window);
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Set-up

/// Translates `queries` through `service` from `threads` threads; returns
/// the number of failures.
uint64_t TranslateAll(const qmap::TranslationService& service,
                      const std::vector<GeneratedQuery>& queries,
                      int threads) {
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < queries.size();
           i += static_cast<size_t>(threads)) {
        qmap::Result<qmap::Query> parsed = qmap::ParseQuery(queries[i].text);
        if (!parsed.ok() || !service.Translate(*parsed).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return failures.load();
}

struct SetupResult {
  std::unique_ptr<System> system;
  std::vector<double> setup_s;     // one per repetition
  std::vector<double> compose_ms;  // one per repetition
  double recovery_ms = 0;          // store Open scan of the kept system
  uint64_t warm_failures = 0;
  std::string error;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Builds the system repeatedly (see kMinSetupReps), timing each build plus
/// its warm-up, and keeps the last one. store_spill's store is pre-filled once, untimed,
/// by a previous instance, so each timed build pays recovery and replay.
SetupResult SetUp(const Workload& workload, const WorkloadData& data,
                  uint64_t seed, bool traced, const std::string& store_dir) {
  SetupResult setup;
  std::vector<GeneratedQuery> warm_queries;
  if (workload.kind == Kind::kColdMix) {
    QueryTextGen gen(MixSeed(seed, 2), data.fresh_shape);
    for (int i = 0; i < kColdWarmQueries; ++i) {
      warm_queries.push_back(gen.Next(kWarmTagBase + i));
    }
  } else if (workload.kind == Kind::kStoreSpill) {
    warm_queries.push_back(data.pool.front());
  } else {
    warm_queries = data.pool;
  }

  InProcessConfig config;
  config.traced = traced;
  config.cache_capacity = workload.kind == Kind::kHotCached
                              ? kHotCacheCapacity
                              : kSmallCacheCapacity;
  if (workload.kind == Kind::kStoreSpill) {
    config.store_path = store_dir + "/translations.qmst";
    InProcessConfig prefill = config;
    prefill.traced = false;
    auto previous = BuildInProcess(prefill);
    if (!previous.ok()) {
      setup.error = "store prefill: " + previous.status().ToString();
      return setup;
    }
    setup.warm_failures += TranslateAll(*(*previous)->service, data.pool, 4);
  }

  double total_s = 0;
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && total_s >= kMinSetupSeconds) break;
    setup.system.reset();
    const int64_t start = NowNs();
    qmap::Result<std::unique_ptr<System>> built =
        workload.kind == Kind::kWireRemote
            ? BuildWire(WireConfig{traced})
            : BuildInProcess(config);
    if (!built.ok()) {
      setup.error = "build: " + built.status().ToString();
      return setup;
    }
    setup.system = std::move(*built);
    setup.warm_failures +=
        TranslateAll(*setup.system->service, warm_queries, 1);
    setup.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    total_s += setup.setup_s.back();
    setup.compose_ms.push_back(setup.system->compose_ms);
  }
  if (const qmap::TranslationStore* store = setup.system->service->store()) {
    setup.recovery_ms = static_cast<double>(store->stats().recovery_ns) / 1e6;
  }
  return setup;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Layer figures and preconditions

/// Ratios of one phase's counter deltas, shared by the preconditions and
/// the per-layer metrics.
struct LayerRatios {
  double completed = 0;
  double cache_hit_ratio = 0;
  double cache_evictions_per_query = 0;
  double store_hit_ratio = 0;
  double store_puts_per_query = 0;
  double store_bytes_per_query = 0;
  double store_compactions = 0;
  double parallel_tasks_per_query = 0;
  double wire_calls_per_query = 0;
  double wire_reuse_ratio = 0;
  double wire_retries = 0;
  double net_bytes_per_query = 0;
  double server_rejected_ratio = 0;
  double worker_cache_hit_ratio = 0;
  double intern_nodes_per_query = 0;
  double intern_constraints_per_query = 0;
  double intern_hit_ratio = 0;
};

double D(uint64_t after, uint64_t before) {
  return static_cast<double>(after - before);
}

LayerRatios Ratios(const PhaseResult& phase) {
  const Snapshot& a = phase.after;
  const Snapshot& b = phase.before;
  LayerRatios r;
  r.completed = static_cast<double>(phase.total.completed);
  const double hits = D(a.service.cache.hits, b.service.cache.hits);
  const double misses = D(a.service.cache.misses, b.service.cache.misses);
  r.cache_hit_ratio = Ratio(hits, hits + misses);
  r.cache_evictions_per_query = Ratio(
      D(a.service.cache.evictions, b.service.cache.evictions), r.completed);
  const double store_hits = D(a.service.store.hits, b.service.store.hits);
  const double store_lookups =
      store_hits + D(a.service.store.misses, b.service.store.misses) +
      D(a.service.store.negative_hits, b.service.store.negative_hits);
  r.store_hit_ratio = Ratio(store_hits, store_lookups);
  r.store_puts_per_query =
      Ratio(D(a.service.store.puts, b.service.store.puts) +
                D(a.service.store.updates, b.service.store.updates),
            r.completed);
  // Bytes appended to the log: its growth plus what compaction reclaimed.
  r.store_bytes_per_query = Ratio(
      static_cast<double>(a.service.store.log_bytes) -
          static_cast<double>(b.service.store.log_bytes) +
          D(a.service.store.compaction_bytes_reclaimed,
            b.service.store.compaction_bytes_reclaimed),
      r.completed);
  r.store_compactions =
      D(a.service.store.compactions, b.service.store.compactions);
  r.parallel_tasks_per_query = Ratio(
      D(a.service.parallel_tasks, b.service.parallel_tasks), r.completed);
  const double calls = D(a.client.calls, b.client.calls);
  r.wire_calls_per_query = Ratio(calls, r.completed);
  r.wire_reuse_ratio = Ratio(D(a.client.reuses, b.client.reuses), calls);
  r.wire_retries = D(a.client.retries, b.client.retries);
  r.net_bytes_per_query =
      Ratio(D(a.server.net.bytes_read, b.server.net.bytes_read) +
                D(a.server.net.bytes_written, b.server.net.bytes_written),
            r.completed);
  r.server_rejected_ratio =
      Ratio(D(a.server.rejected_overload, b.server.rejected_overload) +
                D(a.server.rejected_quota, b.server.rejected_quota),
            D(a.server.requests, b.server.requests));
  const double worker_hits = D(a.worker.cache.hits, b.worker.cache.hits);
  r.worker_cache_hit_ratio = Ratio(
      worker_hits, worker_hits + D(a.worker.cache.misses, b.worker.cache.misses));
  r.intern_nodes_per_query =
      Ratio(D(a.intern.query_nodes, b.intern.query_nodes), r.completed);
  r.intern_constraints_per_query = Ratio(
      D(a.intern.constraint_nodes, b.intern.constraint_nodes), r.completed);
  const double intern_hits = D(a.intern.query_hits, b.intern.query_hits);
  r.intern_hit_ratio = Ratio(
      intern_hits, intern_hits + D(a.intern.query_misses, b.intern.query_misses));
  return r;
}

// The store_spill band: with 5% never-seen queries and a RAM cache holding
// ~3.5% of the working set's per-source entries, about 95% of store lookups
// should hit. Outside [0.85, 0.99] the workload no longer measures the
// store tier it was built for.
constexpr double kStoreHitLow = 0.85;
constexpr double kStoreHitHigh = 0.99;

/// Empty when the workload still exercises the layer it exists for.
std::string CheckPreconditions(const Workload& workload,
                               const LayerRatios& r) {
  char buf[256];
  switch (workload.kind) {
    case Kind::kHotCached:
      if (r.cache_hit_ratio < 0.99) {
        std::snprintf(buf, sizeof(buf), "cache.hit_ratio %.4f < 0.99",
                      r.cache_hit_ratio);
        return buf;
      }
      break;
    case Kind::kColdMix:
      if (r.cache_hit_ratio > 0.01) {
        std::snprintf(buf, sizeof(buf), "cache.hit_ratio %.4f > 0.01",
                      r.cache_hit_ratio);
        return buf;
      }
      break;
    case Kind::kWireRemote:
      if (r.worker_cache_hit_ratio < 0.99 ||
          std::fabs(r.wire_calls_per_query - 4.0) > 1e-9) {
        std::snprintf(buf, sizeof(buf),
                      "worker.cache_hit_ratio %.4f (want >= 0.99), "
                      "wire.calls_per_query %.4f (want 4)",
                      r.worker_cache_hit_ratio, r.wire_calls_per_query);
        return buf;
      }
      break;
    case Kind::kStoreSpill:
      if (r.store_hit_ratio < kStoreHitLow ||
          r.store_hit_ratio > kStoreHitHigh || r.cache_hit_ratio > 0.5) {
        std::snprintf(buf, sizeof(buf),
                      "store.hit_ratio %.4f (want %.2f..%.2f), "
                      "cache.hit_ratio %.4f (want <= 0.5)",
                      r.store_hit_ratio, kStoreHitLow, kStoreHitHigh,
                      r.cache_hit_ratio);
        return buf;
      }
      break;
  }
  return "";
}

/// One window figure over a phase, read at the quartile on its good side:
/// the upper quartile of the windows when higher is better, the lower one
/// when lower is better. Bursts of outside load on a shared machine last
/// seconds and only ever make a window worse, so this reading ignores them
/// unless they cover three quarters of the phase; a change that slows every
/// window still moves it by the full amount.
double GoodQuartile(const PhaseResult& phase, double Window::*field,
                    bool higher_is_better) {
  std::vector<double> values;
  for (const Window& window : phase.windows) values.push_back(window.*field);
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double q = higher_is_better ? 0.75 : 0.25;
  const size_t rank = static_cast<size_t>(
      std::lround(q * static_cast<double>(values.size() - 1)));
  return values[rank];
}

std::vector<Metric> EndToEndMetrics(const PhaseResult& phase,
                                    const SetupResult& setup,
                                    uint64_t attempted, uint64_t failed) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"throughput_qps", GoodQuartile(phase, &Window::qps, true), "1/s"},
      {"latency_p50_us", GoodQuartile(phase, &Window::p50_us, false), "us"},
      {"latency_p99_us", GoodQuartile(phase, &Window::p99_us, false), "us"},
      {"cpu_us_per_query",
       GoodQuartile(phase, &Window::cpu_us_per_query, false), "us"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"setup_s", Median(setup.setup_s), "s"},
      {"success_ratio",
       Ratio(static_cast<double>(attempted - failed),
             static_cast<double>(attempted)),
       "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const Workload& workload,
                                    PhaseResult& traced, Ledger& ledger,
                                    const SetupResult& setup,
                                    double overhead_ratio) {
  const LayerRatios r = Ratios(traced);
  const StatsSums& s = traced.total.sums;
  const double q = r.completed;
  const bool wire = workload.kind == Kind::kWireRemote;
  const double spans = static_cast<double>(ledger.source_us.size());
  // Allocations caused by Translate anywhere in the process: every
  // non-client thread's allocations (pool, server and worker threads) plus
  // the client threads' own inside the translate span, minus those inside
  // source calls, which source.allocs_per_call reports.
  const double process_allocs =
      D(traced.after.process_allocs, traced.before.process_allocs);
  const double service_allocs =
      process_allocs - static_cast<double>(traced.client_thread_allocs) +
      static_cast<double>(ledger.translate_allocs) -
      static_cast<double>(ledger.source_allocs);
  std::vector<double> no_samples;
  std::vector<double>& source_us = wire ? no_samples : ledger.source_us;
  std::vector<double>& wire_us = wire ? ledger.source_us : no_samples;
  return {
      {"expr.parse_us.p50", Percentile(ledger.parse_us, 0.50), "us"},
      {"expr.parse_us.p99", Percentile(ledger.parse_us, 0.99), "us"},
      {"expr.intern_nodes_per_query", r.intern_nodes_per_query, "count"},
      {"expr.intern_hit_ratio", r.intern_hit_ratio, "ratio"},
      {"service.translate_us.p50", Percentile(ledger.translate_us, 0.50), "us"},
      {"service.translate_us.p99", Percentile(ledger.translate_us, 0.99), "us"},
      {"service.self_us.p50", Percentile(ledger.service_self_us, 0.50), "us"},
      {"service.self_us.p99", Percentile(ledger.service_self_us, 0.99), "us"},
      {"service.allocs_per_query", Ratio(service_allocs, q), "count"},
      {"service.parallel_tasks_per_query", r.parallel_tasks_per_query, "count"},
      {"cache.hit_ratio", r.cache_hit_ratio, "ratio"},
      {"cache.evictions_per_query", r.cache_evictions_per_query, "count"},
      {"store.hit_ratio", r.store_hit_ratio, "ratio"},
      {"store.puts_per_query", r.store_puts_per_query, "count"},
      {"store.bytes_written_per_query", r.store_bytes_per_query, "bytes"},
      {"store.compactions", r.store_compactions, "count"},
      {"store.recovery_ms", setup.recovery_ms, "ms"},
      {"source.translate_us.p50", Percentile(source_us, 0.50), "us"},
      {"source.translate_us.p99", Percentile(source_us, 0.99), "us"},
      {"source.calls_per_query", wire ? 0 : Ratio(spans, q), "count"},
      {"source.allocs_per_call",
       wire ? 0 : Ratio(static_cast<double>(ledger.source_allocs), spans),
       "count"},
      {"core.scm_calls_per_query", Ratio(static_cast<double>(s.scm_calls), q),
       "count"},
      {"core.psafe_calls_per_query",
       Ratio(static_cast<double>(s.psafe_calls), q), "count"},
      {"core.ednf_terms_per_query", Ratio(static_cast<double>(s.ednf_terms), q),
       "count"},
      {"core.dnf_disjuncts_per_query",
       Ratio(static_cast<double>(s.dnf_disjuncts), q), "count"},
      {"core.memo_hit_ratio",
       Ratio(static_cast<double>(s.memo_hits),
             static_cast<double>(s.memo_hits + s.memo_misses)),
       "ratio"},
      {"rules.pattern_attempts_per_query",
       Ratio(static_cast<double>(s.pattern_attempts), q), "count"},
      {"rules.matchings_per_query", Ratio(static_cast<double>(s.matchings), q),
       "count"},
      {"wire.call_us.p50", Percentile(wire_us, 0.50), "us"},
      {"wire.call_us.p99", Percentile(wire_us, 0.99), "us"},
      {"wire.calls_per_query", r.wire_calls_per_query, "count"},
      {"wire.reuse_ratio", r.wire_reuse_ratio, "ratio"},
      {"wire.retries", r.wire_retries, "count"},
      {"net.bytes_per_query", r.net_bytes_per_query, "bytes"},
      {"server.rejected_ratio", r.server_rejected_ratio, "ratio"},
      {"worker.cache_hit_ratio", r.worker_cache_hit_ratio, "ratio"},
      {"compose.setup_ms", Median(setup.compose_ms), "ms"},
      {"ledger.unattributed_frac", Ratio(ledger.unattributed_us, ledger.wall_us),
       "ratio"},
      {"trace.overhead_ratio", overhead_ratio, "ratio"},
  };
}

void PrintLedger(const Workload& workload, const Ledger& ledger,
                 const std::string& source_name, double overhead_ratio) {
  const double wall = ledger.wall_us > 0 ? ledger.wall_us : 1;
  const double n = ledger.requests > 0 ? static_cast<double>(ledger.requests) : 1;
  std::fprintf(stderr,
               "ledger %s: %llu traced requests, mean wall %.2f us "
               "(tracing overhead: untraced/traced qps = %.3f)\n",
               workload.name, static_cast<unsigned long long>(ledger.requests),
               wall / n, overhead_ratio);
  auto row = [&](const char* layer, double sum_us) {
    std::fprintf(stderr, "  %-26s %10.2f us/query %6.1f%%\n", layer, sum_us / n,
                 100.0 * sum_us / wall);
  };
  row("expr.parse (self)", ledger.parse_sum_us);
  row("service (self)", ledger.self_sum_us);
  row((source_name + " (covered)").c_str(), ledger.source_sum_us);
  row("unattributed", ledger.unattributed_us);
  row("total", ledger.parse_sum_us + ledger.self_sum_us +
                   ledger.source_sum_us + ledger.unattributed_us);
  if (ledger.unmatched_spans > 0) {
    std::fprintf(stderr, "  (%llu source spans matched no request)\n",
                 static_cast<unsigned long long>(ledger.unmatched_spans));
  }
}

// ---------------------------------------------------------------------------
// Main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced_run = args.trace == 1;
  const WorkloadData data = MakeData(*workload, args.seed);

  // The stream is described before anything parses a query, so the hash and
  // the shape statistics are pure functions of the seed.
  const auto [stream_hash, shapes] =
      DescribeStream(data, args.seed, workload->clients);
  std::printf("# workload %s: closed loop, %d clients, seed %llu\n",
              workload->name, workload->clients,
              static_cast<unsigned long long>(args.seed));
  std::printf("# stream_hash %016llx\n",
              static_cast<unsigned long long>(stream_hash));
  std::printf("# shape %s\n", shapes.ToString().c_str());

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string store_dir = args.out_dir + "/store-" + workload->name +
                                "-" + std::to_string(args.seed);
  if (workload->kind == Kind::kStoreSpill) {
    std::filesystem::remove_all(store_dir, ec);
    std::filesystem::create_directories(store_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", store_dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }

  SetupResult setup =
      SetUp(*workload, data, args.seed, traced_run, store_dir);
  if (!setup.error.empty() || setup.warm_failures > 0) {
    std::fprintf(stderr, "set-up failed: %s (%llu warm-up failures)\n",
                 setup.error.c_str(),
                 static_cast<unsigned long long>(setup.warm_failures));
    return 1;
  }
  const System& system = *setup.system;
  const size_t expected_sources = system.service->num_sources();

  std::vector<Stream> streams = MakeStreams(data, args.seed, workload->clients);
  PhaseOptions options;
  options.expected_sources = expected_sources;
  options.seed = args.seed;
  options.measure = false;
  options.seconds = workload->warmup_s;
  PhaseResult warmup = RunPhase(system, streams, options);

  options.measure = true;
  std::vector<PhaseResult> phases;
  if (!traced_run) {
    options.seconds = args.seconds;
    phases.push_back(RunPhase(system, streams, options));
  } else {
    options.seconds = args.seconds / 2;
    phases.push_back(RunPhase(system, streams, options));
    TakeSourceSpans();  // drop anything recorded before the traced phase
    SetTracing(true);
    options.traced = true;
    phases.push_back(RunPhase(system, streams, options));
    SetTracing(false);
  }

  uint64_t attempted = warmup.total.attempted;
  uint64_t failed = warmup.total.failed;
  std::string first_error = warmup.total.first_error;
  std::string precondition;
  for (const PhaseResult& phase : phases) {
    attempted += phase.total.attempted;
    failed += phase.total.failed;
    if (first_error.empty()) first_error = phase.total.first_error;
    if (precondition.empty()) {
      precondition = CheckPreconditions(*workload, Ratios(phase));
    }
  }

  // Per-layer figures come from the traced phase, before the oracle adds
  // its own parsing and translation to the process counters.
  const std::string source_name = workload->kind == Kind::kWireRemote
                                      ? "wire.call"
                                      : "source.translate";
  std::vector<Metric> metrics;
  if (traced_run) {
    PhaseResult& traced = phases.back();
    std::vector<SourceSpan> spans = TakeSourceSpans();
    std::vector<uint64_t> request_ids;
    Ledger ledger = BuildLedger(traced.total.records, spans, &request_ids);
    const double overhead =
        Ratio(GoodQuartile(phases.front(), &Window::qps, true),
              GoodQuartile(traced, &Window::qps, true));
    PrintLedger(*workload, ledger, source_name, overhead);
    const std::string trace_path = args.out_dir + "/trace-" + workload->name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    if (WriteChromeTrace(trace_path, traced.total.records, spans, request_ids,
                         source_name, kTraceFileRequests)) {
      std::fprintf(stderr, "spans written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
    }
    const LayerRatios r = Ratios(traced);
    std::fprintf(stderr,
                 "intern growth: %.1f query nodes and %.1f constraints per "
                 "query (never freed)\n",
                 r.intern_nodes_per_query, r.intern_constraints_per_query);
    metrics = PerLayerMetrics(*workload, traced, ledger, setup, overhead);
  }

  // Oracle: the sampled answers, byte for byte against a fresh
  // single-threaded, uncached service over the same federation.
  uint64_t samples = 0;
  uint64_t mismatches = 0;
  {
    const bool wire = workload->kind == Kind::kWireRemote;
    auto oracle = BuildOracle(wire ? WorkerSources() : ServiceSources(), !wire);
    if (!oracle.ok()) {
      std::fprintf(stderr, "oracle: %s\n", oracle.status().ToString().c_str());
      return 1;
    }
    for (const PhaseResult& phase : phases) {
      for (const Sample& sample : phase.total.samples) {
        ++samples;
        qmap::Result<qmap::Query> parsed = qmap::ParseQuery(sample.text);
        if (!parsed.ok()) {
          ++mismatches;
          continue;
        }
        auto expected = (*oracle)->Translate(*parsed);
        if (!expected.ok() || Render(*expected) != sample.rendered) {
          if (mismatches == 0) {
            std::fprintf(stderr, "oracle mismatch on %s\n  got:\n%s",
                         sample.text.c_str(), sample.rendered.c_str());
          }
          ++mismatches;
        }
      }
    }
  }
  failed += mismatches;

  PhaseResult& timed = phases.front();
  if (!traced_run) {
    metrics = EndToEndMetrics(timed, setup, attempted, failed);
    size_t samples_total = 0;
    size_t fewest = SIZE_MAX;
    for (const Window& window : timed.windows) {
      samples_total += window.samples;
      fewest = std::min(fewest, window.samples);
    }
    std::fprintf(stderr,
                 "latency samples: %zu in %zu windows (fewest %zu); oracle: "
                 "%llu sampled answers, %llu mismatches; error_ratio %.6f\n",
                 samples_total, timed.windows.size(), fewest,
                 static_cast<unsigned long long>(samples),
                 static_cast<unsigned long long>(mismatches),
                 Ratio(static_cast<double>(failed),
                       static_cast<double>(attempted)));
  }
  for (const PhaseResult& phase : phases) {
    std::fprintf(stderr, "windows (qps/p50/p99/cpu):");
    for (const Window& w : phase.windows) {
      std::fprintf(stderr, " %.0f/%.0f/%.0f/%.0f", w.qps, w.p50_us, w.p99_us,
                   w.cpu_us_per_query);
    }
    std::fprintf(stderr, "\n");
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", first_error.c_str());
  }
  if (!precondition.empty()) {
    std::fprintf(stderr, "PRECONDITION FAILED on %s: %s\n", workload->name,
                 precondition.c_str());
  }
  setup.system.reset();
  if (workload->kind == Kind::kStoreSpill) {
    std::filesystem::remove_all(store_dir, ec);
  }
  const bool correct = failed == 0 && samples > 0 && precondition.empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qmap_e2ebench --workload "
                 "hot_cached|cold_mix|wire_remote|store_spill --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  return e2e::Run(args);
}

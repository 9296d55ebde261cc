#include "qmap/service/translation_service.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "qmap/common/fnv.h"
#include "qmap/common/version.h"
#include "qmap/expr/intern.h"
#include "qmap/expr/printer.h"
#include "qmap/obs/json.h"
#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
#include "qmap/rules/matcher.h"
#include "qmap/rules/rule_program.h"

namespace qmap {
namespace {

std::string OptionsTag(const TranslatorOptions& options) {
  std::string tag;
  switch (options.algorithm) {
    case MappingAlgorithm::kTdqm:
      tag = "tdqm";
      break;
    case MappingAlgorithm::kDnf:
      tag = "dnf";
      break;
    case MappingAlgorithm::kNaive:
      tag = "naive";
      break;
  }
  tag += options.reuse_potential_matchings ? "+reuse" : "-reuse";
  tag += options.simplify_output ? "+simp" : "-simp";
  return tag;
}

// Separator between cache-key fields (the fields are hashed, but keeping a
// separator byte in the stream prevents boundary ambiguity between the
// source name and the options tag).
constexpr char kKeySep = '\x1f';

// A computed source translation's own time into the "translate" and "tdqm"
// phase histograms. Both are zero when the translation was not computed
// here: a remote answer carries no core time.
void RecordCoreTime(const PhaseHistograms& phases,
                    const TranslationStats& stats) {
  if (phases.translate != nullptr && stats.translate_ns > 0) {
    phases.translate->Record(stats.translate_ns / 1000);
  }
  if (phases.tdqm != nullptr && stats.tdqm_ns > 0) {
    phases.tdqm->Record(stats.tdqm_ns / 1000);
  }
}

}  // namespace

TranslationService::TranslationService(ServiceOptions options)
    : options_(options),
      observer_(options.obs),
      tier_(options.enable_cache, options.cache, options.store,
            options.obs.metrics, observer_.phases()) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  if (options_.resilience.enabled || options_.fault_injector != nullptr) {
    resilience_ = std::make_unique<ResilienceManager>(
        options_.resilience, options_.clock, options_.fault_injector,
        options_.obs.metrics);
  }
  if (options_.obs.metrics != nullptr) {
    MetricsRegistry* metrics = options_.obs.metrics;
    AttachInternMetrics(metrics);
    if (pool_ != nullptr) pool_->AttachMetrics(metrics);
    translate_counter_ = &metrics->counter(
        "qmap_translate_total", "Translate calls received by the service.");
    match_attempts_counter_ =
        &metrics->counter("qmap_match_pattern_attempts_total");
    match_index_hits_counter_ = &metrics->counter("qmap_match_index_hits_total");
    match_saved_counter_ = &metrics->counter("qmap_match_attempts_saved_total");
    match_compiled_hits_counter_ = &metrics->counter(
        "qmap_match_compiled_hits",
        "Conjunctions answered by the compiled discrimination-DAG engine.");
    match_compile_ns_counter_ = &metrics->counter(
        "qmap_match_compile_ns",
        "Wall time spent compiling rule plans, process-wide (CompileRulePlan).");
    match_plan_nodes_counter_ = &metrics->counter(
        "qmap_match_plan_nodes",
        "DAG nodes across all rule plans compiled so far, process-wide.");
    compose_chains_counter_ = &metrics->counter(
        "qmap_compose_chains_total",
        "Multi-hop chains registered via AddChain (offline composition).");
    compose_rules_counter_ = &metrics->counter(
        "qmap_compose_rules_total",
        "Rules in composed chain specs at registration (sum over chains).");
    compose_skipped_counter_ = &metrics->counter(
        "qmap_compose_skipped_covers_total",
        "Rule covers the composer skipped conservatively while folding chains.");
    containment_checks_counter_ = &metrics->counter(
        "qmap_containment_checks_total",
        "Pairwise spec containment checks run by the pruning pre-pass.");
    containment_pruned_counter_ = &metrics->counter(
        "qmap_containment_pruned_total",
        "Sources dropped from the fan-out because another source's mapping "
        "provably contains theirs.");
  }
}

TranslationService::~TranslationService() {
  // Admin handlers capture `this`; stop serving before anything else of the
  // service is torn down.
  StopAdmin();
  if (options_.obs.metrics != nullptr) {
    DetachInternMetricsIf(options_.obs.metrics);
  }
}

void TranslationService::AddSource(std::string name, MappingSpec spec) {
  AddSource(std::move(name), std::move(spec), SourceCapabilities());
}

void TranslationService::AddSource(std::string name, MappingSpec spec,
                                   const SourceCapabilities& capabilities) {
  // The rule-set-version third: what the source *is*, separated from what
  // it is *called*. Cached entries — RAM and disk — minted under a
  // different rule set or capability declaration differ here and become
  // unreachable, which is the staleness guarantee the persistent store
  // relies on (DESIGN.md §10).
  const uint64_t rule_set_fp = Fnv64()
                                   .AddU64(spec.fingerprint())
                                   .AddByte(kKeySep)
                                   .AddU64(capabilities.Fingerprint())
                                   .value();
  Register(std::move(name), rule_set_fp,
           std::make_shared<InProcessTransport>(
               Translator(std::move(spec), options_.translator)));
  if (options_.prune_contained_sources) PruneContainedSources();
}

void TranslationService::AddRemoteSource(
    std::string name, uint64_t rule_set_fp,
    std::shared_ptr<SourceTransport> transport) {
  // The rule-set-version third is the *worker's* advertised fingerprint:
  // both tiers must go stale together when the worker's rules change.
  Register(std::move(name), rule_set_fp, std::move(transport));
}

void TranslationService::Register(std::string name, uint64_t rule_set_fp,
                                  std::shared_ptr<SourceTransport> transport) {
  SourceEntry entry;
  // The context third of the typed cache key: source name plus the option
  // flags that change translation output. The cache key is local to this
  // process, remote source or not. The query third comes per-call from
  // Query::fingerprint().
  entry.cache_key_prefix = Fnv64()
                               .Add(name)
                               .AddByte(kKeySep)
                               .Add(OptionsTag(options_.translator))
                               .value();
  entry.rule_set_fp = rule_set_fp;
  entry.name = std::move(name);
  entry.transport = std::move(transport);
  entry.runtime = std::make_unique<SourceRuntime>();
  auto pos = std::lower_bound(
      sources_.begin(), sources_.end(), entry,
      [](const SourceEntry& a, const SourceEntry& b) { return a.name < b.name; });
  sources_.insert(pos, std::move(entry));
}

std::vector<SourceCatalogEntry> TranslationService::SourceCatalog() const {
  std::vector<SourceCatalogEntry> out;
  out.reserve(sources_.size());
  for (const SourceEntry& source : sources_) {
    out.push_back(SourceCatalogEntry{source.name, source.rule_set_fp});
  }
  return out;
}

void TranslationService::AddSourcesFrom(const Mediator& mediator) {
  for (const SourceContext& source : mediator.sources()) {
    AddSource(source.name(), source.spec(), source.capabilities());
  }
  SetViewConstraints(mediator.view_constraints());
}

Status TranslationService::AddChain(std::string name,
                                    const std::vector<MappingSpec>& hops) {
  return AddChainImpl(std::move(name), hops, nullptr);
}

Status TranslationService::AddChain(std::string name,
                                    const std::vector<MappingSpec>& hops,
                                    const SourceCapabilities& capabilities) {
  return AddChainImpl(std::move(name), hops, &capabilities);
}

Status TranslationService::AddChainImpl(std::string name,
                                        const std::vector<MappingSpec>& hops,
                                        const SourceCapabilities* capabilities) {
  if (hops.empty()) {
    return Status::InvalidArgument("AddChain('" + name +
                                   "'): at least one hop required");
  }
  ChainStatus chain;
  chain.name = name;
  for (const MappingSpec& hop : hops) chain.hop_targets.push_back(hop.target_name());

  // Fold left-to-right: after iteration i, `composed` maps the mediator
  // vocabulary directly onto hops[i]'s target vocabulary. Registration is
  // off the hot path, so the compose trace is always recorded; when the
  // trace ring is on it is retained as an outlier for /tracez.
  Trace trace("chain:" + name, /*capture_detail=*/true);
  MappingSpec composed = hops.front();
  ComposeStats total;
  bool exact = true;
  {
    Span root(&trace, "chain.compose");
    root.AddAttr("chain", name);
    for (size_t i = 1; i < hops.size(); ++i) {
      auto folded =
          ComposeSpecs(composed, hops[i], options_.compose, &trace, root.id());
      if (!folded.ok()) return folded.status();
      composed = std::move(folded.value().spec);
      exact = exact && folded.value().exact;
      total.skipped_covers += folded.value().stats.skipped_covers;
      total.approximate_marks += folded.value().stats.approximate_marks;
    }
    root.AddAttr("hops", std::to_string(hops.size()));
    root.AddAttr("composed_rules", std::to_string(composed.rules().size()));
    root.AddAttr("exact", exact ? "true" : "false");
  }
  if (TraceRing* ring = observer_.trace_ring()) {
    ring->Insert(trace.ToParsed(), /*outlier=*/true);
  }

  chain.composed_rules = static_cast<int>(composed.rules().size());
  chain.approximate_marks = static_cast<int>(total.approximate_marks);
  chain.exact = exact;
  if (compose_chains_counter_ != nullptr) compose_chains_counter_->Inc();
  if (compose_rules_counter_ != nullptr) {
    compose_rules_counter_->Inc(static_cast<uint64_t>(chain.composed_rules));
  }
  if (compose_skipped_counter_ != nullptr) {
    compose_skipped_counter_->Inc(
        static_cast<uint64_t>(total.skipped_covers));
  }

  if (capabilities != nullptr) {
    AddSource(std::move(name), std::move(composed), *capabilities);
  } else {
    // Default capabilities: exactly what the composed emissions can produce,
    // so nothing the chain translates to is unrealizable downstream.
    SourceCapabilities derived = RequiredCapabilities(composed);
    AddSource(std::move(name), std::move(composed), derived);
  }
  chains_.push_back(std::move(chain));
  return Status::Ok();
}

size_t TranslationService::PruneContainedSources() {
  // Only sources with a local spec participate: a remote source's mapping
  // lives on its worker, and pruning it here on a stale idea of that
  // mapping would be unsound.
  std::vector<std::string> names;
  std::vector<const MappingSpec*> specs;
  for (const SourceEntry& source : sources_) {
    const MappingSpec* spec = source.transport->spec();
    if (spec == nullptr) continue;
    names.push_back(source.name);
    specs.push_back(spec);
  }
  ContainmentAnalysis analysis = AnalyzeContainment(names, specs);
  if (containment_checks_counter_ != nullptr) {
    containment_checks_counter_->Inc(analysis.checks);
  }
  size_t removed = 0;
  for (const PrunedSource& pruned : analysis.pruned) {
    auto pos = std::find_if(
        sources_.begin(), sources_.end(),
        [&pruned](const SourceEntry& s) { return s.name == pruned.name; });
    if (pos == sources_.end()) continue;
    sources_.erase(pos);
    pruned_.push_back(PrunedSourceStatus{pruned.name, pruned.subsumed_by});
    ++removed;
  }
  if (containment_pruned_counter_ != nullptr && removed > 0) {
    containment_pruned_counter_->Inc(static_cast<uint64_t>(removed));
  }
  return removed;
}

void TranslationService::SetViewConstraints(Query constraints) {
  view_constraints_ = std::move(constraints);
  tier_.ClearCache();
}

Result<Translation> TranslationService::TranslateOne(
    const SourceEntry& source, const Query& full, Trace* trace,
    uint64_t parent_span, const CancelToken* cancel,
    ResilienceManager::CallReport* report) const {
  const TranslationCacheKey key{source.cache_key_prefix, source.rule_set_fp,
                                full.fingerprint()};
  return tier_.GetOrTranslate(key, trace, parent_span, *report, [&] {
    // Scoreboard accounting: only real source work counts as a call (cache
    // and store hits never get here), and in_flight brackets the whole
    // guarded window including retries and backoff.
    SourceRuntime& runtime = *source.runtime;
    runtime.calls.fetch_add(1, std::memory_order_relaxed);
    runtime.in_flight.fetch_add(1, std::memory_order_relaxed);
    Result<Translation> result =
        FanOut(resilience_.get())
            .Guarded(source.name, full, cancel,
                     [&] {
                       return source.transport->Translate(
                           full, trace, parent_span, /*unused=*/nullptr,
                           cancel);
                     },
                     report, trace, parent_span);
    runtime.in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (!result.ok()) {
      runtime.failures.fetch_add(1, std::memory_order_relaxed);
    } else {
      RecordCoreTime(observer_.phases(), result->stats);
    }
    if (report->retries > 0) {
      runtime.retries.fetch_add(report->retries, std::memory_order_relaxed);
    }
    return result;
  });
}

// The registered sources as the fan-out core sees them: each call goes
// through TranslateOne (cache → store → guarded translate).
class TranslationService::FanOutSources : public FanOut::Sources {
 public:
  FanOutSources(const TranslationService& service, const Query& full)
      : service_(service), full_(full) {}

  size_t size() const override { return service_.sources_.size(); }
  const std::string& name(size_t i) const override {
    return service_.sources_[i].name;
  }
  Result<Translation> Translate(
      size_t i, const CancelToken* cancel, Trace* trace, uint64_t parent_span,
      ResilienceManager::CallReport* report) const override {
    return service_.TranslateOne(service_.sources_[i], full_, trace,
                                 parent_span, cancel, report);
  }

 private:
  const TranslationService& service_;
  const Query& full_;
};

Result<MediatorTranslation> TranslationService::TranslateFull(
    const Query& full, Trace* trace, const CancelToken* cancel) const {
  const PhaseHistograms& phases = observer_.phases();
  PhaseTimer root(trace, "service.translate", 0, phases.service_translate);
  // Rendering is deferred to this detail-only path; the translation and
  // cache machinery below works purely on fingerprints.
  if (root.span().detail()) {
    root.span().AddAttr("query", ToParseableText(full));
  }
  const FanOut fanout(resilience_.get(), pool_.get(), &phases);
  const size_t n = sources_.size();
  (fanout.Parallel(n) ? parallel_tasks_ : inline_tasks_)
      .fetch_add(n, std::memory_order_relaxed);
  Result<MediatorTranslation> out =
      fanout.Run(full, FanOutSources(*this, full), Integration::kJoin,
                 cancel, root.span());
  if (out.ok() && match_attempts_counter_ != nullptr) {
    match_attempts_counter_->Inc(out->stats.match.pattern_attempts);
    match_index_hits_counter_->Inc(out->stats.match.index_hits);
    match_saved_counter_->Inc(out->stats.match.pattern_attempts_saved);
    match_compiled_hits_counter_->Inc(out->stats.match.compiled_hits);
    BridgeCompileStats();
  }
  return out;
}

void TranslationService::WarmUpFromStoreOnce() const {
  tier_.WarmUpOnce([this] {
    std::unordered_map<uint64_t, uint64_t> live;
    for (const SourceEntry& source : sources_) {
      live.emplace(source.cache_key_prefix, source.rule_set_fp);
    }
    return live;
  });
}

Result<MediatorTranslation> TranslationService::Translate(const Query& query,
                                                          Trace* trace) const {
  translate_calls_.fetch_add(1, std::memory_order_relaxed);
  if (translate_counter_ != nullptr) translate_counter_->Inc();
  WarmUpFromStoreOnce();
  Query full = query & view_constraints_;
  CancelToken token;
  const CancelToken* cancel = FanOut(resilience_.get()).RequestToken(&token);
  return observer_.Observe(full, trace, [&](Trace* observed) {
    return TranslateFull(full, observed, cancel);
  });
}

Result<Translation> TranslationService::TranslateSource(
    std::string_view name, const Query& full, uint32_t deadline_ms) const {
  WarmUpFromStoreOnce();
  const SourceEntry* entry = nullptr;
  for (const SourceEntry& source : sources_) {
    if (source.name == name) {
      entry = &source;
      break;
    }
  }
  if (entry == nullptr) {
    return Status::NotFound("unknown source: " + std::string(name));
  }
  // The caller's remaining budget narrows the service's own request
  // deadline (if any) — budget propagation across the wire works exactly
  // like propagation down the local call tree.
  CancelToken token;
  const CancelToken* cancel = FanOut(resilience_.get()).RequestToken(&token);
  if (deadline_ms > 0) {
    ResilienceClock* clock = options_.clock != nullptr
                                 ? options_.clock
                                 : &DefaultResilienceClock();
    token.budget = token.budget.Narrowed(
        clock->NowUs(), static_cast<uint64_t>(deadline_ms) * 1000);
    cancel = &token;
  }
  ResilienceManager::CallReport report;
  return TranslateOne(*entry, full, /*trace=*/nullptr, /*parent_span=*/0,
                      cancel, &report);
}

Result<std::vector<MediatorTranslation>> TranslationService::TranslateBatch(
    std::span<const Query> queries) const {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_queries_.fetch_add(queries.size(), std::memory_order_relaxed);
  WarmUpFromStoreOnce();

  // Intra-batch dedup: structurally identical normalized queries translate
  // once. Fingerprints bucket the candidates; StructurallyEquals confirms
  // (pointer comparison when both nodes are interned).
  std::vector<Query> unique_full;
  std::unordered_map<uint64_t, std::vector<size_t>> slots_by_fp;
  std::vector<size_t> slot_of(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    Query full = queries[q] & view_constraints_;
    std::vector<size_t>& bucket = slots_by_fp[full.fingerprint()];
    size_t slot = unique_full.size();
    for (size_t candidate : bucket) {
      if (unique_full[candidate].StructurallyEquals(full)) {
        slot = candidate;
        break;
      }
    }
    if (slot == unique_full.size()) {
      bucket.push_back(slot);
      unique_full.push_back(std::move(full));
    } else {
      batch_duplicates_.fetch_add(1, std::memory_order_relaxed);
    }
    slot_of[q] = slot;
  }

  // One budget for the whole batch: the request deadline covers every query
  // in it, so a stalled early query leaves less (possibly nothing) for the
  // later ones — budget propagation, not per-query reset.
  CancelToken token;
  const CancelToken* cancel = FanOut(resilience_.get()).RequestToken(&token);
  std::vector<MediatorTranslation> unique_results;
  unique_results.reserve(unique_full.size());
  for (size_t u = 0; u < unique_full.size(); ++u) {
    if (cancel != nullptr && cancel->Expired(resilience_->clock()->NowUs())) {
      return Status::DeadlineExceeded(
          "batch budget exhausted after " + std::to_string(u) + " of " +
          std::to_string(unique_full.size()) + " unique queries");
    }
    Result<MediatorTranslation> translation =
        observer_.Observe(unique_full[u], nullptr, [&](Trace* observed) {
          return TranslateFull(unique_full[u], observed, cancel);
        });
    if (!translation.ok()) return translation.status();
    unique_results.push_back(*std::move(translation));
  }

  std::vector<MediatorTranslation> out;
  out.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    out.push_back(unique_results[slot_of[q]]);
  }
  return out;
}

ServiceStats TranslationService::stats() const {
  ServiceStats out;
  out.cache = tier_.cache_stats();
  out.store = tier_.store_stats();
  out.translate_calls = translate_calls_.load(std::memory_order_relaxed);
  out.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  out.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  out.batch_duplicates = batch_duplicates_.load(std::memory_order_relaxed);
  out.parallel_tasks = parallel_tasks_.load(std::memory_order_relaxed);
  out.inline_tasks = inline_tasks_.load(std::memory_order_relaxed);
  out.slow_queries = observer_.slow_query_count();
  return out;
}

// ---------------------------------------------------------------------------
// Admin / introspection plane

namespace {

/// The value of `key` in a raw query string ("a=1&b=2"), or "".
std::string_view QueryParam(std::string_view query, std::string_view key) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    size_t end = amp == std::string_view::npos ? query.size() : amp;
    std::string_view pair = query.substr(pos, end - pos);
    if (pair.size() > key.size() && pair.substr(0, key.size()) == key &&
        pair[key.size()] == '=') {
      return pair.substr(key.size() + 1);
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return {};
}

/// Strict non-negative integer parse; -1 on anything else.
int ParseNonNegativeInt(std::string_view text) {
  if (text.empty() || text.size() > 9) return -1;
  int value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value;
}

std::string TracesJsonArray(const std::vector<ParsedTrace>& traces) {
  std::string out = "[";
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) out += ',';
    out += traces[i].ToJson();
  }
  out += "]";
  return out;
}

std::string StatusJson(const ServiceStatus& s) {
  const auto b = [](bool v) { return v ? "true" : "false"; };
  std::string out = "{\"version\":\"";
  out += kQmapVersion;
  out += "\",\"ready\":";
  out += b(s.ready);
  out += ",\"draining\":";
  out += b(s.draining);
  out += ",\"store\":{\"configured\":";
  out += b(s.store_configured);
  out += ",\"ok\":";
  out += b(s.store_ok);
  out += ",\"warmed_up\":";
  out += b(s.warmed_up);
  out += ",\"live_records\":" + std::to_string(s.stats.store.live_records);
  out += ",\"hits\":" + std::to_string(s.stats.store.hits);
  out += ",\"misses\":" + std::to_string(s.stats.store.misses) + "}";
  out += ",\"cache\":{\"entries\":" + std::to_string(s.cache_entries);
  out += ",\"hits\":" + std::to_string(s.stats.cache.hits);
  out += ",\"misses\":" + std::to_string(s.stats.cache.misses);
  out += ",\"evictions\":" + std::to_string(s.stats.cache.evictions) + "}";
  out += ",\"pool\":{\"threads\":" + std::to_string(s.pool_threads);
  out += ",\"queue_depth\":" + std::to_string(s.pool_queue_depth) + "}";
  out += ",\"service\":{\"translate_calls\":" +
         std::to_string(s.stats.translate_calls);
  out += ",\"batch_calls\":" + std::to_string(s.stats.batch_calls);
  out += ",\"slow_queries\":" + std::to_string(s.stats.slow_queries);
  out += ",\"match_engine\":\"" + JsonEscape(s.match_engine) + "\"}";
  out += ",\"sources\":[";
  for (size_t i = 0; i < s.sources.size(); ++i) {
    const SourceStatus& source = s.sources[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(source.name) + "\"";
    out += ",\"endpoint\":\"" + JsonEscape(source.endpoint) + "\"";
    out += std::string(",\"breaker\":\"") +
           CircuitBreaker::StateName(source.breaker) + "\"";
    out += ",\"in_flight\":" + std::to_string(source.in_flight);
    out += ",\"calls\":" + std::to_string(source.calls);
    out += ",\"failures\":" + std::to_string(source.failures);
    out += ",\"retries\":" + std::to_string(source.retries) + "}";
  }
  out += "]";
  out += ",\"resilience\":{\"enabled\":";
  out += b(s.resilience_enabled);
  out += ",\"retries\":" + std::to_string(s.resilience.retries);
  out += ",\"breaker_rejections\":" +
         std::to_string(s.resilience.breaker_rejections);
  out += ",\"partial_results\":" +
         std::to_string(s.resilience.partial_results) + "}";
  out += ",\"trace_ring\":{\"enabled\":";
  out += b(s.trace_ring_enabled);
  out += ",\"seen\":" + std::to_string(s.trace_ring.seen);
  out += ",\"sampled\":" + std::to_string(s.trace_ring.sampled);
  out += ",\"outliers\":" + std::to_string(s.trace_ring.outliers);
  out += ",\"evicted\":" + std::to_string(s.trace_ring.evicted) + "}";
  out += ",\"chains\":[";
  for (size_t i = 0; i < s.chains.size(); ++i) {
    const ChainStatus& chain = s.chains[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(chain.name) + "\",\"hops\":[";
    for (size_t j = 0; j < chain.hop_targets.size(); ++j) {
      if (j > 0) out += ',';
      out += "\"" + JsonEscape(chain.hop_targets[j]) + "\"";
    }
    out += "],\"composed_rules\":" + std::to_string(chain.composed_rules);
    out += ",\"approximate_marks\":" + std::to_string(chain.approximate_marks);
    out += ",\"exact\":";
    out += b(chain.exact);
    out += "}";
  }
  out += "]";
  out += ",\"pruned_sources\":[";
  for (size_t i = 0; i < s.pruned_sources.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(s.pruned_sources[i].name) + "\"";
    out += ",\"subsumed_by\":\"" +
           JsonEscape(s.pruned_sources[i].subsumed_by) + "\"}";
  }
  out += "]";
  out += "}";
  return out;
}

/// "87.5%" hit-rate rendering for /statusz ("-" when there were no lookups).
std::string HitRate(uint64_t hits, uint64_t misses) {
  uint64_t total = hits + misses;
  if (total == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(hits) / static_cast<double>(total));
  return buf;
}

}  // namespace

ServiceStatus TranslationService::StatusSnapshot() const {
  ServiceStatus out;
  out.store_configured = tier_.store_configured();
  out.store_ok = tier_.store_open_status().ok();
  out.warmed_up = tier_.warmed_up();
  out.draining = draining();
  out.ready = !out.draining && tier_.ready();
  out.match_engine = MatchEngineName(CurrentMatchEngine());
  out.stats = stats();
  out.cache_entries = tier_.cache_entries();
  out.pool_threads = pool_ != nullptr ? static_cast<size_t>(pool_->size()) : 0;
  out.pool_queue_depth = pool_ != nullptr ? pool_->queue_depth() : 0;
  out.sources.reserve(sources_.size());
  for (const SourceEntry& source : sources_) {
    SourceStatus status;
    status.name = source.name;
    status.endpoint = source.transport->endpoint();
    if (resilience_ != nullptr) {
      status.breaker = resilience_->breaker_state(source.name);
    }
    const SourceRuntime& runtime = *source.runtime;
    status.in_flight = runtime.in_flight.load(std::memory_order_relaxed);
    status.calls = runtime.calls.load(std::memory_order_relaxed);
    status.failures = runtime.failures.load(std::memory_order_relaxed);
    status.retries = runtime.retries.load(std::memory_order_relaxed);
    out.sources.push_back(std::move(status));
  }
  out.resilience_enabled = resilience_ != nullptr;
  if (resilience_ != nullptr) out.resilience = resilience_->counters();
  if (const TraceRing* ring = observer_.trace_ring()) {
    out.trace_ring_enabled = true;
    out.trace_ring = ring->stats();
  }
  out.chains = chains_;
  out.pruned_sources = pruned_;
  return out;
}

void TranslationService::BridgeCompileStats() const {
  if (match_compile_ns_counter_ == nullptr) return;
  const CompiledPlanBuildStats global = CompiledPlanGlobalStats();
  // exchange() makes each delta claimed by exactly one bridging thread, so
  // concurrent calls never double-count a compile.
  const uint64_t prev_ns = bridged_compile_ns_.exchange(global.compile_ns);
  if (global.compile_ns > prev_ns) {
    match_compile_ns_counter_->Inc(global.compile_ns - prev_ns);
  }
  const uint64_t prev_nodes = bridged_plan_nodes_.exchange(global.plan_nodes);
  if (global.plan_nodes > prev_nodes) {
    match_plan_nodes_counter_->Inc(global.plan_nodes - prev_nodes);
  }
}

void TranslationService::UpdateGauges() const {
  BridgeCompileStats();
  MetricsRegistry* metrics = options_.obs.metrics;
  if (metrics == nullptr) return;
  metrics
      ->gauge("qmap_pool_queue_depth",
              "Tasks waiting in the worker pool's queue.")
      .Set(pool_ != nullptr ? static_cast<int64_t>(pool_->queue_depth()) : 0);
  metrics
      ->gauge("qmap_cache_entries",
              "Entries resident in the RAM translation cache.")
      .Set(static_cast<int64_t>(tier_.cache_entries()));
  metrics
      ->gauge("qmap_store_live_records",
              "Live records indexed by the persistent translation store.")
      .Set(static_cast<int64_t>(tier_.store_entries()));
  const InternStats intern = QueryInternStats();
  metrics
      ->gauge("qmap_intern_query_live_nodes",
              "Query nodes currently in the process-wide intern table.")
      .Set(static_cast<int64_t>(intern.query_live));
  metrics
      ->gauge("qmap_intern_constraint_live_nodes",
              "Constraints currently in the process-wide intern table.")
      .Set(static_cast<int64_t>(intern.constraint_live));
  for (const SourceEntry& source : sources_) {
    CircuitBreaker::State state =
        resilience_ != nullptr ? resilience_->breaker_state(source.name)
                               : CircuitBreaker::State::kClosed;
    int64_t value = 0;
    switch (state) {
      case CircuitBreaker::State::kClosed: value = 0; break;
      case CircuitBreaker::State::kHalfOpen: value = 1; break;
      case CircuitBreaker::State::kOpen: value = 2; break;
    }
    metrics
        ->gauge("qmap_breaker_state_" + source.name,
                "Circuit breaker FSM state: 0=closed, 1=half_open, 2=open.")
        .Set(value);
  }
}

Status TranslationService::StartAdmin(const AdminOptions& options) {
  if (admin_ != nullptr) {
    return Status::InvalidArgument("admin server already started");
  }
  // Run the boot warm-up now so /readyz is meaningful the moment the port
  // opens, instead of flipping on the first Translate.
  WarmUpFromStoreOnce();
  auto server = std::make_unique<AdminHttpServer>(options.http);
  RegisterAdminHandlers(server.get(), options);
  Status status = server->Start();
  if (!status.ok()) return status;
  admin_ = std::move(server);
  return Status::Ok();
}

void TranslationService::StopAdmin() {
  if (admin_ != nullptr) {
    admin_->Stop();
    admin_.reset();
  }
}

void TranslationService::RegisterAdminHandlers(AdminHttpServer* server,
                                               const AdminOptions& options) {
  server->Handle("/healthz", [](std::string_view) {
    AdminResponse response;
    response.body = "ok\n";
    return response;
  });

  server->Handle("/readyz", [this](std::string_view) {
    ServiceStatus status = StatusSnapshot();
    AdminResponse response;
    if (status.ready) {
      response.body = "ready\n";
    } else {
      response.status = 503;
      response.body = "not ready: ";
      if (status.draining) {
        response.body += "draining";
      } else if (!status.store_ok) {
        response.body +=
            "store failed to open (" + store_open_status().ToString() + ")";
      } else {
        response.body += "store warm-up has not run";
      }
      response.body += "\n";
    }
    return response;
  });

  // Graceful-drain trigger: flips readiness first (so a load balancer
  // scraping /readyz between this response and the process exiting sees
  // "draining"), then hands control to the embedding process's hook.
  server->Handle("/drainz",
                 [this, on_drain = options.on_drain](std::string_view) {
                   BeginDrain();
                   if (on_drain) on_drain();
                   AdminResponse response;
                   response.body = "draining\n";
                   return response;
                 });

  for (const auto& [path, handler] : options.extra_handlers) {
    server->Handle(path, handler);
  }

  server->Handle("/varz", [this](std::string_view) {
    UpdateGauges();
    AdminResponse response;
    response.content_type = "application/json; charset=utf-8";
    response.body = "{\"status\":" + StatusJson(StatusSnapshot()) +
                    ",\"metrics\":";
    response.body += options_.obs.metrics != nullptr
                         ? options_.obs.metrics->ToJson()
                         : "null";
    response.body += "}";
    return response;
  });

  server->Handle("/metrics", [this](std::string_view) {
    AdminResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    if (options_.obs.metrics == nullptr) {
      response.body = "# no MetricsRegistry attached to this service\n";
      return response;
    }
    UpdateGauges();
    response.body = options_.obs.metrics->ToPrometheusText();
    return response;
  });

  server->Handle("/statusz", [this](std::string_view) {
    ServiceStatus s = StatusSnapshot();
    AdminResponse response;
    std::string& out = response.body;
    out += std::string("qmap translation service ") + kQmapVersion + "\n";
    out += std::string("ready: ") + (s.ready ? "yes" : "no") + "\n";
    out += std::string("store: configured=") + (s.store_configured ? "yes" : "no") +
           " ok=" + (s.store_ok ? "yes" : "no") +
           " warmed_up=" + (s.warmed_up ? "yes" : "no") +
           " live_records=" + std::to_string(s.stats.store.live_records) +
           " hit_rate=" + HitRate(s.stats.store.hits, s.stats.store.misses) +
           "\n";
    out += "cache: entries=" + std::to_string(s.cache_entries) +
           " hits=" + std::to_string(s.stats.cache.hits) +
           " misses=" + std::to_string(s.stats.cache.misses) +
           " hit_rate=" + HitRate(s.stats.cache.hits, s.stats.cache.misses) +
           "\n";
    out += "pool: threads=" + std::to_string(s.pool_threads) +
           " queue_depth=" + std::to_string(s.pool_queue_depth) + "\n";
    out += "service: translate_calls=" + std::to_string(s.stats.translate_calls) +
           " batch_calls=" + std::to_string(s.stats.batch_calls) +
           " slow_queries=" + std::to_string(s.stats.slow_queries) +
           " match_engine=" + s.match_engine + "\n";
    out += std::string("resilience: enabled=") +
           (s.resilience_enabled ? "yes" : "no") +
           " retries=" + std::to_string(s.resilience.retries) +
           " breaker_rejections=" +
           std::to_string(s.resilience.breaker_rejections) +
           " partial_results=" + std::to_string(s.resilience.partial_results) +
           "\n";
    out += std::string("trace_ring: enabled=") +
           (s.trace_ring_enabled ? "yes" : "no") +
           " seen=" + std::to_string(s.trace_ring.seen) +
           " sampled=" + std::to_string(s.trace_ring.sampled) +
           " outliers=" + std::to_string(s.trace_ring.outliers) +
           " evicted=" + std::to_string(s.trace_ring.evicted) + "\n";
    out += "\nsource scoreboard:\n";
    char line[320];
    std::snprintf(line, sizeof(line), "  %-24s %-18s %-10s %9s %9s %9s %9s\n",
                  "source", "endpoint", "breaker", "in_flight", "calls",
                  "failures", "retries");
    out += line;
    for (const SourceStatus& source : s.sources) {
      std::snprintf(line, sizeof(line),
                    "  %-24s %-18s %-10s %9llu %9llu %9llu %9llu\n",
                    source.name.c_str(), source.endpoint.c_str(),
                    CircuitBreaker::StateName(source.breaker),
                    static_cast<unsigned long long>(source.in_flight),
                    static_cast<unsigned long long>(source.calls),
                    static_cast<unsigned long long>(source.failures),
                    static_cast<unsigned long long>(source.retries));
      out += line;
    }
    if (!s.chains.empty()) {
      out += "\nmediation chains:\n";
      for (const ChainStatus& chain : s.chains) {
        out += "  " + chain.name + ": ";
        for (size_t i = 0; i < chain.hop_targets.size(); ++i) {
          if (i > 0) out += " -> ";
          out += chain.hop_targets[i];
        }
        out += " (rules=" + std::to_string(chain.composed_rules) +
               " approximate_marks=" +
               std::to_string(chain.approximate_marks) +
               " exact=" + (chain.exact ? "yes" : "no") + ")\n";
      }
    }
    if (!s.pruned_sources.empty()) {
      out += "\ncontainment-pruned sources:\n";
      for (const PrunedSourceStatus& pruned : s.pruned_sources) {
        out += "  " + pruned.name + " subsumed by " + pruned.subsumed_by + "\n";
      }
    }
    return response;
  });

  server->Handle("/tracez", [this](std::string_view query) {
    AdminResponse response;
    response.content_type = "application/json; charset=utf-8";
    TraceRing* ring = observer_.trace_ring();
    if (ring == nullptr) {
      response.status = 404;
      response.body =
          "{\"error\":\"trace ring not enabled "
          "(ServiceOptions::obs.trace_ring)\"}";
      return response;
    }
    std::string target(QueryParam(query, "id"));
    std::string_view bucket = QueryParam(query, "bucket");
    if (target.empty() && !bucket.empty()) {
      // Exemplar jump: latency-histogram bucket index → retained trace.
      int b = ParseNonNegativeInt(bucket);
      if (b < 0 || b >= Histogram::kNumBuckets) {
        response.status = 400;
        response.body = "{\"error\":\"bad bucket index\"}";
        return response;
      }
      uint64_t serial = observer_.LatencyExemplar(b);
      if (serial == 0) {
        response.status = 404;
        response.body =
            "{\"error\":\"no exemplar recorded for bucket " +
            std::to_string(b) + "\"}";
        return response;
      }
      target = "qt" + std::to_string(serial);
    }
    if (!target.empty()) {
      std::optional<ParsedTrace> trace = ring->Find(target);
      if (!trace.has_value()) {
        response.status = 404;
        response.body =
            "{\"error\":\"trace " + JsonEscape(target) + " not retained\"}";
        return response;
      }
      response.body = trace->ToJson();
      return response;
    }
    TraceRingStats stats = ring->stats();
    response.body = "{\"stats\":{\"seen\":" + std::to_string(stats.seen);
    response.body += ",\"sampled\":" + std::to_string(stats.sampled);
    response.body += ",\"outliers\":" + std::to_string(stats.outliers);
    response.body += ",\"evicted\":" + std::to_string(stats.evicted) + "}";
    response.body +=
        ",\"outliers\":" + TracesJsonArray(ring->OutlierSnapshot());
    response.body +=
        ",\"sampled\":" + TracesJsonArray(ring->SampledSnapshot());
    response.body += "}";
    return response;
  });

  server->Handle("/slowlogz", [this](std::string_view) {
    AdminResponse response;
    response.content_type = "application/json; charset=utf-8";
    std::vector<SlowQueryRecord> records = slow_queries();
    std::string& out = response.body;
    out = "[";
    for (size_t i = 0; i < records.size(); ++i) {
      const SlowQueryRecord& record = records[i];
      if (i > 0) out += ',';
      out += "{\"query\":\"" + JsonEscape(record.query_text) + "\"";
      out += ",\"total_us\":" + std::to_string(record.total_us);
      out += ",\"max_disjuncts\":" + std::to_string(record.max_disjuncts);
      out += ",\"stats\":\"" + JsonEscape(record.stats) + "\"";
      if (!record.partial_summary.empty()) {
        out += ",\"partial\":\"" + JsonEscape(record.partial_summary) + "\"";
      }
      // trace_json is itself a JSON document; embed it verbatim.
      out += ",\"trace\":";
      out += record.trace_json.empty() ? "null" : record.trace_json;
      out += "}";
    }
    out += "]";
    return response;
  });
}

}  // namespace qmap

#include "federation.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "qmap/contexts/synthetic.h"
#include "qmap/expr/printer.h"
#include "qmap/rules/compose.h"
#include "qmap/service/source_transport.h"
#include "qmap/wire/messages.h"
#include "qmap/wire/remote_transport.h"
#include "spans.h"

namespace e2e {
namespace {

qmap::Result<NamedSpecs> SyntheticSources(
    const std::vector<std::vector<std::pair<int, int>>>& pair_sets) {
  NamedSpecs out;
  for (size_t i = 0; i < pair_sets.size(); ++i) {
    qmap::SyntheticOptions options;
    options.num_attrs = 8;
    options.dependent_pairs = pair_sets[i];
    qmap::Result<qmap::MappingSpec> spec = qmap::MakeSyntheticSpec(options);
    if (!spec.ok()) return spec.status();
    out.emplace_back("S" + std::to_string(i), *std::move(spec));
  }
  return out;
}

NamedSpecs OrDie(qmap::Result<NamedSpecs> specs) {
  if (!specs.ok()) {
    std::fprintf(stderr, "synthetic spec: %s\n",
                 specs.status().ToString().c_str());
    std::abort();
  }
  return *std::move(specs);
}

qmap::SyntheticHop2Options ChainOptions() {
  qmap::SyntheticHop2Options options;
  options.hop1.num_attrs = 8;
  options.hop1.dependent_pairs = {{0, 1}};
  options.dependent_b_pairs = {{4, 5}};
  options.partial_single_for_pair_first = true;
  options.skip_b_attr = 2;
  return options;
}

// 512 hot queries x 4 sources, 8x over, so no cache shard ever evicts.
constexpr size_t kWorkerCacheCapacity = 16384;

std::shared_ptr<qmap::SourceTransport> Traced(
    std::shared_ptr<qmap::SourceTransport> inner) {
  return std::make_shared<TracedTransport>(std::move(inner));
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

NamedSpecs ServiceSources() {
  return OrDie(SyntheticSources(
      {{}, {{0, 1}}, {{2, 3}}, {{4, 5}}, {{0, 2}, {4, 6}}, {{1, 3}, {5, 7}}}));
}

NamedSpecs WorkerSources() {
  return OrDie(SyntheticSources(
      {{}, {{0, 1}}, {{2, 3}, {4, 5}}, {{0, 2}, {1, 3}, {4, 6}}}));
}

std::vector<qmap::MappingSpec> ChainHops() {
  const qmap::SyntheticHop2Options options = ChainOptions();
  qmap::Result<qmap::MappingSpec> hop1 = qmap::MakeSyntheticSpec(options.hop1);
  qmap::Result<qmap::MappingSpec> hop2 = qmap::MakeSyntheticHop2Spec(options);
  if (!hop1.ok() || !hop2.ok()) {
    std::fprintf(stderr, "chain spec failed to build\n");
    std::abort();
  }
  return {*std::move(hop1), *std::move(hop2)};
}

qmap::Result<std::unique_ptr<System>> BuildInProcess(
    const InProcessConfig& config) {
  auto system = std::make_unique<System>();
  system->registry = std::make_unique<qmap::MetricsRegistry>();
  qmap::ServiceOptions options;
  options.num_threads = 4;
  options.obs.metrics = system->registry.get();
  options.cache.capacity = config.cache_capacity;
  options.store.path = config.store_path;
  system->service = std::make_unique<qmap::TranslationService>(options);
  qmap::TranslationService& service = *system->service;
  if (!service.store_open_status().ok()) {
    return service.store_open_status();
  }

  const std::vector<qmap::MappingSpec> hops = ChainHops();
  if (!config.traced) {
    for (auto& [name, spec] : ServiceSources()) {
      service.AddSource(name, std::move(spec));
    }
    const auto start = std::chrono::steady_clock::now();
    qmap::Status chained = service.AddChain(kChainName, hops);
    system->compose_ms = MsSince(start);
    if (!chained.ok()) return chained;
    return system;
  }

  // Traced: the same sources behind TracedTransports, registered under the
  // rule-set fingerprints an undecorated build reports, so cache and store
  // keys are exactly those of the untraced system.
  qmap::ServiceOptions plain_options;
  plain_options.num_threads = 1;
  plain_options.enable_cache = false;
  qmap::TranslationService plain(plain_options);
  for (auto& [name, spec] : ServiceSources()) plain.AddSource(name, spec);
  const auto start = std::chrono::steady_clock::now();
  qmap::Status chained = plain.AddChain(kChainName, hops);
  system->compose_ms = MsSince(start);
  if (!chained.ok()) return chained;
  std::map<std::string, uint64_t> fingerprints;
  for (const qmap::SourceCatalogEntry& entry : plain.SourceCatalog()) {
    fingerprints[entry.name] = entry.rule_set_fp;
  }

  NamedSpecs specs = ServiceSources();
  qmap::Result<qmap::ComposedSpec> composed =
      qmap::ComposeSpecs(hops[0], hops[1], options.compose);
  if (!composed.ok()) return composed.status();
  specs.emplace_back(kChainName, std::move(composed->spec));
  for (auto& [name, spec] : specs) {
    service.AddRemoteSource(
        name, fingerprints[name],
        Traced(std::make_shared<qmap::InProcessTransport>(
            qmap::Translator(std::move(spec), options.translator))));
  }
  return system;
}

qmap::Result<std::unique_ptr<System>> BuildWire(const WireConfig& config) {
  auto system = std::make_unique<System>();

  // Worker: examples/federation_worker.cc's service and server settings.
  system->worker_registry = std::make_unique<qmap::MetricsRegistry>();
  qmap::ServiceOptions worker_options;
  worker_options.num_threads = 2;
  worker_options.obs.metrics = system->worker_registry.get();
  worker_options.cache.capacity = kWorkerCacheCapacity;
  system->worker = std::make_shared<qmap::TranslationService>(worker_options);
  for (auto& [name, spec] : WorkerSources()) {
    system->worker->AddSource(name, std::move(spec));
  }
  qmap::QmapServerOptions server_options;
  server_options.metrics = system->worker_registry.get();
  system->server = std::make_unique<qmap::QmapServer>(server_options);
  system->server->SetService(system->worker);
  qmap::Status started = system->server->Start();
  if (!started.ok()) return started;
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(system->server->port());

  // Front-end: examples/federation_frontend.cc's settings with the cache
  // off, so it is a stateless router.
  system->registry = std::make_unique<qmap::MetricsRegistry>();
  qmap::ServiceOptions options;
  options.num_threads = 4;
  options.obs.metrics = system->registry.get();
  options.resilience.enabled = true;
  options.resilience.retry.max_attempts = 2;
  options.enable_cache = false;
  system->service = std::make_unique<qmap::TranslationService>(options);
  system->client = std::make_shared<qmap::WireClient>();
  auto reply =
      system->client->Call(endpoint, qmap::FrameType::kCatalogRequest, "");
  if (!reply.ok()) return reply.status();
  auto catalog = qmap::DecodeCatalogResponse(reply->second);
  if (!catalog.ok()) return catalog.status();
  qmap::RemoteTransportOptions transport_options;
  transport_options.metrics = system->registry.get();
  for (const qmap::CatalogEntry& entry : catalog->sources) {
    std::shared_ptr<qmap::SourceTransport> transport =
        std::make_shared<qmap::RemoteTransport>(entry.name, endpoint,
                                                system->client,
                                                transport_options);
    if (config.traced) transport = Traced(std::move(transport));
    system->service->AddRemoteSource(entry.name, entry.rule_set_fp,
                                     std::move(transport));
  }
  return system;
}

qmap::Result<std::unique_ptr<qmap::TranslationService>> BuildOracle(
    const NamedSpecs& sources, bool with_chain) {
  qmap::ServiceOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  auto oracle = std::make_unique<qmap::TranslationService>(options);
  for (const auto& [name, spec] : sources) oracle->AddSource(name, spec);
  if (with_chain) {
    qmap::Status chained = oracle->AddChain(kChainName, ChainHops());
    if (!chained.ok()) return chained;
  }
  return oracle;
}

std::string Render(const qmap::MediatorTranslation& translation) {
  std::string out;
  for (const auto& [name, source] : translation.per_source) {
    out += name + ": " + qmap::ToParseableText(source.mapped) + " / " +
           qmap::ToParseableText(source.filter) + "\n";
  }
  out += "F: " + qmap::ToParseableText(translation.filter) + "\n";
  out += "partial: " + translation.partial.ToString() + "\n";
  return out;
}

}  // namespace e2e

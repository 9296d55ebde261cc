#ifndef QMAP_E2EBENCH_FEDERATION_H_
#define QMAP_E2EBENCH_FEDERATION_H_

// The systems under test, built only through the library's public API and
// configured the way the shipped binaries under examples/ configure theirs:
// a MetricsRegistry attached and a 4-thread fan-out pool.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qmap/mediator/mediator.h"
#include "qmap/obs/metrics.h"
#include "qmap/service/translation_service.h"
#include "qmap/wire/qmap_server.h"
#include "qmap/wire/wire_client.h"

namespace e2e {

using NamedSpecs = std::vector<std::pair<std::string, qmap::MappingSpec>>;

/// The six synthetic sources of bench/bench_service.cc.
NamedSpecs ServiceSources();
/// The two hops of the chain source registered with AddChain.
std::vector<qmap::MappingSpec> ChainHops();
inline constexpr const char* kChainName = "C0";
/// The four-source catalog of examples/federation_worker.cc.
NamedSpecs WorkerSources();

struct InProcessConfig {
  size_t cache_capacity = 1024;
  std::string store_path;  // empty = no persistent store
  /// Register every source behind a TracedTransport (traced runs only).
  bool traced = false;
};

struct WireConfig {
  bool traced = false;
};

/// One built system. Members are declared so that the service clients call
/// is destroyed first and the registries last.
struct System {
  std::unique_ptr<qmap::MetricsRegistry> worker_registry;
  std::shared_ptr<qmap::TranslationService> worker;  // wire topology only
  std::unique_ptr<qmap::QmapServer> server;          // wire topology only
  std::shared_ptr<qmap::WireClient> client;          // wire topology only
  std::unique_ptr<qmap::MetricsRegistry> registry;
  std::unique_ptr<qmap::TranslationService> service;  // what clients call
  double compose_ms = 0;  // wall time of AddChain (0 without a chain)
};

/// ServiceSources() plus the chain, in one service with a 4-thread pool.
qmap::Result<std::unique_ptr<System>> BuildInProcess(const InProcessConfig& config);

/// A loopback QmapServer worker serving WorkerSources() (configured as
/// examples/federation_worker.cc, except for a cache large enough to keep a
/// 512-query hot set resident) behind a cache-less front-end that
/// discovers the worker's catalog over the wire and scatters through
/// RemoteTransports (configured as examples/federation_frontend.cc).
qmap::Result<std::unique_ptr<System>> BuildWire(const WireConfig& config);

/// The oracle: a fresh single-threaded, uncached service over `sources`
/// (plus the chain when `with_chain`), with no observability attached.
qmap::Result<std::unique_ptr<qmap::TranslationService>> BuildOracle(
    const NamedSpecs& sources, bool with_chain);

/// A byte-exact rendering of an answer: every S_i(Q) with its filter, the
/// merged residue filter F, and the partial-result summary.
std::string Render(const qmap::MediatorTranslation& translation);

}  // namespace e2e

#endif  // QMAP_E2EBENCH_FEDERATION_H_

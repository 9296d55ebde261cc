#ifndef QMAP_SERVICE_FAULT_INJECTION_H_
#define QMAP_SERVICE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <random>
#include <string>

#include "qmap/common/status.h"

namespace qmap {

/// What an injected fault does to one guarded source call.
enum class FaultKind {
  kNone,     // no fault: the real call runs untouched
  kFail,     // the call fails with `status` without running
  kStall,    // the call is delayed by `stall_us` (on the resilience clock),
             // then runs — the "late source" scenario; with a deadline in
             // force the stall usually converts into kDeadlineExceeded
  kDegrade,  // the call runs, but its translation is widened (safely
             // subsuming) and its exact coverage is dropped — the "source
             // answering in degraded mode" scenario of docs/ROBUSTNESS.md
};

/// One injected fault, as handed to the guarded call site.
struct Fault {
  FaultKind kind = FaultKind::kNone;
  Status status;             // kFail only
  uint64_t stall_us = 0;     // kStall only
  uint32_t degrade_level = 1;  // kDegrade only: conjuncts dropped (see
                               // DegradeTranslation in resilience.h)
};

/// A deterministic, seeded fault injector keyed by source name (or any other
/// string key the call site chooses, e.g. "<member>.convert" for the
/// federation's data-conversion calls).
///
/// Two layers, consulted in order on every Next(key):
///   1. scripted faults — an explicit FIFO of faults for the key, consumed
///      one per call (FailNext / StallNext / DegradeNext). This is the
///      deterministic test mode: "the next 2 calls against S1 fail".
///   2. probabilistic rates — per-key fail/stall/degrade probabilities
///      drawn from a per-key RNG seeded with seed ^ fnv64(key), so the
///      decision sequence for one key is reproducible regardless of how
///      calls against *other* keys interleave.
///
/// Thread-safe; Next() takes a short mutex. A default-constructed injector
/// with no faults configured always returns kNone.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  /// Scripts the next `count` calls against `key` to fail with `status`
  /// (default: a retryable Unavailable).
  void FailNext(const std::string& key, int count,
                Status status = Status::Unavailable("injected fault"));
  /// Scripts the next `count` calls against `key` to stall for `stall_us`
  /// of resilience-clock time before running.
  void StallNext(const std::string& key, int count, uint64_t stall_us);
  /// Scripts the next `count` calls against `key` to answer degraded.
  void DegradeNext(const std::string& key, int count, uint32_t level = 1);

  /// Probabilistic faults for `key`, applied after scripted faults run out.
  /// Probabilities are evaluated in order fail → stall; at most one fires
  /// per call.
  void SetFailRate(const std::string& key, double probability,
                   Status status = Status::Unavailable("injected fault"));
  void SetStallRate(const std::string& key, double probability,
                    uint64_t stall_us);

  /// The fault (possibly kNone) for the next call against `key`.
  Fault Next(const std::string& key);

  /// Calls to Next() so far, and how many returned a real fault.
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t faults_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  /// Drops all scripted faults and rates (counters and seed are kept, and
  /// per-key RNG streams restart from the seed).
  void Reset();

 private:
  struct Rates {
    double fail = 0.0;
    double stall = 0.0;
    Status fail_status;
    uint64_t stall_us = 0;
  };
  struct PerKey {
    std::deque<Fault> scripted;
    Rates rates;
    std::mt19937_64 rng;
  };

  PerKey& KeyStateLocked(const std::string& key);

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::string, PerKey> keys_;  // guarded by mu_
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> injected_{0};
};

}  // namespace qmap

#endif  // QMAP_SERVICE_FAULT_INJECTION_H_

#include "qmap/service/fault_injection.h"

#include <utility>

#include "qmap/common/fnv.h"

namespace qmap {

FaultInjector::PerKey& FaultInjector::KeyStateLocked(const std::string& key) {
  auto it = keys_.find(key);
  if (it == keys_.end()) {
    PerKey state;
    // Per-key stream: decisions for one key are reproducible no matter how
    // calls against other keys interleave with it.
    state.rng.seed(seed_ ^ Fnv64Hash(key));
    it = keys_.emplace(key, std::move(state)).first;
  }
  return it->second;
}

void FaultInjector::FailNext(const std::string& key, int count, Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  PerKey& state = KeyStateLocked(key);
  for (int i = 0; i < count; ++i) {
    Fault fault;
    fault.kind = FaultKind::kFail;
    fault.status = status;
    state.scripted.push_back(std::move(fault));
  }
}

void FaultInjector::StallNext(const std::string& key, int count,
                              uint64_t stall_us) {
  std::lock_guard<std::mutex> lock(mu_);
  PerKey& state = KeyStateLocked(key);
  for (int i = 0; i < count; ++i) {
    Fault fault;
    fault.kind = FaultKind::kStall;
    fault.stall_us = stall_us;
    state.scripted.push_back(std::move(fault));
  }
}

void FaultInjector::DegradeNext(const std::string& key, int count,
                                uint32_t level) {
  std::lock_guard<std::mutex> lock(mu_);
  PerKey& state = KeyStateLocked(key);
  for (int i = 0; i < count; ++i) {
    Fault fault;
    fault.kind = FaultKind::kDegrade;
    fault.degrade_level = level;
    state.scripted.push_back(std::move(fault));
  }
}

void FaultInjector::SetFailRate(const std::string& key, double probability,
                                Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  Rates& rates = KeyStateLocked(key).rates;
  rates.fail = probability;
  rates.fail_status = std::move(status);
}

void FaultInjector::SetStallRate(const std::string& key, double probability,
                                 uint64_t stall_us) {
  std::lock_guard<std::mutex> lock(mu_);
  Rates& rates = KeyStateLocked(key).rates;
  rates.stall = probability;
  rates.stall_us = stall_us;
}

Fault FaultInjector::Next(const std::string& key) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return Fault{};
  PerKey& state = it->second;
  if (!state.scripted.empty()) {
    Fault fault = std::move(state.scripted.front());
    state.scripted.pop_front();
    injected_.fetch_add(1, std::memory_order_relaxed);
    return fault;
  }
  const Rates& rates = state.rates;
  if (rates.fail <= 0.0 && rates.stall <= 0.0) {
    return Fault{};
  }
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  Fault fault;
  if (rates.fail > 0.0 && coin(state.rng) < rates.fail) {
    fault.kind = FaultKind::kFail;
    fault.status = rates.fail_status;
  } else if (rates.stall > 0.0 && coin(state.rng) < rates.stall) {
    fault.kind = FaultKind::kStall;
    fault.stall_us = rates.stall_us;
  }
  if (fault.kind != FaultKind::kNone) {
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  return fault;
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  keys_.clear();
}

}  // namespace qmap

#include "qmap/rules/matcher.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "qmap/rules/compiled_matcher.h"

namespace qmap {
namespace {

MatchEngine& EngineFlag() {
  static MatchEngine engine = MatchEngineFromEnv();
  return engine;
}

uint64_t HashIndices(const std::vector<int>& indices) {
  uint64_t h = 1469598103934665603ull;
  for (int i : indices) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(i));
    h *= 1099511628211ull;
  }
  return h;
}

// Deduplicates one rule's matchings by (sorted constraint indices, bindings)
// without rendering either to a string: candidates hash to a bucket and are
// compared structurally against the matchings already emitted. The matcher
// used to build a Matching::ToString() key per found matching and dedup
// through a std::set<std::string>; this keeps the same first-wins semantics
// with integer/term comparisons only.
class MatchingDedup {
 public:
  explicit MatchingDedup(const std::vector<Matching>* out) : out_(out) {}

  /// True when (indices, bindings) is new; records it as owning the next
  /// slot of *out_ (the caller must then push exactly one matching).
  bool Insert(const std::vector<int>& indices, const Bindings& bindings) {
    const uint64_t h = HashIndices(indices) ^ bindings.Hash();
    std::vector<size_t>& slot = seen_[h];
    for (size_t idx : slot) {
      const Matching& m = (*out_)[idx];
      if (m.constraint_indices == indices && m.bindings.SameAs(bindings)) {
        return false;
      }
    }
    slot.push_back(out_->size());
    return true;
  }

 private:
  const std::vector<Matching>* out_;
  std::unordered_map<uint64_t, std::vector<size_t>> seen_;
};

Matching MakeMatching(const Rule& rule, std::vector<int> sorted_indices,
                      const Bindings& bindings) {
  Matching m;
  m.constraint_indices = std::move(sorted_indices);
  m.bindings = bindings;
  m.rule = &rule;
  m.rule_name = rule.name;
  m.rule_exact = rule.exact;
  return m;
}

// Recursively assigns constraints to head patterns. `used` holds the
// constraint indices already taken by earlier patterns; a matching uses
// pairwise-distinct constraints. This is the naive reference path: every
// pattern position tries every remaining constraint, on a scratch copy of
// the bindings per attempt.
void MatchHead(const Rule& rule, const std::vector<Constraint>& constraints,
               const FunctionRegistry& registry, size_t pattern_index,
               std::vector<int>* used, const Bindings& bindings,
               MatchCounters* counters, MatchingDedup* dedup,
               std::vector<Matching>* out) {
  if (pattern_index == rule.head.size()) {
    if (!rule.ConditionsHold(bindings, registry)) return;
    std::vector<int> sorted = *used;
    std::sort(sorted.begin(), sorted.end());
    if (!dedup->Insert(sorted, bindings)) return;
    if (counters != nullptr) ++counters->matchings_found;
    out->push_back(MakeMatching(rule, std::move(sorted), bindings));
    return;
  }
  const ConstraintPattern& pattern = rule.head[pattern_index];
  for (int i = 0; i < static_cast<int>(constraints.size()); ++i) {
    if (std::find(used->begin(), used->end(), i) != used->end()) continue;
    if (counters != nullptr) ++counters->pattern_attempts;
    Bindings extended = bindings;
    if (!pattern.Match(constraints[i], &extended)) continue;
    used->push_back(i);
    MatchHead(rule, constraints, registry, pattern_index + 1, used, extended,
              counters, dedup, out);
    used->pop_back();
  }
}

}  // namespace

const char* MatchEngineName(MatchEngine engine) {
  switch (engine) {
    case MatchEngine::kNaive:
      return "naive";
    case MatchEngine::kCompiled:
      return "compiled";
  }
  return "unknown";
}

MatchEngine MatchEngineFromEnv() {
  const char* v = std::getenv("QMAP_MATCH_ENGINE");
  // Everything but "naive" — "compiled", unrecognized values (including ""
  // and the retired "indexed"), or no variable at all — is the default.
  return v != nullptr && std::strcmp(v, "naive") == 0 ? MatchEngine::kNaive
                                                      : MatchEngine::kCompiled;
}

MatchEngine CurrentMatchEngine() { return EngineFlag(); }

void SetMatchEngine(MatchEngine engine) { EngineFlag() = engine; }

bool Matching::IsStrictSubsetOf(const Matching& other) const {
  if (constraint_indices.size() >= other.constraint_indices.size()) return false;
  return std::includes(other.constraint_indices.begin(),
                       other.constraint_indices.end(), constraint_indices.begin(),
                       constraint_indices.end());
}

std::string Matching::ToString() const {
  std::string out = !rule_name.empty() ? rule_name : "?";
  out += "{";
  for (size_t i = 0; i < constraint_indices.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(constraint_indices[i]);
  }
  out += "}";
  out += bindings.ToString();
  return out;
}

std::vector<Matching> MatchRule(const Rule& rule,
                                const std::vector<Constraint>& constraints,
                                const FunctionRegistry& registry,
                                MatchCounters* counters) {
  std::vector<Matching> out;
  MatchingDedup dedup(&out);
  std::vector<int> used;
  used.reserve(rule.head.size());
  Bindings empty;
  MatchHead(rule, constraints, registry, 0, &used, empty, counters, &dedup, &out);
  return out;
}

std::vector<Matching> MatchSpecNaive(const MappingSpec& spec,
                                     const std::vector<Constraint>& constraints,
                                     MatchCounters* counters) {
  std::vector<Matching> out;
  out.reserve(spec.rules().size());
  for (const Rule& rule : spec.rules()) {
    MatchingDedup dedup(&out);
    std::vector<int> used;
    used.reserve(rule.head.size());
    Bindings empty;
    MatchHead(rule, constraints, spec.registry(), 0, &used, empty, counters,
              &dedup, &out);
  }
  return out;
}

std::vector<Matching> MatchSpec(const MappingSpec& spec,
                                const std::vector<Constraint>& constraints,
                                MatchCounters* counters) {
  if (CurrentMatchEngine() == MatchEngine::kNaive) {
    return MatchSpecNaive(spec, constraints, counters);
  }
  return MatchSpecCompiled(spec, constraints, counters);
}

}  // namespace qmap

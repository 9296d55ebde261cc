#ifndef QMAP_RULES_CONTAINMENT_H_
#define QMAP_RULES_CONTAINMENT_H_

#include <string>
#include <vector>

#include "qmap/rules/spec.h"

namespace qmap {

/// Result of the conservative containment test. There is deliberately no
/// "does not contain" verdict: the check is *sound but incomplete* (in the
/// sense of arXiv 1312.5912, where mapping containment is undecidable in
/// general and even restricted fragments are expensive), so every answer it
/// cannot prove collapses to kUnknown. Callers must treat kUnknown exactly
/// like "not contained" — i.e. never prune on it.
enum class ContainmentVerdict {
  kContains,  // proven: every query A translates, B translates the same way
  kUnknown,   // could not prove containment — do NOT prune
};

/// Conservative syntactic containment check: returns kContains only when
/// every rule of `b` is structurally isomorphic — up to a bijective variable
/// renaming and head-pattern reordering — to some rule of `a`. Under that
/// condition any matching a translator finds against `b`'s rules exists
/// against `a`'s rules with the same emission, so a's translation of any
/// query subsumes b's (A offers at least the mappings B offers).
///
/// What intentionally does NOT count as containment here:
///   * operator widening (`=` head pattern vs `<=` head pattern) — semantic
///     containment may hold but proving it needs theory reasoning;
///   * wildcard/variable-literal overlap (`[A = V]` vs `[ln = V]`) — the
///     variable pattern matches a superset of constraints but may emit
///     structurally different queries;
///   * condition-set weakening (fewer conditions on the a-side rule).
/// All of these return kUnknown; tests/containment_test.cc pins them.
///
/// Function names are treated as globally meaningful (the same convention
/// the translation-cache rule_set fingerprint uses: rule *text* identifies
/// behaviour), so two specs built from separately constructed but
/// identically named registries compare fine.
ContainmentVerdict Contains(const MappingSpec& a, const MappingSpec& b);

/// One pruned source in a containment analysis.
struct PrunedSource {
  std::string name;         // the source whose mapping is subsumed
  std::string subsumed_by;  // the surviving source that proves it
};

/// Result of analysing a set of named specs for redundancy.
struct ContainmentAnalysis {
  std::vector<PrunedSource> pruned;
  // Number of pairwise Contains() calls performed (metrics feed).
  uint64_t checks = 0;
};

/// Finds sources whose mapping is provably contained in another source's
/// mapping. Deterministic: candidates are scanned in the order given (the
/// service passes its sorted catalog), equivalence classes keep the
/// first-listed member, and strict containment keeps the maximal spec.
/// `names[i]` labels `specs[i]`; both vectors must be the same length.
ContainmentAnalysis AnalyzeContainment(
    const std::vector<std::string>& names,
    const std::vector<const MappingSpec*>& specs);

}  // namespace qmap

#endif  // QMAP_RULES_CONTAINMENT_H_

#ifndef QMAP_EXPR_INTERN_H_
#define QMAP_EXPR_INTERN_H_

#include <cstdint>

namespace qmap {

class MetricsRegistry;

/// Controls and introspection for the hash-consed query IR (DESIGN.md §9).
///
/// When interning is enabled (the default), Query::True/Leaf/And/Or and the
/// constraint interner canonicalize every node at construction against a
/// process-wide table: one shared node per distinct live subtree, so pointer
/// equality coincides with structural equality among live nodes and every
/// node carries a precomputed 64-bit fingerprint. Each table is a fixed set
/// of mutex-guarded shards picked by fingerprint, holding weak entries: the
/// table keeps nothing alive, and an interned node or constraint erases its
/// own entry when its last handle goes, so the tables hold only what the
/// process still references. Entries are verified exactly on
/// fingerprint-bucket hits, so interning itself is collision-proof.
///
/// SetQueryInternEnabled(false) constructs plain un-interned nodes instead;
/// intern_equiv_test uses that as its byte-identity reference. Production
/// keeps interning on: without it the end-to-end benchmark's peak RSS grows
/// by half or more. Fingerprints are computed either way; only sharing and
/// the pointer-equality guarantee are affected. The toggle is not
/// thread-safe against concurrent query construction.

/// Statistics of the process-wide intern tables. Hits, misses and `*_nodes`
/// are cumulative; `*_live` is the current table size.
struct InternStats {
  uint64_t query_hits = 0;        // constructions resolved to an existing node
  uint64_t query_misses = 0;      // constructions that inserted a new node
  uint64_t query_nodes = 0;       // distinct nodes ever inserted
  uint64_t query_live = 0;        // nodes currently in the table
  uint64_t constraint_hits = 0;   // leaf constraints resolved to existing
  uint64_t constraint_misses = 0; // leaf constraints newly interned
  uint64_t constraint_nodes = 0;  // distinct constraints ever inserted
  uint64_t constraint_live = 0;   // constraints currently in the table
};

InternStats QueryInternStats();

/// Turns interning off or back on (the equivalence tests' reference). Not
/// thread-safe against concurrent query construction.
void SetQueryInternEnabled(bool enabled);
bool QueryInternEnabled();

/// Bridges intern-table activity into `registry` as monotonic counters:
///   qmap_intern_query_hits_total / qmap_intern_query_nodes_total
///   qmap_intern_constraint_hits_total / qmap_intern_constraint_nodes_total
/// (the live sizes are gauges that TranslationService sets at scrape time).
/// Current totals are backfilled at attach time, so attaching after warm-up
/// still reports lifetime values. Pass nullptr to detach. The registry must
/// outlive all query construction (or a subsequent AttachInternMetrics).
void AttachInternMetrics(MetricsRegistry* registry);

/// Detaches intern metrics only if `registry` is the currently attached one.
/// Owners of short-lived registries (TranslationService) call this on
/// destruction so the global bridge never dangles into a freed registry,
/// without clobbering a newer attachment.
void DetachInternMetricsIf(MetricsRegistry* registry);

}  // namespace qmap

#endif  // QMAP_EXPR_INTERN_H_

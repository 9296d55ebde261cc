#ifndef QMAP_RULES_COMPILED_MATCHER_H_
#define QMAP_RULES_COMPILED_MATCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qmap/rules/matcher.h"
#include "qmap/rules/rule_program.h"

namespace qmap {

/// A bound term by reference. Everything the compiled matcher can bind
/// already lives somewhere stable for the duration of a run — the
/// conjunction's constraints (whole attrs, rhs values, attr names), the
/// plan's pools, or the scratch's view-ref pool — or is a plain integer, so
/// a binding is a 16-byte store. No Value/Attr (i.e. no std::string) is
/// constructed until a matching is materialized or a condition rule needs
/// real Bindings.
struct TermRef {
  enum class Kind : uint8_t { kAttr, kValue, kInt, kStr };

  Kind kind;
  union {
    const Attr* attr;        // kAttr
    const Value* value;      // kValue
    int64_t i;               // kInt — stands for Value::Int(i)
    const std::string* str;  // kStr — stands for Value::Str(*str)
  };

  static TermRef OfAttr(const Attr& a) {
    TermRef r;
    r.kind = Kind::kAttr;
    r.attr = &a;
    return r;
  }
  static TermRef OfValue(const Value& v) {
    TermRef r;
    r.kind = Kind::kValue;
    r.value = &v;
    return r;
  }
  static TermRef OfInt(int64_t v) {
    TermRef r;
    r.kind = Kind::kInt;
    r.i = v;
    return r;
  }
  static TermRef OfStr(const std::string& s) {
    TermRef r;
    r.kind = Kind::kStr;
    r.str = &s;
    return r;
  }
};

/// Materializes the owning Term a ref stands for (copies — off the match
/// hot path, used only for condition rules and final Matching output).
Term MaterializeTermRef(const TermRef& ref);

/// Equivalent to TermEquals(MaterializeTermRef(a), MaterializeTermRef(b))
/// without constructing either Term; preserves numeric cross-kind equality
/// (Int(3) == Real(3.0)) by comparing through double exactly as
/// Value::Equals does.
bool TermRefEquals(const TermRef& a, const TermRef& b);

/// Flat variable environment for the compiled matcher: an undo-log *and*
/// store in one. Slots are (plan var id, TermRef) pairs in bind order;
/// lookups are linear scans (environments hold a handful of variables),
/// Mark / RollbackTo are size / resize. Unlike Bindings (a std::map keyed
/// by variable name) a bind allocates nothing and copies no strings.
///
/// BindOrCheck semantics mirror Bindings::BindOrCheck exactly: first bind
/// wins, a re-bind succeeds iff TermEquals holds on the materialized terms.
class BindingArena {
 public:
  struct Slot {
    int32_t var;
    TermRef ref;
  };

  size_t Mark() const { return slots_.size(); }
  void RollbackTo(size_t mark) { slots_.resize(mark); }
  void Clear() { slots_.clear(); }
  const std::vector<Slot>& slots() const { return slots_; }

  const TermRef* Find(int32_t var) const {
    for (const Slot& s : slots_) {
      if (s.var == var) return &s.ref;
    }
    return nullptr;
  }

  /// Unchecked bind — the caller has already established var is unbound.
  void Bind(int32_t var, const TermRef& ref) {
    slots_.push_back(Slot{var, ref});
  }

  bool BindOrCheck(int32_t var, const TermRef& ref) {
    if (const TermRef* bound = Find(var)) return TermRefEquals(*bound, ref);
    slots_.push_back(Slot{var, ref});
    return true;
  }

 private:
  std::vector<Slot> slots_;
};

/// One deduplicated matching in flat form: spans into the scratch's
/// out_indices / out_bindings pools plus a per-rule chain link (grouped,
/// in-discovery-order emission without any per-rule containers).
struct FlatMatching {
  int32_t rule = 0;
  int32_t idx_begin = 0;
  int32_t idx_count = 0;
  int32_t bind_begin = 0;
  int32_t bind_count = 0;
  int32_t next = -1;
  /// Hash of (rule, sorted constraint indices); set when the matching sits
  /// in the scratch's dedup table (its accept is not dedup-free).
  uint64_t key = 0;
  bool in_dedup = false;
};

/// All mutable state of one compiled-matcher run. Every container keeps its
/// capacity across runs, so a reused scratch (MatchSpecCompiled holds one
/// per thread) makes the steady-state match loop allocation-free — the
/// property bench_matching pins via allocs_per_iter.
class CompiledMatchScratch {
 public:
  /// Sizes/clears every buffer for a (plan, conjunction) pair and builds
  /// the per-conjunction candidate buckets (counting sort; each bucket lists
  /// constraint indices ascending, preserving the naive trial order).
  void Prepare(const CompiledRulePlan& plan,
               const std::vector<Constraint>& constraints);

  // Candidate buckets, per plan slot.
  std::vector<int32_t> bucket_begin;
  std::vector<int32_t> bucket_size;
  std::vector<int32_t> candidates;

  // DFS state.
  std::vector<uint8_t> used_mask;
  std::vector<int32_t> used;
  BindingArena bindings;

  /// Stable backing store for view-ref strings ("fac", "fac[2]") bound
  /// during the current run; TermRefs point at pool entries. PeekViewRef
  /// hands out the entry at the cursor for in-place formatting; the caller
  /// commits it only when the bind actually sticks. The cursor rewinds only
  /// in Prepare (never mid-run, so committed refs stay valid across DFS
  /// backtracking) and entries are reused in place across runs, making
  /// steady-state view-ref binds allocation-free.
  std::string* PeekViewRef() {
    if (viewref_used_ == viewref_pool_.size()) {
      viewref_pool_.push_back(std::make_unique<std::string>());
    }
    return viewref_pool_[viewref_used_].get();
  }
  void CommitViewRef() { ++viewref_used_; }

  // Accumulated results (flat; spans index into the pools).
  std::vector<FlatMatching> matchings;
  std::vector<int32_t> out_indices;
  std::vector<BindingArena::Slot> out_bindings;
  std::vector<int32_t> rule_head;  // first matching of each rule, -1 if none
  std::vector<int32_t> rule_tail;
  std::vector<int32_t> sorted;  // per-accept index sort scratch

  /// Dedup index over the matchings whose head can assign one constraint
  /// set in several orders: open-addressed slots of matching ids keyed by
  /// FlatMatching::key, so an accept compares only against matchings of
  /// the same rule and constraint set (a per-rule chain walk is quadratic
  /// in the matchings of an ambiguous head). A slot is live only while its
  /// stamp equals dedup_stamp, which Prepare advances: nothing is cleared
  /// per run, and capacity is kept across runs.
  std::vector<int32_t> dedup_ids;
  std::vector<uint32_t> dedup_stamps;
  uint32_t dedup_stamp = 0;
  size_t dedup_live = 0;
  /// Makes room for one more dedup entry, rehashing the live ones when the
  /// table would pass half full.
  void ReserveDedupSlot();

 private:
  std::vector<int32_t> fill_cursor_;
  std::vector<int32_t> lit_slot_;  // per-constraint literal slot cache
  std::vector<std::unique_ptr<std::string>> viewref_pool_;
  size_t viewref_used_ = 0;
};

/// Runs the compiled engine for one conjunction into `scratch` without
/// materializing Matching objects; results are scratch->matchings (per-rule
/// chains from scratch->rule_head). Returns the number of deduplicated
/// matchings. `plan` must be (equivalent to) spec.compiled_plan(). The
/// recorded bindings are TermRefs into `constraints`, `plan` and the
/// scratch's own pools: read them before the next Prepare on this scratch
/// and while both referents are alive.
size_t RunCompiled(const CompiledRulePlan& plan, const MappingSpec& spec,
                   const std::vector<Constraint>& constraints,
                   CompiledMatchScratch* scratch,
                   MatchCounters* counters = nullptr);

/// The compiled counterpart of MatchSpec/MatchSpecNaive: byte-identical
/// matchings in byte-identical order (grouped per rule, rule order;
/// per-rule discovery order), materialized from a thread-local scratch.
std::vector<Matching> MatchSpecCompiled(const MappingSpec& spec,
                                        const std::vector<Constraint>& constraints,
                                        MatchCounters* counters = nullptr);

}  // namespace qmap

#endif  // QMAP_RULES_COMPILED_MATCHER_H_

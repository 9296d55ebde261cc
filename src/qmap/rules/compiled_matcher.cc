#include "qmap/rules/compiled_matcher.h"

#include <algorithm>
#include <memory>

#include "qmap/rules/spec.h"

namespace qmap {
namespace {

// Mirrors ViewRefString in pattern.cc ("fac" or "fac[2]") but appends into a
// reused buffer; any drift from the interpreter's format would break the
// byte-identical-output invariant tests/compiled_matcher_test.cc enforces.
void AssignViewRef(const std::string& view, int instance, std::string* buf) {
  buf->assign(view);
  if (instance != 0) {
    buf->push_back('[');
    buf->append(std::to_string(instance));
    buf->push_back(']');
  }
}

struct RunCtx {
  const CompiledRulePlan* plan = nullptr;
  const std::vector<Rule>* rules = nullptr;
  const FunctionRegistry* registry = nullptr;
  const std::vector<Constraint>* constraints = nullptr;
  CompiledMatchScratch* scratch = nullptr;
  MatchCounters* counters = nullptr;
  size_t found = 0;
};

// Executes one compiled pattern program against one constraint, extending
// the binding arena (the caller rolls back on failure). Instruction
// semantics replicate ConstraintPattern::Match minus the checks the
// candidate bucket already guarantees (operator; attr name for literal
// buckets).
bool ExecPattern(RunCtx& ctx, const PlanPattern& pat, const Constraint& c) {
  const CompiledRulePlan& plan = *ctx.plan;
  BindingArena& arena = ctx.scratch->bindings;
  const Attr* rhs_attr = nullptr;  // set by kRhsIsAttr
  const int32_t end = pat.first_instr + pat.num_instrs;
  for (int32_t ip = pat.first_instr; ip < end; ++ip) {
    const PatternInstr& instr = plan.instrs[static_cast<size_t>(ip)];
    const Attr* target = instr.on_rhs ? rhs_attr : &c.lhs;
    using K = PatternInstr::Kind;
    switch (instr.kind) {
      case K::kBindWholeAttr:
        if (!arena.BindOrCheck(instr.arg, TermRef::OfAttr(*target))) {
          return false;
        }
        break;
      case K::kCheckView:
        if (target->view != plan.strings[static_cast<size_t>(instr.arg)]) {
          return false;
        }
        break;
      case K::kBindViewRef: {
        // Format into the pool's next entry in place; consume the entry only
        // if the bind sticks (a mere re-bind check leaves it for reuse).
        std::string* buf = ctx.scratch->PeekViewRef();
        AssignViewRef(target->view, target->instance, buf);
        if (const TermRef* bound = arena.Find(instr.arg)) {
          if (!TermRefEquals(*bound, TermRef::OfStr(*buf))) return false;
        } else {
          arena.Bind(instr.arg, TermRef::OfStr(*buf));
          ctx.scratch->CommitViewRef();
        }
        break;
      }
      case K::kCheckIndex:
        if (target->instance != instr.arg) return false;
        break;
      case K::kBindIndex:
        if (!arena.BindOrCheck(instr.arg, TermRef::OfInt(target->instance))) {
          return false;
        }
        break;
      case K::kCheckName:
        if (target->name != plan.strings[static_cast<size_t>(instr.arg)]) {
          return false;
        }
        break;
      case K::kBindName:
        if (!arena.BindOrCheck(instr.arg, TermRef::OfStr(target->name))) {
          return false;
        }
        break;
      case K::kRhsIsAttr:
        if (!std::holds_alternative<Attr>(c.rhs)) return false;
        rhs_attr = &std::get<Attr>(c.rhs);
        break;
      case K::kCheckRhsValue:
        if (!std::holds_alternative<Value>(c.rhs) ||
            !std::get<Value>(c.rhs).Equals(
                plan.values[static_cast<size_t>(instr.arg)])) {
          return false;
        }
        break;
      case K::kBindRhsTerm: {
        const bool ok =
            std::holds_alternative<Value>(c.rhs)
                ? arena.BindOrCheck(instr.arg,
                                    TermRef::OfValue(std::get<Value>(c.rhs)))
                : arena.BindOrCheck(instr.arg,
                                    TermRef::OfAttr(std::get<Attr>(c.rhs)));
        if (!ok) return false;
        break;
      }
    }
  }
  return true;
}

// Structural equality of the accept candidate (sorted indices + current
// arena) against an already-recorded flat matching of the same rule — the
// same (constraint set, bindings) relation MatchingDedup uses. One rule has
// one trie path, so two matchings of a rule bind variables in the same
// order and the aligned compare is the whole story; the order-insensitive
// fallback keeps the relation equal to map-equality even if that ever
// stopped holding.
bool SameMatching(const RunCtx& ctx, const FlatMatching& m) {
  const CompiledMatchScratch& s = *ctx.scratch;
  if (m.idx_count != static_cast<int32_t>(s.sorted.size())) return false;
  for (int32_t i = 0; i < m.idx_count; ++i) {
    if (s.out_indices[static_cast<size_t>(m.idx_begin + i)] !=
        s.sorted[static_cast<size_t>(i)]) {
      return false;
    }
  }
  const std::vector<BindingArena::Slot>& cur = s.bindings.slots();
  if (m.bind_count != static_cast<int32_t>(cur.size())) return false;
  bool aligned = true;
  for (int32_t i = 0; i < m.bind_count; ++i) {
    const BindingArena::Slot& a = s.out_bindings[static_cast<size_t>(m.bind_begin + i)];
    const BindingArena::Slot& b = cur[static_cast<size_t>(i)];
    if (a.var != b.var) {
      aligned = false;
      break;
    }
    if (!TermRefEquals(a.ref, b.ref)) return false;
  }
  if (aligned) return true;
  for (int32_t i = 0; i < m.bind_count; ++i) {
    const BindingArena::Slot& a = s.out_bindings[static_cast<size_t>(m.bind_begin + i)];
    bool found = false;
    for (const BindingArena::Slot& b : cur) {
      if (b.var == a.var) {
        if (!TermRefEquals(a.ref, b.ref)) return false;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

uint64_t DedupKey(int32_t rule, const std::vector<int32_t>& sorted) {
  uint64_t h = 0xcbf29ce484222325ull ^ static_cast<uint32_t>(rule);
  for (int32_t i : sorted) {
    h = (h ^ static_cast<uint32_t>(i)) * 0x100000001b3ull;
  }
  return h ^ (h >> 31);
}

void Accept(RunCtx& ctx, const PlanAccept& accept) {
  CompiledMatchScratch& s = *ctx.scratch;
  const Rule& rule = (*ctx.rules)[static_cast<size_t>(accept.rule)];
  if (accept.has_conditions) {
    // Condition rules drop to the interpreter's Bindings (user condition
    // functions consume the map form); the common no-condition rule never
    // touches a std::map.
    Bindings map_bindings;
    for (const BindingArena::Slot& slot : s.bindings.slots()) {
      map_bindings.BindOrCheck(ctx.plan->vars[static_cast<size_t>(slot.var)],
                               MaterializeTermRef(slot.ref));
    }
    if (!rule.ConditionsHold(map_bindings, *ctx.registry)) return;
  }
  // Insertion sort into the scratch buffer: heads hold a handful of
  // constraints, where this beats a std::sort call outright.
  s.sorted.resize(s.used.size());
  for (size_t i = 0; i < s.used.size(); ++i) {
    const int32_t v = s.used[i];
    size_t j = i;
    for (; j > 0 && s.sorted[j - 1] > v; --j) s.sorted[j] = s.sorted[j - 1];
    s.sorted[j] = v;
  }
  FlatMatching m;
  size_t dedup_slot = 0;
  if (!accept.dedup_free) {
    s.ReserveDedupSlot();
    m.key = DedupKey(accept.rule, s.sorted);
    m.in_dedup = true;
    const size_t mask = s.dedup_ids.size() - 1;
    for (dedup_slot = m.key & mask; s.dedup_stamps[dedup_slot] == s.dedup_stamp;
         dedup_slot = (dedup_slot + 1) & mask) {
      const FlatMatching& other =
          s.matchings[static_cast<size_t>(s.dedup_ids[dedup_slot])];
      if (other.key == m.key && other.rule == accept.rule &&
          SameMatching(ctx, other)) {
        return;
      }
    }
  }
  m.rule = accept.rule;
  m.idx_begin = static_cast<int32_t>(s.out_indices.size());
  m.idx_count = static_cast<int32_t>(s.sorted.size());
  s.out_indices.insert(s.out_indices.end(), s.sorted.begin(), s.sorted.end());
  m.bind_begin = static_cast<int32_t>(s.out_bindings.size());
  m.bind_count = static_cast<int32_t>(s.bindings.slots().size());
  s.out_bindings.insert(s.out_bindings.end(), s.bindings.slots().begin(),
                        s.bindings.slots().end());
  const int32_t idx = static_cast<int32_t>(s.matchings.size());
  s.matchings.push_back(m);
  if (m.in_dedup) {
    s.dedup_stamps[dedup_slot] = s.dedup_stamp;
    s.dedup_ids[dedup_slot] = idx;
    ++s.dedup_live;
  }
  int32_t& tail = s.rule_tail[static_cast<size_t>(accept.rule)];
  if (tail == -1) {
    s.rule_head[static_cast<size_t>(accept.rule)] = idx;
  } else {
    s.matchings[static_cast<size_t>(tail)].next = idx;
  }
  tail = idx;
  ++ctx.found;
  if (ctx.counters != nullptr) ++ctx.counters->matchings_found;
}

// DFS over the discrimination DAG. Each child edge enumerates only its
// pattern's candidate bucket (ascending constraint order — the naive trial
// order), sharing the binding arena via mark/rollback; an empty bucket
// prunes the whole subtree, i.e. every rule whose head extends the prefix.
void RunNode(RunCtx& ctx, int32_t node_idx) {
  const CompiledRulePlan& plan = *ctx.plan;
  CompiledMatchScratch& s = *ctx.scratch;
  const PlanNode& node = plan.nodes[static_cast<size_t>(node_idx)];
  for (int32_t a = node.first_accept; a < node.first_accept + node.num_accepts;
       ++a) {
    Accept(ctx, plan.accepts[static_cast<size_t>(a)]);
  }
  const size_t n = ctx.constraints->size();
  const size_t avail = n - s.used.size();  // constant across the child scan
  uint64_t skipped = 0;
  const int32_t child_end = node.first_child + node.num_children;
  for (int32_t ci = node.first_child; ci < child_end; ++ci) {
    // One flat load decides the skip — empty-bucket children (the common
    // case at a wide root) never touch their PlanNode/PlanPattern.
    const int32_t bucket = plan.child_buckets[static_cast<size_t>(ci)];
    const int32_t count = s.bucket_size[static_cast<size_t>(bucket)];
    if (count == 0) {
      ++skipped;
      continue;
    }
    const PlanNode& child = plan.nodes[static_cast<size_t>(ci)];
    const PlanPattern& pat = plan.patterns[static_cast<size_t>(child.pattern)];
    if (ctx.counters != nullptr && pat.literal_bucket) ++ctx.counters->index_hits;
    const int32_t begin = s.bucket_begin[static_cast<size_t>(bucket)];
    // Leaf children fire their accepts inline — no recursion, and no
    // used_mask toggle since nothing deeper consults it.
    const bool leaf = child.num_children == 0;
    uint64_t tried = 0;
    for (int32_t k = 0; k < count; ++k) {
      const int32_t i = s.candidates[static_cast<size_t>(begin + k)];
      if (s.used_mask[static_cast<size_t>(i)] != 0) continue;
      ++tried;
      if (ctx.counters != nullptr) ++ctx.counters->pattern_attempts;
      const size_t mark = s.bindings.Mark();
      if (!ExecPattern(ctx, pat, (*ctx.constraints)[static_cast<size_t>(i)])) {
        s.bindings.RollbackTo(mark);
        continue;
      }
      s.used.push_back(i);
      if (leaf) {
        const int32_t accept_end = child.first_accept + child.num_accepts;
        for (int32_t a = child.first_accept; a < accept_end; ++a) {
          Accept(ctx, plan.accepts[static_cast<size_t>(a)]);
        }
      } else {
        s.used_mask[static_cast<size_t>(i)] = 1;
        RunNode(ctx, ci);
        s.used_mask[static_cast<size_t>(i)] = 0;
      }
      s.used.pop_back();
      s.bindings.RollbackTo(mark);
    }
    if (ctx.counters != nullptr) {
      ctx.counters->pattern_attempts_saved += avail - tried;
    }
  }
  if (ctx.counters != nullptr && skipped != 0) {
    // Lower-bound credit for pruned subtrees: the naive matcher would have
    // swept every unused constraint at each skipped slot (and recursed).
    ctx.counters->pattern_attempts_saved += skipped * avail;
  }
}

}  // namespace

Term MaterializeTermRef(const TermRef& ref) {
  switch (ref.kind) {
    case TermRef::Kind::kAttr:
      return Term(*ref.attr);
    case TermRef::Kind::kValue:
      return Term(*ref.value);
    case TermRef::Kind::kInt:
      return Term(Value::Int(ref.i));
    case TermRef::Kind::kStr:
      return Term(Value::Str(*ref.str));
  }
  return Term();
}

bool TermRefEquals(const TermRef& a, const TermRef& b) {
  using K = TermRef::Kind;
  if (a.kind == K::kAttr || b.kind == K::kAttr) {
    return a.kind == K::kAttr && b.kind == K::kAttr && *a.attr == *b.attr;
  }
  // Both sides are value-like; mirror Value::Equals exactly — numerics
  // compare through double (cross-kind), strings bytewise, kinds never mix.
  switch (a.kind) {
    case K::kValue:
      switch (b.kind) {
        case K::kValue:
          return a.value->Equals(*b.value);
        case K::kInt:
          return a.value->is_numeric() &&
                 a.value->AsDouble() == static_cast<double>(b.i);
        default:  // kStr
          return a.value->kind() == ValueKind::kString &&
                 a.value->AsString() == *b.str;
      }
    case K::kInt:
      switch (b.kind) {
        case K::kValue:
          return b.value->is_numeric() &&
                 static_cast<double>(a.i) == b.value->AsDouble();
        case K::kInt:
          return static_cast<double>(a.i) == static_cast<double>(b.i);
        default:  // kStr — Int never equals String
          return false;
      }
    default:  // kStr
      switch (b.kind) {
        case K::kValue:
          return b.value->kind() == ValueKind::kString &&
                 b.value->AsString() == *a.str;
        case K::kInt:
          return false;
        default:  // kStr
          return *a.str == *b.str;
      }
  }
}

void CompiledMatchScratch::ReserveDedupSlot() {
  if (2 * (dedup_live + 1) <= dedup_ids.size()) return;
  const size_t capacity = std::max<size_t>(64, 2 * dedup_ids.size());
  dedup_ids.assign(capacity, -1);
  dedup_stamps.assign(capacity, 0);
  dedup_stamp = 1;
  const size_t mask = capacity - 1;
  for (size_t mi = 0; mi < matchings.size(); ++mi) {
    if (!matchings[mi].in_dedup) continue;
    size_t slot = matchings[mi].key & mask;
    while (dedup_stamps[slot] == dedup_stamp) slot = (slot + 1) & mask;
    dedup_stamps[slot] = dedup_stamp;
    dedup_ids[slot] = static_cast<int32_t>(mi);
  }
}

void CompiledMatchScratch::Prepare(const CompiledRulePlan& plan,
                                   const std::vector<Constraint>& constraints) {
  const size_t n = constraints.size();
  const size_t slots = static_cast<size_t>(plan.num_slots());
  bucket_size.assign(slots, 0);
  bucket_begin.assign(slots, 0);
  fill_cursor_.assign(slots, 0);
  used_mask.assign(n, 0);
  used.clear();
  used.reserve(plan.max_head_patterns());
  bindings.Clear();
  matchings.clear();
  out_indices.clear();
  out_bindings.clear();
  rule_head.assign(static_cast<size_t>(plan.num_rules()), -1);
  rule_tail.assign(static_cast<size_t>(plan.num_rules()), -1);
  dedup_live = 0;
  if (++dedup_stamp == 0) {  // wrapped: forget every stale stamp
    std::fill(dedup_stamps.begin(), dedup_stamps.end(), 0u);
    dedup_stamp = 1;
  }
  viewref_used_ = 0;

  // Counting sort into per-slot buckets: each constraint lands in its op's
  // wildcard bucket and (when some pattern tests its (op, name)) one literal
  // bucket, resolved once per constraint through the plan-local slot table
  // and cached for the fill pass.
  lit_slot_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Constraint& c = constraints[i];
    ++bucket_size[static_cast<size_t>(plan.WildcardSlot(c.op))];
    const int32_t slot = plan.LiteralSlot(c.op, c.lhs.name);
    lit_slot_[i] = slot;
    if (slot >= 0) ++bucket_size[static_cast<size_t>(slot)];
  }
  int32_t total = 0;
  for (size_t sidx = 0; sidx < slots; ++sidx) {
    bucket_begin[sidx] = total;
    fill_cursor_[sidx] = total;
    total += bucket_size[sidx];
  }
  candidates.resize(static_cast<size_t>(total));
  for (size_t i = 0; i < n; ++i) {
    const Constraint& c = constraints[i];
    candidates[static_cast<size_t>(
        fill_cursor_[static_cast<size_t>(plan.WildcardSlot(c.op))]++)] =
        static_cast<int32_t>(i);
    const int32_t slot = lit_slot_[i];
    if (slot >= 0) {
      candidates[static_cast<size_t>(fill_cursor_[static_cast<size_t>(slot)]++)] =
          static_cast<int32_t>(i);
    }
  }
}

size_t RunCompiled(const CompiledRulePlan& plan, const MappingSpec& spec,
                   const std::vector<Constraint>& constraints,
                   CompiledMatchScratch* scratch, MatchCounters* counters) {
  scratch->Prepare(plan, constraints);
  RunCtx ctx;
  ctx.plan = &plan;
  ctx.rules = &spec.rules();
  ctx.registry = &spec.registry();
  ctx.constraints = &constraints;
  ctx.scratch = scratch;
  ctx.counters = counters;
  if (!plan.nodes.empty()) RunNode(ctx, 0);
  if (counters != nullptr) ++counters->compiled_hits;
  return ctx.found;
}

std::vector<Matching> MatchSpecCompiled(const MappingSpec& spec,
                                        const std::vector<Constraint>& constraints,
                                        MatchCounters* counters) {
  std::shared_ptr<const CompiledRulePlan> plan = spec.compiled_plan();
  thread_local CompiledMatchScratch scratch;
  const size_t found =
      RunCompiled(*plan, spec, constraints, &scratch, counters);

  // Materialize grouped per rule in rule order (each chain preserves
  // discovery order) — the exact shape MatchSpecNaive emits.
  std::vector<Matching> out;
  out.reserve(found);
  const std::vector<Rule>& rules = spec.rules();
  for (int32_t r = 0; r < plan->num_rules(); ++r) {
    for (int32_t mi = scratch.rule_head[static_cast<size_t>(r)]; mi != -1;
         mi = scratch.matchings[static_cast<size_t>(mi)].next) {
      const FlatMatching& fm = scratch.matchings[static_cast<size_t>(mi)];
      Matching m;
      m.constraint_indices.assign(
          scratch.out_indices.begin() + fm.idx_begin,
          scratch.out_indices.begin() + fm.idx_begin + fm.idx_count);
      // Arena slots bind distinct variables, so plain inserts suffice.
      std::map<std::string, Term> vars;
      for (int32_t b = 0; b < fm.bind_count; ++b) {
        const BindingArena::Slot& slot =
            scratch.out_bindings[static_cast<size_t>(fm.bind_begin + b)];
        vars.emplace(plan->vars[static_cast<size_t>(slot.var)],
                     MaterializeTermRef(slot.ref));
      }
      m.bindings = Bindings(std::move(vars));
      const Rule& rule = rules[static_cast<size_t>(r)];
      m.rule = &rule;
      m.rule_name = rule.name;
      m.rule_exact = rule.exact;
      out.push_back(std::move(m));
    }
  }
  return out;
}

}  // namespace qmap

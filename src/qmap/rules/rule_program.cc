#include "qmap/rules/rule_program.h"

#include <atomic>
#include <chrono>
#include <utility>

namespace qmap {
namespace {

// A head pattern's candidate bucket is its operator plus, when the pattern
// names its attribute literally, that name. A pattern whose attribute part
// is a variable (whole attribute, name variable, or bare) takes the per-op
// wildcard bucket: it can match any constraint with the right operator.
// AttrExpr::Match requires attr.name == name_literal whether or not the
// pattern is view-qualified, so the literal is always a sound bucket key;
// view/index parts stay in the pattern's program.
bool HasLiteralName(const ConstraintPattern& p) {
  return !p.lhs.is_whole_var() && !p.lhs.name_literal.empty();
}

std::atomic<uint64_t> g_plans_built{0};
std::atomic<uint64_t> g_compile_ns{0};
std::atomic<uint64_t> g_plan_nodes{0};

// Length-prefixed field append: injective no matter what bytes `s` holds
// (programmatically built rules are not limited to DSL identifiers).
void AppendField(const std::string& s, std::string* key) {
  key->append(std::to_string(s.size()));
  key->push_back(':');
  key->append(s);
}

// Trie node under construction; child edges are (pattern id, tmp index)
// pairs in first-rule-reaches-it order, which keeps compilation (and thus
// the flattened arena) deterministic for a given rule list.
struct TmpNode {
  std::vector<std::pair<int32_t, int32_t>> children;
  std::vector<PlanAccept> accepts;
};

class Compiler {
 public:
  explicit Compiler(const std::vector<Rule>& rules) : rules_(rules) {
    plan_ = std::make_shared<CompiledRulePlan>();
  }

  std::shared_ptr<const CompiledRulePlan> Run() {
    plan_->num_rules_ = static_cast<int32_t>(rules_.size());
    // Pass 1: fix the literal-slot table so WildcardSlot() is final before
    // any pattern program records its bucket. Keys are the name strings
    // themselves (a literal bucket's key is exactly lhs.name_literal), kept
    // plan-local so runtime lookups share no table across plans.
    for (const Rule& rule : rules_) {
      for (const ConstraintPattern& p : rule.head) {
        if (!HasLiteralName(p)) continue;
        auto [it, inserted] = plan_->name_ids_.try_emplace(
            p.lhs.name_literal,
            static_cast<int32_t>(plan_->name_ids_.size()));
        if (inserted) {
          plan_->name_slots_.resize(plan_->name_slots_.size() + kNumOps, -1);
        }
        int32_t& slot =
            plan_->name_slots_[static_cast<size_t>(it->second) * kNumOps +
                               static_cast<size_t>(p.op)];
        if (slot < 0) slot = plan_->num_literal_slots_++;
      }
    }
    // Pass 2: grow the trie, interning structurally identical head patterns
    // into one compiled program (that sharing is what merges prefixes).
    tmp_.emplace_back();
    for (size_t r = 0; r < rules_.size(); ++r) {
      const Rule& rule = rules_[r];
      int32_t cur = 0;
      path_pats_.clear();
      for (const ConstraintPattern& p : rule.head) {
        const int32_t pid = InternPattern(p);
        path_pats_.push_back(pid);
        cur = ChildFor(cur, pid);
      }
      tmp_[static_cast<size_t>(cur)].accepts.push_back(PlanAccept{
          static_cast<int32_t>(r), !rule.conditions.empty(), PathDedupFree()});
      if (rule.head.size() > plan_->max_head_) plan_->max_head_ = rule.head.size();
    }
    // Pass 3: flatten into the contiguous arenas (children of a node form
    // one block; accepts of a node form one block).
    plan_->nodes.reserve(tmp_.size());
    plan_->child_buckets.reserve(tmp_.size());
    plan_->nodes.emplace_back();
    plan_->child_buckets.push_back(-1);
    Flatten(0, 0);
    return plan_;
  }

 private:
  // A duplicate matching requires the same constraint set to be enumerable
  // along the path twice, i.e. some constraint assignable to two different
  // head slots. Every constraint lands in exactly one literal bucket, so a
  // path of all-literal, pairwise-distinct buckets (or a single slot) forces
  // a unique assignment — accepts there can skip the runtime dedup walk.
  bool PathDedupFree() const {
    if (path_pats_.size() <= 1) return true;
    for (size_t i = 0; i < path_pats_.size(); ++i) {
      const PlanPattern& a =
          plan_->patterns[static_cast<size_t>(path_pats_[i])];
      if (!a.literal_bucket) return false;
      for (size_t j = 0; j < i; ++j) {
        if (plan_->patterns[static_cast<size_t>(path_pats_[j])].bucket ==
            a.bucket) {
          return false;
        }
      }
    }
    return true;
  }

  int32_t ChildFor(int32_t node, int32_t pattern_id) {
    TmpNode& tn = tmp_[static_cast<size_t>(node)];
    for (const auto& [pid, child] : tn.children) {
      if (pid == pattern_id) return child;
    }
    int32_t child = static_cast<int32_t>(tmp_.size());
    tn.children.emplace_back(pattern_id, child);
    tmp_.emplace_back();
    return child;
  }

  // Structural identity key of a head pattern. Two patterns with the same
  // key compile to the same program against the same bucket, so merging
  // them is behavior-preserving; the encoding is injective (length-prefixed
  // strings, value literals by exact-representation pool id).
  std::string PatternIdKey(const ConstraintPattern& p) {
    std::string key;
    key.append(std::to_string(static_cast<int>(p.op)));
    key.push_back('|');
    AppendAttrKey(p.lhs, &key);
    key.push_back('|');
    switch (p.rhs.kind) {
      case OperandExpr::Kind::kVar:
        key.push_back('V');
        AppendField(p.rhs.var, &key);
        break;
      case OperandExpr::Kind::kValueLiteral:
        key.push_back('L');
        key.append(std::to_string(InternValue(p.rhs.value_literal)));
        break;
      case OperandExpr::Kind::kAttr:
        key.push_back('A');
        AppendAttrKey(p.rhs.attr, &key);
        break;
    }
    return key;
  }

  void AppendAttrKey(const AttrExpr& a, std::string* key) {
    AppendField(a.whole_var, key);
    AppendField(a.view_literal, key);
    AppendField(a.view_var, key);
    key->append(a.index_literal.has_value() ? std::to_string(*a.index_literal)
                                            : "~");
    key->push_back(';');
    AppendField(a.index_var, key);
    AppendField(a.name_literal, key);
    AppendField(a.name_var, key);
  }

  int32_t InternPattern(const ConstraintPattern& p) {
    std::string key = PatternIdKey(p);
    auto it = pattern_ids_.find(key);
    if (it != pattern_ids_.end()) return it->second;
    int32_t id = static_cast<int32_t>(plan_->patterns.size());
    pattern_ids_.emplace(std::move(key), id);
    plan_->patterns.push_back(CompilePattern(p));
    return id;
  }

  PlanPattern CompilePattern(const ConstraintPattern& p) {
    PlanPattern pat;
    pat.literal_bucket = HasLiteralName(p);
    pat.bucket = pat.literal_bucket
                     ? plan_->LiteralSlot(p.op, p.lhs.name_literal)
                     : plan_->WildcardSlot(p.op);
    pat.first_instr = static_cast<int32_t>(plan_->instrs.size());
    // The bucket guarantees constraint.op == p.op; a literal bucket
    // additionally guarantees attr.name == lhs.name_literal.
    EmitAttr(p.lhs, /*on_rhs=*/false, /*name_guaranteed=*/pat.literal_bucket);
    EmitRhs(p.rhs);
    pat.num_instrs =
        static_cast<int32_t>(plan_->instrs.size()) - pat.first_instr;
    return pat;
  }

  // Mirrors AttrExpr::Match instruction for instruction (same check order,
  // same binding order) so the compiled runtime produces identical binding
  // environments; checks the bucket already proves are elided.
  void EmitAttr(const AttrExpr& a, bool on_rhs, bool name_guaranteed) {
    using K = PatternInstr::Kind;
    if (a.is_whole_var()) {
      Emit(K::kBindWholeAttr, on_rhs, InternVar(a.whole_var));
      return;
    }
    if (!a.has_view()) {
      if (!a.name_literal.empty()) {
        if (!name_guaranteed) Emit(K::kCheckName, on_rhs, InternString(a.name_literal));
      } else if (!a.name_var.empty()) {
        Emit(K::kBindName, on_rhs, InternVar(a.name_var));
      }
      return;
    }
    if (!a.view_literal.empty()) {
      Emit(K::kCheckView, on_rhs, InternString(a.view_literal));
    } else if (!a.view_var.empty()) {
      Emit(K::kBindViewRef, on_rhs, InternVar(a.view_var));
    }
    if (a.index_literal.has_value()) {
      Emit(K::kCheckIndex, on_rhs, *a.index_literal);
    } else if (!a.index_var.empty()) {
      Emit(K::kBindIndex, on_rhs, InternVar(a.index_var));
    } else if (!a.view_literal.empty()) {
      // Unindexed view literal: record the matched instance in the hidden
      // per-view variable, exactly as AttrExpr::Match does.
      Emit(K::kBindIndex, on_rhs, InternVar(ImplicitIndexVarName(a.view_literal)));
    }
    if (!a.name_literal.empty()) {
      if (!name_guaranteed) Emit(K::kCheckName, on_rhs, InternString(a.name_literal));
    } else if (!a.name_var.empty()) {
      Emit(K::kBindName, on_rhs, InternVar(a.name_var));
    }
  }

  void EmitRhs(const OperandExpr& r) {
    using K = PatternInstr::Kind;
    switch (r.kind) {
      case OperandExpr::Kind::kVar:
        Emit(K::kBindRhsTerm, /*on_rhs=*/true, InternVar(r.var));
        break;
      case OperandExpr::Kind::kValueLiteral:
        Emit(K::kCheckRhsValue, /*on_rhs=*/true, InternValue(r.value_literal));
        break;
      case OperandExpr::Kind::kAttr:
        Emit(K::kRhsIsAttr, /*on_rhs=*/true, 0);
        EmitAttr(r.attr, /*on_rhs=*/true, /*name_guaranteed=*/false);
        break;
    }
  }

  void Emit(PatternInstr::Kind kind, bool on_rhs, int32_t arg) {
    plan_->instrs.push_back(PatternInstr{kind, on_rhs, arg});
  }

  int32_t InternVar(const std::string& name) {
    auto [it, inserted] =
        var_ids_.try_emplace(name, static_cast<int32_t>(plan_->vars.size()));
    if (inserted) plan_->vars.push_back(name);
    return it->second;
  }

  int32_t InternString(const std::string& s) {
    auto [it, inserted] = string_ids_.try_emplace(
        s, static_cast<int32_t>(plan_->strings.size()));
    if (inserted) plan_->strings.push_back(s);
    return it->second;
  }

  // Pooled by exact representation (IdenticalTo), so two value literals are
  // merged only when bit-for-bit interchangeable; the pool id doubles as the
  // literal's injective identity in PatternIdKey.
  int32_t InternValue(const Value& v) {
    for (size_t i = 0; i < plan_->values.size(); ++i) {
      if (plan_->values[i].IdenticalTo(v)) return static_cast<int32_t>(i);
    }
    plan_->values.push_back(v);
    return static_cast<int32_t>(plan_->values.size() - 1);
  }

  void Flatten(int32_t tmp_idx, int32_t final_idx) {
    const TmpNode& tn = tmp_[static_cast<size_t>(tmp_idx)];
    const int32_t first_child = static_cast<int32_t>(plan_->nodes.size());
    {
      PlanNode& node = plan_->nodes[static_cast<size_t>(final_idx)];
      node.first_child = first_child;
      node.num_children = static_cast<int32_t>(tn.children.size());
      node.first_accept = static_cast<int32_t>(plan_->accepts.size());
      node.num_accepts = static_cast<int32_t>(tn.accepts.size());
    }
    for (const PlanAccept& a : tn.accepts) plan_->accepts.push_back(a);
    for (const auto& [pid, child_tmp] : tn.children) {
      PlanNode child;
      child.pattern = pid;
      plan_->nodes.push_back(child);
      plan_->child_buckets.push_back(
          plan_->patterns[static_cast<size_t>(pid)].bucket);
    }
    for (size_t i = 0; i < tn.children.size(); ++i) {
      Flatten(tn.children[i].second, first_child + static_cast<int32_t>(i));
    }
  }

  const std::vector<Rule>& rules_;
  std::shared_ptr<CompiledRulePlan> plan_;
  std::vector<TmpNode> tmp_;
  std::vector<int32_t> path_pats_;  // pattern ids of the rule being walked
  std::unordered_map<std::string, int32_t> pattern_ids_;
  std::unordered_map<std::string, int32_t> var_ids_;
  std::unordered_map<std::string, int32_t> string_ids_;
};

}  // namespace

CompiledPlanBuildStats CompiledPlanGlobalStats() {
  CompiledPlanBuildStats stats;
  stats.plans_built = g_plans_built.load(std::memory_order_relaxed);
  stats.compile_ns = g_compile_ns.load(std::memory_order_relaxed);
  stats.plan_nodes = g_plan_nodes.load(std::memory_order_relaxed);
  return stats;
}

std::shared_ptr<const CompiledRulePlan> CompileRulePlan(
    const std::vector<Rule>& rules) {
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const CompiledRulePlan> plan = Compiler(rules).Run();
  const auto t1 = std::chrono::steady_clock::now();
  g_plans_built.fetch_add(1, std::memory_order_relaxed);
  g_compile_ns.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()),
      std::memory_order_relaxed);
  g_plan_nodes.fetch_add(plan->num_nodes(), std::memory_order_relaxed);
  return plan;
}

}  // namespace qmap

#include "qmap/rules/containment.h"

#include <cstdint>
#include <map>
#include <utility>

namespace qmap {
namespace {

// Bijective variable renaming φ: b-variable → a-variable, built up during
// the structural match with checkpoint/rollback (the head permutation and
// condition multiset searches backtrack).
class VarMap {
 public:
  // Binds b_var ↦ a_var; fails if either side is already mapped to a
  // different partner (φ must stay injective both ways).
  bool Bind(const std::string& b_var, const std::string& a_var) {
    for (const auto& [b, a] : pairs_) {
      if (b == b_var) return a == a_var;
      if (a == a_var) return false;
    }
    pairs_.emplace_back(b_var, a_var);
    return true;
  }

  size_t Checkpoint() const { return pairs_.size(); }
  void Rollback(size_t checkpoint) { pairs_.resize(checkpoint); }

 private:
  std::vector<std::pair<std::string, std::string>> pairs_;
};

// Backtracking-step budget per rule pair. The search space is factorial in
// head size in the worst case; real rule heads are tiny, so a generous cap
// only ever fires on adversarial input — and firing just means kUnknown,
// which is always a sound answer.
constexpr uint64_t kMaxSteps = 1u << 16;

struct MatchContext {
  VarMap vars;
  uint64_t steps = 0;
  bool Budget() { return ++steps <= kMaxSteps; }
};

bool MatchAttrExpr(const AttrExpr& a, const AttrExpr& b, MatchContext* ctx) {
  if (a.is_whole_var() != b.is_whole_var()) return false;
  if (a.is_whole_var()) return ctx->vars.Bind(b.whole_var, a.whole_var);
  if (a.view_literal != b.view_literal) return false;
  if (a.view_var.empty() != b.view_var.empty()) return false;
  if (!a.view_var.empty() && !ctx->vars.Bind(b.view_var, a.view_var)) return false;
  if (a.index_literal != b.index_literal) return false;
  if (a.index_var.empty() != b.index_var.empty()) return false;
  if (!a.index_var.empty() && !ctx->vars.Bind(b.index_var, a.index_var)) return false;
  if (a.name_literal != b.name_literal) return false;
  if (a.name_var.empty() != b.name_var.empty()) return false;
  if (!a.name_var.empty() && !ctx->vars.Bind(b.name_var, a.name_var)) return false;
  return true;
}

bool MatchOperandExpr(const OperandExpr& a, const OperandExpr& b, MatchContext* ctx) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case OperandExpr::Kind::kVar:
      return ctx->vars.Bind(b.var, a.var);
    case OperandExpr::Kind::kValueLiteral:
      return a.value_literal.ToString() == b.value_literal.ToString();
    case OperandExpr::Kind::kAttr:
      return MatchAttrExpr(a.attr, b.attr, ctx);
  }
  return false;
}

// Exact op equality — deliberately no widening (`=` pattern vs `<=` pattern
// stays kUnknown even though the `<=` head matches a superset).
bool MatchPattern(const ConstraintPattern& a, const ConstraintPattern& b,
                  MatchContext* ctx) {
  if (a.op != b.op) return false;
  if (!MatchAttrExpr(a.lhs, b.lhs, ctx)) return false;
  return MatchOperandExpr(a.rhs, b.rhs, ctx);
}

bool MatchArgExpr(const ArgExpr& a, const ArgExpr& b, MatchContext* ctx) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ArgExpr::Kind::kVar:
      return ctx->vars.Bind(b.var, a.var);
    case ArgExpr::Kind::kValueLiteral:
      return a.value_literal.ToString() == b.value_literal.ToString();
    case ArgExpr::Kind::kAttr:
      return MatchAttrExpr(a.attr, b.attr, ctx);
  }
  return false;
}

bool MatchCall(const FunctionCall& a, const FunctionCall& b, MatchContext* ctx) {
  if (a.function != b.function) return false;
  if (a.args.size() != b.args.size()) return false;
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!MatchArgExpr(a.args[i], b.args[i], ctx)) return false;
  }
  return true;
}

bool MatchEmission(const EmissionTemplate& a, const EmissionTemplate& b,
                   MatchContext* ctx) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case EmissionTemplate::Kind::kTrue:
      return true;
    case EmissionTemplate::Kind::kLeaf:
      return MatchPattern(a.leaf, b.leaf, ctx);
    case EmissionTemplate::Kind::kAnd:
    case EmissionTemplate::Kind::kOr: {
      // Children compared in order: emission order is part of a rule's
      // canonical rendering, and reordered emissions produce different
      // (if logically equivalent) query trees. Conservative.
      if (a.children.size() != b.children.size()) return false;
      for (size_t i = 0; i < a.children.size(); ++i) {
        if (!MatchEmission(a.children[i], b.children[i], ctx)) return false;
      }
      return true;
    }
  }
  return false;
}

// Matches b's conditions against a's as a multiset (condition order does not
// affect rule semantics), backtracking through the assignment.
bool MatchConditions(const std::vector<FunctionCall>& a,
                     const std::vector<FunctionCall>& b, size_t b_index,
                     std::vector<bool>* used, MatchContext* ctx) {
  if (b_index == b.size()) return true;
  for (size_t i = 0; i < a.size(); ++i) {
    if ((*used)[i]) continue;
    if (!ctx->Budget()) return false;
    size_t checkpoint = ctx->vars.Checkpoint();
    if (MatchCall(a[i], b[b_index], ctx)) {
      (*used)[i] = true;
      if (MatchConditions(a, b, b_index + 1, used, ctx)) return true;
      (*used)[i] = false;
    }
    ctx->vars.Rollback(checkpoint);
  }
  return false;
}

bool MatchTail(const Rule& a, const Rule& b, MatchContext* ctx) {
  if (a.conditions.size() != b.conditions.size()) return false;
  std::vector<bool> used(a.conditions.size(), false);
  size_t checkpoint = ctx->vars.Checkpoint();
  if (!MatchConditions(a.conditions, b.conditions, 0, &used, ctx)) {
    ctx->vars.Rollback(checkpoint);
    return false;
  }
  // Lets run in order and later lets may reference earlier let variables, so
  // they are compared positionally.
  if (a.lets.size() != b.lets.size()) return false;
  for (size_t i = 0; i < a.lets.size(); ++i) {
    if (!ctx->vars.Bind(b.lets[i].var, a.lets[i].var)) return false;
    if (!MatchCall(a.lets[i].call, b.lets[i].call, ctx)) return false;
  }
  return MatchEmission(a.emission, b.emission, ctx);
}

// Backtracks over a permutation assigning each b head pattern a distinct a
// head pattern.
bool MatchHeads(const Rule& a, const Rule& b, size_t b_index,
                std::vector<bool>* used, MatchContext* ctx) {
  if (b_index == b.head.size()) return MatchTail(a, b, ctx);
  for (size_t i = 0; i < a.head.size(); ++i) {
    if ((*used)[i]) continue;
    if (!ctx->Budget()) return false;
    size_t checkpoint = ctx->vars.Checkpoint();
    if (MatchPattern(a.head[i], b.head[b_index], ctx)) {
      (*used)[i] = true;
      if (MatchHeads(a, b, b_index + 1, used, ctx)) return true;
      (*used)[i] = false;
    }
    ctx->vars.Rollback(checkpoint);
  }
  return false;
}

// True when `b` is structurally isomorphic to `a` up to bijective variable
// renaming and head-pattern reordering. Rule names do not participate.
bool RulesIsomorphic(const Rule& a, const Rule& b) {
  if (a.exact != b.exact) return false;
  if (a.head.size() != b.head.size()) return false;
  MatchContext ctx;
  std::vector<bool> used(a.head.size(), false);
  return MatchHeads(a, b, 0, &used, &ctx);
}

}  // namespace

ContainmentVerdict Contains(const MappingSpec& a, const MappingSpec& b) {
  for (const Rule& rule_b : b.rules()) {
    bool found = false;
    for (const Rule& rule_a : a.rules()) {
      if (RulesIsomorphic(rule_a, rule_b)) {
        found = true;
        break;
      }
    }
    if (!found) return ContainmentVerdict::kUnknown;
  }
  return ContainmentVerdict::kContains;
}

ContainmentAnalysis AnalyzeContainment(
    const std::vector<std::string>& names,
    const std::vector<const MappingSpec*>& specs) {
  ContainmentAnalysis analysis;
  const size_t n = names.size();
  // Memoized pairwise verdicts (Contains over the same pair is pure).
  std::map<std::pair<size_t, size_t>, ContainmentVerdict> memo;
  auto contains = [&](size_t x, size_t y) {
    auto it = memo.find({x, y});
    if (it != memo.end()) return it->second;
    ++analysis.checks;
    ContainmentVerdict v = Contains(*specs[x], *specs[y]);
    memo.emplace(std::make_pair(x, y), v);
    return v;
  };
  std::vector<bool> pruned(n, false);
  for (size_t x = 0; x < n; ++x) {
    for (size_t y = 0; y < n; ++y) {
      if (y == x || pruned[y]) continue;
      if (contains(y, x) != ContainmentVerdict::kContains) continue;
      // Y's mapping subsumes X's. Prune X unless the two are equivalent and
      // Y comes later — then X is the class's canonical keeper.
      bool keep_x = y > x && contains(x, y) == ContainmentVerdict::kContains;
      if (keep_x) continue;
      pruned[x] = true;
      analysis.pruned.push_back({names[x], names[y]});
      break;
    }
  }
  return analysis;
}

}  // namespace qmap

#ifndef QMAP_EXPR_CONSTRAINT_H_
#define QMAP_EXPR_CONSTRAINT_H_

#include <string>
#include <string_view>
#include <variant>

#include "qmap/common/status.h"
#include "qmap/expr/attr.h"
#include "qmap/value/value.h"

namespace qmap {

/// Constraint operators supported by the query vocabulary (Section 1-2).
enum class Op {
  kEq,          // =
  kLt,          // <
  kLe,          // <=
  kGt,          // >
  kGe,          // >=
  kContains,    // IR keyword / text-pattern containment
  kStartsWith,  // string prefix ("title starts", Figure 2)
  kDuring,      // partial-date containment ("pdate during May/97")
};

/// Number of Op enumerators — sized for flat per-op tables (the compiled
/// rule plan's candidate buckets).
inline constexpr int kNumOps = 8;

/// Canonical spelling of an operator, e.g. "=", "contains".
std::string_view OpName(Op op);

/// Parses the spelling produced by OpName; also accepts "starts-with".
Result<Op> ParseOp(std::string_view text);

/// For asymmetric comparison ops, the operator obtained by swapping operands
/// ([a < b] == [b > a]); identity for symmetric/one-way ops.
Op SwappedOp(Op op);

/// True for <, <=, which normalization rewrites to >, >= (Section 4.2).
bool IsNormalizationSwapped(Op op);

/// Right-hand side of a constraint: either a constant (selection constraint)
/// or another attribute (join constraint).
using Operand = std::variant<Value, Attr>;

/// Renders an operand: value syntax or attribute path.
std::string OperandToString(const Operand& operand);

/// A single constraint `[attr op operand]` — the atomic vocabulary unit that
/// mapping rules translate (Section 2).
struct Constraint {
  Attr lhs;
  Op op = Op::kEq;
  Operand rhs = Value::Null();

  bool is_join() const { return std::holds_alternative<Attr>(rhs); }
  const Value& rhs_value() const { return std::get<Value>(rhs); }
  const Attr& rhs_attr() const { return std::get<Attr>(rhs); }

  /// Canonical rendering `[ln = "Clancy"]`; used as identity for matching
  /// bookkeeping (two constraints are the same iff they print the same).
  std::string ToString() const;

  /// 64-bit FNV-1a fingerprint of the printed form, computed from the
  /// component canonical hashes without materializing ToString(). Respects
  /// operator== exactly: constraints that print the same fingerprint the
  /// same (including cross-kind aliases such as `= 3` via Int(3) vs
  /// Real(3.0)); distinct printed forms collide with probability ~2^-64.
  uint64_t Fingerprint() const;

  /// Applies the operand-order normalization of Section 4.2: `<`/`<=` join
  /// constraints become `>`/`>=` with sides swapped, and symmetric-operator
  /// join constraints order their attributes lexicographically.
  Constraint Normalized() const;

  friend bool operator==(const Constraint& a, const Constraint& b) {
    return a.ToString() == b.ToString();
  }
};

/// Convenience factories.
Constraint MakeSel(Attr attr, Op op, Value value);
Constraint MakeJoin(Attr lhs, Op op, Attr rhs);

/// Equivalent to `a == b` (printed-form equality) but with allocation-free
/// fast paths: exact component equality is checked first and only on a miss
/// does it fall back to comparing ToString() bytes. Used by the intern table
/// to verify fingerprint bucket hits.
bool SamePrintedForm(const Constraint& a, const Constraint& b);

}  // namespace qmap

#endif  // QMAP_EXPR_CONSTRAINT_H_

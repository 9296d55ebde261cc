#ifndef QMAP_RULES_TERM_H_
#define QMAP_RULES_TERM_H_

#include <cstddef>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "qmap/expr/attr.h"
#include "qmap/value/value.h"

namespace qmap {

/// A bound term: what a rule variable can hold and what user-provided
/// conversion functions consume and produce.  Values cover constants (and
/// strings/ints used for attribute-name components and view indexes); Attrs
/// cover whole attribute references bound by attribute variables.
using Term = std::variant<Value, Attr>;

bool TermIsValue(const Term& t);
bool TermIsAttr(const Term& t);
const Value& TermValue(const Term& t);
const Attr& TermAttr(const Term& t);

/// Canonical rendering for diagnostics and matching bookkeeping.
std::string TermToString(const Term& t);

bool TermEquals(const Term& a, const Term& b);

/// Variable environment accumulated while matching a rule head and consumed
/// when firing the rule's tail (Section 4.1).
///
/// Supports an undo log so backtracking matchers can reuse one Bindings
/// object across pattern attempts (Mark/RollbackTo) instead of copying the
/// whole environment per trial. Copies transfer the variable environment
/// only — undo marks are local to the object they were taken on.
class Bindings {
 public:
  Bindings() = default;
  /// An environment built elsewhere (no undo log: nothing to roll back).
  explicit Bindings(std::map<std::string, Term> vars) : vars_(std::move(vars)) {}
  Bindings(const Bindings& other) : vars_(other.vars_) {}
  Bindings& operator=(const Bindings& other) {
    if (this != &other) {
      vars_ = other.vars_;
      log_.clear();
    }
    return *this;
  }
  Bindings(Bindings&&) = default;
  Bindings& operator=(Bindings&&) = default;

  /// Binds `var` to `term`; if already bound, succeeds iff the terms agree.
  bool BindOrCheck(const std::string& var, const Term& term);

  const Term* Find(const std::string& var) const;

  /// Undo-log checkpoint: RollbackTo(Mark()) removes every binding added in
  /// between — including partial bindings left behind by a failed
  /// ConstraintPattern::Match, which is exactly the cleanup a backtracking
  /// matcher needs between attempts.
  size_t Mark() const { return log_.size(); }
  void RollbackTo(size_t mark);

  /// The environment, sorted by variable name.
  const std::map<std::string, Term>& vars() const { return vars_; }
  size_t size() const { return vars_.size(); }

  /// Structural equality: same variables bound to TermEquals-equal terms.
  bool SameAs(const Bindings& other) const;

  /// Hash consistent with SameAs (used to deduplicate matchings without
  /// rendering them to strings).
  size_t Hash() const;

  /// Deterministic rendering (sorted by variable).
  std::string ToString() const;

 private:
  std::map<std::string, Term> vars_;
  std::vector<std::string> log_;  // insertion order of variables added
};

}  // namespace qmap

#endif  // QMAP_RULES_TERM_H_

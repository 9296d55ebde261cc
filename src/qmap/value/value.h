#ifndef QMAP_VALUE_VALUE_H_
#define QMAP_VALUE_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

namespace qmap {

/// A (possibly partial) calendar date. `month`/`day` may be absent: the paper
/// uses partial dates such as "97" (year only) and "May/97" (month + year) as
/// operands of the `during` operator (rules R6/R7 of K_Amazon, Figure 3).
struct Date {
  int year = 0;
  std::optional<int> month;  // 1..12
  std::optional<int> day;    // 1..31

  friend bool operator==(const Date& a, const Date& b) = default;
};

/// A closed numeric interval, printed as "(lo:hi)" (Example 8's X-range).
struct Range {
  double lo = 0;
  double hi = 0;

  friend bool operator==(const Range& a, const Range& b) = default;
};

/// A 2-D point, printed as "(x,y)" (Example 8's corner coordinates).
struct Point {
  double x = 0;
  double y = 0;

  friend bool operator==(const Point& a, const Point& b) = default;
};

enum class ValueKind { kNull, kInt, kDouble, kString, kDate, kRange, kPoint };

/// A constant appearing on the right-hand side of a selection constraint.
///
/// Value is a small immutable sum type with value semantics. Ordering is
/// defined for numeric kinds (int/double compare numerically across kinds)
/// and lexicographically for strings; other kinds support equality only.
class Value {
 public:
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Real(double v) { return Value(Rep(v)); }
  static Value Str(std::string v) { return Value(Rep(std::move(v))); }
  static Value OfDate(Date d) { return Value(Rep(d)); }
  static Value OfRange(Range r) { return Value(Rep(r)); }
  static Value OfPoint(Point p) { return Value(Rep(p)); }

  ValueKind kind() const;
  bool is_numeric() const {
    return kind() == ValueKind::kInt || kind() == ValueKind::kDouble;
  }

  /// Accessors; the caller must have checked kind().
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const;  // valid for kInt and kDouble
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  const Date& AsDate() const { return std::get<Date>(rep_); }
  const Range& AsRange() const { return std::get<Range>(rep_); }
  const Point& AsPoint() const { return std::get<Point>(rep_); }

  /// Structural equality; kInt(3) == kDouble(3.0) holds (numeric equality).
  bool Equals(const Value& other) const;

  /// Numeric/string ordering. Returns nullopt when the pair is unordered
  /// (mixed non-numeric kinds, dates vs strings, ranges, points, nulls).
  std::optional<int> Compare(const Value& other) const;

  /// Canonical rendering used for printing queries and as a hashing key,
  /// e.g. `"Clancy"`, `1997`, `May/97`, `(10:30)`, `(10,20)`.
  std::string ToString() const;

  /// FNV-1a 64 over the exact bytes of ToString(). This is the value-level
  /// building block of constraint/query fingerprints: two values hash equal
  /// exactly when they print equal (the same relation Constraint::operator==
  /// uses), so e.g. Int(3), Real(3.0) and Date{1903} all share a hash because
  /// they all render as "3". Fast paths avoid the string allocation for the
  /// common int/string/integral-double kinds.
  uint64_t CanonicalHash() const;

  /// Exact representation equality: same kind and same stored bits (no
  /// cross-kind numeric coercion, unlike Equals). Int(3) is not IdenticalTo
  /// Real(3.0). Used by intern-table verification as a cheap sufficient
  /// check before falling back to printed-form comparison.
  bool IdenticalTo(const Value& other) const { return rep_ == other.rep_; }

  friend bool operator==(const Value& a, const Value& b) { return a.Equals(b); }

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string, Date,
                           Range, Point>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

/// Renders a Date in the paper's style: "97", "May/97", or "12/May/97".
std::string DateToString(const Date& d);

}  // namespace qmap

#endif  // QMAP_VALUE_VALUE_H_

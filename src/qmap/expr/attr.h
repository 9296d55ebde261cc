#ifndef QMAP_EXPR_ATTR_H_
#define QMAP_EXPR_ATTR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qmap/common/status.h"

namespace qmap {

/// A (possibly view-qualified) attribute reference.
///
/// Forms, mirroring the paper's notation:
///   * `ln`                — bare attribute (single-view contexts, Example 2)
///   * `fac.ln`            — view-qualified (Example 3)
///   * `fac[1].ln`         — view instance distinguished by index (Sec. 4.2)
///   * `fac.aubib.bib`     — source relation expanded from a view; the extra
///                           qualification lives in `name` ("aubib.bib").
///
/// `instance == 0` means "no explicit index". Per Section 4.2, an unindexed
/// reference abbreviates "any instance" for *patterns*; for concrete
/// constraints it simply denotes the only instance.
struct Attr {
  std::string view;   // empty when unqualified
  int instance = 0;   // 0 = unindexed
  std::string name;   // may contain dots for expanded relation paths

  /// Builds a bare attribute.
  static Attr Simple(std::string name);
  /// Builds `view.name`.
  static Attr Of(std::string view, std::string name);
  /// Builds `view[instance].name`.
  static Attr OfInstance(std::string view, int instance, std::string name);

  /// Parses the textual forms above.
  static Result<Attr> Parse(std::string_view text);

  /// Canonical rendering: `fac[1].ln`, `fac.ln`, or `ln`.
  std::string ToString() const;

  /// FNV-1a 64 over the exact bytes of ToString(), computed without
  /// materializing the string. Feeds constraint/query fingerprints.
  uint64_t CanonicalHash() const;

  friend bool operator==(const Attr& a, const Attr& b) = default;
  friend auto operator<=>(const Attr& a, const Attr& b) = default;
};

}  // namespace qmap

#endif  // QMAP_EXPR_ATTR_H_

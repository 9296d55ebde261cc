#ifndef QMAP_E2EBENCH_QUERYGEN_H_
#define QMAP_E2EBENCH_QUERYGEN_H_

// Seeded query-text generator. It produces text only and never builds a
// qmap::Query: constructing Query objects at generation time would intern
// every workload query in the process-wide table before the timed phase
// (see README.md, "The pre-interning pitfall").

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// splitmix64: a small, fully specified generator, so a seed gives the same
/// stream on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// True with probability `p`.
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// Mixes two values into one well-spread 64-bit seed.
uint64_t MixSeed(uint64_t a, uint64_t b);

struct ShapeOptions {
  int num_attrs = 8;    // constraints are over a0 .. a{num_attrs-1}
  int num_values = 4;   // equality values 0 .. num_values-1
  int max_depth = 3;    // alternation depth of random ∧/∨ trees
  int max_children = 3; // fan-out of interior nodes (at least 2)
  /// Share of queries that are grid shapes: a conjunction of
  /// `grid_conjuncts` disjunctions of `grid_disjuncts` leaves each, the
  /// 2^{nk} DNF case of the paper's Section 8.
  double grid_share = 0;
  int grid_conjuncts = 3;
  int grid_disjuncts = 2;
};

struct QueryShape {
  int constraints = 0;
  int depth = 0;  // a leaf has depth 1
  bool grid = false;
};

struct GeneratedQuery {
  std::string text;
  QueryShape shape;
};

class QueryTextGen {
 public:
  QueryTextGen(uint64_t seed, ShapeOptions options)
      : rng_(seed), options_(options) {}

  /// One query in the parser's grammar. A `tag` >= 0 gives the first leaf
  /// the value kTagBase + tag instead of a small value, so queries with
  /// distinct tags are distinct texts (and distinct queries).
  GeneratedQuery Next(int64_t tag = -1);

  static constexpr int64_t kTagBase = 1000;

 private:
  void Leaf(std::string& out, int64_t& tag);
  QueryShape Tree(std::string& out, int depth, bool conjunctive, bool root,
                  int64_t& tag);
  QueryShape Grid(std::string& out, int64_t& tag);

  Rng rng_;
  ShapeOptions options_;
};

/// `count` distinct untagged queries (duplicates are redrawn).
std::vector<GeneratedQuery> DistinctQueries(uint64_t seed,
                                            const ShapeOptions& options,
                                            size_t count);

/// Running shape statistics of a query stream.
class ShapeStats {
 public:
  void Add(const QueryShape& shape, bool repeat);
  /// "constraints/query=... depth=... max_depth=... grid_share=...
  /// repeat_share=... (n=...)".
  std::string ToString() const;

 private:
  uint64_t queries_ = 0;
  uint64_t constraints_ = 0;
  uint64_t depth_ = 0;
  int max_depth_ = 0;
  uint64_t grids_ = 0;
  uint64_t repeats_ = 0;
};

/// 64-bit FNV-1a, used for the query-stream hash.
uint64_t Fnv1a(const std::string& text, uint64_t hash = 0xcbf29ce484222325ull);

}  // namespace e2e

#endif  // QMAP_E2EBENCH_QUERYGEN_H_

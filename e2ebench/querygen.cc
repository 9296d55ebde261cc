#include "querygen.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace e2e {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  Rng rng(a ^ (b * 0xd6e8feb86659fd93ull));
  rng.Next();
  return rng.Next();
}

void QueryTextGen::Leaf(std::string& out, int64_t& tag) {
  const uint64_t attr = rng_.Below(static_cast<uint64_t>(options_.num_attrs));
  int64_t value = static_cast<int64_t>(
      rng_.Below(static_cast<uint64_t>(options_.num_values)));
  if (tag >= 0) {
    value = kTagBase + tag;
    tag = -1;  // only the first leaf carries the tag
  }
  out += "[a" + std::to_string(attr) + " = " + std::to_string(value) + "]";
}

QueryShape QueryTextGen::Tree(std::string& out, int depth, bool conjunctive,
                              bool root, int64_t& tag) {
  // Same shape law as qmap::RandomQuery (a node below the root stops at a
  // leaf with probability 1/2), except that the root is always interior so
  // a stream is not half single-constraint queries.
  if (depth <= 0 || (!root && rng_.Below(2) == 0)) {
    Leaf(out, tag);
    return {1, 1, false};
  }
  const int fanout =
      2 + static_cast<int>(rng_.Below(
              static_cast<uint64_t>(std::max(1, options_.max_children - 1))));
  QueryShape shape;
  for (int i = 0; i < fanout; ++i) {
    if (i > 0) out += conjunctive ? " and " : " or ";
    const size_t open = out.size();
    out += "(";
    QueryShape child = Tree(out, depth - 1, !conjunctive, false, tag);
    if (child.depth == 1) {
      out.erase(open, 1);  // a leaf needs no parentheses
    } else {
      out += ")";
    }
    shape.constraints += child.constraints;
    shape.depth = std::max(shape.depth, child.depth + 1);
  }
  return shape;
}

QueryShape QueryTextGen::Grid(std::string& out, int64_t& tag) {
  for (int i = 0; i < options_.grid_conjuncts; ++i) {
    if (i > 0) out += " and ";
    out += "(";
    for (int k = 0; k < options_.grid_disjuncts; ++k) {
      if (k > 0) out += " or ";
      Leaf(out, tag);
    }
    out += ")";
  }
  return {options_.grid_conjuncts * options_.grid_disjuncts, 3, true};
}

GeneratedQuery QueryTextGen::Next(int64_t tag) {
  GeneratedQuery query;
  query.text.reserve(192);
  if (options_.grid_share > 0 && rng_.Chance(options_.grid_share)) {
    query.shape = Grid(query.text, tag);
  } else {
    query.shape = Tree(query.text, options_.max_depth, true, true, tag);
  }
  return query;
}

std::vector<GeneratedQuery> DistinctQueries(uint64_t seed,
                                            const ShapeOptions& options,
                                            size_t count) {
  QueryTextGen gen(seed, options);
  std::vector<GeneratedQuery> out;
  std::unordered_set<std::string> seen;
  while (out.size() < count) {
    GeneratedQuery query = gen.Next();
    if (seen.insert(query.text).second) out.push_back(std::move(query));
  }
  return out;
}

void ShapeStats::Add(const QueryShape& shape, bool repeat) {
  ++queries_;
  constraints_ += static_cast<uint64_t>(shape.constraints);
  depth_ += static_cast<uint64_t>(shape.depth);
  max_depth_ = std::max(max_depth_, shape.depth);
  grids_ += shape.grid ? 1 : 0;
  repeats_ += repeat ? 1 : 0;
}

std::string ShapeStats::ToString() const {
  const double n = queries_ > 0 ? static_cast<double>(queries_) : 1.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "constraints/query=%.2f depth=%.2f max_depth=%d "
                "grid_share=%.3f repeat_share=%.3f (n=%llu)",
                static_cast<double>(constraints_) / n,
                static_cast<double>(depth_) / n, max_depth_,
                static_cast<double>(grids_) / n,
                static_cast<double>(repeats_) / n,
                static_cast<unsigned long long>(queries_));
  return buf;
}

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace e2e

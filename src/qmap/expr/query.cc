#include "qmap/expr/query.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "qmap/common/fnv.h"
#include "qmap/expr/intern.h"
#include "qmap/obs/metrics.h"

namespace qmap {
namespace {

// Kind tags mixed into node fingerprints so a leaf, a conjunction and a
// disjunction over the same material never share a fingerprint.
constexpr unsigned char kTagTrue = 'T';
constexpr unsigned char kTagLeaf = 'L';
constexpr unsigned char kTagAnd = 'A';
constexpr unsigned char kTagOr = 'O';

uint64_t TrueFingerprint() {
  static const uint64_t fp = Fnv64().AddByte(kTagTrue).value();
  return fp;
}

uint64_t LeafFingerprint(uint64_t constraint_fp) {
  return Fnv64().AddByte(kTagLeaf).AddU64(constraint_fp).value();
}

uint64_t BranchFingerprint(NodeKind kind, const std::vector<Query>& children) {
  Fnv64 h;
  h.AddByte(kind == NodeKind::kAnd ? kTagAnd : kTagOr);
  for (const Query& child : children) h.AddU64(child.fingerprint());
  return h.value();
}

bool& InternFlag() {
  static bool enabled = true;
  return enabled;
}

}  // namespace
}  // namespace qmap

namespace qmap {
namespace {

constexpr int kInternShardBits = 6;
constexpr size_t kInternShards = size_t{1} << kInternShardBits;

// FNV's low bits already pick the bucket inside a shard's hash map, so the
// shard comes from the top bits of a multiplicative mix of all 64.
size_t InternShardOf(uint64_t fp) {
  return static_cast<size_t>((fp * 0x9e3779b97f4a7c15ull) >>
                             (64 - kInternShardBits));
}

// One process-wide hash-cons table (DESIGN.md §9): a fixed array of
// independently locked shards, each a fingerprint -> entries multimap.
// Entries are weak, so the table never keeps an object alive; an interned
// object erases its own entry from its destructor (Erase). Bucket candidates
// are verified exactly, so interning never conflates distinct structures
// even under a fingerprint collision.
template <typename T>
class InternTable {
 public:
  // Returns the live object in the table for which `same(candidate)` holds,
  // or publishes the one `make()` returns. `make` runs under the shard lock
  // and must not destroy an interned object.
  template <typename Same, typename Make>
  std::shared_ptr<const T> Intern(uint64_t fp, Same same, Make make,
                                   bool* hit) {
    Shard& shard = shards_[InternShardOf(fp)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [first, last] = shard.entries.equal_range(fp);
    for (auto it = first; it != last; ++it) {
      // The entry still exists, so its object's destructor has not got past
      // Erase and the memory behind `raw` is intact.
      if (!same(*it->second.raw)) continue;
      // An exact match whose last handle is gone is absent: its destructor
      // is waiting for this lock to erase it.
      if (std::shared_ptr<const T> live = it->second.weak.lock()) {
        ++shard.hits;
        *hit = true;
        return live;
      }
    }
    std::shared_ptr<const T> owned = make();
    shard.entries.emplace(fp, Entry{owned.get(), owned});
    ++shard.misses;
    ++shard.live;
    *hit = false;
    return owned;
  }

  // Removes the entry of `raw`; called once, from the object's destructor.
  void Erase(uint64_t fp, const T* raw) {
    Shard& shard = shards_[InternShardOf(fp)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [first, last] = shard.entries.equal_range(fp);
    for (auto it = first; it != last; ++it) {
      if (it->second.raw == raw) {
        shard.entries.erase(it);
        --shard.live;
        return;
      }
    }
  }

  // Sums {hits, misses, live} over the shards.
  void AddStats(uint64_t* hits, uint64_t* misses, uint64_t* live) {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      *hits += shard.hits;
      *misses += shard.misses;
      *live += shard.live;
    }
  }

 private:
  struct Entry {
    const T* raw;                 // dereferenced only under the shard lock
    std::weak_ptr<const T> weak;  // a hit is weak.lock()
  };
  struct alignas(64) Shard {
    std::mutex mu;
    std::unordered_multimap<uint64_t, Entry> entries;  // guarded by mu
    uint64_t hits = 0;    // guarded by mu
    uint64_t misses = 0;  // guarded by mu; entries ever inserted
    uint64_t live = 0;    // guarded by mu; entries not yet erased
  };

  std::array<Shard, kInternShards> shards_;
};

// Owner of an interned constraint. Leaves hold it through an aliasing
// shared_ptr<const Constraint>, so the last leaf to go erases the entry.
struct InternedConstraint {
  InternedConstraint(Constraint c, uint64_t fp)
      : value(std::move(c)), fingerprint(fp) {}
  ~InternedConstraint();
  InternedConstraint(const InternedConstraint&) = delete;
  InternedConstraint& operator=(const InternedConstraint&) = delete;

  const Constraint value;
  const uint64_t fingerprint;
};

// The query-node and constraint tables plus the optional metrics bridge.
// Leaky static, so destructors of objects that outlive static destruction
// can still erase their entries.
class InternTables {
 public:
  static InternTables& Global() {
    static InternTables* tables = new InternTables();
    return *tables;
  }

  std::shared_ptr<const Constraint> InternConstraint(Constraint c,
                                                     uint64_t fp) {
    bool hit = false;
    std::shared_ptr<const Constraint> out = constraints_.Intern(
        fp,
        [&c](const Constraint& candidate) {
          return SamePrintedForm(candidate, c);
        },
        [&] {
          auto holder = std::make_shared<InternedConstraint>(std::move(c), fp);
          return std::shared_ptr<const Constraint>(holder, &holder->value);
        },
        &hit);
    Bump(hit ? constraint_hits_counter_ : constraint_nodes_counter_);
    return out;
  }

  // `candidate` must already have canonical (interned) children and, for
  // leaves, an interned constraint pointer, so verification is pure pointer
  // comparison. It is released only after the shard lock is: on a hit its
  // destruction drops references to children.
  std::shared_ptr<const Query::Node> InternNode(
      std::shared_ptr<Query::Node> candidate) {
    const Query::Node& node = *candidate;
    bool hit = false;
    std::shared_ptr<const Query::Node> out = nodes_.Intern(
        node.fingerprint,
        [&node](const Query::Node& entry) { return SameNode(entry, node); },
        [&] {
          candidate->interned = true;
          return std::shared_ptr<const Query::Node>(std::move(candidate));
        },
        &hit);
    Bump(hit ? query_hits_counter_ : query_nodes_counter_);
    return out;
  }

  void EraseNode(const Query::Node* node) {
    nodes_.Erase(node->fingerprint, node);
  }

  void EraseConstraint(const InternedConstraint* holder) {
    constraints_.Erase(holder->fingerprint, &holder->value);
  }

  InternStats Stats() {
    InternStats s;
    nodes_.AddStats(&s.query_hits, &s.query_misses, &s.query_live);
    s.query_nodes = s.query_misses;
    constraints_.AddStats(&s.constraint_hits, &s.constraint_misses,
                          &s.constraint_live);
    s.constraint_nodes = s.constraint_misses;
    return s;
  }

  void Attach(MetricsRegistry* registry) {
    std::lock_guard<std::mutex> lock(attach_mu_);
    if (registry == nullptr) {
      DetachLocked();
      return;
    }
    attached_registry_ = registry;
    // Backfill so lifetime totals survive attaching after warm-up; only the
    // shortfall is added in case the same registry is re-attached.
    auto bind = [](Counter& counter, uint64_t total,
                   std::atomic<Counter*>& slot) {
      uint64_t have = counter.value();
      if (total > have) counter.Inc(total - have);
      slot.store(&counter, std::memory_order_release);
    };
    InternStats s = Stats();
    bind(registry->counter("qmap_intern_query_hits_total"), s.query_hits,
         query_hits_counter_);
    bind(registry->counter("qmap_intern_query_nodes_total"), s.query_nodes,
         query_nodes_counter_);
    bind(registry->counter("qmap_intern_constraint_hits_total"),
         s.constraint_hits, constraint_hits_counter_);
    bind(registry->counter("qmap_intern_constraint_nodes_total"),
         s.constraint_nodes, constraint_nodes_counter_);
  }

  void DetachIf(MetricsRegistry* registry) {
    std::lock_guard<std::mutex> lock(attach_mu_);
    if (attached_registry_ == registry) DetachLocked();
  }

 private:
  static bool SameNode(const Query::Node& entry, const Query::Node& node) {
    if (entry.kind != node.kind) return false;
    if (node.kind == NodeKind::kLeaf) return entry.constraint == node.constraint;
    if (entry.children.size() != node.children.size()) return false;
    for (size_t i = 0; i < node.children.size(); ++i) {
      if (entry.children[i].identity() != node.children[i].identity()) {
        return false;
      }
    }
    return true;
  }

  static void Bump(const std::atomic<Counter*>& slot) {
    if (Counter* counter = slot.load(std::memory_order_acquire)) {
      counter->Inc();
    }
  }

  void DetachLocked() {
    query_hits_counter_.store(nullptr, std::memory_order_release);
    query_nodes_counter_.store(nullptr, std::memory_order_release);
    constraint_hits_counter_.store(nullptr, std::memory_order_release);
    constraint_nodes_counter_.store(nullptr, std::memory_order_release);
    attached_registry_ = nullptr;
  }

  InternTable<Query::Node> nodes_;
  InternTable<Constraint> constraints_;

  std::mutex attach_mu_;
  MetricsRegistry* attached_registry_ = nullptr;  // guarded by attach_mu_
  std::atomic<Counter*> query_hits_counter_{nullptr};
  std::atomic<Counter*> query_nodes_counter_{nullptr};
  std::atomic<Counter*> constraint_hits_counter_{nullptr};
  std::atomic<Counter*> constraint_nodes_counter_{nullptr};
};

InternedConstraint::~InternedConstraint() {
  InternTables::Global().EraseConstraint(this);
}

// Appends `child` to `out`, flattening nested nodes of the same kind.
void Flatten(NodeKind kind, const Query& child, std::vector<Query>* out) {
  if (child.kind() == kind) {
    for (const Query& grandchild : child.children()) Flatten(kind, grandchild, out);
  } else {
    out->push_back(child);
  }
}

// Removes structural duplicates, preserving first occurrences (idempotency:
// x ∧ x = x, x ∨ x = x). Fingerprints prune; StructurallyEquals confirms.
void DedupChildren(std::vector<Query>* children) {
  std::vector<Query> unique;
  unique.reserve(children->size());
  for (const Query& child : *children) {
    bool seen = false;
    for (const Query& kept : unique) {
      if (kept.fingerprint() == child.fingerprint() &&
          kept.StructurallyEquals(child)) {
        seen = true;
        break;
      }
    }
    if (!seen) unique.push_back(child);
  }
  *children = std::move(unique);
}

}  // namespace

Query::Node::~Node() {
  if (interned) InternTables::Global().EraseNode(this);
}

InternStats QueryInternStats() { return InternTables::Global().Stats(); }

void SetQueryInternEnabled(bool enabled) { InternFlag() = enabled; }

bool QueryInternEnabled() { return InternFlag(); }

void AttachInternMetrics(MetricsRegistry* registry) {
  InternTables::Global().Attach(registry);
}

void DetachInternMetricsIf(MetricsRegistry* registry) {
  InternTables::Global().DetachIf(registry);
}

Query Query::True() {
  static const std::shared_ptr<const Node>& node =
      *new std::shared_ptr<const Node>([] {
        auto n = std::make_shared<Node>();
        n->fingerprint = TrueFingerprint();
        // The singleton IS the canonical True node, interned or not.
        n->interned = true;
        return n;
      }());
  return Query(node);
}

Query Query::Leaf(Constraint constraint) {
  const uint64_t constraint_fp = constraint.Fingerprint();
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kLeaf;
  node->fingerprint = LeafFingerprint(constraint_fp);
  if (!InternFlag()) {
    node->constraint = std::make_shared<const Constraint>(std::move(constraint));
    return Query(std::move(node));
  }
  node->constraint = InternTables::Global().InternConstraint(
      std::move(constraint), constraint_fp);
  return Query(InternTables::Global().InternNode(std::move(node)));
}

Query Query::InternBranch(NodeKind kind, std::vector<Query> children) {
  for (Query& child : children) child = Canonical(child);
  auto node = std::make_shared<Node>();
  node->kind = kind;
  node->fingerprint = BranchFingerprint(kind, children);
  node->children = std::move(children);
  return Query(InternTables::Global().InternNode(std::move(node)));
}

// Canonicalizes a query built while interning was off (or before a toggle
// flip) so branch nodes only ever hold canonical children. Already-interned
// subtrees are returned as-is — the common case is a pointer check.
Query Query::Canonical(const Query& q) {
  if (q.node_->interned) return q;
  if (q.is_leaf()) return Leaf(q.constraint());
  return InternBranch(q.kind(), q.children());
}

Query Query::And(std::vector<Query> children) {
  std::vector<Query> flat;
  for (const Query& child : children) {
    if (child.is_true()) continue;  // True conjunct is the ∧ identity
    Flatten(NodeKind::kAnd, child, &flat);
  }
  DedupChildren(&flat);
  if (flat.empty()) return True();
  if (flat.size() == 1) return flat[0];
  if (InternFlag()) return InternBranch(NodeKind::kAnd, std::move(flat));
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kAnd;
  node->fingerprint = BranchFingerprint(NodeKind::kAnd, flat);
  node->children = std::move(flat);
  return Query(std::move(node));
}

Query Query::Or(std::vector<Query> children) {
  std::vector<Query> flat;
  for (const Query& child : children) {
    if (child.is_true()) return True();  // True disjunct absorbs the ∨
    Flatten(NodeKind::kOr, child, &flat);
  }
  DedupChildren(&flat);
  if (flat.empty()) return True();  // disallowed input; see header contract
  if (flat.size() == 1) return flat[0];
  if (InternFlag()) return InternBranch(NodeKind::kOr, std::move(flat));
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kOr;
  node->fingerprint = BranchFingerprint(NodeKind::kOr, flat);
  node->children = std::move(flat);
  return Query(std::move(node));
}

bool Query::IsSimpleConjunction() const {
  switch (kind()) {
    case NodeKind::kTrue:
    case NodeKind::kLeaf:
      return true;
    case NodeKind::kAnd:
      return std::all_of(children().begin(), children().end(),
                         [](const Query& c) { return c.is_leaf(); });
    case NodeKind::kOr:
      return false;
  }
  return false;
}

std::vector<Constraint> Query::AsSimpleConjunction() const {
  std::vector<Constraint> out;
  if (is_leaf()) {
    out.push_back(constraint());
  } else if (kind() == NodeKind::kAnd) {
    for (const Query& child : children()) out.push_back(child.constraint());
  }
  return out;
}

std::vector<Constraint> Query::AllConstraints() const {
  std::vector<Constraint> out;
  std::vector<uint64_t> seen_fps;
  std::function<void(const Query&)> visit = [&](const Query& q) {
    if (q.is_leaf()) {
      const Constraint& c = q.constraint();
      uint64_t fp = c.Fingerprint();
      for (size_t i = 0; i < seen_fps.size(); ++i) {
        if (seen_fps[i] == fp && SamePrintedForm(out[i], c)) return;
      }
      seen_fps.push_back(fp);
      out.push_back(c);
      return;
    }
    for (const Query& child : q.children()) visit(child);
  };
  visit(*this);
  return out;
}

int Query::NodeCount() const {
  if (kind() == NodeKind::kTrue || kind() == NodeKind::kLeaf) return 1;
  int count = 1;
  for (const Query& child : children()) count += child.NodeCount();
  return count;
}

int Query::Depth() const {
  if (kind() == NodeKind::kTrue || kind() == NodeKind::kLeaf) return 1;
  int depth = 0;
  for (const Query& child : children()) depth = std::max(depth, child.Depth());
  return depth + 1;
}

bool Query::StructurallyEquals(const Query& other) const {
  if (node_ == other.node_) return true;
  if (node_->fingerprint != other.node_->fingerprint) return false;
  // Two distinct live interned nodes are guaranteed structurally distinct —
  // the table holds exactly one live node per structure.
  if (node_->interned && other.node_->interned) return false;
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case NodeKind::kTrue:
      return true;
    case NodeKind::kLeaf:
      return SamePrintedForm(constraint(), other.constraint());
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      if (children().size() != other.children().size()) return false;
      for (size_t i = 0; i < children().size(); ++i) {
        if (!children()[i].StructurallyEquals(other.children()[i])) return false;
      }
      return true;
    }
  }
  return false;
}

std::string Query::ToString() const {
  switch (kind()) {
    case NodeKind::kTrue:
      return "true";
    case NodeKind::kLeaf:
      return constraint().ToString();
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      const char* sep = kind() == NodeKind::kAnd ? " ∧ " : " ∨ ";
      std::string out;
      for (size_t i = 0; i < children().size(); ++i) {
        if (i > 0) out += sep;
        const Query& child = children()[i];
        bool needs_parens = child.kind() == NodeKind::kAnd || child.kind() == NodeKind::kOr;
        if (needs_parens) out += "(";
        out += child.ToString();
        if (needs_parens) out += ")";
      }
      return out;
    }
  }
  return "?";
}

Query operator&(const Query& a, const Query& b) { return Query::And({a, b}); }

Query operator|(const Query& a, const Query& b) { return Query::Or({a, b}); }

}  // namespace qmap

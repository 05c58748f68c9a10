#include "net/bdd.h"

#include <algorithm>
#include <stdexcept>

namespace jinjing::net {

namespace {

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (std::uint64_t{a} << 32) | b;
}

}  // namespace

BddManager::BddManager() {
  nodes_.push_back(NodeData{kBits, kFalse, kFalse});  // 0: false terminal
  nodes_.push_back(NodeData{kBits, kTrue, kTrue});    // 1: true terminal
}

BddManager::Node BddManager::make(unsigned level, Node lo, Node hi) {
  if (lo == hi) return lo;  // reduction
  // Disjoint bit fields: level (7 bits) | lo (28) | hi (28).
  if ((lo >> 28) != 0 || (hi >> 28) != 0) {
    throw std::runtime_error("BddManager: node budget (2^28) exceeded");
  }
  const std::uint64_t key =
      (std::uint64_t{level} << 56) | (std::uint64_t{lo} << 28) | std::uint64_t{hi};
  const auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  const Node node = static_cast<Node>(nodes_.size());
  nodes_.push_back(NodeData{level, lo, hi});
  unique_.emplace(key, node);
  return node;
}

BddManager::Node BddManager::var(unsigned level) { return make(level, kFalse, kTrue); }

BddManager::Node BddManager::land(Node a, Node b) {
  if (a == kFalse || b == kFalse) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == b) return a;
  if (a > b) std::swap(a, b);  // canonical memo key

  const std::uint64_t key = pair_key(a, b);
  const auto it = and_memo_.find(key);
  if (it != and_memo_.end()) return it->second;

  // Copy: recursive make() calls may reallocate nodes_.
  const NodeData na = nodes_[a];
  const NodeData nb = nodes_[b];
  const unsigned level = std::min(na.level, nb.level);
  const Node a_lo = na.level == level ? na.lo : a;
  const Node a_hi = na.level == level ? na.hi : a;
  const Node b_lo = nb.level == level ? nb.lo : b;
  const Node b_hi = nb.level == level ? nb.hi : b;
  const Node result = make(level, land(a_lo, b_lo), land(a_hi, b_hi));
  and_memo_.emplace(key, result);
  return result;
}

BddManager::Node BddManager::lnot(Node a) {
  if (a == kFalse) return kTrue;
  if (a == kTrue) return kFalse;
  const auto it = not_memo_.find(a);
  if (it != not_memo_.end()) return it->second;
  const NodeData n = nodes_[a];  // copy: recursion may reallocate nodes_
  const Node result = make(n.level, lnot(n.lo), lnot(n.hi));
  not_memo_.emplace(a, result);
  return result;
}

BddManager::Node BddManager::lor(Node a, Node b) { return lnot(land(lnot(a), lnot(b))); }

BddManager::Node BddManager::geq(unsigned first_bit, unsigned bits, std::uint64_t bound) {
  // x >= bound, built from the least-significant bit (deepest level) up so
  // every node's children sit at strictly greater levels.
  Node result = kTrue;  // suffix comparison over zero bits: equal => >=
  for (unsigned i = 0; i < bits; ++i) {
    const unsigned level = first_bit + bits - 1 - i;  // LSB = deepest level
    const bool bound_bit = ((bound >> i) & 1) != 0;
    if (bound_bit) {
      // x_bit must be 1 and the lower bits >=; x_bit = 0 means x < bound.
      result = make(level, kFalse, result);
    } else {
      // x_bit = 1 makes x > bound regardless; 0 defers to the lower bits.
      result = make(level, result, kTrue);
    }
  }
  return result;
}

BddManager::Node BddManager::leq(unsigned first_bit, unsigned bits, std::uint64_t bound) {
  Node result = kTrue;
  for (unsigned i = 0; i < bits; ++i) {
    const unsigned level = first_bit + bits - 1 - i;
    const bool bound_bit = ((bound >> i) & 1) != 0;
    if (bound_bit) {
      result = make(level, kTrue, result);
    } else {
      result = make(level, result, kFalse);
    }
  }
  return result;
}

BddManager::Node BddManager::interval(unsigned first_bit, unsigned bits, std::uint64_t lo,
                                      std::uint64_t hi) {
  Node result = kTrue;
  if (lo > 0) result = land(result, geq(first_bit, bits, lo));
  const std::uint64_t full = bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  if (hi < full) result = land(result, leq(first_bit, bits, hi));
  return result;
}

BddManager::Node BddManager::from_cube(const HyperCube& cube) {
  Node result = kTrue;
  for (const Field f : kAllFields) {
    const auto& iv = cube.interval(f);
    result = land(result, interval(bdd_field_offset(f), field_bits(f), iv.lo, iv.hi));
    if (result == kFalse) break;
  }
  return result;
}

BddManager::Node BddManager::from_set(const PacketSet& set) {
  Node result = kFalse;
  for (const auto& cube : set.cubes()) result = lor(result, from_cube(cube));
  return result;
}

BddManager::Node BddManager::from_packet(const Packet& p) {
  return from_cube(HyperCube::point(p));
}

BddManager::Node BddManager::exists(Node a, unsigned first_bit, unsigned bits) {
  const unsigned end = first_bit + bits;
  std::unordered_map<Node, Node> memo;
  const auto rec = [&](auto&& self, Node at) -> Node {
    if (at == kFalse || at == kTrue) return at;
    const auto it = memo.find(at);
    if (it != memo.end()) return it->second;
    const NodeData n = nodes_[at];  // copy: make()/lor() may reallocate nodes_
    const Node lo = self(self, n.lo);
    const Node hi = self(self, n.hi);
    const Node result =
        (n.level >= first_bit && n.level < end) ? lor(lo, hi) : make(n.level, lo, hi);
    memo.emplace(at, result);
    return result;
  };
  return rec(rec, a);
}

namespace {

/// Expands the bit constraint {x : (x & mask) == value} over a `bits`-wide
/// field into disjoint intervals. A mask whose fixed bits form a contiguous
/// top prefix denotes one interval; otherwise the highest free bit (which
/// then has a fixed bit below it) is split and both halves recurse.
void expand_intervals(std::uint64_t mask, std::uint64_t value, unsigned bits,
                      std::vector<Interval>& out) {
  const std::uint64_t full = bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  if (mask == 0 || ((mask | (mask - 1)) & full) == full) {
    out.push_back(Interval{value, value | (~mask & full)});
    return;
  }
  unsigned h = bits - 1;
  while (((mask >> h) & 1) != 0) --h;
  const std::uint64_t bit = std::uint64_t{1} << h;
  expand_intervals(mask | bit, value, bits, out);
  expand_intervals(mask | bit, value | bit, bits, out);
}

struct PathConstraint {
  std::array<std::uint64_t, kNumFields> mask{};   // fixed decision bits per field
  std::array<std::uint64_t, kNumFields> value{};  // their required values
};

/// Decodes a global bit level into (field, in-field bit position).
std::pair<Field, unsigned> decode_level(unsigned level) {
  for (const Field f : kAllFields) {
    const unsigned offset = bdd_field_offset(f);
    if (level >= offset && level < offset + field_bits(f)) {
      return {f, field_bits(f) - 1 - (level - offset)};
    }
  }
  return {Field::Proto, 0};  // unreachable for in-range levels
}

}  // namespace

PacketSet BddManager::to_set(Node a) const {
  std::vector<HyperCube> cubes;
  PathConstraint path;
  const auto emit = [&]() {
    // Cross-product of each field's interval decomposition.
    std::array<std::vector<Interval>, kNumFields> field_ivs;
    for (const Field f : kAllFields) {
      const auto i = static_cast<std::size_t>(f);
      expand_intervals(path.mask[i], path.value[i], field_bits(f), field_ivs[i]);
    }
    std::array<std::size_t, kNumFields> pick{};
    while (true) {
      HyperCube cube;
      for (const Field f : kAllFields) {
        const auto i = static_cast<std::size_t>(f);
        cube.set_interval(f, field_ivs[i][pick[i]]);
      }
      cubes.push_back(cube);
      std::size_t d = 0;
      for (; d < kNumFields; ++d) {
        if (++pick[d] < field_ivs[d].size()) break;
        pick[d] = 0;
      }
      if (d == kNumFields) break;
    }
  };
  const auto walk = [&](auto&& self, Node at) -> void {
    if (at == kFalse) return;
    if (at == kTrue) {
      emit();
      return;
    }
    const NodeData& n = nodes_[at];
    const auto [field, position] = decode_level(n.level);
    const auto i = static_cast<std::size_t>(field);
    const std::uint64_t bit = std::uint64_t{1} << position;
    path.mask[i] |= bit;
    self(self, n.lo);
    path.value[i] |= bit;
    self(self, n.hi);
    path.mask[i] &= ~bit;
    path.value[i] &= ~bit;
  };
  walk(walk, a);
  return PacketSet::from_disjoint_cubes(std::move(cubes));
}

bool BddManager::contains(Node set, const Packet& p) const {
  Node at = set;
  while (at != kFalse && at != kTrue) {
    const auto& n = nodes_[at];
    // Decode the bit: which field, which position.
    unsigned level = n.level;
    Field field = Field::Proto;
    for (const Field f : kAllFields) {
      const unsigned offset = bdd_field_offset(f);
      if (level >= offset && level < offset + field_bits(f)) {
        field = f;
        break;
      }
    }
    const unsigned position = field_bits(field) - 1 - (level - bdd_field_offset(field));
    const bool bit = ((p.field(field) >> position) & 1) != 0;
    at = bit ? n.hi : n.lo;
  }
  return at == kTrue;
}

std::optional<Packet> BddManager::sample(Node a) const {
  if (a == kFalse) return std::nullopt;
  Packet p;  // all-zero baseline
  for (const Field f : kAllFields) p.set_field(f, 0);
  p.proto = 0;

  Node at = a;
  while (at != kTrue) {
    const auto& n = nodes_[at];
    const bool take_hi = n.lo == kFalse;
    if (take_hi) {
      // Set the decision bit in the packet.
      unsigned level = n.level;
      for (const Field f : kAllFields) {
        const unsigned offset = bdd_field_offset(f);
        if (level >= offset && level < offset + field_bits(f)) {
          const unsigned position = field_bits(f) - 1 - (level - offset);
          p.set_field(f, p.field(f) | (std::uint64_t{1} << position));
          break;
        }
      }
      at = n.hi;
    } else {
      at = n.lo;
    }
  }
  return p;
}

Volume BddManager::volume(Node a) const {
  // Memoized satisfying-count, scaled by skipped levels.
  std::unordered_map<Node, Volume> memo;
  const auto count = [&](auto&& self, Node node) -> Volume {
    if (node == kFalse) return 0;
    if (node == kTrue) return Volume{1};
    const auto it = memo.find(node);
    if (it != memo.end()) return it->second;
    const auto& n = nodes_[node];
    const auto scale = [&](Node child) -> Volume {
      const unsigned child_level = nodes_[child].level;
      const Volume sub = self(self, child);
      return sub << (child_level - n.level - 1);
    };
    const Volume total = scale(n.lo) + scale(n.hi);
    memo.emplace(node, total);
    return total;
  };
  const Volume at_root = count(count, a);
  return at_root << nodes_[a].level;
}

}  // namespace jinjing::net

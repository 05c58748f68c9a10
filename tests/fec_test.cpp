#include "topo/fec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "gen/fixtures.h"
#include "gen/wan.h"
#include "net/acl_algebra.h"
#include "net/bdd.h"
#include "topo/fec_delta.h"

namespace jinjing::topo {
namespace {

using gen::Figure1;

TEST(Fec, Figure1HasExactlyThePaperClasses) {
  const auto f = gen::make_figure1();
  const auto fecs = forwarding_equivalence_classes(f.topo, f.scope, f.traffic);
  ASSERT_EQ(fecs.size(), 5u);

  // The paper's classes: {1}, {2,3}, {4}, {5,6}, {7}.
  const std::vector<net::PacketSet> expected = {
      Figure1::traffic_class(1),
      Figure1::traffic_class(2) | Figure1::traffic_class(3),
      Figure1::traffic_class(4),
      Figure1::traffic_class(5) | Figure1::traffic_class(6),
      Figure1::traffic_class(7),
  };
  for (const auto& want : expected) {
    const bool found = std::any_of(fecs.begin(), fecs.end(),
                                   [&](const net::PacketSet& got) { return got.equals(want); });
    EXPECT_TRUE(found) << "missing FEC " << to_string(want);
  }
}

TEST(Fec, ClassesPartitionTheEnteringTraffic) {
  const auto f = gen::make_figure1();
  const auto fecs = forwarding_equivalence_classes(f.topo, f.scope, f.traffic);
  net::PacketSet covered;
  for (const auto& fec : fecs) {
    EXPECT_FALSE(fec.is_empty());
    EXPECT_FALSE(covered.intersects(fec)) << "classes overlap";
    covered = covered | fec;
  }
  EXPECT_TRUE(covered.equals(f.traffic));
}

TEST(Fec, MembersOfAClassUseTheSameEdges) {
  const auto f = gen::make_figure1();
  const auto fecs = forwarding_equivalence_classes(f.topo, f.scope, f.traffic);
  for (const auto& fec : fecs) {
    // Every edge predicate either contains the class or misses it entirely.
    for (const auto& edge : f.topo.edges()) {
      const bool inside = edge.predicate.contains(fec);
      const bool outside = !edge.predicate.intersects(fec);
      EXPECT_TRUE(inside || outside);
    }
  }
}

TEST(Fec, EmptyTrafficYieldsNoClasses) {
  const auto f = gen::make_figure1();
  EXPECT_TRUE(forwarding_equivalence_classes(f.topo, f.scope, net::PacketSet::empty()).empty());
}

TEST(RefineIntoAtoms, NoPredicatesKeepsUniverse) {
  const auto universe = Figure1::traffic_class(1) | Figure1::traffic_class(2);
  const auto atoms = refine_into_atoms(universe, {});
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_TRUE(atoms[0].equals(universe));
}

TEST(RefineIntoAtoms, PredicateConstantOnEachAtom) {
  const auto universe = net::PacketSet::all();
  const std::vector<net::PacketSet> preds = {
      Figure1::traffic_class(1) | Figure1::traffic_class(2),
      Figure1::traffic_class(2) | Figure1::traffic_class(3),
  };
  const auto atoms = refine_into_atoms(universe, preds);
  // Atoms: {1}, {2}, {3}, rest => 4 classes.
  EXPECT_EQ(atoms.size(), 4u);
  for (const auto& atom : atoms) {
    for (const auto& pred : preds) {
      EXPECT_TRUE(pred.contains(atom) || !pred.intersects(atom));
    }
  }
}

// ---------------------------------------------------------------------------
// Partition oracle. Every partition the refiners produce is checked against
// the exact atoms of its predicates, with every set equality decided through
// net::BddManager nodes: the oracle shares no refinement or PacketSet algebra
// with the code under test, only the conversion of its inputs. The suite
// keeps its historical name: it asserts that the hypercube partitions are
// the atoms the BDD representation computes.

/// The predicates of edges reachable from `entry` over in-scope edges — the
/// predicate set per-entry classification must refine by.
std::vector<net::PacketSet> reachable_predicates(const Topology& topo, const Scope& scope,
                                                 InterfaceId entry) {
  std::vector<net::PacketSet> predicates;
  std::vector<bool> seen(topo.interface_count(), false);
  std::vector<InterfaceId> frontier{entry};
  seen[entry] = true;
  while (!frontier.empty()) {
    const InterfaceId at = frontier.back();
    frontier.pop_back();
    for (const auto& edge : topo.edges()) {
      if (edge.from != at || !scope.contains_interface(topo, edge.to)) continue;
      predicates.push_back(edge.predicate);
      if (!seen[edge.to]) {
        seen[edge.to] = true;
        frontier.push_back(edge.to);
      }
    }
  }
  return predicates;
}

std::vector<net::PacketSet> in_scope_predicates(const Topology& topo, const Scope& scope) {
  std::vector<net::PacketSet> predicates;
  for (const auto& edge : topo.edges()) {
    if (scope.contains_interface(topo, edge.from) && scope.contains_interface(topo, edge.to)) {
      predicates.push_back(edge.predicate);
    }
  }
  return predicates;
}

/// `classes` are exactly the atoms of `predicates` over `universe`: nonempty,
/// pairwise disjoint, covering the universe, every predicate constant on
/// each class, and no two classes with the same predicate signature (the
/// partition is the coarsest one).
::testing::AssertionResult is_atom_partition(const net::PacketSet& universe,
                                             const std::vector<net::PacketSet>& predicates,
                                             const std::vector<net::PacketSet>& classes) {
  using Node = net::BddManager::Node;
  net::BddManager bdd;
  std::vector<Node> preds;
  for (const auto& pred : predicates) preds.push_back(bdd.from_set(pred));
  std::vector<Node> nodes;
  Node covered = net::BddManager::kFalse;
  std::vector<std::vector<bool>> signatures;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const Node cls = bdd.from_set(classes[i]);
    if (cls == net::BddManager::kFalse) {
      return ::testing::AssertionFailure() << "class " << i << " is empty";
    }
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (bdd.land(nodes[j], cls) != net::BddManager::kFalse) {
        return ::testing::AssertionFailure() << "classes " << j << " and " << i << " overlap";
      }
    }
    std::vector<bool> signature;
    for (std::size_t p = 0; p < preds.size(); ++p) {
      const Node inside = bdd.land(cls, preds[p]);
      if (inside != cls && inside != net::BddManager::kFalse) {
        return ::testing::AssertionFailure() << "predicate " << p << " splits class " << i;
      }
      signature.push_back(inside == cls);
    }
    const auto twin = std::find(signatures.begin(), signatures.end(), signature);
    if (twin != signatures.end()) {
      return ::testing::AssertionFailure()
             << "classes " << (twin - signatures.begin()) << " and " << i
             << " have the same predicate signature (partition not coarsest)";
    }
    signatures.push_back(std::move(signature));
    nodes.push_back(cls);
    covered = bdd.lor(covered, cls);
  }
  if (covered != bdd.from_set(universe)) {
    return ::testing::AssertionFailure() << "classes do not cover the universe";
  }
  return ::testing::AssertionSuccess();
}

/// refine_delta's `touched` flags: atom i is touched iff it lies inside one
/// of the changed predicates, decided on BDD nodes.
::testing::AssertionResult touched_flags_exact(const FecDeltaResult& delta,
                                               const std::vector<net::PacketSet>& changed) {
  net::BddManager bdd;
  std::vector<net::BddManager::Node> preds;
  for (const auto& pred : changed) preds.push_back(bdd.from_set(pred));
  for (std::size_t i = 0; i < delta.atoms.size(); ++i) {
    const auto atom = bdd.from_set(delta.atoms[i]);
    const bool inside = std::any_of(preds.begin(), preds.end(),
                                    [&](auto p) { return bdd.land(atom, p) == atom; });
    if (inside != delta.touched[i]) {
      return ::testing::AssertionFailure()
             << "atom " << i << " touched flag is " << delta.touched[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Partitions are unordered: equal iff same size and every class of `a`
/// has an equal class in `b` (classes are pairwise disjoint, so a
/// bijection follows).
bool same_partition(const std::vector<net::PacketSet>& a, const std::vector<net::PacketSet>& b) {
  if (a.size() != b.size()) return false;
  return std::all_of(a.begin(), a.end(), [&](const net::PacketSet& cls) {
    return std::any_of(b.begin(), b.end(),
                       [&](const net::PacketSet& other) { return cls.equals(other); });
  });
}

gen::WanParams randomized_params(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> small(1, 2);
  std::uniform_int_distribution<std::size_t> rules(4, 10);
  std::uniform_int_distribution<std::size_t> asym(0, 4);
  gen::WanParams params;
  params.cores = small(rng) + 1;
  params.aggs = small(rng) + 1;
  params.cells = small(rng);
  params.gateways_per_cell = small(rng);
  params.prefixes_per_gateway = small(rng);
  params.rules_per_acl = rules(rng);
  params.asymmetry = asym(rng);
  params.seed = seed;
  return params;
}

/// Random ACL permitted-sets: a few dst prefixes, some with a port range.
std::vector<net::PacketSet> random_predicates(std::mt19937& rng, int count) {
  std::uniform_int_distribution<int> octet(0, 255);
  std::uniform_int_distribution<int> len_choice(0, 2);
  std::uniform_int_distribution<int> action(0, 1);
  std::uniform_int_distribution<int> n_rules(1, 4);
  std::vector<net::PacketSet> preds;
  for (int k = 0; k < count; ++k) {
    std::vector<net::AclRule> rules;
    const int n = n_rules(rng);
    for (int i = 0; i < n; ++i) {
      net::Match m;
      const std::uint8_t lens[] = {8, 16, 24};
      m.dst = net::Prefix{net::Ipv4{10, static_cast<std::uint8_t>(octet(rng)),
                                    static_cast<std::uint8_t>(octet(rng)), 0},
                          lens[len_choice(rng)]};
      if (octet(rng) < 80) m.dport = net::PortRange{100, 9000};
      rules.push_back({action(rng) ? net::Action::Permit : net::Action::Deny, m});
    }
    preds.push_back(net::permitted_set(net::Acl{rules, net::Action::Deny}));
  }
  return preds;
}

class BackendEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(BackendEquivalence, GlobalFecsMatchOnRandomWan) {
  const auto wan = gen::make_wan(randomized_params(GetParam()));
  const auto preds = in_scope_predicates(wan.topo, wan.scope);
  for (const unsigned threads : {1u, 3u}) {
    EXPECT_TRUE(is_atom_partition(
        wan.traffic, preds,
        forwarding_equivalence_classes(wan.topo, wan.scope, wan.traffic, FecOptions{threads})))
        << "threads " << threads;
  }
}

TEST_P(BackendEquivalence, PerEntryClassesMatchOnRandomWan) {
  const auto wan = gen::make_wan(randomized_params(GetParam()));
  const auto entries = entry_interfaces(wan.topo, wan.scope);
  for (const unsigned threads : {1u, 3u}) {
    const auto classes =
        per_entry_equivalence_classes(wan.topo, wan.scope, wan.traffic, FecOptions{threads});
    ASSERT_EQ(classes.size(), entries.size());
    for (std::size_t i = 0; i < classes.size(); ++i) {
      EXPECT_EQ(classes[i].entry, entries[i]);
      EXPECT_TRUE(is_atom_partition(wan.traffic,
                                    reachable_predicates(wan.topo, wan.scope, entries[i]),
                                    classes[i].classes))
          << "entry " << entries[i] << ", threads " << threads;
    }
  }
}

TEST_P(BackendEquivalence, DeltaRefinementMatchesOnRandomWan) {
  const auto wan = gen::make_wan(randomized_params(GetParam()));
  auto preds = in_scope_predicates(wan.topo, wan.scope);
  std::mt19937 rng(GetParam());
  const auto changed = random_predicates(rng, 3);
  const auto delta = refine_delta(refine_into_atoms(wan.traffic, preds), changed);
  preds.insert(preds.end(), changed.begin(), changed.end());
  EXPECT_TRUE(is_atom_partition(wan.traffic, preds, delta.atoms));
  EXPECT_TRUE(touched_flags_exact(delta, changed));
}

TEST_P(BackendEquivalence, ParallelRefinementMatchesSequential) {
  const auto wan = gen::make_wan(randomized_params(GetParam()));
  const auto sequential =
      forwarding_equivalence_classes(wan.topo, wan.scope, wan.traffic, FecOptions{1});
  const auto parallel =
      forwarding_equivalence_classes(wan.topo, wan.scope, wan.traffic, FecOptions{3});
  EXPECT_TRUE(same_partition(sequential, parallel));

  const auto seq_entries =
      per_entry_equivalence_classes(wan.topo, wan.scope, wan.traffic, FecOptions{1});
  const auto par_entries =
      per_entry_equivalence_classes(wan.topo, wan.scope, wan.traffic, FecOptions{3});
  ASSERT_EQ(seq_entries.size(), par_entries.size());
  for (std::size_t i = 0; i < seq_entries.size(); ++i) {
    EXPECT_EQ(seq_entries[i].entry, par_entries[i].entry);
    EXPECT_TRUE(same_partition(seq_entries[i].classes, par_entries[i].classes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalence, ::testing::Range(1u, 9u));

TEST(BackendEquivalence, RefineIntoAtomsMatchesOnRandomSets) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> n_preds(1, 5);
  const auto universe = net::PacketSet::all();
  for (int trial = 0; trial < 10; ++trial) {
    const auto preds = random_predicates(rng, n_preds(rng));
    for (const unsigned threads : {1u, 3u}) {
      EXPECT_TRUE(is_atom_partition(universe, preds,
                                    refine_into_atoms(universe, preds, FecOptions{threads})))
          << "trial " << trial << ", threads " << threads;
    }
    // The same predicates arriving as a delta over the first one's atoms.
    const std::vector<net::PacketSet> base_preds(preds.begin(), preds.begin() + 1);
    const std::vector<net::PacketSet> changed(preds.begin() + 1, preds.end());
    const auto delta = refine_delta(refine_into_atoms(universe, base_preds), changed);
    EXPECT_TRUE(is_atom_partition(universe, preds, delta.atoms)) << "trial " << trial;
    EXPECT_TRUE(touched_flags_exact(delta, changed)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace jinjing::topo

// FecCache regression: a hit returns exactly the cold derivation, distinct
// inputs never share an entry, and a fixer-style candidate loop derives
// the partition once. The partitions themselves are checked against the
// BDD oracle in fec_test.
#include "topo/fec_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/checker.h"
#include "gen/fixtures.h"
#include "gen/wan.h"

namespace jinjing::topo {
namespace {

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

TEST(FecCacheTest, WarmHitReturnsIdenticalClasses) {
  const auto wan = gen::make_wan(gen::small_wan());
  FecCache cache;
  const FecOptions options;
  const auto cold = cache.entry_classes(wan.topo, wan.scope, wan.traffic, options);
  const auto warm = cache.entry_classes(wan.topo, wan.scope, wan.traffic, options);
  // A hit returns the very same payload, which in turn matches a fresh
  // uncached derivation.
  EXPECT_EQ(cold.get(), warm.get());
  const auto fresh = per_entry_equivalence_classes(wan.topo, wan.scope, wan.traffic, options);
  ASSERT_EQ(cold->size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ((*cold)[i].entry, fresh[i].entry);
    EXPECT_TRUE(same_partition((*cold)[i].classes, fresh[i].classes));
  }

  const auto global_cold = cache.global_classes(wan.topo, wan.scope, wan.traffic, options);
  const auto global_warm = cache.global_classes(wan.topo, wan.scope, wan.traffic, options);
  EXPECT_EQ(global_cold.get(), global_warm.get());
  EXPECT_TRUE(same_partition(
      *global_cold, forwarding_equivalence_classes(wan.topo, wan.scope, wan.traffic, options)));
  EXPECT_EQ(cache.misses(), 2u);  // entry + global
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(FecCacheTest, DistinctInputsDoNotCollide) {
  const auto wan = gen::make_wan(gen::small_wan());
  FecCache cache;
  const auto all = cache.global_classes(wan.topo, wan.scope, wan.traffic, FecOptions{});
  // Different entering set: must miss and give a different partition size
  // or content, never the cached payload.
  const auto narrowed = (wan.traffic & wan.gateway_dst_set(0)).compact();
  const auto sub = cache.global_classes(wan.topo, wan.scope, narrowed, FecOptions{});
  EXPECT_NE(all.get(), sub.get());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
  // The thread count changes only the order of the classes, so it is not
  // part of the key.
  const auto threaded = cache.global_classes(wan.topo, wan.scope, wan.traffic, FecOptions{3});
  EXPECT_EQ(threaded.get(), all.get());
  EXPECT_EQ(cache.hits(), 1u);
  cache.clear();
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST(FecCacheTest, CheckerCandidateLoopHitsCache) {
  // Fixer-style workload: repeated check() of different candidate updates
  // against one checker. Classes are update-independent, so the partition
  // is derived exactly once: the checker's plan cache serves every check
  // after the first, and a sibling checker sharing the FecCache (the
  // engine's check → fix layout) hits the cache instead of re-deriving.
  const auto f = gen::make_figure1();
  smt::SmtContext smt;
  core::CheckOptions options;
  options.fec_cache = std::make_shared<topo::FecCache>();
  core::Checker checker{smt, f.topo, f.scope, options};
  const auto baseline = checker.check({}, f.traffic);
  EXPECT_TRUE(baseline.consistent);
  EXPECT_EQ(checker.fec_cache().misses(), 1u);
  const auto broken = checker.check(f.running_example_update(), f.traffic);
  EXPECT_FALSE(broken.consistent);
  EXPECT_EQ(checker.fec_cache().misses(), 1u);

  smt::SmtContext sibling_smt;
  core::Checker sibling{sibling_smt, f.topo, f.scope, options};
  const auto again = sibling.check(f.running_example_update(), f.traffic);
  EXPECT_FALSE(again.consistent);
  EXPECT_EQ(sibling.fec_cache().misses(), 1u);
  EXPECT_GE(sibling.fec_cache().hits(), 1u);
}

}  // namespace
}  // namespace jinjing::topo

// Randomized end-to-end properties cross-validating the SMT pipeline
// against the exact header-space engine on generated WANs.
#include <gtest/gtest.h>

#include <random>

#include "core/checker.h"
#include "core/fixer.h"
#include "core/generator.h"
#include "gen/scenario.h"
#include "net/acl_algebra.h"
#include "topo/paths.h"

namespace jinjing {
namespace {

gen::WanParams tiny_wan(unsigned seed) {
  gen::WanParams p;
  p.cores = 2;
  p.aggs = 2;
  p.cells = 2;
  p.gateways_per_cell = 2;
  p.prefixes_per_gateway = 2;
  p.rules_per_acl = 10;
  p.seed = seed;
  return p;
}

/// Oracle: exact per-path consistency verdict via the header-space engine.
bool oracle_consistent(const gen::Wan& wan, const topo::AclUpdate& update) {
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  for (const auto& path : topo::enumerate_paths(wan.topo, wan.scope)) {
    const auto carried = topo::forwarding_set(wan.topo, path) & wan.traffic;
    if (carried.is_empty()) continue;
    if (!(topo::path_permitted_set(before, path) & carried)
             .equals(topo::path_permitted_set(after, path) & carried)) {
      return false;
    }
  }
  return true;
}

// The checker's verdict must equal the exact set-based oracle, in every
// mode, across random WANs and random perturbations.
// The trailing padding is a zeroed member: gtest prints the parameter's raw
// bytes into each case name, and those must not vary between runs.
struct CheckOracleCase {
  unsigned seed;
  bool differential;
  bool per_entry;
  char padding[2]{};
};
static_assert(sizeof(CheckOracleCase) == 8, "CheckOracleCase must have no implicit padding");

class CheckMatchesOracle : public ::testing::TestWithParam<CheckOracleCase> {};

TEST_P(CheckMatchesOracle, VerdictsAgree) {
  const auto wan = gen::make_wan(tiny_wan(100 + GetParam().seed));
  const auto update = gen::perturb_rules(wan, 0.04, GetParam().seed);

  smt::SmtContext smt;
  core::CheckOptions options;
  options.use_differential = GetParam().differential;
  options.per_entry_fec = GetParam().per_entry;
  core::Checker checker{smt, wan.topo, wan.scope, options};
  const auto result = checker.check(update, wan.traffic);

  EXPECT_EQ(result.consistent, oracle_consistent(wan, update)) << "seed " << GetParam().seed;

  // Witnesses must be genuine violations.
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  for (const auto& v : result.violations) {
    const auto& path = checker.paths()[v.path_index];
    EXPECT_EQ(topo::path_permits(before, path, v.witness), v.decision_before);
    EXPECT_EQ(topo::path_permits(after, path, v.witness), v.decision_after);
    EXPECT_NE(v.decision_before, v.decision_after);
    EXPECT_TRUE(topo::forwarding_set(wan.topo, path).contains(v.witness))
        << "witness not routable on the violated path";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CheckMatchesOracle,
    ::testing::Values(CheckOracleCase{1, true, true}, CheckOracleCase{1, false, false},
                      CheckOracleCase{2, true, false}, CheckOracleCase{2, false, true},
                      CheckOracleCase{3, true, true}, CheckOracleCase{4, false, false},
                      CheckOracleCase{5, true, true}, CheckOracleCase{6, true, false},
                      CheckOracleCase{7, false, true}, CheckOracleCase{8, true, true}),
    [](const auto& info) {
      return "Seed" + std::to_string(info.param.seed) + (info.param.differential ? "Diff" : "Basic") +
             (info.param.per_entry ? "PerEntry" : "Global");
    });

// fix must terminate with a plan that the oracle accepts.
class FixRepairsToOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(FixRepairsToOracle, FixedUpdateIsExactlyConsistent) {
  const auto wan = gen::make_wan(tiny_wan(200 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.06, GetParam());

  smt::SmtContext smt;
  core::Fixer fixer{smt, wan.topo, wan.scope};
  const auto fix = fixer.fix(update, wan.traffic, wan.topo.bound_slots());
  ASSERT_TRUE(fix.success);
  EXPECT_TRUE(oracle_consistent(wan, fix.fixed_update));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixRepairsToOracle, ::testing::Range(1u, 9u));

// generate must produce plans the oracle accepts, for random migrations.
class GenerateSatisfiesOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(GenerateSatisfiesOracle, MigrationPreservesReachability) {
  const auto wan = gen::make_wan(tiny_wan(300 + GetParam()));

  smt::SmtContext smt;
  core::GenerateOptions options;
  options.universe = wan.traffic;
  core::Generator generator{smt, wan.topo, wan.scope, options};
  const auto result = generator.generate(gen::migration_spec(wan));
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(oracle_consistent(wan, result.update));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenerateSatisfiesOracle, ::testing::Range(1u, 7u));

// control-open: the opened prefixes are reachable afterwards, everything
// else is untouched — verified exactly.
class ControlOpenOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(ControlOpenOracle, OpenedTrafficFlowsOthersUnchanged) {
  const auto wan = gen::make_wan(tiny_wan(400 + GetParam()));
  const auto sc = gen::control_open(wan, 1, GetParam());

  smt::SmtContext smt;
  core::GenerateOptions options;
  options.universe = wan.traffic;
  core::Generator generator{smt, wan.topo, wan.scope, options};
  const auto result = generator.generate(sc.spec, sc.intents);
  ASSERT_TRUE(result.success);

  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &result.update};
  for (const auto& path : topo::enumerate_paths(wan.topo, wan.scope)) {
    const auto carried = topo::forwarding_set(wan.topo, path) & wan.traffic;
    if (carried.is_empty()) continue;
    const auto before_permitted = topo::path_permitted_set(before, path) & carried;
    const auto after_permitted = topo::path_permitted_set(after, path) & carried;

    // Desired set per path: original, plus the opened headers on spanned
    // paths.
    auto desired = before_permitted;
    for (const auto& intent : sc.intents) {
      const bool spans =
          std::find(intent.from.begin(), intent.from.end(), path.entry()) != intent.from.end() &&
          std::find(intent.to.begin(), intent.to.end(), path.exit()) != intent.to.end();
      if (spans) desired = desired | (intent.header & carried);
    }
    EXPECT_TRUE(after_permitted.equals(desired)) << to_string(wan.topo, path);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlOpenOracle, ::testing::Range(1u, 6u));


// Parallel checking returns the same verdict as sequential.
class ParallelCheck : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelCheck, MatchesSequentialVerdict) {
  const auto wan = gen::make_wan(tiny_wan(500 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.04, GetParam());

  smt::SmtContext smt_seq;
  core::CheckOptions seq;
  seq.stop_at_first = false;
  core::Checker sequential{smt_seq, wan.topo, wan.scope, seq};
  const auto a = sequential.check(update, wan.traffic);

  smt::SmtContext smt_par;
  core::CheckOptions par;
  par.stop_at_first = false;
  par.threads = 4;
  core::Checker parallel{smt_par, wan.topo, wan.scope, par};
  const auto b = parallel.check(update, wan.traffic);

  EXPECT_EQ(a.consistent, b.consistent);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.fec_count, b.fec_count);

  // stop_at_first parallel: consistent verdicts also agree.
  smt::SmtContext smt_stop;
  core::CheckOptions stop;
  stop.threads = 4;
  core::Checker stopping{smt_stop, wan.topo, wan.scope, stop};
  EXPECT_EQ(stopping.check(update, wan.traffic).consistent, a.consistent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCheck, ::testing::Range(1u, 6u));


// §6 x Theorem 4.1 interaction: with control intents present, the
// differential reduction must keep the rules the intents can flip — the
// verdict must match basic mode exactly.
class ControlDifferentialAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(ControlDifferentialAgreement, VerdictsMatchAcrossModes) {
  const auto wan = gen::make_wan(tiny_wan(600 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.03, GetParam());
  const auto sc = gen::control_open(wan, 1, GetParam());

  std::optional<bool> previous;
  for (const bool differential : {false, true}) {
    for (const bool per_entry : {false, true}) {
      smt::SmtContext smt;
      core::CheckOptions options;
      options.use_differential = differential;
      options.per_entry_fec = per_entry;
      options.stop_at_first = false;
      core::Checker checker{smt, wan.topo, wan.scope, options};
      const bool verdict = checker.check(update, wan.traffic, sc.intents).consistent;
      if (previous) {
        EXPECT_EQ(*previous, verdict)
            << "diff=" << differential << " per_entry=" << per_entry;
      }
      previous = verdict;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlDifferentialAgreement, ::testing::Range(1u, 7u));


// Topology-shape sweep: the oracle agreement must hold across structural
// variants (full bipartite fabric, wider cells, single aggregation).
struct WanVariant {
  unsigned seed;
  std::size_t aggs;
  std::size_t gateways_per_cell;
  std::size_t asymmetry;
};

class WanShapeOracle : public ::testing::TestWithParam<WanVariant> {};

TEST_P(WanShapeOracle, CheckAndFixAgreeWithOracle) {
  gen::WanParams params = tiny_wan(700 + GetParam().seed);
  params.aggs = GetParam().aggs;
  params.gateways_per_cell = GetParam().gateways_per_cell;
  params.asymmetry = GetParam().asymmetry;
  const auto wan = gen::make_wan(params);
  const auto update = gen::perturb_rules(wan, 0.05, GetParam().seed);

  smt::SmtContext smt;
  core::Checker checker{smt, wan.topo, wan.scope};
  EXPECT_EQ(checker.check(update, wan.traffic).consistent, oracle_consistent(wan, update));

  smt::SmtContext smt2;
  core::Fixer fixer{smt2, wan.topo, wan.scope};
  const auto fix = fixer.fix(update, wan.traffic, wan.topo.bound_slots());
  ASSERT_TRUE(fix.success);
  EXPECT_TRUE(oracle_consistent(wan, fix.fixed_update));
}

INSTANTIATE_TEST_SUITE_P(Shapes, WanShapeOracle,
                         ::testing::Values(WanVariant{1, 2, 2, 0},   // full bipartite
                                           WanVariant{2, 1, 2, 0},   // single aggregation
                                           WanVariant{3, 3, 3, 4},   // wider, asymmetric
                                           WanVariant{4, 2, 1, 3},   // one gateway per cell
                                           WanVariant{5, 3, 2, 2}),  // heavy pruning
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param.seed) + "Aggs" +
                                  std::to_string(info.param.aggs) + "Gpc" +
                                  std::to_string(info.param.gateways_per_cell) + "Asym" +
                                  std::to_string(info.param.asymmetry);
                         });

}  // namespace
}  // namespace jinjing

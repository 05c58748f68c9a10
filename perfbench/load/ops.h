// Seeded operation sequences of the three benchmark workloads.
//
// A workload is an endless, deterministic sequence of rounds; round r is a
// pure function of (workload, seed, r), so any thread can materialize any
// round, both commits of a comparison time the same inputs in the same
// order, and a run that gets further simply replays a longer prefix.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/wan.h"
#include "net/acl.h"

namespace jinjing::perfbench {

enum class OpKind : std::uint8_t {
  Check,         // pending pure check (modify ... check)
  ControlCheck,  // check with §6 control intents
  Fix,           // check + fix of a perturbation
  Generate,      // migration generate
  Apply,         // apply RPC of the round's apply candidate
};

inline constexpr std::size_t kOpKinds = 5;

[[nodiscard]] const char* to_string(OpKind kind);

struct Op {
  OpKind kind = OpKind::Check;
  std::string program;                                 // empty for Apply
  std::vector<std::pair<std::string, net::Acl>> acls;  // named bodies
  /// A consistent pending check whose job the round's Apply op deploys.
  bool apply_candidate = false;
};

struct WorkloadSpec {
  std::string name;
  std::string size;            // "medium" or "large"
  unsigned connections = 1;    // client connections (one thread each)
  unsigned depth = 1;          // jobs in flight per connection
  std::size_t warmup_rounds = 0;
  /// Rounds every run completes even past its time box, so that each
  /// reported percentile has at least ten samples beyond it.
  std::size_t min_rounds = 0;
  /// Server flags, fixed per workload and echoed in the output.
  std::vector<std::string> server_flags;
};

/// The named workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec workload(const std::string& name);
[[nodiscard]] gen::WanParams wan_params(const WorkloadSpec& spec);

/// Round `round` of the workload's sequence for `seed`.
[[nodiscard]] std::vector<Op> round_ops(const WorkloadSpec& spec, const gen::Wan& wan,
                                        unsigned seed, std::size_t round);

/// One line per op: "<round>.<i> <kind> <fnv64 of program and bodies>".
[[nodiscard]] std::string describe(const Op& op, std::size_t round, std::size_t i);

/// "scope <every device>\n": the whole-network scope line of an LAI program.
[[nodiscard]] std::string scope_line(const topo::Topology& topo);

/// A derived seed, mixing the run seed with a round and a slot (splitmix64).
[[nodiscard]] unsigned mix_seed(unsigned seed, std::uint64_t round, std::uint64_t slot);

}  // namespace jinjing::perfbench

#include "ops.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "config/acl_format.h"
#include "gen/scenario.h"

namespace jinjing::perfbench {
namespace {

// Perturbation budget of every pending check and fix, as in §8's Figure 4a.
constexpr double kPerturbFraction = 0.03;

std::string slot_ref(const gen::Wan& wan, topo::AclSlot slot) {
  return wan.topo.qualified_name(slot.iface) + (slot.dir == topo::Dir::In ? "-in" : "-out");
}

/// modify lines binding each updated slot to a named body, plus the bodies.
Op modify_op(const gen::Wan& wan, const topo::AclUpdate& update, OpKind kind,
             const std::string& commands) {
  // Slot order of an unordered update is not part of the input: sort, so
  // the program text is a function of the update alone.
  std::vector<std::pair<std::string, const net::Acl*>> slots;
  for (const auto& [slot, acl] : update) slots.emplace_back(slot_ref(wan, slot), &acl);
  std::sort(slots.begin(), slots.end());
  Op op;
  op.kind = kind;
  op.program = scope_line(wan.topo);
  if (kind == OpKind::Fix) {
    // As in Figure 4b, the repair may touch any ACL of the network.
    op.program += "allow " + scope_line(wan.topo).substr(6);
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::string name = "acl_" + std::to_string(i);
    op.program += "modify " + slots[i].first + " to " + name + "\n";
    op.acls.emplace_back(name, *slots[i].second);
  }
  op.program += commands;
  return op;
}

Op pending_check(const gen::Wan& wan, unsigned seed) {
  return modify_op(wan, gen::perturb_rules(wan, kPerturbFraction, seed), OpKind::Check,
                   "check\n");
}

/// §6 control intents (open one gateway-protected /24 per gateway) checked
/// against the current configuration.
Op control_check(const gen::Wan& wan, unsigned seed) {
  std::string program = gen::control_open_program(wan, gen::control_open(wan, 1, seed));
  const std::string generate = "generate\n";
  if (program.size() < generate.size() ||
      program.compare(program.size() - generate.size(), generate.size(), generate) != 0) {
    throw std::logic_error("control_open_program no longer ends in generate");
  }
  program.replace(program.size() - generate.size(), generate.size(), "check\n");
  Op op;
  op.kind = OpKind::ControlCheck;
  op.program = std::move(program);
  return op;
}

/// Migration of a seeded half of the aggregation ACLs down to the gateway
/// layer (§5, Figure 4c restricted to a subset, so rounds differ).
Op migration_generate(const gen::Wan& wan, unsigned seed) {
  std::vector<topo::AclSlot> sources = wan.agg_slots;
  std::mt19937 rng(seed);
  std::shuffle(sources.begin(), sources.end(), rng);
  sources.resize(std::max<std::size_t>(1, sources.size() / 2));
  std::vector<std::string> refs;
  for (const auto slot : sources) refs.push_back(slot_ref(wan, slot));
  std::sort(refs.begin(), refs.end());
  Op op;
  op.kind = OpKind::Generate;
  op.program = scope_line(wan.topo) + "allow ";
  for (std::size_t i = 0; i < wan.gateway_slots.size(); ++i) {
    if (i > 0) op.program += ", ";
    op.program += slot_ref(wan, wan.gateway_slots[i]);
  }
  op.program += "\n";
  for (const auto& ref : refs) op.program += "modify " + ref + " to permit_all\n";
  op.program += "generate\n";
  return op;
}

/// The round's deployable update: a rotating aggregation slot rebound to
/// its base ACL headed by a deny of one gateway-protected /24. Every
/// gateway already drops its protected /24s on ingress, so the end-to-end
/// decisions stay the same and the check passes, while the slot's permitted
/// set shrinks: the apply has a non-empty Definition 4.1 differential that
/// invalidates cached verdicts and re-splits the classes it meets. It
/// depends on the round alone, never on a result, so both commits walk the
/// same version chain.
Op apply_candidate(const gen::Wan& wan, std::size_t round) {
  const topo::AclSlot slot = wan.agg_slots[round % wan.agg_slots.size()];
  const std::size_t visit = round / wan.agg_slots.size();
  const std::size_t gateway = visit % wan.gateways.size();
  const net::Prefix block = wan.gateway_prefixes[gateway].front();
  // The protected /24s are the first four of each announced /16.
  const std::uint32_t z = (visit / wan.gateways.size()) % 4;
  const net::Prefix protected_24{net::Ipv4{block.addr.value | (z << 8)}, 24};
  const net::Acl& base = wan.topo.acl(slot);
  std::vector<net::AclRule> rules{base.rules().begin(), base.rules().end()};
  rules.insert(rules.begin(),
               config::parse_acl_auto("deny dst " + net::to_string(protected_24) + "\n")
                   .rules()
                   .front());
  topo::AclUpdate update;
  update.emplace(slot, net::Acl{std::move(rules), base.default_action()});
  Op op = modify_op(wan, update, OpKind::Check, "check\n");
  op.apply_candidate = true;
  return op;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string scope_line(const topo::Topology& topo) {
  std::string out = "scope ";
  for (topo::DeviceId d = 0; d < topo.device_count(); ++d) {
    if (d > 0) out += ", ";
    out += topo.device_name(d);
  }
  return out + "\n";
}

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::Check: return "check";
    case OpKind::ControlCheck: return "control_check";
    case OpKind::Fix: return "fix";
    case OpKind::Generate: return "generate";
    case OpKind::Apply: return "apply";
  }
  return "?";
}

unsigned mix_seed(unsigned seed, std::uint64_t round, std::uint64_t slot) {
  std::uint64_t z = (static_cast<std::uint64_t>(seed) << 32) ^ (round * 0x9E3779B97F4A7C15ULL) ^
                    (slot * 0xD1B54A32D192ED03ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<unsigned>(z);
}

WorkloadSpec workload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "check_flood") {
    // Many operators' CI gates at once: deep queues coalesce into batches.
    spec.size = "medium";
    spec.connections = 4;
    spec.depth = 16;
    spec.warmup_rounds = 128;
    spec.min_rounds = 1000;  // p99 needs 1000 checks
  } else if (name == "interactive_large") {
    // One operator at the largest size: every job runs alone.
    spec.size = "large";
    spec.warmup_rounds = 2;
    spec.min_rounds = 100;  // 100 checks of each kind: p90 on both
  } else if (name == "update_cycle") {
    // The operator change loop: check, fix, generate, apply.
    spec.size = "medium";
    spec.warmup_rounds = 1;
    spec.min_rounds = 20;  // 100 pure checks (p90), 20 fixes and generates (p50)
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (check_flood, interactive_large, update_cycle)");
  }
  spec.server_flags = {"--workers", "4",          "--queue-depth",   "128",
                       "--coalesce", "32",        "--keep-versions", "8",
                       "--retain-jobs", "1024",   "--max-delta-chain", "16"};
  return spec;
}

gen::WanParams wan_params(const WorkloadSpec& spec) {
  return spec.size == "large" ? gen::large_wan() : gen::medium_wan();
}

std::vector<Op> round_ops(const WorkloadSpec& spec, const gen::Wan& wan, unsigned seed,
                          std::size_t round) {
  std::vector<Op> ops;
  if (spec.name == "check_flood") {
    ops.push_back(pending_check(wan, mix_seed(seed, round, 0)));
  } else if (spec.name == "interactive_large") {
    ops.push_back(pending_check(wan, mix_seed(seed, round, 0)));
    ops.push_back(control_check(wan, mix_seed(seed, round, 1)));
  } else {
    for (std::uint64_t k = 0; k < 3; ++k) {
      ops.push_back(pending_check(wan, mix_seed(seed, round, k)));
    }
    // The previous round's first change, re-verified on the new head as a
    // CI gate does after someone else's apply: its cached verdicts were
    // invalidated by that apply, so this check takes the stale path.
    const unsigned previous = round == 0 ? mix_seed(seed, 0, 9) : mix_seed(seed, round - 1, 0);
    ops.push_back(pending_check(wan, previous));
    ops.push_back(apply_candidate(wan, round));
    const topo::AclUpdate fix_update =
        gen::perturb_rules(wan, kPerturbFraction, mix_seed(seed, round, 5));
    ops.push_back(modify_op(wan, fix_update, OpKind::Fix, "check\nfix\n"));
    ops.push_back(migration_generate(wan, mix_seed(seed, round, 6)));
    Op apply;
    apply.kind = OpKind::Apply;
    ops.push_back(std::move(apply));
  }
  return ops;
}

std::string describe(const Op& op, std::size_t round, std::size_t i) {
  std::uint64_t h = fnv1a(1469598103934665603ULL, op.program);
  for (const auto& [name, acl] : op.acls) {
    h = fnv1a(h, name);
    h = fnv1a(h, config::print_acl(acl));
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return std::to_string(round) + "." + std::to_string(i) + " " + to_string(op.kind) + " " + hex;
}

}  // namespace jinjing::perfbench

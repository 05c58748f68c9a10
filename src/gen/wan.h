// Synthetic layered WAN generator — the stand-in for the production
// networks of §8 (8% / 30% / 80% of Alibaba's WAN).
//
// Topology (traffic flows top-down from an external backbone):
//
//   backbone ──> core routers ──> aggregation routers ──> cell gateways ──> hosts
//
// plus an intra-cell fabric: each gateway also receives peer traffic from
// its cell on a separate external interface ("pe") that leaves through the
// gateway's host-side egress — the structure that makes §7 Scenario 2's
// ingress→egress ACL relocation non-trivial.
//
// The address plan is hierarchical (one /16 block per gateway, /24
// sub-blocks for protected subnets); ACL rules are drawn from the plan so
// rule overlap statistics mirror a "well-organized cloud-scale network"
// (converged traffic, polynomial AEC growth, no FEC explosion).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topo/topology.h"

namespace jinjing::gen {

struct WanParams {
  std::size_t cores = 2;
  std::size_t aggs = 2;
  std::size_t cells = 2;
  std::size_t gateways_per_cell = 2;
  std::size_t prefixes_per_gateway = 2;   // announced /16 blocks
  std::size_t rules_per_acl = 8;          // approximate ACL length
  /// Drop the agg->gateway link when (agg + gw) % asymmetry == 1, creating
  /// the path asymmetry §1 says defeats compression techniques. 0 = full
  /// bipartite.
  std::size_t asymmetry = 4;
  unsigned seed = 1;
  /// The tail padding spelled out as a zeroed member: gtest prints a
  /// parameter's raw bytes into test names, which must not vary between runs.
  char padding[4]{};
};
static_assert(sizeof(WanParams) == 64, "WanParams must have no implicit padding");

/// The three calibrated sizes of §8.
[[nodiscard]] WanParams small_wan();
[[nodiscard]] WanParams medium_wan();
[[nodiscard]] WanParams large_wan();

struct Wan {
  topo::Topology topo;
  topo::Scope scope;        // the whole generated network
  net::PacketSet traffic;   // everything entering: backbone + intra-cell peer

  WanParams params;
  std::vector<topo::DeviceId> cores;
  std::vector<topo::DeviceId> aggs;
  std::vector<topo::DeviceId> gateways;               // cell-major order
  std::vector<std::vector<std::size_t>> cell_members; // per cell: gateway indices

  /// Announced /16 prefixes per gateway (indices align with `gateways`).
  std::vector<std::vector<net::Prefix>> gateway_prefixes;

  /// ACL-bearing slots by layer.
  std::vector<topo::AclSlot> agg_slots;      // middle layer (ingress)
  std::vector<topo::AclSlot> gateway_slots;  // lower layer (ingress, from aggs)
  /// Per gateway index: the host-side egress slot (no ACL initially).
  std::vector<topo::AclSlot> gateway_egress_slots;
  /// Per gateway index: entry interfaces.
  std::vector<topo::InterfaceId> gateway_peer_ifaces;  // intra-cell entry
  /// Backbone entry interfaces ("up" on each core).
  std::vector<topo::InterfaceId> core_entry_ifaces;

  /// Union of the prefixes announced by one gateway, as a packet set on dst.
  [[nodiscard]] net::PacketSet gateway_dst_set(std::size_t gw) const;
  /// Union over a whole cell.
  [[nodiscard]] net::PacketSet cell_dst_set(std::size_t cell) const;
};

[[nodiscard]] Wan make_wan(const WanParams& params);

/// Total ACL rules across all configured slots (a size metric for reports).
[[nodiscard]] std::size_t total_rules(const Wan& wan);

}  // namespace jinjing::gen

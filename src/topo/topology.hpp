#pragma once
// Topology zoo for the §VI.C multistage scaling argument: one common
// stage/link-graph representation covering
//
//  * folded-Clos k-ary fat trees (the FT' recursion the fabric
//    simulators wire; bidirectional ports, up/down routing),
//  * three-stage Clos(m,n,r) in Dally notation (r ingress switches of
//    n hosts + m uplinks, m middle r x r switches, r egress switches),
//  * Omega / Banyan / Benes multistage interconnection networks built
//    from the fundamental 2x2 arrangement (Gur & Zalevsky, PAPERS.md):
//    log2(N) shuffle-exchange or butterfly columns, and the
//    rearrangeable 2*log2(N)-1 column Benes from a butterfly mirrored
//    onto itself.
//
// A Topology is pure data: per-switch peer tables (who feeds each input
// port, where each output port leads), a per-hop routing function, host
// attach points for injection and delivery, and a connectivity + fault
// audit that walks every routed (src, dst) path. The cell/flit
// simulators (fabric_sim, topo_sim) consume this instead of wiring
// arithmetic of their own.
//
// Conventions shared with the fabric simulators: folded topologies use
// ONE port table (a port is both an input and an output; in_peer ==
// out_peer); unidirectional MINs and Clos(m,n,r) keep distinct input
// and output sides. Routing is static per (switch, destination) so
// per-flow cell order is preserved by construction.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace osmosis::topo {

enum class TopoKind : std::uint8_t {
  kFatTree = 0,  // folded Clos, radix-port switches, L levels
  kClos = 1,     // three-stage Clos(m,n,r), unfolded
  kOmega = 2,    // log2(N) shuffle-exchange columns, unique path
  kBanyan = 3,   // log2(N) butterfly columns, unique path
  kBenes = 4,    // 2*log2(N)-1 columns, rearrangeably non-blocking
};

const char* to_string(TopoKind kind);
/// Inverse of to_string; aborts (OSMOSIS_REQUIRE) on an unknown name.
TopoKind topo_kind_from_string(const std::string& name);

enum class RouteKind : std::uint8_t {
  // Static destination-digit choice at every free stage (d-mod-k): the
  // scheme the fabric simulators ship, reproduced exactly.
  kDestMod = 0,
  // Static per-(switch, destination) hash at free stages: spreads the
  // same destination over different middles at different switches.
  // Still deterministic, so per-flow order holds.
  kHashSpread = 1,
};

const char* to_string(RouteKind kind);
RouteKind route_kind_from_string(const std::string& name);

enum class PeerKind : std::uint8_t { kNone = 0, kHost = 1, kSwitch = 2 };

/// One end of a link: a host adapter or (switch, port), plus the cable
/// flight time in slots.
struct Peer {
  PeerKind kind = PeerKind::kNone;
  int id = -1;    // host index or switch index
  int port = -1;  // peer's port (switches only; -1 for hosts)
  int delay = 1;  // cable slots
};

/// Destination interval [lo, hi) reachable through `port` going down
/// (folded topologies only; generator scratch kept for diagnostics).
struct DownRange {
  int lo = 0;
  int hi = 0;
  int port = -1;
};

struct SwitchSpec {
  // 1-based level for folded trees (1 = leaf); 1-based column for
  // unidirectional networks (1 = ingress column).
  int stage = 1;
  std::vector<Peer> in_peer;   // feeder of each input port
  std::vector<Peer> out_peer;  // destination of each output port
  // Folded topologies only: static route table (dst -> out port, -1
  // when a failure set leaves dst unreachable or the switch is dead).
  std::vector<int> route;
  std::vector<DownRange> down_ranges;
  std::vector<int> up_ports;

  int in_ports() const { return static_cast<int>(in_peer.size()); }
  int out_ports() const { return static_cast<int>(out_peer.size()); }
};

/// Host h injects at (sw, port) / receives from (sw, port).
struct HostAttach {
  int sw = -1;
  int port = -1;
};

/// Canonical shape for `hosts` attached endpoints, derived by
/// derive_shape(): which generator parameters realize the port count,
/// or why none do (message names the nearest valid counts, satisfying
/// the "(m,n,r) / k-vs-port-count" error contract). Fat trees take the
/// level count L as given and solve hosts = radix*(radix/2)^(L-1) for
/// the radix; every other kind fixes its own stage count and rejects
/// levels != 2.
struct Shape {
  bool ok = false;
  std::string error;  // set when !ok
  // Fat tree:
  int radix = 0;
  int levels = 0;
  // Clos(m,n,r):
  int m = 0, n = 0, r = 0;
  // MINs:
  int log2_hosts = 0;
};

Shape derive_shape(TopoKind kind, int hosts, int levels = 2);

struct Topology {
  TopoKind kind = TopoKind::kFatTree;
  RouteKind routing = RouteKind::kDestMod;
  std::string name;    // e.g. "fat_tree(r8,L2)", "clos(m4,n4,r8)"
  bool folded = false; // bidirectional ports (fat tree) or one-way MIN
  int hosts = 0;
  int stages = 0;      // switch columns a worst-case path traverses
  int diameter = 0;    // worst-case switch hops (== stages when unfolded)
  int host_delay = 1;
  int trunk_delay = 4;
  std::vector<SwitchSpec> switches;
  std::vector<HostAttach> inject;
  std::vector<HostAttach> deliver;
  // Construction-time permanent faults, routed around where path
  // diversity exists (fat-tree non-leaf switches, Clos middles).
  std::vector<std::uint8_t> failed;
  std::map<std::string, double> params;  // for RunReport "topology"

  int switch_count() const { return static_cast<int>(switches.size()); }
  bool dead(int sw) const { return failed[static_cast<std::size_t>(sw)] != 0; }

  /// Out port carrying `dst` at switch `sw`; -1 when unreachable.
  /// Folded kinds read the precomputed table; MINs and Clos answer in
  /// closed form (destination-tag / destination-digit).
  int route_port(int sw, int dst) const;

  /// Walks every (src, dst) routed path: each must terminate at host
  /// `dst` within the hop bound without crossing a dead switch.
  /// Returns human-readable findings (empty == connected); stops after
  /// `max_findings` so a dark fabric doesn't report hosts^2 lines.
  std::vector<std::string> audit(std::size_t max_findings = 8) const;

  /// Switch ids of the given 1-based stage, in id order (used to aim
  /// fault plans at "spine 0" regardless of topology).
  std::vector<int> stage_switches(int stage) const;
};

struct FatTreeParams {
  int radix = 8;
  int levels = 2;
  int host_delay = 1;
  int trunk_delay = 4;
  RouteKind routing = RouteKind::kDestMod;
  std::vector<int> failed_switches;
};

/// The FT' recursion the fabric simulators wire (DESIGN.md §9):
/// FT'(1) = one switch, m hosts down + m uplinks; FT'(l) = m pods of
/// FT'(l-1) under m^(l-1) level-l switches; the machine = radix pods of
/// FT'(L-1) under m^(L-1) top switches with every port facing down.
/// Switch ids: pods (recursively, leaf-first) then their tops, so a
/// two-level tree numbers leaves 0..radix-1 and spines radix..radix+m-1
/// exactly like FabricSim.
Topology make_fat_tree(const FatTreeParams& p);

struct ClosParams {
  int m = 4;  // middle switches
  int n = 4;  // hosts per ingress/egress switch
  int r = 4;  // ingress (= egress) switches
  int host_delay = 1;
  int trunk_delay = 4;
  RouteKind routing = RouteKind::kDestMod;
  std::vector<int> failed_middles;  // middle-stage indices 0..m-1
};

/// Unfolded three-stage Clos(m,n,r) in Dally notation. Stage 1: r
/// ingress switches (n host inputs, m middle uplinks). Stage 2: m
/// middle r x r switches. Stage 3: r egress switches (m inputs, n host
/// outputs). n*r hosts; rearrangeably non-blocking at m >= n.
Topology make_clos(const ClosParams& p);

struct MinParams {
  int hosts = 16;  // power of two >= 4
  int host_delay = 1;
  int trunk_delay = 4;
  RouteKind routing = RouteKind::kDestMod;
};

/// Omega: k = log2(N) columns of N/2 2x2 switches with a perfect
/// shuffle in front of every column; unique path, destination-tag
/// routed, blocking (see min_route.hpp for the admission check).
Topology make_omega(const MinParams& p);

/// Banyan (butterfly): k columns, column s pairs lines differing in bit
/// k-1-s; unique path, destination-tag routed.
Topology make_banyan(const MinParams& p);

/// Benes: 2k-1 columns — a butterfly (bits k-1..1), the bit-0 column,
/// and the mirrored butterfly (bits 1..k-1). Rearrangeably
/// non-blocking (min_route.hpp proves it by the looping algorithm);
/// statically routed here: free choice in the first k-1 columns,
/// destination-tag self-routing from the middle column on.
Topology make_benes(const MinParams& p);

/// Canonical-shape dispatcher for campaign/chaos axes: derives the
/// generator parameters for `hosts` endpoints (and, for fat trees,
/// `levels`) via derive_shape() and builds the topology. Aborts
/// (OSMOSIS_REQUIRE) when no shape exists; validate first with
/// mgmt::validate_topology for a soft error.
Topology make_topology(TopoKind kind, int hosts,
                       RouteKind routing = RouteKind::kDestMod,
                       const std::vector<int>& failed_switches = {},
                       int host_delay = 1, int trunk_delay = 4,
                       int levels = 2);

}  // namespace osmosis::topo

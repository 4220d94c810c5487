// Tests for the topology zoo (DESIGN.md §15): canonical shapes and
// their error contract, generator structure, the connectivity audit,
// permutation routability of the MINs (Benes rearrangeability via the
// looping algorithm, Omega blocking), and the management validators
// for topology / flow-control scenario axes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/ckpt/ckpt.hpp"
#include "src/mgmt/config_check.hpp"
#include "src/sim/rng.hpp"
#include "src/topo/min_route.hpp"
#include "src/topo/topology.hpp"

namespace osmosis::topo {
namespace {

constexpr TopoKind kAllKinds[] = {TopoKind::kFatTree, TopoKind::kClos,
                                  TopoKind::kOmega, TopoKind::kBanyan,
                                  TopoKind::kBenes};

std::string one_error(const std::vector<mgmt::Finding>& findings) {
  for (const auto& f : findings)
    if (f.severity == mgmt::Severity::kError) return f.detail;
  return "";
}

TEST(TopoShape, CanonicalShapesAt32Hosts) {
  // At 32 hosts the zoo realizes exactly the §VI.C stage-count triple:
  // a 3-hop folded fat tree, 5-column Omega/Banyan, a 9-column Benes.
  const Topology ft = make_topology(TopoKind::kFatTree, 32);
  EXPECT_TRUE(ft.folded);
  EXPECT_EQ(ft.diameter, 3);
  const Topology clos = make_topology(TopoKind::kClos, 32);
  EXPECT_EQ(clos.stages, 3);
  EXPECT_EQ(clos.switch_count(), 20);  // r + m + r = 8 + 4 + 8
  for (TopoKind kind : {TopoKind::kOmega, TopoKind::kBanyan}) {
    const Topology t = make_topology(kind, 32);
    EXPECT_EQ(t.stages, 5) << to_string(kind);
    EXPECT_EQ(t.switch_count(), 5 * 16) << to_string(kind);
  }
  const Topology benes = make_topology(TopoKind::kBenes, 32);
  EXPECT_EQ(benes.stages, 9);
  EXPECT_EQ(benes.switch_count(), 9 * 16);
}

TEST(TopoShape, ShapeErrorsNameNearestValidCounts) {
  const Shape ft = derive_shape(TopoKind::kFatTree, 30);
  ASSERT_FALSE(ft.ok);
  // 18 (radix 6) and 32 (radix 8) bracket 30.
  EXPECT_NE(ft.error.find("18"), std::string::npos) << ft.error;
  EXPECT_NE(ft.error.find("32"), std::string::npos) << ft.error;

  // Below the smallest tree there is no lower neighbour to name.
  const Shape tiny = derive_shape(TopoKind::kFatTree, 6);
  ASSERT_FALSE(tiny.ok);
  EXPECT_NE(tiny.error.find("8 (radix 4)"), std::string::npos) << tiny.error;
  EXPECT_EQ(tiny.error.find("8 (radix 4)"), tiny.error.rfind("8 (radix 4)"))
      << tiny.error;
  EXPECT_EQ(tiny.error.find("nearest"), std::string::npos) << tiny.error;

  // At L=3 a tree serves radix*(radix/2)^2 hosts: 54 (radix 6) and
  // 128 (radix 8) bracket 100.
  const Shape deep = derive_shape(TopoKind::kFatTree, 100, 3);
  ASSERT_FALSE(deep.ok);
  EXPECT_NE(deep.error.find("54 (radix 6)"), std::string::npos) << deep.error;
  EXPECT_NE(deep.error.find("128 (radix 8)"), std::string::npos)
      << deep.error;

  // Only fat trees have a level count.
  EXPECT_DEATH(make_topology(TopoKind::kClos, 32, RouteKind::kDestMod, {}, 1,
                             4, /*levels=*/3),
               "levels = 3");

  const Shape min = derive_shape(TopoKind::kOmega, 24);
  ASSERT_FALSE(min.ok);
  EXPECT_NE(min.error.find("power of two"), std::string::npos) << min.error;
  EXPECT_NE(min.error.find("16"), std::string::npos) << min.error;

  // The validator surfaces the same message as an error finding.
  const auto findings = mgmt::validate_topology(TopoKind::kBenes, 24);
  EXPECT_FALSE(mgmt::config_ok(findings));
  EXPECT_NE(one_error(findings).find("power of two"), std::string::npos);
}

TEST(TopoAudit, EveryGeneratorIsFullyConnected) {
  for (TopoKind kind : kAllKinds) {
    for (int hosts : {32, 128}) {
      const Topology t = make_topology(kind, hosts);
      EXPECT_EQ(t.hosts, hosts) << t.name;
      EXPECT_EQ(static_cast<int>(t.inject.size()), hosts) << t.name;
      EXPECT_EQ(static_cast<int>(t.deliver.size()), hosts) << t.name;
      const auto findings = t.audit();
      EXPECT_TRUE(findings.empty())
          << t.name << ": " << (findings.empty() ? "" : findings.front());
    }
  }
}

TEST(TopoAudit, RoutesAroundConstructionTimeFailures) {
  // Fat tree: one dead top switch leaves every pair connected. Global
  // ids put the 2-level tops after the leaves (leaf 0..7, top 8..11).
  const Topology ft =
      make_topology(TopoKind::kFatTree, 32, RouteKind::kDestMod, {9});
  EXPECT_TRUE(ft.audit().empty());
  EXPECT_TRUE(ft.dead(9));
  // Clos: a dead middle (global ids r..r+m-1 = 8..11 at 32 hosts).
  const Topology clos =
      make_topology(TopoKind::kClos, 32, RouteKind::kDestMod, {10});
  EXPECT_TRUE(clos.audit().empty());
  EXPECT_TRUE(clos.dead(10));
}

TEST(TopoAudit, FindingsForADisconnectedTreeArePinned) {
  // All four top switches of the 32-host two-level tree dead: no
  // inter-leaf path survives, so each of the 32 hosts is cut off from
  // the 28 on other leaves. The default list is the first 8 in
  // (src, dst) order: host 0 (leaf 0) toward hosts 4..11.
  const Topology ft = make_topology(TopoKind::kFatTree, 32,
                                    RouteKind::kDestMod, {8, 9, 10, 11});
  std::vector<std::string> want;
  for (int dst = 4; dst < 12; ++dst)
    want.push_back("failed switches disconnect host " + std::to_string(dst) +
                   " from host 0 (no surviving route at switch 0)");
  EXPECT_EQ(ft.audit(), want);
  const std::vector<std::string> all = ft.audit(SIZE_MAX);
  std::string joined;
  for (const std::string& f : all) joined += f + "\n";
  EXPECT_EQ(all.size(), 896u);
  EXPECT_EQ(ckpt::crc32(joined), 0x5D44ED28u);
}

TEST(TopoAudit, MisrouteOnOneLeafIsFoundFromEachOfItsHosts) {
  // Leaf 2 of the 32-host tree sends traffic for host 0 down its port 1
  // (host 9). Paths from leaves 0, 1 and 3..7 stay clean, so the audit
  // walks one host per such leaf; each of leaf 2's hosts 8..11 still
  // reports its own finding, in src order.
  Topology ft = make_topology(TopoKind::kFatTree, 32);
  ft.switches[2].route[0] = 1;
  std::vector<std::string> want;
  for (int src = 8; src < 12; ++src)
    want.push_back("route from host " + std::to_string(src) +
                   " toward host 0 delivers to host 9 (switch 2 port 1)");
  EXPECT_EQ(ft.audit(), want);
  EXPECT_EQ(ft.audit(SIZE_MAX), want);
  want.resize(3);
  EXPECT_EQ(ft.audit(3), want);
}

TEST(TopoRoute, HashSpreadStaysConnectedAndDeterministic) {
  for (TopoKind kind : kAllKinds) {
    const Topology t = make_topology(kind, 32, RouteKind::kHashSpread);
    EXPECT_TRUE(t.audit().empty()) << t.name;
    // Static routing: the same (switch, dst) always answers the same.
    EXPECT_EQ(t.route_port(0, 17), t.route_port(0, 17)) << t.name;
  }
}

TEST(MinRoute, BenesRoutesEveryPermutationLinkDisjointly) {
  // The looping algorithm must realize ANY permutation; check identity,
  // reversal, rotation, and a random sample, verifying the routes are
  // link-disjoint (per-column line sets are permutations) and land on
  // perm[f].
  const int hosts = 16;
  const int columns = 2 * 4 - 1;
  std::vector<std::vector<int>> perms;
  std::vector<int> p(hosts);
  std::iota(p.begin(), p.end(), 0);
  perms.push_back(p);                           // identity
  std::reverse(p.begin(), p.end());
  perms.push_back(p);                           // reversal
  std::iota(p.begin(), p.end(), 0);
  std::rotate(p.begin(), p.begin() + 1, p.end());
  perms.push_back(p);                           // rotation
  sim::Rng rng(0xBE2E5);
  for (int i = 0; i < 200; ++i) {
    std::iota(p.begin(), p.end(), 0);
    for (int j = hosts - 1; j > 0; --j)
      std::swap(p[static_cast<std::size_t>(j)],
                p[rng.uniform_int(static_cast<std::uint64_t>(j + 1))]);
    perms.push_back(p);
  }
  for (const auto& perm : perms) {
    const BenesRoute r = benes_loop_route(hosts, perm);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(static_cast<int>(r.lines.size()), hosts);
    for (int c = 0; c <= columns; ++c) {
      std::set<int> used;
      for (int f = 0; f < hosts; ++f)
        used.insert(r.lines[static_cast<std::size_t>(f)]
                           [static_cast<std::size_t>(c)]);
      EXPECT_EQ(static_cast<int>(used.size()), hosts) << "column " << c;
    }
    for (int f = 0; f < hosts; ++f)
      EXPECT_EQ(r.lines[static_cast<std::size_t>(f)].back(),
                perm[static_cast<std::size_t>(f)]);
  }
  // Not a permutation -> rejected, not mis-routed.
  std::vector<int> dup(hosts, 3);
  EXPECT_FALSE(benes_loop_route(hosts, dup).ok);
}

TEST(MinRoute, OmegaBlocksConflictingPermutations) {
  const int hosts = 8;
  // The shuffle-exchange has a unique path per pair; some permutation
  // must collide internally while others pass. Scan a deterministic
  // sample and require both outcomes.
  std::vector<int> p(hosts);
  std::iota(p.begin(), p.end(), 0);
  int admitted = 0, blocked = 0;
  sim::Rng rng(0x03E6A);
  for (int i = 0; i < 500; ++i) {
    for (int j = hosts - 1; j > 0; --j)
      std::swap(p[static_cast<std::size_t>(j)],
                p[rng.uniform_int(static_cast<std::uint64_t>(j + 1))]);
    if (omega_admits(hosts, p)) {
      ++admitted;
    } else {
      ++blocked;
      // The same conflicting permutation always routes on a Benes.
      EXPECT_TRUE(benes_loop_route(hosts, p).ok);
    }
  }
  EXPECT_GT(admitted, 0);
  EXPECT_GT(blocked, 0);
}

TEST(TopoValidate, FailedSwitchContract) {
  // Unique-path MINs reject any permanent failure.
  for (TopoKind kind :
       {TopoKind::kOmega, TopoKind::kBanyan, TopoKind::kBenes}) {
    const auto findings = mgmt::validate_topology(kind, 32, {0});
    EXPECT_FALSE(mgmt::config_ok(findings)) << to_string(kind);
    EXPECT_NE(one_error(findings).find("unique path"), std::string::npos);
  }
  // Fat-tree leaves and Clos ingress/egress have no path diversity.
  const auto leaf = mgmt::validate_topology(TopoKind::kFatTree, 32, {0});
  EXPECT_FALSE(mgmt::config_ok(leaf));
  EXPECT_NE(one_error(leaf).find("leaf"), std::string::npos);
  const auto ingress = mgmt::validate_topology(TopoKind::kClos, 32, {0});
  EXPECT_FALSE(mgmt::config_ok(ingress));
  EXPECT_NE(one_error(ingress).find("ingress"), std::string::npos);
  // Diverse switches are accepted — and what the validator accepts, the
  // generic builder builds with the same (global) switch indexing.
  EXPECT_TRUE(
      mgmt::config_ok(mgmt::validate_topology(TopoKind::kFatTree, 32, {9})));
  EXPECT_TRUE(
      mgmt::config_ok(mgmt::validate_topology(TopoKind::kClos, 32, {10})));
  // Killing every parallel path is rejected even though each switch
  // individually is diverse.
  const auto all_mids =
      mgmt::validate_topology(TopoKind::kClos, 32, {8, 9, 10, 11});
  EXPECT_FALSE(mgmt::config_ok(all_mids));
}

TEST(TopoValidate, FlowControlShapeAndSizing) {
  FcParams fc;
  fc.kind = FcKind::kWormholeVc;
  fc.lanes = 0;
  EXPECT_FALSE(mgmt::config_ok(mgmt::validate_flow_control(fc, 16)));
  fc.lanes = 2;
  fc.lane_flits = 4;
  // 4-flit lanes cannot cover the 9-slot round trip of a 4-slot trunk:
  // warning, not error.
  const auto shallow = mgmt::validate_flow_control(fc, 16, 4);
  EXPECT_TRUE(mgmt::config_ok(shallow));
  EXPECT_FALSE(shallow.empty());
  EXPECT_NE(shallow.front().detail.find("round trip"), std::string::npos);
  fc.lane_flits = 9;
  EXPECT_TRUE(mgmt::validate_flow_control(fc, 16, 4).empty());
  // Cell kinds need at least one buffer cell.
  fc.kind = FcKind::kCredit;
  EXPECT_FALSE(mgmt::config_ok(mgmt::validate_flow_control(fc, 0)));
}

TEST(TopoStrings, RoundTrip) {
  for (TopoKind kind : kAllKinds)
    EXPECT_EQ(topo_kind_from_string(to_string(kind)), kind);
  for (RouteKind r : {RouteKind::kDestMod, RouteKind::kHashSpread})
    EXPECT_EQ(route_kind_from_string(to_string(r)), r);
  for (FcKind fc :
       {FcKind::kCredit, FcKind::kRelayed, FcKind::kWormholeVc})
    EXPECT_EQ(fc_kind_from_string(to_string(fc)), fc);
}

}  // namespace
}  // namespace osmosis::topo

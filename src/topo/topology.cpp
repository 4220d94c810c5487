#include "src/topo/topology.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

#include "src/util/log.hpp"
#include "src/util/units.hpp"

namespace osmosis::topo {
namespace {

// Same mixer the campaign seed derivation uses; here it spreads the
// kHashSpread routing digit so the constant is part of the routing
// contract (changing it re-routes every hash-spread flow).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t route_hash(int sw, int dst) {
  return splitmix64(static_cast<std::uint64_t>(sw) * 0x9E3779B97F4A7C15ULL ^
                    static_cast<std::uint64_t>(dst));
}

int ilog2_exact(int v) {
  int k = 0;
  while ((1 << k) < v) ++k;
  return (1 << k) == v ? k : -1;
}

// Line covered by (column switch j, port p) when the column pairs lines
// differing in bit b: insert bit p at position b of j.
int min_line(int j, int p, int b) {
  const int low = j & ((1 << b) - 1);
  const int high = j >> b;
  return (high << (b + 1)) | low | (p << b);
}

int min_switch_of_line(int l, int b) {
  const int low = l & ((1 << b) - 1);
  return (l >> (b + 1)) << b | low;
}

int min_port_of_line(int l, int b) { return (l >> b) & 1; }

}  // namespace

const char* to_string(TopoKind kind) {
  switch (kind) {
    case TopoKind::kFatTree: return "fat_tree";
    case TopoKind::kClos: return "clos";
    case TopoKind::kOmega: return "omega";
    case TopoKind::kBanyan: return "banyan";
    case TopoKind::kBenes: return "benes";
  }
  return "?";
}

TopoKind topo_kind_from_string(const std::string& name) {
  for (TopoKind k : {TopoKind::kFatTree, TopoKind::kClos, TopoKind::kOmega,
                     TopoKind::kBanyan, TopoKind::kBenes})
    if (name == to_string(k)) return k;
  OSMOSIS_REQUIRE(false, "unknown topology kind '" << name << "'");
  return TopoKind::kFatTree;
}

const char* to_string(RouteKind kind) {
  switch (kind) {
    case RouteKind::kDestMod: return "dmod";
    case RouteKind::kHashSpread: return "hash";
  }
  return "?";
}

RouteKind route_kind_from_string(const std::string& name) {
  for (RouteKind k : {RouteKind::kDestMod, RouteKind::kHashSpread})
    if (name == to_string(k)) return k;
  OSMOSIS_REQUIRE(false, "unknown routing kind '" << name << "'");
  return RouteKind::kDestMod;
}

Shape derive_shape(TopoKind kind, int hosts, int levels) {
  Shape s;
  std::ostringstream err;
  if (kind != TopoKind::kFatTree && levels != 2) {
    err << to_string(kind) << ": levels = " << levels
        << " applies only to fat_tree; this kind fixes its own stage count "
           "(levels must stay 2)";
    s.error = err.str();
    return s;
  }
  switch (kind) {
    case TopoKind::kFatTree: {
      if (levels < 1 || levels > 4) {
        err << "fat_tree: levels must be in 1..4, got " << levels;
        break;
      }
      // L levels of radix-port switches serve radix * (radix/2)^(L-1)
      // endpoints; the smallest radix is 4.
      const auto count = [levels](int radix) {
        return static_cast<std::uint64_t>(radix) *
               util::ipow(static_cast<std::uint64_t>(radix / 2),
                          static_cast<unsigned>(levels - 1));
      };
      const auto want = static_cast<std::uint64_t>(std::max(hosts, 0));
      int radix = 4;
      while (count(radix) < want) radix += 2;
      if (count(radix) == want) {
        s.ok = true;
        s.radix = radix;
        s.levels = levels;
        return s;
      }
      err << "fat_tree: " << hosts << " ports is not radix";
      if (levels > 1) err << "*(radix/2)";
      if (levels > 2) err << "^" << levels - 1;
      err << " for any even radix; ";
      if (radix > 4)
        err << "nearest valid counts are " << count(radix - 2) << " (radix "
            << radix - 2 << ") and ";
      else
        err << "the smallest valid count is ";
      err << count(radix) << " (radix " << radix << ")";
      break;
    }
    case TopoKind::kClos: {
      if (hosts < 4) {
        err << "clos: need at least 4 ports, got " << hosts;
        break;
      }
      int bits = 0;
      while ((1 << (bits + 1)) <= hosts) ++bits;
      const int n = 1 << (bits / 2);
      if (n < 2 || hosts % n != 0 || hosts / n < 2) {
        err << "clos: " << hosts << " ports does not factor as n*r with n="
            << n << " (the canonical (m,n,r)=(" << n << "," << n << ","
            << hosts / std::max(n, 1)
            << ") needs r*n ports; nearest valid count is "
            << (hosts / n) * n << ")";
        break;
      }
      s.ok = true;
      s.n = n;
      s.m = n;
      s.r = hosts / n;
      return s;
    }
    case TopoKind::kOmega:
    case TopoKind::kBanyan:
    case TopoKind::kBenes: {
      const int k = hosts >= 4 ? ilog2_exact(hosts) : -1;
      if (k < 0) {
        int below = 4;
        while (below * 2 <= hosts) below *= 2;
        err << to_string(kind) << ": " << hosts
            << " ports is not a power of two >= 4 (a 2x2-arrangement MIN "
               "needs one; nearest are "
            << below << " and " << below * 2 << ")";
        break;
      }
      s.ok = true;
      s.log2_hosts = k;
      return s;
    }
  }
  s.error = err.str();
  return s;
}

int Topology::route_port(int sw, int dst) const {
  const SwitchSpec& node = switches[static_cast<std::size_t>(sw)];
  if (!node.route.empty()) return node.route[static_cast<std::size_t>(dst)];

  // Unidirectional MINs answer in closed form: a per-switch table would
  // be hosts * switches entries — hundreds of MB at 2048 ports. Their
  // host count is a power of two (derive_shape), so k = log2(hosts).
  const int k = std::countr_zero(static_cast<unsigned>(hosts));
  const int c = node.stage - 1;  // 0-based column
  switch (kind) {
    case TopoKind::kOmega:
    case TopoKind::kBanyan:
      return (dst >> (k - 1 - c)) & 1;
    case TopoKind::kBenes: {
      const int b = c < k ? k - 1 - c : c - k + 1;
      if (c >= k - 1) return (dst >> b) & 1;  // self-routing half
      // Free half: any choice reaches dst; spread per RouteKind.
      if (routing == RouteKind::kHashSpread)
        return static_cast<int>(route_hash(sw, dst) & 1);
      return (dst >> b) & 1;
    }
    default:
      OSMOSIS_REQUIRE(false, "topology " << name << " has no route table");
  }
  return -1;
}

std::vector<std::string> Topology::audit(std::size_t max_findings) const {
  std::vector<std::string> findings;
  auto report = [&](const std::ostringstream& oss) {
    if (findings.size() < max_findings) findings.push_back(oss.str());
  };
  // A path depends only on (switch, dst), so once one host's ingress
  // switch reached every destination without a finding, no other host
  // on that switch can produce one: skip them.
  std::vector<std::uint8_t> clean(switches.size(), 0);
  for (int src = 0; src < hosts && findings.size() < max_findings; ++src) {
    const HostAttach at = inject[static_cast<std::size_t>(src)];
    if (clean[static_cast<std::size_t>(at.sw)]) continue;
    const std::size_t found = findings.size();
    for (int dst = 0; dst < hosts; ++dst) {
      int sw = at.sw;
      bool done = false;
      for (int hop = 0; hop <= diameter; ++hop) {
        if (dead(sw)) {
          std::ostringstream oss;
          oss << "failed switches disconnect host " << dst << " from host "
              << src << " (path dead-ends at switch " << sw << ")";
          report(oss);
          done = true;
          break;
        }
        const int out = route_port(sw, dst);
        if (out < 0) {
          std::ostringstream oss;
          oss << "failed switches disconnect host " << dst << " from host "
              << src << " (no surviving route at switch " << sw << ")";
          report(oss);
          done = true;
          break;
        }
        const Peer& peer =
            switches[static_cast<std::size_t>(sw)]
                .out_peer[static_cast<std::size_t>(out)];
        if (peer.kind == PeerKind::kHost) {
          if (peer.id != dst) {
            std::ostringstream oss;
            oss << "route from host " << src << " toward host " << dst
                << " delivers to host " << peer.id << " (switch " << sw
                << " port " << out << ")";
            report(oss);
          }
          done = true;
          break;
        }
        sw = peer.id;
      }
      if (!done) {
        std::ostringstream oss;
        oss << "routing loop toward host " << dst << " from host " << src
            << " (exceeded " << diameter << " switch hops)";
        report(oss);
      }
      if (findings.size() >= max_findings) break;
    }
    if (findings.size() == found)
      clean[static_cast<std::size_t>(at.sw)] = 1;
  }
  return findings;
}

std::vector<int> Topology::stage_switches(int stage) const {
  std::vector<int> out;
  for (int i = 0; i < switch_count(); ++i)
    if (switches[static_cast<std::size_t>(i)].stage == stage)
      out.push_back(i);
  return out;
}

// ---- fat tree (folded Clos) ------------------------------------------------

namespace {

// Build state for the FT' recursion: one wiring (switch ids, port
// roles, d-mod-k route choice) for every level count, so FabricSim and
// TopoSim consume the same Topology and agree cell for cell at L = 2.
struct FatTreeBuilder {
  const FatTreeParams& p;
  int m;
  Topology t;
  std::vector<HostAttach>& attach;

  struct Uplink {
    int sw;
    int port;
  };

  explicit FatTreeBuilder(const FatTreeParams& params)
      : p(params), m(params.radix / 2), attach(t.inject) {}

  int new_switch(int level) {
    SwitchSpec node;
    node.stage = level;
    node.in_peer.resize(static_cast<std::size_t>(p.radix));
    t.switches.push_back(std::move(node));
    return static_cast<int>(t.switches.size()) - 1;
  }

  void wire(int sw_a, int port_a, int sw_b, int port_b, int delay) {
    auto& a = t.switches[static_cast<std::size_t>(sw_a)];
    auto& b = t.switches[static_cast<std::size_t>(sw_b)];
    OSMOSIS_REQUIRE(
        a.in_peer[static_cast<std::size_t>(port_a)].kind == PeerKind::kNone &&
            b.in_peer[static_cast<std::size_t>(port_b)].kind ==
                PeerKind::kNone,
        "double wiring of a port");
    a.in_peer[static_cast<std::size_t>(port_a)] =
        Peer{PeerKind::kSwitch, sw_b, port_b, delay};
    b.in_peer[static_cast<std::size_t>(port_b)] =
        Peer{PeerKind::kSwitch, sw_a, port_a, delay};
  }

  std::vector<Uplink> build_slice(int level, int& host_base) {
    std::vector<Uplink> uplinks;
    if (level == 1) {
      const int sw = new_switch(1);
      auto& node = t.switches[static_cast<std::size_t>(sw)];
      for (int q = 0; q < m; ++q) {
        const int host = host_base++;
        node.in_peer[static_cast<std::size_t>(q)] =
            Peer{PeerKind::kHost, host, -1, p.host_delay};
        node.down_ranges.push_back({host, host + 1, q});
        attach.push_back(HostAttach{sw, q});
      }
      for (int u = 0; u < m; ++u) {
        node.up_ports.push_back(m + u);
        uplinks.push_back(Uplink{sw, m + u});
      }
      return uplinks;
    }
    std::vector<std::vector<Uplink>> pod_up;
    std::vector<std::pair<int, int>> pod_range;
    for (int i = 0; i < m; ++i) {
      const int lo = host_base;
      pod_up.push_back(build_slice(level - 1, host_base));
      pod_range.emplace_back(lo, host_base);
    }
    const int top_count = static_cast<int>(pod_up[0].size());
    std::vector<int> tops;
    for (int j = 0; j < top_count; ++j) tops.push_back(new_switch(level));
    for (int i = 0; i < m; ++i) {
      OSMOSIS_REQUIRE(
          static_cast<int>(pod_up[static_cast<std::size_t>(i)].size()) ==
              top_count,
          "unbalanced pod uplink counts");
      for (int j = 0; j < top_count; ++j) {
        const Uplink& up =
            pod_up[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        wire(up.sw, up.port, tops[static_cast<std::size_t>(j)], i,
             p.trunk_delay);
        t.switches[static_cast<std::size_t>(tops[static_cast<std::size_t>(j)])]
            .down_ranges.push_back(
                {pod_range[static_cast<std::size_t>(i)].first,
                 pod_range[static_cast<std::size_t>(i)].second, i});
      }
    }
    // Uplinks of this slice: ports m..2m-1 of every top switch, spread
    // so consecutive indices hit distinct switches.
    for (int u = 0; u < m; ++u) {
      for (int j = 0; j < top_count; ++j) {
        t.switches[static_cast<std::size_t>(tops[static_cast<std::size_t>(j)])]
            .up_ports.push_back(m + u);
        uplinks.push_back(Uplink{tops[static_cast<std::size_t>(j)], m + u});
      }
    }
    return uplinks;
  }

  bool reachable(int sw, int dst, std::vector<signed char>& memo) const {
    signed char& mv = memo[static_cast<std::size_t>(sw) *
                               static_cast<std::size_t>(t.hosts) +
                           static_cast<std::size_t>(dst)];
    if (mv != -1) return mv != 0;
    bool ok = false;
    if (!t.dead(sw)) {
      const SwitchSpec& node = t.switches[static_cast<std::size_t>(sw)];
      int down = -1;
      for (const auto& dr : node.down_ranges)
        if (dst >= dr.lo && dst < dr.hi) {
          down = dr.port;
          break;
        }
      if (down >= 0) {
        const Peer& peer = node.in_peer[static_cast<std::size_t>(down)];
        ok = peer.kind == PeerKind::kHost || reachable(peer.id, dst, memo);
      } else {
        for (const int u : node.up_ports) {
          const Peer& peer = node.in_peer[static_cast<std::size_t>(u)];
          if (peer.kind == PeerKind::kSwitch && reachable(peer.id, dst, memo)) {
            ok = true;
            break;
          }
        }
      }
    }
    mv = ok ? 1 : 0;
    return ok;
  }

  void build_routes() {
    const bool degraded =
        std::find(t.failed.begin(), t.failed.end(), 1) != t.failed.end();
    std::vector<signed char> memo;
    if (degraded)
      memo.assign(t.switches.size() * static_cast<std::size_t>(t.hosts), -1);
    for (std::size_t si = 0; si < t.switches.size(); ++si) {
      SwitchSpec& node = t.switches[si];
      node.route.assign(static_cast<std::size_t>(t.hosts), -1);
      if (degraded && t.dead(static_cast<int>(si)))
        continue;  // carries no cells; routes stay unused
      for (int dst = 0; dst < t.hosts; ++dst) {
        int port = -1;
        for (const auto& dr : node.down_ranges) {
          if (dst >= dr.lo && dst < dr.hi) {
            port = dr.port;
            break;
          }
        }
        if (port < 0) {
          OSMOSIS_REQUIRE(!node.up_ports.empty(),
                          "top-level switch cannot reach host " << dst);
          // Static destination-digit uplink choice (d-mod-k): level l
          // keys on the l-th base-m digit of the destination — traffic
          // reaching a level-l switch already shares the lower digits,
          // so reusing them would funnel everything onto one uplink.
          // kHashSpread replaces the digit with a per-(switch, dst)
          // hash. Both are deterministic per destination, preserving
          // per-flow order.
          std::uint64_t digit;
          if (p.routing == RouteKind::kHashSpread) {
            digit = route_hash(static_cast<int>(si), dst);
          } else {
            digit = static_cast<std::uint64_t>(dst);
            for (int l = 1; l < node.stage; ++l)
              digit /= static_cast<std::uint64_t>(m);
          }
          if (!degraded) {
            port = node.up_ports[digit % node.up_ports.size()];
          } else {
            // Same digit, spread over the uplinks whose peer still
            // reaches dst: reproduces the fault-free table exactly when
            // nothing failed, re-spreads deterministically around holes.
            std::vector<int> valid;
            for (const int u : node.up_ports) {
              const Peer& peer = node.in_peer[static_cast<std::size_t>(u)];
              if (peer.kind == PeerKind::kSwitch &&
                  reachable(peer.id, dst, memo))
                valid.push_back(u);
            }
            if (valid.empty()) continue;  // audit() reports the pair
            port = valid[digit % valid.size()];
          }
        }
        node.route[static_cast<std::size_t>(dst)] = port;
      }
    }
  }
};

}  // namespace

Topology make_fat_tree(const FatTreeParams& p) {
  OSMOSIS_REQUIRE(p.radix >= 2 && p.radix % 2 == 0,
                  "fat-tree radix must be even and >= 2, got " << p.radix);
  OSMOSIS_REQUIRE(p.levels >= 1 && p.levels <= 4,
                  "fat-tree levels must be in 1..4, got " << p.levels);

  FatTreeBuilder b(p);
  Topology& t = b.t;
  t.kind = TopoKind::kFatTree;
  t.routing = p.routing;
  t.folded = true;
  t.host_delay = p.host_delay;
  t.trunk_delay = p.trunk_delay;

  int host_base = 0;
  if (p.levels == 1) {
    const int sw = b.new_switch(1);
    auto& node = t.switches[static_cast<std::size_t>(sw)];
    for (int q = 0; q < p.radix; ++q) {
      node.in_peer[static_cast<std::size_t>(q)] =
          Peer{PeerKind::kHost, host_base, -1, p.host_delay};
      node.down_ranges.push_back({host_base, host_base + 1, q});
      t.inject.push_back(HostAttach{sw, q});
      ++host_base;
    }
  } else {
    // radix pods of FT'(L-1) + m^(L-1) top switches, every port down.
    std::vector<std::vector<FatTreeBuilder::Uplink>> pod_up;
    std::vector<std::pair<int, int>> pod_range;
    for (int q = 0; q < p.radix; ++q) {
      const int lo = host_base;
      pod_up.push_back(b.build_slice(p.levels - 1, host_base));
      pod_range.emplace_back(lo, host_base);
    }
    const int top_count = static_cast<int>(pod_up[0].size());
    for (int j = 0; j < top_count; ++j) {
      const int top = b.new_switch(p.levels);
      for (int q = 0; q < p.radix; ++q) {
        const FatTreeBuilder::Uplink& up =
            pod_up[static_cast<std::size_t>(q)][static_cast<std::size_t>(j)];
        b.wire(up.sw, up.port, top, q, p.trunk_delay);
        t.switches[static_cast<std::size_t>(top)].down_ranges.push_back(
            {pod_range[static_cast<std::size_t>(q)].first,
             pod_range[static_cast<std::size_t>(q)].second, q});
      }
    }
  }
  t.hosts = host_base;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(p.radix) *
      util::ipow(static_cast<std::uint64_t>(b.m),
                 static_cast<unsigned>(p.levels - 1));
  OSMOSIS_REQUIRE(static_cast<std::uint64_t>(t.hosts) == expected,
                  "built " << t.hosts << " hosts, expected " << expected);

  t.failed.assign(t.switches.size(), 0);
  for (const int id : p.failed_switches) {
    OSMOSIS_REQUIRE(id >= 0 && id < t.switch_count(),
                    "failed switch " << id << " out of range (have "
                                     << t.switch_count() << " switches)");
    const SwitchSpec& node = t.switches[static_cast<std::size_t>(id)];
    if (node.stage == 1) {
      // A leaf is its hosts' only attachment point: no rerouting exists.
      const int lo = node.down_ranges.front().lo;
      const int hi = node.down_ranges.back().hi;
      OSMOSIS_REQUIRE(false, "failed leaf switch "
                                 << id << " disconnects hosts " << lo << ".."
                                 << hi - 1 << " outright");
    }
    t.failed[static_cast<std::size_t>(id)] = 1;
  }

  b.build_routes();
  for (auto& node : t.switches) node.out_peer = node.in_peer;
  t.deliver = t.inject;

  t.stages = 2 * p.levels - 1;
  t.diameter = 2 * p.levels - 1;
  std::ostringstream name;
  name << "fat_tree(r" << p.radix << ",L" << p.levels << ")";
  t.name = name.str();
  t.params["radix"] = p.radix;
  t.params["levels"] = p.levels;
  return t;
}

// ---- Clos(m,n,r) -----------------------------------------------------------

Topology make_clos(const ClosParams& p) {
  OSMOSIS_REQUIRE(p.m >= 1 && p.n >= 1 && p.r >= 1,
                  "clos(m,n,r) parameters must be positive, got (m" << p.m
                      << ",n" << p.n << ",r" << p.r << ")");
  Topology t;
  t.kind = TopoKind::kClos;
  t.routing = p.routing;
  t.folded = false;
  t.host_delay = p.host_delay;
  t.trunk_delay = p.trunk_delay;
  t.hosts = p.n * p.r;
  t.stages = 3;
  t.diameter = 3;

  const int ingress0 = 0;
  const int middle0 = p.r;
  const int egress0 = p.r + p.m;
  t.switches.resize(static_cast<std::size_t>(2 * p.r + p.m));
  t.failed.assign(t.switches.size(), 0);
  std::vector<int> live_middles;
  {
    std::vector<std::uint8_t> dead_mid(static_cast<std::size_t>(p.m), 0);
    for (const int j : p.failed_middles) {
      OSMOSIS_REQUIRE(j >= 0 && j < p.m,
                      "failed middle " << j << " outside 0.." << p.m - 1);
      dead_mid[static_cast<std::size_t>(j)] = 1;
      t.failed[static_cast<std::size_t>(middle0 + j)] = 1;
    }
    for (int j = 0; j < p.m; ++j)
      if (!dead_mid[static_cast<std::size_t>(j)]) live_middles.push_back(j);
  }

  for (int i = 0; i < p.r; ++i) {  // ingress: n hosts in, m middles out
    SwitchSpec& node = t.switches[static_cast<std::size_t>(ingress0 + i)];
    node.stage = 1;
    node.in_peer.resize(static_cast<std::size_t>(p.n));
    node.out_peer.resize(static_cast<std::size_t>(p.m));
    for (int q = 0; q < p.n; ++q) {
      const int host = i * p.n + q;
      node.in_peer[static_cast<std::size_t>(q)] =
          Peer{PeerKind::kHost, host, -1, p.host_delay};
      t.inject.push_back(HostAttach{ingress0 + i, q});
    }
    for (int j = 0; j < p.m; ++j)
      node.out_peer[static_cast<std::size_t>(j)] =
          Peer{PeerKind::kSwitch, middle0 + j, i, p.trunk_delay};
  }
  for (int j = 0; j < p.m; ++j) {  // middle: r x r
    SwitchSpec& node = t.switches[static_cast<std::size_t>(middle0 + j)];
    node.stage = 2;
    node.in_peer.resize(static_cast<std::size_t>(p.r));
    node.out_peer.resize(static_cast<std::size_t>(p.r));
    for (int i = 0; i < p.r; ++i) {
      node.in_peer[static_cast<std::size_t>(i)] =
          Peer{PeerKind::kSwitch, ingress0 + i, j, p.trunk_delay};
      node.out_peer[static_cast<std::size_t>(i)] =
          Peer{PeerKind::kSwitch, egress0 + i, j, p.trunk_delay};
    }
  }
  for (int e = 0; e < p.r; ++e) {  // egress: m middles in, n hosts out
    SwitchSpec& node = t.switches[static_cast<std::size_t>(egress0 + e)];
    node.stage = 3;
    node.in_peer.resize(static_cast<std::size_t>(p.m));
    node.out_peer.resize(static_cast<std::size_t>(p.n));
    for (int j = 0; j < p.m; ++j)
      node.in_peer[static_cast<std::size_t>(j)] =
          Peer{PeerKind::kSwitch, middle0 + j, e, p.trunk_delay};
    for (int q = 0; q < p.n; ++q) {
      const int host = e * p.n + q;
      node.out_peer[static_cast<std::size_t>(q)] =
          Peer{PeerKind::kHost, host, -1, p.host_delay};
      t.deliver.push_back(HostAttach{egress0 + e, q});
    }
  }

  // Static route tables (small: only 2r+m switches). Ingress spreads
  // destinations over the live middles by destination digit or hash;
  // middles and egresses self-route on the destination.
  for (int i = 0; i < p.r; ++i) {
    SwitchSpec& node = t.switches[static_cast<std::size_t>(ingress0 + i)];
    node.route.assign(static_cast<std::size_t>(t.hosts), -1);
    for (int dst = 0; dst < t.hosts; ++dst) {
      if (live_middles.empty()) continue;  // audit() reports the pairs
      const std::uint64_t digit =
          p.routing == RouteKind::kHashSpread
              ? route_hash(ingress0 + i, dst)
              : static_cast<std::uint64_t>(dst);
      node.route[static_cast<std::size_t>(dst)] =
          live_middles[digit % live_middles.size()];
    }
  }
  for (int j = 0; j < p.m; ++j) {
    SwitchSpec& node = t.switches[static_cast<std::size_t>(middle0 + j)];
    node.route.assign(static_cast<std::size_t>(t.hosts), -1);
    if (t.failed[static_cast<std::size_t>(middle0 + j)]) continue;
    for (int dst = 0; dst < t.hosts; ++dst)
      node.route[static_cast<std::size_t>(dst)] = dst / p.n;
  }
  for (int e = 0; e < p.r; ++e) {
    SwitchSpec& node = t.switches[static_cast<std::size_t>(egress0 + e)];
    node.route.assign(static_cast<std::size_t>(t.hosts), -1);
    for (int dst = 0; dst < t.hosts; ++dst)
      if (dst / p.n == e) node.route[static_cast<std::size_t>(dst)] = dst % p.n;
  }

  t.stages = 3;
  std::ostringstream name;
  name << "clos(m" << p.m << ",n" << p.n << ",r" << p.r << ")";
  t.name = name.str();
  t.params["m"] = p.m;
  t.params["n"] = p.n;
  t.params["r"] = p.r;
  return t;
}

// ---- MINs from the fundamental 2x2 arrangement -----------------------------

namespace {

Topology make_min_common(TopoKind kind, const MinParams& p, int columns) {
  const int k = ilog2_exact(p.hosts);
  OSMOSIS_REQUIRE(p.hosts >= 4 && k > 0,
                  to_string(kind) << " needs a power-of-two port count >= 4, "
                                     "got "
                                  << p.hosts);
  Topology t;
  t.kind = kind;
  t.routing = p.routing;
  t.folded = false;
  t.host_delay = p.host_delay;
  t.trunk_delay = p.trunk_delay;
  t.hosts = p.hosts;
  t.stages = columns;
  t.diameter = columns;
  const int per_col = p.hosts / 2;
  t.switches.resize(static_cast<std::size_t>(columns * per_col));
  t.failed.assign(t.switches.size(), 0);
  for (int c = 0; c < columns; ++c)
    for (int j = 0; j < per_col; ++j) {
      SwitchSpec& node =
          t.switches[static_cast<std::size_t>(c * per_col + j)];
      node.stage = c + 1;
      node.in_peer.resize(2);
      node.out_peer.resize(2);
    }
  t.inject.resize(static_cast<std::size_t>(p.hosts));
  t.deliver.resize(static_cast<std::size_t>(p.hosts));
  std::ostringstream name;
  name << to_string(kind) << p.hosts;
  t.name = name.str();
  t.params["log2_hosts"] = k;
  return t;
}

void min_wire(Topology& t, int from_sw, int from_port, int to_sw, int to_port,
              int delay) {
  t.switches[static_cast<std::size_t>(from_sw)]
      .out_peer[static_cast<std::size_t>(from_port)] =
      Peer{PeerKind::kSwitch, to_sw, to_port, delay};
  t.switches[static_cast<std::size_t>(to_sw)]
      .in_peer[static_cast<std::size_t>(to_port)] =
      Peer{PeerKind::kSwitch, from_sw, from_port, delay};
}

void min_wire_host_in(Topology& t, int host, int sw, int port) {
  t.switches[static_cast<std::size_t>(sw)]
      .in_peer[static_cast<std::size_t>(port)] =
      Peer{PeerKind::kHost, host, -1, t.host_delay};
  t.inject[static_cast<std::size_t>(host)] = HostAttach{sw, port};
}

void min_wire_host_out(Topology& t, int host, int sw, int port) {
  t.switches[static_cast<std::size_t>(sw)]
      .out_peer[static_cast<std::size_t>(port)] =
      Peer{PeerKind::kHost, host, -1, t.host_delay};
  t.deliver[static_cast<std::size_t>(host)] = HostAttach{sw, port};
}

// Butterfly-family wiring (banyan, benes): column c pairs lines
// differing in bit_of(c); lines keep their index between columns.
Topology make_butterfly_family(TopoKind kind, const MinParams& p, int columns,
                               const std::vector<int>& bit_of) {
  Topology t = make_min_common(kind, p, columns);
  const int per_col = p.hosts / 2;
  for (int c = 0; c < columns; ++c) {
    const int b = bit_of[static_cast<std::size_t>(c)];
    for (int j = 0; j < per_col; ++j) {
      const int sw = c * per_col + j;
      for (int q = 0; q < 2; ++q) {
        const int line = min_line(j, q, b);
        if (c == 0) min_wire_host_in(t, line, sw, q);
        if (c == columns - 1) {
          min_wire_host_out(t, line, sw, q);
        } else {
          const int nb = bit_of[static_cast<std::size_t>(c + 1)];
          min_wire(t, sw, q,
                   (c + 1) * per_col + min_switch_of_line(line, nb),
                   min_port_of_line(line, nb), t.trunk_delay);
        }
      }
    }
  }
  return t;
}

}  // namespace

Topology make_banyan(const MinParams& p) {
  Shape s = derive_shape(TopoKind::kBanyan, p.hosts);
  OSMOSIS_REQUIRE(s.ok, s.error);
  const int k = s.log2_hosts;
  std::vector<int> bits;
  for (int c = 0; c < k; ++c) bits.push_back(k - 1 - c);
  return make_butterfly_family(TopoKind::kBanyan, p, k, bits);
}

Topology make_benes(const MinParams& p) {
  Shape s = derive_shape(TopoKind::kBenes, p.hosts);
  OSMOSIS_REQUIRE(s.ok, s.error);
  const int k = s.log2_hosts;
  // Butterfly (bits k-1..1), the bit-0 column, mirrored butterfly
  // (bits 1..k-1): the two fundamental arrangements share the middle
  // column, giving 2k-1 columns total.
  std::vector<int> bits;
  for (int c = 0; c < 2 * k - 1; ++c)
    bits.push_back(c < k ? k - 1 - c : c - k + 1);
  return make_butterfly_family(TopoKind::kBenes, p, 2 * k - 1, bits);
}

Topology make_omega(const MinParams& p) {
  Shape s = derive_shape(TopoKind::kOmega, p.hosts);
  OSMOSIS_REQUIRE(s.ok, s.error);
  const int k = s.log2_hosts;
  Topology t = make_min_common(TopoKind::kOmega, p, k);
  const int n = p.hosts;
  const int per_col = n / 2;
  const auto shuffle = [&](int l) {
    return ((l << 1) | (l >> (k - 1))) & (n - 1);
  };
  // Hosts enter column 0 through a perfect shuffle; a shuffle precedes
  // every later column too; the last column's outputs are the hosts.
  for (int h = 0; h < n; ++h) {
    const int pos = shuffle(h);
    min_wire_host_in(t, h, pos / 2, pos & 1);
  }
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < per_col; ++j) {
      const int sw = c * per_col + j;
      for (int q = 0; q < 2; ++q) {
        const int out_pos = 2 * j + q;
        if (c == k - 1) {
          min_wire_host_out(t, out_pos, sw, q);
        } else {
          const int next = shuffle(out_pos);
          min_wire(t, sw, q, (c + 1) * per_col + next / 2, next & 1,
                   t.trunk_delay);
        }
      }
    }
  }
  return t;
}

Topology make_topology(TopoKind kind, int hosts, RouteKind routing,
                       const std::vector<int>& failed_switches,
                       int host_delay, int trunk_delay, int levels) {
  const Shape s = derive_shape(kind, hosts, levels);
  OSMOSIS_REQUIRE(s.ok, s.error);
  switch (kind) {
    case TopoKind::kFatTree: {
      FatTreeParams p;
      p.radix = s.radix;
      p.levels = s.levels;
      p.routing = routing;
      p.failed_switches = failed_switches;
      p.host_delay = host_delay;
      p.trunk_delay = trunk_delay;
      return make_fat_tree(p);
    }
    case TopoKind::kClos: {
      ClosParams p;
      p.m = s.m;
      p.n = s.n;
      p.r = s.r;
      p.routing = routing;
      // The generic interface speaks global switch ids (the layout
      // mgmt::validate_topology reports: ingress 0..r-1, middles
      // r..r+m-1, egress r+m..); make_clos wants middle-column indices.
      for (const int id : failed_switches) {
        OSMOSIS_REQUIRE(id >= s.r && id < s.r + s.m,
                        "failed switch " << id
                                         << " is not a middle switch (clos "
                                            "middles are ids "
                                         << s.r << ".." << s.r + s.m - 1
                                         << "; ingress/egress failures "
                                            "disconnect hosts outright)");
        p.failed_middles.push_back(id - s.r);
      }
      p.host_delay = host_delay;
      p.trunk_delay = trunk_delay;
      return make_clos(p);
    }
    case TopoKind::kOmega:
    case TopoKind::kBanyan:
    case TopoKind::kBenes: {
      OSMOSIS_REQUIRE(failed_switches.empty(),
                      to_string(kind)
                          << " has a unique path per (src, dst): a permanent "
                             "switch failure disconnects hosts — use a "
                             "transient fault window instead");
      MinParams p;
      p.hosts = hosts;
      p.routing = routing;
      p.host_delay = host_delay;
      p.trunk_delay = trunk_delay;
      if (kind == TopoKind::kOmega) return make_omega(p);
      if (kind == TopoKind::kBanyan) return make_banyan(p);
      return make_benes(p);
    }
  }
  OSMOSIS_REQUIRE(false, "unhandled topology kind");
  return Topology{};
}

}  // namespace osmosis::topo

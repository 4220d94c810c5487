#include "src/topo/topo_sim.hpp"

#include <algorithm>
#include <climits>
#include <sstream>

#include "src/prof/profiler.hpp"
#include "src/telemetry/run_report.hpp"
#include "src/util/log.hpp"

namespace osmosis::topo {

TopoSim::TopoSim(TopoSimConfig cfg, std::unique_ptr<sim::TrafficGen> traffic)
    : cfg_(cfg),
      topo_(make_topology(cfg.topology, cfg.hosts, cfg.routing,
                          cfg.failed_switches, cfg.host_cable_slots,
                          cfg.trunk_cable_slots, cfg.levels)),
      traffic_(std::move(traffic)) {
  OSMOSIS_REQUIRE(cfg_.buffer_cells >= 1, "buffer_cells must be >= 1");
  if (wormhole()) {
    OSMOSIS_REQUIRE(cfg_.fc.lanes >= 1 && cfg_.fc.lane_flits >= 1 &&
                        cfg_.fc.flits_per_packet >= 1,
                    "wormhole VC parameters must be >= 1");
  } else {
    OSMOSIS_REQUIRE(cfg_.scheduler == sw::SchedulerKind::kIslip ||
                        cfg_.scheduler == sw::SchedulerKind::kPim ||
                        cfg_.scheduler == sw::SchedulerKind::kTdm ||
                        cfg_.scheduler == sw::SchedulerKind::kWfa,
                    "topo stages need an immediate-issue scheduler kind");
  }
  OSMOSIS_REQUIRE(traffic_ != nullptr && traffic_->ports() == topo_.hosts,
                  "traffic generator must cover all " << topo_.hosts
                                                      << " hosts");
  const std::vector<std::string> findings = topo_.audit(1);
  OSMOSIS_REQUIRE(findings.empty(), findings.front());
  monitor_.configure(cfg_.monitor);

  const int lanes = cfg_.fc.lanes;
  int max_stage = 1;
  for (const SwitchSpec& s : topo_.switches)
    max_stage = std::max(max_stage, s.stage);
  // Mid-run plane faults aim at the top level of a folded tree, or the
  // middle column of an unfolded network.
  top_stage_ = topo_.folded ? max_stage : (topo_.stages + 1) / 2;
  stage_wait_.assign(static_cast<std::size_t>(max_stage) + 1,
                     sim::MeanVar{});
  grants_per_stage_.assign(static_cast<std::size_t>(max_stage) + 1, 0);

  nodes_.reserve(topo_.switches.size());
  std::uint64_t fc_inputs = 0;
  int max_in_lanes = 0, max_out = 0;
  for (std::size_t id = 0; id < topo_.switches.size(); ++id) {
    const SwitchSpec& spec = topo_.switches[id];
    const int in_p = spec.in_ports();
    const int out_p = spec.out_ports();
    fc_inputs += static_cast<std::uint64_t>(in_p);
    max_in_lanes = std::max(max_in_lanes, in_p * lanes);
    max_out = std::max(max_out, out_p);
    Node n;
    if (wormhole()) {
      n.lane_buf.resize(static_cast<std::size_t>(in_p * lanes));
      n.lane_out.assign(static_cast<std::size_t>(in_p * lanes), -1);
      n.lane_credits.assign(static_cast<std::size_t>(out_p * lanes),
                            cfg_.fc.lane_flits);
      n.lane_owner.assign(static_cast<std::size_t>(out_p * lanes), -1);
      n.lane_credit_in.resize(static_cast<std::size_t>(out_p));
      n.out_rr.assign(static_cast<std::size_t>(out_p), 0);
    } else {
      sw::SchedulerConfig sc;
      sc.kind = cfg_.scheduler;
      sc.ports = std::max(in_p, out_p);
      sc.receivers = 1;
      sc.iterations = cfg_.scheduler_iterations;
      sc.seed = 0x7090ULL + static_cast<std::uint64_t>(id);
      n.sched = sw::make_scheduler(sc);
      n.voq.assign(static_cast<std::size_t>(in_p),
                   std::vector<std::deque<Flit>>(
                       static_cast<std::size_t>(out_p)));
      n.input_occupancy.assign(static_cast<std::size_t>(in_p), 0);
      n.out_credits.assign(static_cast<std::size_t>(out_p),
                           cfg_.buffer_cells);
      for (int p = 0; p < out_p; ++p)
        if (spec.out_peer[static_cast<std::size_t>(p)].kind ==
            PeerKind::kHost)
          n.out_credits[static_cast<std::size_t>(p)] = -1;
      n.credit_in.resize(static_cast<std::size_t>(out_p));
    }
    n.out_data.resize(static_cast<std::size_t>(out_p));
    nodes_.push_back(std::move(n));
  }
  if (wormhole())
    lane_want_.assign(static_cast<std::size_t>(max_out),
                      sw::PortSet(max_in_lanes));
  pool_total_ =
      wormhole()
          ? fc_inputs * static_cast<std::uint64_t>(lanes) *
                static_cast<std::uint64_t>(cfg_.fc.lane_flits)
          : fc_inputs * static_cast<std::uint64_t>(cfg_.buffer_cells);

  const std::size_t hosts = static_cast<std::size_t>(topo_.hosts);
  host_queue_.resize(hosts);
  host_out_.resize(hosts);
  monitor_.preset_flows(hosts * hosts, hosts);
  if (wormhole()) {
    host_lane_credits_.assign(hosts * static_cast<std::size_t>(lanes),
                              cfg_.fc.lane_flits);
    host_lane_credit_in_.resize(hosts);
  } else {
    host_credits_.assign(hosts, cfg_.buffer_cells);
    host_credit_in_.resize(hosts);
  }

  // Expand the fault plan into a sorted begin/end timeline. Repairs
  // sort before injections at the same slot so back-to-back windows on
  // one switch never overlap.
  down_.assign(topo_.switches.size(), 0);
  host_stalled_.assign(hosts, 0);
  fault_targets_ = topo_.stage_switches(top_stage_);
  const auto& events = cfg_.fault_plan.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const faults::FaultEvent& e = events[i];
    OSMOSIS_REQUIRE(e.kind == faults::FaultKind::kPlaneFailure ||
                        e.kind == faults::FaultKind::kAdapterStall,
                    "topo sim accepts kPlaneFailure and kAdapterStall "
                    "fault kinds, got "
                        << faults::to_string(e.kind));
    if (e.kind == faults::FaultKind::kPlaneFailure) {
      OSMOSIS_REQUIRE(e.transient(),
                      "a permanent mid-run switch fault would strand "
                      "cells; use construction-time failed_switches");
      OSMOSIS_REQUIRE(
          e.a >= 0 && e.a < static_cast<int>(fault_targets_.size()),
          "plane fault index " << e.a << " out of range (stage "
                               << top_stage_ << " has "
                               << fault_targets_.size() << " switches)");
    } else {
      OSMOSIS_REQUIRE(e.a >= 0 && e.a < topo_.hosts,
                      "adapter stall host " << e.a << " out of range");
    }
    transitions_.push_back(Transition{e.at_slot, 1, static_cast<int>(i)});
    if (e.transient())
      transitions_.push_back(
          Transition{e.end_slot(), 0, static_cast<int>(i)});
  }
  std::sort(transitions_.begin(), transitions_.end(),
            [](const Transition& x, const Transition& y) {
              if (x.slot != y.slot) return x.slot < y.slot;
              if (x.begin != y.begin) return x.begin < y.begin;
              return x.event < y.event;
            });
}

void TopoSim::apply_fault_transitions(std::uint64_t t) {
  while (next_transition_ < transitions_.size() &&
         transitions_[next_transition_].slot <= t) {
    const Transition& tr = transitions_[next_transition_++];
    const faults::FaultEvent& e =
        cfg_.fault_plan.events()[static_cast<std::size_t>(tr.event)];
    if (e.kind == faults::FaultKind::kPlaneFailure) {
      const std::size_t sw = static_cast<std::size_t>(
          fault_targets_[static_cast<std::size_t>(e.a)]);
      down_[sw] = tr.begin;
    } else {
      host_stalled_[static_cast<std::size_t>(e.a)] = tr.begin;
    }
    if (tr.begin) {
      ++open_faults_;
      ++faults_injected_;
    } else {
      --open_faults_;
      ++faults_repaired_;
    }
  }
}

void TopoSim::credit_upstream(const Peer& up, int lane, std::uint64_t t) {
  const std::uint64_t at =
      cfg_.fc.kind == FcKind::kRelayed
          ? t
          : t + static_cast<std::uint64_t>(up.delay);
  if (up.kind == PeerKind::kHost) {
    if (wormhole())
      host_lane_credit_in_[static_cast<std::size_t>(up.id)].push_back(
          {at, lane});
    else
      host_credit_in_[static_cast<std::size_t>(up.id)].push_back(at);
  } else {
    Node& u = nodes_[static_cast<std::size_t>(up.id)];
    if (wormhole())
      u.lane_credit_in[static_cast<std::size_t>(up.port)].push_back(
          {at, lane});
    else
      u.credit_in[static_cast<std::size_t>(up.port)].push_back(at);
  }
}

void TopoSim::accept_flit(int sw, int in_port, Flit f, std::uint64_t t) {
  Node& node = nodes_[static_cast<std::size_t>(sw)];
  ++f.hops;
  f.enter_slot = t;
  if (wormhole()) {
    const std::size_t idx = static_cast<std::size_t>(
        in_port * cfg_.fc.lanes + lane_of(f.dst));
    auto& buf = node.lane_buf[idx];
    buf.push_back(f);
    const int occ = static_cast<int>(buf.size());
    node.max_occ = std::max(node.max_occ, occ);
    cur_slot_max_occ_ = std::max(cur_slot_max_occ_, occ);
    if (occ > cfg_.fc.lane_flits) ++overflows_;
  } else {
    const int out = topo_.route_port(sw, f.dst);
    OSMOSIS_REQUIRE(out >= 0, "no route toward host "
                                  << f.dst << " at switch " << sw);
    node.voq[static_cast<std::size_t>(in_port)]
        [static_cast<std::size_t>(out)]
            .push_back(f);
    int& occ = node.input_occupancy[static_cast<std::size_t>(in_port)];
    ++occ;
    node.max_occ = std::max(node.max_occ, occ);
    cur_slot_max_occ_ = std::max(cur_slot_max_occ_, occ);
    if (occ > cfg_.buffer_cells) ++overflows_;
    node.sched->request(in_port, out);
  }
}

void TopoSim::deliver(const Flit& f, std::uint64_t t, bool measuring) {
  const std::uint64_t flow =
      static_cast<std::uint64_t>(f.src) *
          static_cast<std::uint64_t>(topo_.hosts) +
      static_cast<std::uint64_t>(f.dst);
  monitor_.deliver(flow, f.seq);
  ++delivered_total_;
  if (measuring) {
    delay_hist_.add(static_cast<double>(t - f.inject_slot));
    hops_.add(static_cast<double>(f.hops));
    meter_.add_delivery(
        wormhole() ? static_cast<double>(cfg_.fc.flits_per_packet) : 1.0);
  }
}

void TopoSim::transfer_cells(Node& node, int sw, std::uint64_t t,
                             bool measuring) {
  const SwitchSpec& spec = topo_.switches[static_cast<std::size_t>(sw)];
  const int out_p = spec.out_ports();
  for (int p = 0; p < out_p; ++p) {
    const Peer& peer = spec.out_peer[static_cast<std::size_t>(p)];
    const bool fc = peer.kind == PeerKind::kSwitch;
    const bool frozen =
        fc && down_[static_cast<std::size_t>(peer.id)] != 0;
    if (frozen || (fc && node.out_credits[static_cast<std::size_t>(p)] == 0))
      node.sched->block_output(p);
    else
      node.sched->unblock_output(p);
  }
  for (const sw::Grant& g : node.sched->tick()) {
    auto& fifo = node.voq[static_cast<std::size_t>(g.input)]
                         [static_cast<std::size_t>(g.output)];
    OSMOSIS_REQUIRE(!fifo.empty(), "topo grant without a queued cell");
    const Flit f = fifo.front();
    fifo.pop_front();
    --node.input_occupancy[static_cast<std::size_t>(g.input)];
    if (measuring)
      stage_wait_[static_cast<std::size_t>(spec.stage)].add(
          static_cast<double>(t - f.enter_slot));
    ++grants_per_stage_[static_cast<std::size_t>(spec.stage)];

    credit_upstream(spec.in_peer[static_cast<std::size_t>(g.input)], 0, t);

    const Peer& down = spec.out_peer[static_cast<std::size_t>(g.output)];
    if (down.kind == PeerKind::kSwitch) {
      int& credits = node.out_credits[static_cast<std::size_t>(g.output)];
      OSMOSIS_REQUIRE(credits > 0, "topo grant to credit-less output");
      --credits;
    }
    node.out_data[static_cast<std::size_t>(g.output)].push_back(
        Timed{t + static_cast<std::uint64_t>(down.delay), f});
  }
}

void TopoSim::transfer_flits(Node& node, int sw, std::uint64_t t,
                             bool measuring) {
  const SwitchSpec& spec = topo_.switches[static_cast<std::size_t>(sw)];
  const int lanes = cfg_.fc.lanes;
  const int in_p = spec.in_ports();
  const int out_p = spec.out_ports();
  const int in_lanes = in_p * lanes;
  used_input_.assign(static_cast<std::size_t>(in_p), 0);

  // File every occupied input lane under the one output its front flit
  // wants: the bound output mid-worm, the routed one for a head flit.
  // Only a lane that sends changes state this slot, and its input is then
  // used for the rest of the slot, so the filing never goes stale.
  for (int p = 0; p < out_p; ++p)
    lane_want_[static_cast<std::size_t>(p)].clear_all();
  for (int idx = 0; idx < in_lanes; ++idx) {
    const auto& buf = node.lane_buf[static_cast<std::size_t>(idx)];
    if (buf.empty()) continue;
    int want = node.lane_out[static_cast<std::size_t>(idx)];
    if (want == -1) {
      OSMOSIS_REQUIRE(buf.front().head != 0,
                      "wormhole body flit without an open route");
      want = topo_.route_port(sw, buf.front().dst);
    }
    if (want >= 0) lane_want_[static_cast<std::size_t>(want)].set(idx);
  }

  for (int p = 0; p < out_p; ++p) {
    const Peer& peer = spec.out_peer[static_cast<std::size_t>(p)];
    if (peer.kind == PeerKind::kSwitch &&
        down_[static_cast<std::size_t>(peer.id)] != 0)
      continue;  // frozen downstream: hold the worm, credits keep it safe
    // Round-robin from the cursor over the lanes that want p; a visited
    // lane leaves the mask, so the walk ends after one lap.
    sw::PortSet& want = lane_want_[static_cast<std::size_t>(p)];
    int& rr = node.out_rr[static_cast<std::size_t>(p)];
    for (int idx = want.next_circular(rr); idx >= 0;
         idx = want.next_circular(idx)) {
      want.clear(idx);
      const int in = idx / lanes;
      if (used_input_[static_cast<std::size_t>(in)]) continue;
      auto& buf = node.lane_buf[static_cast<std::size_t>(idx)];
      const Flit f = buf.front();
      const std::size_t vc =
          static_cast<std::size_t>(p * lanes + lane_of(f.dst));
      if (peer.kind == PeerKind::kSwitch) {
        // A head flit needs the downstream lane free; every flit needs a
        // credit.
        if (node.lane_out[static_cast<std::size_t>(idx)] == -1 &&
            node.lane_owner[vc] != -1)
          continue;
        if (node.lane_credits[vc] == 0) continue;
      }
      buf.pop_front();
      used_input_[static_cast<std::size_t>(in)] = 1;
      if (measuring)
        stage_wait_[static_cast<std::size_t>(spec.stage)].add(
            static_cast<double>(t - f.enter_slot));
      ++grants_per_stage_[static_cast<std::size_t>(spec.stage)];
      if (peer.kind == PeerKind::kSwitch) {
        --node.lane_credits[vc];
        if (f.head) node.lane_owner[vc] = idx;
        if (f.tail) node.lane_owner[vc] = -1;
      }
      if (f.head) node.lane_out[static_cast<std::size_t>(idx)] = p;
      if (f.tail) node.lane_out[static_cast<std::size_t>(idx)] = -1;
      credit_upstream(spec.in_peer[static_cast<std::size_t>(in)],
                      idx % lanes, t);
      node.out_data[static_cast<std::size_t>(p)].push_back(
          Timed{t + static_cast<std::uint64_t>(peer.delay), f});
      rr = (idx + 1) % in_lanes;
      break;  // one flit per output link per slot
    }
  }
}

void TopoSim::step(std::uint64_t t, bool measuring, bool inject) {
  cur_slot_max_occ_ = 0;
  apply_fault_transitions(t);

  // 1. Hosts generate traffic (packets; wormhole expands into flits).
  if (inject) {
    OSMOSIS_PROF_SCOPE("topo.ingest");
    const int F = wormhole() ? cfg_.fc.flits_per_packet : 1;
    for (int h = 0; h < topo_.hosts; ++h) {
      sim::Arrival a;
      if (!traffic_->sample(h, a)) continue;
      const std::size_t flow = static_cast<std::size_t>(h) *
                                   static_cast<std::size_t>(topo_.hosts) +
                               static_cast<std::size_t>(a.dst);
      const std::uint64_t seq = monitor_.send(flow);
      for (int i = 0; i < F; ++i) {
        Flit f;
        f.src = h;
        f.dst = a.dst;
        f.seq = seq;
        f.inject_slot = t;
        f.head = i == 0 ? 1 : 0;
        f.tail = i == F - 1 ? 1 : 0;
        host_queue_[static_cast<std::size_t>(h)].push_back(f);
      }
      ++injected_total_;
    }
  }

  // 2. Credits come home.
  {
  OSMOSIS_PROF_SCOPE("topo.credits");
  if (wormhole()) {
    const int lanes = cfg_.fc.lanes;
    for (int h = 0; h < topo_.hosts; ++h) {
      auto& q = host_lane_credit_in_[static_cast<std::size_t>(h)];
      while (!q.empty() && q.front().first <= t) {
        ++host_lane_credits_[static_cast<std::size_t>(h * lanes) +
                             static_cast<std::size_t>(q.front().second)];
        q.pop_front();
      }
    }
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
      Node& node = nodes_[s];
      for (std::size_t p = 0; p < node.lane_credit_in.size(); ++p) {
        auto& q = node.lane_credit_in[p];
        while (!q.empty() && q.front().first <= t) {
          node.lane_credits[p * static_cast<std::size_t>(lanes) +
                            static_cast<std::size_t>(q.front().second)]++;
          q.pop_front();
        }
      }
    }
  } else {
    for (int h = 0; h < topo_.hosts; ++h) {
      auto& q = host_credit_in_[static_cast<std::size_t>(h)];
      while (!q.empty() && q.front() <= t) {
        q.pop_front();
        ++host_credits_[static_cast<std::size_t>(h)];
      }
    }
    for (Node& node : nodes_) {
      for (std::size_t p = 0; p < node.credit_in.size(); ++p) {
        auto& q = node.credit_in[p];
        while (!q.empty() && q.front() <= t) {
          q.pop_front();
          ++node.out_credits[p];
        }
      }
    }
  }
  }

  // 3a. Host-to-ingress cable arrivals.
  {
  OSMOSIS_PROF_SCOPE("topo.cables");
  for (int h = 0; h < topo_.hosts; ++h) {
    auto& q = host_out_[static_cast<std::size_t>(h)];
    while (!q.empty() && q.front().slot <= t) {
      const Flit f = q.front().flit;
      q.pop_front();
      const HostAttach& at = topo_.inject[static_cast<std::size_t>(h)];
      accept_flit(at.sw, at.port, f, t);
    }
  }

  // 3b. Inter-switch and egress cable arrivals.
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    Node& node = nodes_[s];
    const SwitchSpec& spec = topo_.switches[s];
    for (std::size_t p = 0; p < node.out_data.size(); ++p) {
      auto& q = node.out_data[p];
      while (!q.empty() && q.front().slot <= t) {
        const Flit f = q.front().flit;
        q.pop_front();
        const Peer& peer = spec.out_peer[p];
        if (peer.kind == PeerKind::kHost) {
          if (f.tail) deliver(f, t, measuring);
        } else {
          accept_flit(peer.id, peer.port, f, t);
        }
      }
    }
  }
  }

  // 4. Host injection, gated by ingress buffer credits.
  {
  OSMOSIS_PROF_SCOPE("topo.inject");
  for (int h = 0; h < topo_.hosts; ++h) {
    if (host_stalled_[static_cast<std::size_t>(h)]) continue;
    auto& q = host_queue_[static_cast<std::size_t>(h)];
    if (q.empty()) continue;
    const Flit& f = q.front();
    if (wormhole()) {
      int& credits =
          host_lane_credits_[static_cast<std::size_t>(
                                 h * cfg_.fc.lanes) +
                             static_cast<std::size_t>(lane_of(f.dst))];
      if (credits == 0) continue;
      --credits;
    } else {
      int& credits = host_credits_[static_cast<std::size_t>(h)];
      if (credits == 0) continue;
      --credits;
    }
    host_out_[static_cast<std::size_t>(h)].push_back(
        Timed{t + static_cast<std::uint64_t>(cfg_.host_cable_slots),
              f});
    q.pop_front();
  }
  }

  // 5. Per-switch transfer: central-scheduler grants (cell kinds) or
  // round-robin flit arbitration (wormhole).
  {
  OSMOSIS_PROF_SCOPE("topo.sched");
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    if (topo_.dead(static_cast<int>(s))) continue;
    if (down_[s]) continue;  // frozen: holds every resident cell/flit
    if (wormhole())
      transfer_flits(nodes_[s], static_cast<int>(s), t, measuring);
    else
      transfer_cells(nodes_[s], static_cast<int>(s), t, measuring);
  }
  }

  check_invariants(t);
}

void TopoSim::check_invariants(std::uint64_t t) {
  OSMOSIS_PROF_SCOPE("topo.invariants");
  monitor_.check_generated(t, injected_total_);

  std::uint64_t ledger = 0;
  long long min_pool = LLONG_MAX;
  if (wormhole()) {
    for (std::size_t i = 0; i < host_lane_credits_.size(); ++i) {
      ledger += static_cast<std::uint64_t>(host_lane_credits_[i]);
      min_pool = std::min(
          min_pool, static_cast<long long>(host_lane_credits_[i]));
    }
    for (const auto& q : host_lane_credit_in_) ledger += q.size();
  } else {
    for (std::size_t i = 0; i < host_credits_.size(); ++i) {
      ledger += static_cast<std::uint64_t>(host_credits_[i]);
      min_pool =
          std::min(min_pool, static_cast<long long>(host_credits_[i]));
    }
    for (const auto& q : host_credit_in_) ledger += q.size();
  }
  for (const auto& q : host_out_) ledger += q.size();
  const int lanes = cfg_.fc.lanes;
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    const Node& node = nodes_[s];
    const SwitchSpec& spec = topo_.switches[s];
    if (wormhole()) {
      for (const auto& buf : node.lane_buf) ledger += buf.size();
    } else {
      for (const int occ : node.input_occupancy)
        ledger += static_cast<std::uint64_t>(occ);
    }
    for (int p = 0; p < spec.out_ports(); ++p) {
      if (spec.out_peer[static_cast<std::size_t>(p)].kind !=
          PeerKind::kSwitch)
        continue;
      if (wormhole()) {
        for (int l = 0; l < lanes; ++l) {
          const int c =
              node.lane_credits[static_cast<std::size_t>(p * lanes + l)];
          ledger += static_cast<std::uint64_t>(c);
          min_pool = std::min(min_pool, static_cast<long long>(c));
        }
        ledger += node.lane_credit_in[static_cast<std::size_t>(p)].size();
      } else {
        const int c = node.out_credits[static_cast<std::size_t>(p)];
        ledger += static_cast<std::uint64_t>(c);
        min_pool = std::min(min_pool, static_cast<long long>(c));
        ledger += node.credit_in[static_cast<std::size_t>(p)].size();
      }
      ledger += node.out_data[static_cast<std::size_t>(p)].size();
    }
  }
  monitor_.check_credits(t, ledger, pool_total_,
                         min_pool == LLONG_MAX ? 0 : min_pool);
  monitor_.check_occupancy(
      t, "topo input buffer",
      static_cast<std::uint64_t>(cur_slot_max_occ_),
      static_cast<std::uint64_t>(wormhole() ? cfg_.fc.lane_flits
                                            : cfg_.buffer_cells));

  chaos::InvariantMonitor::SlotState ss;
  ss.slot = t;
  ss.queued = backlog();
  ss.active_faults = open_faults_;
  ss.retries_pending = 0;
  monitor_.end_slot(ss);
}

bool TopoSim::advance_slot() {
  const std::uint64_t warm = cfg_.warmup_slots;
  const std::uint64_t meas = cfg_.measure_slots;
  if (now_ < warm) {
    step(now_, false, true);
  } else if (now_ < warm + meas) {
    step(now_, true, true);
    meter_.advance_slots(1, static_cast<std::uint64_t>(topo_.hosts));
  } else if (cfg_.drain_max_slots > 0 &&
             drained_slots_ < cfg_.drain_max_slots && backlog() > 0) {
    step(now_, false, false);
    ++drained_slots_;
  } else {
    return false;
  }
  ++now_;
  return true;
}

TopoSimResult TopoSim::finalize() {
  monitor_.finish(now_, backlog());

  TopoSimResult r;
  r.topology = topo_.name;
  r.flow_control = to_string(cfg_.fc.kind);
  r.hosts = topo_.hosts;
  r.switches = topo_.switch_count();
  r.stages = topo_.stages;
  r.diameter = topo_.diameter;
  r.offered_load =
      traffic_->offered_load() *
      (wormhole() ? static_cast<double>(cfg_.fc.flits_per_packet) : 1.0);
  r.throughput = meter_.utilization();
  r.delivered = delay_hist_.count();
  r.mean_delay_slots = delay_hist_.mean();
  r.p99_delay_slots = delay_hist_.p99();
  r.mean_hops = hops_.mean();
  const std::size_t max_stage = stage_wait_.size() - 1;
  r.max_occupancy_per_stage.assign(max_stage, 0);
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    int& slot = r.max_occupancy_per_stage[static_cast<std::size_t>(
        topo_.switches[s].stage - 1)];
    slot = std::max(slot, nodes_[s].max_occ);
  }
  r.mean_stage_wait_slots.assign(max_stage, 0.0);
  for (std::size_t st = 1; st <= max_stage; ++st)
    r.mean_stage_wait_slots[st - 1] = stage_wait_[st].mean();
  r.buffer_overflows = overflows_;
  r.out_of_order = monitor_.ledger().out_of_order();
  r.injected_total = injected_total_;
  r.delivered_total = delivered_total_;
  r.faults_injected = faults_injected_;
  r.faults_repaired = faults_repaired_;
  r.drained_slots = drained_slots_;
  r.invariant_violations = monitor_.violations();
  r.first_violation = monitor_.first_violation();
  r.exactly_once_in_order = monitor_.ok() && r.out_of_order == 0;
  return r;
}

TopoSimResult TopoSim::run() {
  while (advance_slot()) {
  }
  return finalize();
}

telemetry::RunReport TopoSim::report() const {
  telemetry::RunReport r;
  r.sim = "TopoSim";
  r.time_unit = "cycles";
  r.config["hosts"] = static_cast<double>(topo_.hosts);
  r.config["host_cable_slots"] = static_cast<double>(cfg_.host_cable_slots);
  r.config["trunk_cable_slots"] =
      static_cast<double>(cfg_.trunk_cable_slots);
  r.config["warmup_slots"] = static_cast<double>(cfg_.warmup_slots);
  r.config["measure_slots"] = static_cast<double>(cfg_.measure_slots);
  r.config["drain_max_slots"] = static_cast<double>(cfg_.drain_max_slots);
  if (wormhole()) {
    r.config["vc_lanes"] = static_cast<double>(cfg_.fc.lanes);
    r.config["vc_lane_flits"] = static_cast<double>(cfg_.fc.lane_flits);
    r.config["flits_per_packet"] =
        static_cast<double>(cfg_.fc.flits_per_packet);
  } else {
    r.config["buffer_cells"] = static_cast<double>(cfg_.buffer_cells);
  }
  r.info["topology"] = topo_.name;
  r.info["topology_kind"] = to_string(topo_.kind);
  r.info["flow_control"] = to_string(cfg_.fc.kind);
  r.info["routing"] = to_string(topo_.routing);
  r.info["scheduler"] =
      wormhole() ? std::string("wormhole-rr") : nodes_.front().sched->name();
  r.counters["topo.injected"] = static_cast<double>(injected_total_);
  r.counters["topo.delivered"] = static_cast<double>(delivered_total_);
  r.counters["topo.overflows"] = static_cast<double>(overflows_);
  for (std::size_t st = 1; st < grants_per_stage_.size(); ++st) {
    std::ostringstream key;
    key << "stage." << st << ".grants";
    r.counters[key.str()] =
        static_cast<double>(grants_per_stage_[st]);
  }
  r.histograms["delay"] = telemetry::HistogramSummary::of(delay_hist_);

  r.topology["stages"] = static_cast<double>(topo_.stages);
  r.topology["diameter"] = static_cast<double>(topo_.diameter);
  r.topology["switches"] = static_cast<double>(topo_.switch_count());
  r.topology["hosts"] = static_cast<double>(topo_.hosts);
  for (const auto& kv : topo_.params) r.topology[kv.first] = kv.second;
  if (wormhole()) r.topology["vc_lanes"] = static_cast<double>(cfg_.fc.lanes);
  int occ_max = 0;
  for (const Node& node : nodes_) occ_max = std::max(occ_max, node.max_occ);
  r.topology["vc_occupancy_max"] = static_cast<double>(occ_max);
  for (std::size_t st = 1; st < stage_wait_.size(); ++st) {
    std::ostringstream base;
    base << "stage." << st << ".";
    r.topology[base.str() + "wait_mean"] = stage_wait_[st].mean();
    int occ = 0;
    for (std::size_t s = 0; s < nodes_.size(); ++s)
      if (topo_.switches[s].stage == static_cast<int>(st))
        occ = std::max(occ, nodes_[s].max_occ);
    r.topology[base.str() + "occ_max"] = static_cast<double>(occ);
  }
  monitor_.to_report(r);
  return r;
}

template <class Ar>
void TopoSim::io_core(Ar& a) {
  ckpt::field(a, now_);
  ckpt::field(a, drained_slots_);
  ckpt::field(a, host_queue_);
  ckpt::field(a, host_credits_);
  ckpt::field(a, host_lane_credits_);
  ckpt::field(a, host_credit_in_);
  ckpt::field(a, host_lane_credit_in_);
  ckpt::field(a, host_out_);
  monitor_.io_flow_seq(a);
  std::uint64_t cursor = next_transition_;
  ckpt::field(a, cursor);
  if constexpr (Ar::kLoading) {
    if (cursor > transitions_.size())
      throw ckpt::Error("topo fault cursor out of range in checkpoint");
    next_transition_ = static_cast<std::size_t>(cursor);
  }
  ckpt::field(a, down_);
  ckpt::field(a, host_stalled_);
  ckpt::field(a, open_faults_);
  ckpt::field(a, faults_injected_);
  ckpt::field(a, faults_repaired_);
  ckpt::field(a, injected_total_);
  ckpt::field(a, delivered_total_);
  ckpt::field(a, overflows_);
  ckpt::field(a, grants_per_stage_);
}

template <class Ar>
void TopoSim::io_stats(Ar& a) {
  ckpt::field(a, delay_hist_);
  ckpt::field(a, hops_);
  ckpt::field(a, meter_);
  monitor_.io_order(a);
  ckpt::field(a, stage_wait_);
  ckpt::field(a, monitor_);
}

void TopoSim::save_state(ckpt::Writer& w) const {
  TopoSim* self = const_cast<TopoSim*>(this);
  ckpt::write_chunk(w, "topo.core",
                    [&](ckpt::Sink& s) { self->io_core(s); });
  ckpt::write_chunk(w, "topo.switches", [&](ckpt::Sink& s) {
    for (Node& node : self->nodes_) node.io_state(s);
  });
  ckpt::write_chunk(w, "topo.traffic",
                    [&](ckpt::Sink& s) { traffic_->save_state(s); });
  ckpt::write_chunk(w, "topo.stats",
                    [&](ckpt::Sink& s) { self->io_stats(s); });
}

void TopoSim::load_state(const ckpt::Reader& r) {
  ckpt::read_chunk(r, "topo.core",
                   [&](ckpt::Source& s) { io_core(s); });
  ckpt::read_chunk(r, "topo.switches", [&](ckpt::Source& s) {
    for (Node& node : nodes_) node.io_state(s);
  });
  ckpt::read_chunk(r, "topo.traffic",
                   [&](ckpt::Source& s) { traffic_->load_state(s); });
  ckpt::read_chunk(r, "topo.stats",
                   [&](ckpt::Source& s) { io_stats(s); });
}

TopoSimResult run_topo_uniform(const TopoSimConfig& cfg, double load,
                               std::uint64_t seed) {
  double p = load;
  if (cfg.fc.kind == FcKind::kWormholeVc)
    p = load / static_cast<double>(cfg.fc.flits_per_packet);
  TopoSim sim(cfg, sim::make_uniform(cfg.hosts, p, seed));
  return sim.run();
}

}  // namespace osmosis::topo

#include "src/topo/topo_sim.hpp"

#include <algorithm>
#include <climits>
#include <sstream>

#include "src/prof/profiler.hpp"
#include "src/telemetry/run_report.hpp"
#include "src/util/log.hpp"

namespace osmosis::topo {

namespace {

// Hold-down after a spine revival before adaptive routing re-homes its
// flows onto it, so a flapping spine cannot reshuffle routes per flap.
constexpr std::uint64_t kRevivalHoldDownSlots = 256;

// Completed cell spans land in the ring only while cell tracing is on;
// without it the ring stays a single slot, so an untraced run allocates
// nothing for it.
telemetry::TelemetryConfig ring_if_tracing(telemetry::TelemetryConfig c) {
  if (!c.enabled) c.ring_capacity = 1;
  return c;
}

// Early cells wait at the egress resequencer sorted by flow, then seq.
bool parked_before(int src_a, std::uint64_t seq_a, int src_b,
                   std::uint64_t seq_b) {
  return src_a != src_b ? src_a < src_b : seq_a < seq_b;
}

}  // namespace

TopoSimConfig leaf_spine_config(int radix) {
  TopoSimConfig cfg;
  cfg.hosts = radix * (radix / 2);
  return cfg;
}

TopoSim::TopoSim(TopoSimConfig cfg, std::unique_ptr<sim::TrafficGen> traffic)
    : cfg_(cfg),
      topo_(make_topology(cfg.topology, cfg.hosts, cfg.routing,
                          cfg.failed_switches, kHostCableSlots,
                          cfg.trunk_cable_slots, cfg.levels)),
      traffic_(std::move(traffic)),
      telem_(ring_if_tracing(cfg.telemetry), telemetry::kCycleHist) {
  OSMOSIS_REQUIRE(cfg_.buffer_cells >= 1, "buffer_cells must be >= 1");
  if (wormhole()) {
    OSMOSIS_REQUIRE(cfg_.fc.lanes >= 1 && cfg_.fc.lane_flits >= 1 &&
                        cfg_.fc.flits_per_packet >= 1,
                    "wormhole VC parameters must be >= 1");
    OSMOSIS_REQUIRE(!traced(),
                    "wormhole VC traces no cells: telemetry needs a cell "
                    "flow-control kind");
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
  OSMOSIS_REQUIRE(!degraded_mode() ||
                      (topo_.kind == TopoKind::kFatTree && cfg_.levels == 2 &&
                       !wormhole() && cfg_.failed_switches.empty()),
                  "adaptive routing and admission need the intact two-level "
                  "fat tree with a cell flow-control kind");
  {
    // Adaptive routing drains a permanent spine loss fully (the dead
    // spine keeps scheduling what it holds, queued cells re-steer); any
    // other permanent fault can legitimately strand cells.
    bool stranded = false;
    for (const faults::FaultEvent& e : cfg_.fault_plan.events())
      if (!e.transient() && !(cfg_.adaptive_routing &&
                              e.kind == faults::FaultKind::kPlaneFailure))
        stranded = true;
    monitor_.configure(cfg_.monitor, stranded, cfg_.drain_max_slots > 0);
  }

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
  grants_per_switch_.assign(topo_.switches.size(), 0);
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
  m_ = static_cast<int>(fault_targets_.size());
  const auto& events = cfg_.fault_plan.events();
  std::vector<std::uint8_t> cut(static_cast<std::size_t>(m_), 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const faults::FaultEvent& e = events[i];
    OSMOSIS_REQUIRE(e.kind == faults::FaultKind::kPlaneFailure ||
                        e.kind == faults::FaultKind::kAdapterStall,
                    "topo sim accepts kPlaneFailure and kAdapterStall "
                    "fault kinds, got "
                        << faults::to_string(e.kind));
    if (e.kind == faults::FaultKind::kPlaneFailure) {
      OSMOSIS_REQUIRE(e.transient() || cfg_.adaptive_routing,
                      "mid-run switch faults must be transient: a "
                      "permanent one strands cells unless adaptive routing "
                      "re-spreads them; use construction-time "
                      "failed_switches");
      OSMOSIS_REQUIRE(
          e.a >= 0 && e.a < static_cast<int>(fault_targets_.size()),
          "plane fault index " << e.a << " out of range (stage "
                               << top_stage_ << " has "
                               << fault_targets_.size() << " switches)");
    } else {
      OSMOSIS_REQUIRE(e.a >= 0 && e.a < topo_.hosts,
                      "adapter stall host " << e.a << " out of range");
    }
    if (e.kind == faults::FaultKind::kPlaneFailure && !e.transient())
      cut[static_cast<std::size_t>(e.a)] = 1;
    transitions_.push_back(Transition{e.at_slot, 1, static_cast<int>(i)});
    if (e.transient())
      transitions_.push_back(
          Transition{e.end_slot(), 0, static_cast<int>(i)});
  }
  OSMOSIS_REQUIRE(std::count(cut.begin(), cut.end(), 1) < m_,
                  "permanent spine faults must leave at least one "
                  "surviving spine");
  if (!events.empty()) {
    for (int s = 0; s < m_; ++s) health_.declare("spine/" + std::to_string(s));
    for (int h = 0; h < topo_.hosts; ++h)
      health_.declare("host/" + std::to_string(h));
  }

  if (degraded_mode()) {
    if (cfg_.adaptive_routing) {
      routes_ = SpineRouteTable(m_, kRevivalHoldDownSlots);
      reseq_next_.assign(hosts * hosts, 0);
      parked_.resize(hosts);
    }
    if (cfg_.admission) {
      host::AdmissionConfig ac;
      ac.enabled = true;
      admission_ = host::AdmissionControl(ac, topo_.hosts);
      admission_.set_capacity(m_, m_);
    }
    avail_ = telemetry::AvailabilityTracker(m_);
  }
  if (traced())
    telem_.series().set_channels({"backlog", "host_backlog",
                                  "input_occupancy", "credit_occupancy",
                                  "throughput", "sched_matches"});
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
    std::ostringstream key;
    key << faults::to_string(e.kind) << '/' << e.a << '@' << e.at_slot;
    if (tr.begin) {
      ++open_faults_;
      ++faults_injected_;
      recovery_.on_fault(t, key.str(), backlog());
    } else {
      --open_faults_;
      ++faults_repaired_;
      recovery_.on_repair(t, key.str());
    }
    if (e.kind == faults::FaultKind::kPlaneFailure) {
      const std::size_t sw = static_cast<std::size_t>(
          fault_targets_[static_cast<std::size_t>(e.a)]);
      down_[sw] = tr.begin;
      health_.report("spine/" + std::to_string(e.a),
                     tr.begin ? mgmt::Status::kFailed : mgmt::Status::kOk, t,
                     tr.begin ? "spine down" : "spine restored");
      if (cfg_.adaptive_routing) {
        if (tr.begin)
          routes_.fail(e.a);
        else
          routes_.revive(e.a, t);  // quarantined until the hold-down ends
        resteer_dead_uplinks();
      }
      if (cfg_.admission) admission_.set_capacity(spines_up(), m_);
    } else {
      host_stalled_[static_cast<std::size_t>(e.a)] = tr.begin;
      health_.report("host/" + std::to_string(e.a),
                     tr.begin ? mgmt::Status::kDegraded : mgmt::Status::kOk,
                     t, tr.begin ? "adapter stalled" : "resumed");
    }
  }
}

int TopoSim::spines_up() const {
  int up = m_;
  for (const int sw : fault_targets_) up -= down_[static_cast<std::size_t>(sw)];
  return up;
}

void TopoSim::resteer_dead_uplinks() {
  const std::vector<int> leaves = topo_.stage_switches(1);
  for (int s = 0; s < m_; ++s) {
    if (routes_.usable(s)) continue;
    const int dead = m_ + s;
    for (const int lf : leaves) {
      Node& leaf = nodes_[static_cast<std::size_t>(lf)];
      for (std::size_t in = 0; in < leaf.voq.size(); ++in) {
        auto& fifo = leaf.voq[in][static_cast<std::size_t>(dead)];
        if (fifo.empty()) continue;
        std::deque<Flit> keep;
        for (const Flit& f : fifo) {
          const int out = adaptive_uplink(f.dst);
          if (out == dead) {
            keep.push_back(f);  // no survivor: wait out the outage
            continue;
          }
          // Same input buffer, new VOQ: occupancy and the credit ledger
          // stay put, only the scheduler's demand moves.
          leaf.sched->cancel(static_cast<int>(in), dead);
          leaf.voq[in][static_cast<std::size_t>(out)].push_back(f);
          leaf.sched->request(static_cast<int>(in), out);
          ++resteered_;
        }
        fifo.swap(keep);
      }
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

std::int32_t TopoSim::trace_of(const Flit& f) const {
  const auto it = trace_.find(flow_of(f) << 32 | f.seq);
  return it == trace_.end() ? -1 : it->second;
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
    int out = topo_.route_port(sw, f.dst);
    OSMOSIS_REQUIRE(out >= 0, "no route toward host "
                                  << f.dst << " at switch " << sw);
    // Adaptive routing overrides the leaf's d-mod-k spine choice.
    if (cfg_.adaptive_routing && out >= m_ &&
        topo_.switches[static_cast<std::size_t>(sw)].stage == 1)
      out = adaptive_uplink(f.dst);
    node.voq[static_cast<std::size_t>(in_port)]
        [static_cast<std::size_t>(out)]
            .push_back(f);
    int& occ = node.input_occupancy[static_cast<std::size_t>(in_port)];
    ++occ;
    node.max_occ = std::max(node.max_occ, occ);
    cur_slot_max_occ_ = std::max(cur_slot_max_occ_, occ);
    if (occ > cfg_.buffer_cells) ++overflows_;
    node.sched->request(in_port, out);
    // Reaching a switch is the request stage; the first one counts.
    if (telem_.enabled())
      telem_.mark_first(trace_of(f), telemetry::Stage::kRequest,
                        static_cast<double>(t));
  }
}

void TopoSim::deliver(const Flit& f, std::uint64_t t, bool measuring) {
  const std::uint64_t flow = flow_of(f);
  monitor_.deliver(flow, f.seq);
  if (telem_.enabled()) {
    const auto it = trace_.find(flow << 32 | f.seq);
    if (it != trace_.end()) {
      telem_.finish_cell(it->second, static_cast<double>(t), measuring);
      trace_.erase(it);
    }
  }
  ++delivered_total_;
  if (measuring) {
    delay_hist_.add(static_cast<double>(t - f.inject_slot));
    hops_.add(static_cast<double>(f.hops));
    meter_.add_delivery(
        wormhole() ? static_cast<double>(cfg_.fc.flits_per_packet) : 1.0);
  }
}

void TopoSim::deliver_or_park(const Flit& f, std::uint64_t t,
                              bool measuring) {
  auto& park = parked_[static_cast<std::size_t>(f.dst)];
  std::uint64_t& next =
      reseq_next_[static_cast<std::size_t>(f.dst) *
                      static_cast<std::size_t>(topo_.hosts) +
                  static_cast<std::size_t>(f.src)];
  const auto before = [](const Flit& a, const Flit& b) {
    return parked_before(a.src, a.seq, b.src, b.seq);
  };
  if (f.seq != next) {
    // Early arrival over a detour: park until the gap closes.
    ++reroute_ooo_;
    park.insert(std::upper_bound(park.begin(), park.end(), f, before), f);
    max_park_depth_ =
        std::max(max_park_depth_, static_cast<std::uint64_t>(park.size()));
    return;
  }
  deliver(f, t, measuring);
  ++next;
  Flit key = f;
  key.seq = next;
  const auto first = std::lower_bound(park.begin(), park.end(), key, before);
  auto last = first;
  for (; last != park.end() && last->src == f.src && last->seq == next;
       ++last, ++next)
    deliver(*last, t, measuring);
  park.erase(first, last);
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
    if (frozen ||
        (fc && node.out_credits[static_cast<std::size_t>(p)] == 0)) {
      node.sched->block_output(p);
      ++fc_blocked_output_cycles_;
    } else {
      node.sched->unblock_output(p);
    }
  }
  const std::vector<sw::Grant>& grants = node.sched->tick();
  grants_per_switch_[static_cast<std::size_t>(sw)] += grants.size();
  for (const sw::Grant& g : grants) {
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
    // The first grant is the grant stage; each later one re-stamps the
    // transmit stage, so the last hop's launch wins.
    if (telem_.enabled()) {
      const std::int32_t trace = trace_of(f);
      telem_.mark_first(trace, telemetry::Stage::kGrant,
                        static_cast<double>(t));
      telem_.mark(trace, telemetry::Stage::kTransmit, static_cast<double>(t));
    }

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
  // Hold-down expiry re-homes flows onto a revived spine; cells still
  // queued toward an out-of-service uplink get a fresh chance.
  if (cfg_.adaptive_routing && routes_.tick(t)) resteer_dead_uplinks();

  // 1. Hosts generate traffic (packets; wormhole expands into flits),
  //    gated by degraded-mode admission.
  if (inject) {
    OSMOSIS_PROF_SCOPE("topo.ingest");
    if (cfg_.admission) admission_.begin_slot();
    const int F = wormhole() ? cfg_.fc.flits_per_packet : 1;
    for (int h = 0; h < topo_.hosts; ++h) {
      sim::Arrival a;
      if (!traffic_->sample(h, a)) continue;
      // Shed before the cell takes a sequence number, so flows stay
      // dense and exactly-once covers every admitted cell.
      if (cfg_.admission && !admission_.admit(h)) {
        ++shed_;
        monitor_.shed();
        continue;
      }
      const std::size_t flow = static_cast<std::size_t>(h) *
                                   static_cast<std::size_t>(topo_.hosts) +
                               static_cast<std::size_t>(a.dst);
      const std::uint64_t seq = monitor_.send(flow);
      const std::int32_t trace =
          telem_.begin_cell(h, a.dst, static_cast<double>(t));
      if (trace >= 0)
        trace_.emplace(static_cast<std::uint64_t>(flow) << 32 | seq, trace);
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
          if (!f.tail) continue;
          if (cfg_.adaptive_routing)
            deliver_or_park(f, t, measuring);
          else
            deliver(f, t, measuring);
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
      if (credits == 0) {
        // Head-of-line cell held back by exhausted downstream credits.
        ++fc_host_hold_cycles_;
        if (telem_.enabled()) telem_.fc_hold(trace_of(f));
        continue;
      }
      --credits;
    }
    host_out_[static_cast<std::size_t>(h)].push_back(
        Timed{t + static_cast<std::uint64_t>(kHostCableSlots),
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
    // A down switch freezes and holds every resident cell/flit. Under
    // adaptive routing it keeps scheduling instead, so what it holds
    // drains; the leaves' uplink masks keep new cells away.
    if (down_[s] && !cfg_.adaptive_routing) continue;
    if (wormhole())
      transfer_flits(nodes_[s], static_cast<int>(s), t, measuring);
    else
      transfer_cells(nodes_[s], static_cast<int>(s), t, measuring);
  }
  }

  // 6. Recovery bookkeeping: a repaired fault counts as recovered once
  //    the backlog is back at its pre-fault baseline.
  if (!cfg_.fault_plan.empty()) recovery_.observe(t, backlog());

  check_invariants(t);
}

void TopoSim::check_invariants(std::uint64_t t) {
  OSMOSIS_PROF_SCOPE("topo.invariants");
  // Every generated cell was offered into the fabric or shed.
  monitor_.check_generated(t, injected_total_ + shed_);

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

void TopoSim::sample_series(std::uint64_t t) {
  prof::TimeSeriesSampler& s = telem_.series();
  if (!s.due(t)) return;
  OSMOSIS_PROF_SCOPE("topo.telemetry");
  std::uint64_t host_backlog = 0;
  for (const auto& q : host_queue_) host_backlog += q.size();
  std::uint64_t input_occ = 0;
  // Credit occupancy: grantable downstream buffer slots, host links
  // included (host egress ports carry -1 = no FC and are skipped).
  std::uint64_t credits = 0;
  for (const int c : host_credits_) credits += static_cast<std::uint64_t>(c);
  for (const Node& node : nodes_) {
    for (const int occ : node.input_occupancy)
      input_occ += static_cast<std::uint64_t>(occ);
    for (const int c : node.out_credits)
      if (c >= 0) credits += static_cast<std::uint64_t>(c);
  }
  std::uint64_t grants = 0;
  for (const std::uint64_t g : grants_per_switch_) grants += g;
  // Rates over the window since the previous sample; the first sample
  // of a run has no window yet and records 0.
  const std::uint64_t dslots = t - last_sample_slot_;
  const double slots = static_cast<double>(dslots);
  const double thr =
      dslots ? static_cast<double>(delivered_total_ - last_sample_delivered_) /
                   (slots * static_cast<double>(topo_.hosts))
             : 0.0;
  s.record(t, {static_cast<double>(backlog()),
               static_cast<double>(host_backlog),
               static_cast<double>(input_occ), static_cast<double>(credits),
               thr,
               dslots ? static_cast<double>(grants - last_sample_grants_) /
                            slots
                      : 0.0});
  last_sample_slot_ = t;
  last_sample_delivered_ = delivered_total_;
  last_sample_grants_ = grants;
}

bool TopoSim::advance_slot() {
  const std::uint64_t warm = cfg_.warmup_slots;
  const std::uint64_t meas = cfg_.measure_slots;
  if (now_ < warm) {
    step(now_, false, true);
  } else if (now_ < warm + meas) {
    const std::uint64_t before = delivered_total_;
    step(now_, true, true);
    if (avail_.enabled())
      avail_.record_slot(delivered_total_ - before, live_spines(),
                         topo_.hosts);
    meter_.advance_slots(1, static_cast<std::uint64_t>(topo_.hosts));
  } else if (cfg_.drain_max_slots > 0 &&
             drained_slots_ < cfg_.drain_max_slots &&
             (backlog() > 0 || next_transition_ < transitions_.size())) {
    // Drain until empty, and past any fault transition still pending so
    // late repairs land.
    step(now_, false, false);
    ++drained_slots_;
  } else {
    return false;
  }
  sample_series(now_);
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
  r.faults_recovered = recovery_.recovered();
  r.mean_recovery_slots = recovery_.mean_recovery_slots();
  r.drained_slots = drained_slots_;
  r.invariant_violations = monitor_.violations();
  r.first_violation = monitor_.first_violation();
  r.exactly_once_in_order = monitor_.ledger().report().exactly_once_in_order();
  r.shed_cells = shed_;
  r.resteered = resteered_;
  r.reroute_ooo = reroute_ooo_;
  r.max_resequencer_depth = max_park_depth_;
  r.brownout_slots = avail_.degraded_slots();

  if (telem_.enabled()) {
    // Per-switch grants and peak occupancy, rolled up per stage.
    mgmt::CounterRegistry& ctr = telem_.counters();
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
      const std::string id = std::to_string(s);
      ctr.add("stage." + std::to_string(topo_.switches[s].stage) +
                  ".switch." + id + ".grants",
              static_cast<double>(grants_per_switch_[s]));
      ctr.set_gauge("buffer.switch." + id + ".max_occupancy",
                    nodes_[s].max_occ);
    }
    for (std::size_t st = 1; st < grants_per_stage_.size(); ++st) {
      const std::string stage = "stage." + std::to_string(st);
      ctr.set_gauge("rollup." + stage + ".grants",
                    ctr.subtotal(stage + ".switch."));
    }
    ctr.add("fc.host_hold_cycles", static_cast<double>(fc_host_hold_cycles_));
    ctr.add("fc.blocked_output_cycles",
            static_cast<double>(fc_blocked_output_cycles_));
    if (!cfg_.fault_plan.empty()) {
      ctr.add("faults.injected", static_cast<double>(r.faults_injected));
      ctr.add("faults.repaired", static_cast<double>(r.faults_repaired));
      ctr.add("faults.recovered", static_cast<double>(r.faults_recovered));
      ctr.set_gauge("faults.mean_recovery_slots", r.mean_recovery_slots);
      ctr.set_gauge("faults.drained_slots",
                    static_cast<double>(r.drained_slots));
    }
    if (degraded_mode()) {
      ctr.add("degraded.shed_cells", static_cast<double>(r.shed_cells));
      ctr.add("degraded.resteered", static_cast<double>(r.resteered));
      ctr.add("degraded.reroute_ooo", static_cast<double>(r.reroute_ooo));
      ctr.set_gauge("degraded.max_resequencer_depth",
                    static_cast<double>(r.max_resequencer_depth));
    }
  }
  return r;
}

TopoSimResult TopoSim::run() {
  while (advance_slot()) {
  }
  return finalize();
}

telemetry::RunReport TopoSim::report() const {
  telemetry::RunReport r;
  if (traced()) r = telem_.make_report("TopoSim", "cycles");
  r.sim = "TopoSim";
  r.time_unit = "cycles";
  r.config["hosts"] = static_cast<double>(topo_.hosts);
  r.config["host_cable_slots"] = static_cast<double>(kHostCableSlots);
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
  if (cfg_.adaptive_routing) r.config["adaptive_routing"] = 1;
  if (cfg_.admission) r.config["admission"] = 1;
  if (traced())
    r.config["telemetry.sample_every"] = cfg_.telemetry.sample_every;
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
  r.health = health_.event_log();
  avail_.to_report(r, injected_total_, delivered_total_, shed_,
                   cfg_.fault_plan.empty() ? nullptr
                                           : &recovery_.recovery_histogram());
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

template <class Ar>
void TopoSim::io_faults(Ar& a) {
  ckpt::field(a, recovery_);
  ckpt::field(a, health_);
}

template <class Ar>
void TopoSim::io_degraded(Ar& a) {
  if (cfg_.adaptive_routing) {
    ckpt::field(a, routes_);
    ckpt::field(a, reseq_next_);
    ckpt::field(a, parked_);
    if constexpr (Ar::kLoading) {
      const std::size_t hosts = static_cast<std::size_t>(topo_.hosts);
      if (reseq_next_.size() != hosts * hosts || parked_.size() != hosts)
        throw ckpt::Error("topo resequencer sized for a different fabric");
      for (std::size_t dst = 0; dst < hosts; ++dst)
        for (std::size_t i = 0; i < parked_[dst].size(); ++i) {
          const Flit& f = parked_[dst][i];
          if (f.dst != static_cast<int>(dst) ||
              (i > 0 &&
               !parked_before(parked_[dst][i - 1].src,
                              parked_[dst][i - 1].seq, f.src, f.seq)))
            throw ckpt::Error("topo resequencer park corrupt in checkpoint");
        }
    }
  }
  if (cfg_.admission) ckpt::field(a, admission_);
  ckpt::field(a, avail_);
  ckpt::field(a, shed_);
  ckpt::field(a, resteered_);
  ckpt::field(a, reroute_ooo_);
  ckpt::field(a, max_park_depth_);
}

template <class Ar>
void TopoSim::io_telemetry(Ar& a) {
  ckpt::field(a, telem_);
  ckpt::field(a, trace_);
  ckpt::field(a, grants_per_switch_);
  ckpt::field(a, fc_blocked_output_cycles_);
  ckpt::field(a, fc_host_hold_cycles_);
  ckpt::field(a, last_sample_slot_);
  ckpt::field(a, last_sample_delivered_);
  ckpt::field(a, last_sample_grants_);
  if constexpr (Ar::kLoading) {
    if (grants_per_switch_.size() != nodes_.size())
      throw ckpt::Error("topo grant counters sized for a different fabric");
  }
}

template <class Io>
void TopoSim::io_chunks(Io& io) {
  ckpt::chunk(io, "topo.core", [&](auto& s) { io_core(s); });
  ckpt::chunk(io, "topo.switches", [&](auto& s) {
    for (Node& node : nodes_) node.io_state(s);
  });
  ckpt::chunk(io, "topo.traffic",
              [&](auto& s) { ckpt::save_or_load(s, *traffic_); });
  ckpt::chunk(io, "topo.stats", [&](auto& s) { io_stats(s); });
  if (!cfg_.fault_plan.empty())
    ckpt::chunk(io, "topo.faults", [&](auto& s) { io_faults(s); });
  if (degraded_mode())
    ckpt::chunk(io, "topo.degraded", [&](auto& s) { io_degraded(s); });
  if (traced())
    ckpt::chunk(io, "topo.telemetry", [&](auto& s) { io_telemetry(s); });
}

void TopoSim::save_state(ckpt::Writer& w) const {
  const_cast<TopoSim*>(this)->io_chunks(w);
}

void TopoSim::load_state(const ckpt::Reader& r) { io_chunks(r); }

TopoSimResult run_topo_uniform(const TopoSimConfig& cfg, double load,
                               std::uint64_t seed) {
  double p = load;
  if (cfg.fc.kind == FcKind::kWormholeVc)
    p = load / static_cast<double>(cfg.fc.flits_per_packet);
  TopoSim sim(cfg, sim::make_uniform(cfg.hosts, p, seed));
  return sim.run();
}

}  // namespace osmosis::topo

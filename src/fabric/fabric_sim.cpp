#include "src/fabric/fabric_sim.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "src/prof/profiler.hpp"
#include "src/util/log.hpp"

namespace osmosis::fabric {

namespace {

std::string fab_fault_key(const faults::FaultEvent& e) {
  std::ostringstream oss;
  oss << faults::to_string(e.kind) << '/' << e.a << '@' << e.at_slot;
  return oss.str();
}

}  // namespace

FabricSim::FabricSim(FabricSimConfig cfg,
                     std::unique_ptr<sim::TrafficGen> traffic)
    : cfg_(cfg),
      radix_(cfg.radix),
      m_(cfg.radix / 2),
      hosts_(cfg.radix * (cfg.radix / 2)),
      traffic_(std::move(traffic)),
      telem_(cfg.telemetry) {
  OSMOSIS_REQUIRE(radix_ >= 2 && radix_ % 2 == 0,
                  "radix must be even and >= 2");
  OSMOSIS_REQUIRE(cfg_.buffer_cells >= 1, "need at least one buffer cell");
  OSMOSIS_REQUIRE(cfg_.host_cable_slots >= 1 && cfg_.trunk_cable_slots >= 1,
                  "cable delays must be >= 1 slot");
  OSMOSIS_REQUIRE(cfg_.scheduler == sw::SchedulerKind::kIslip ||
                      cfg_.scheduler == sw::SchedulerKind::kPim ||
                      cfg_.scheduler == sw::SchedulerKind::kTdm ||
                      cfg_.scheduler == sw::SchedulerKind::kWfa,
                  "fabric stages need an immediate-issue scheduler kind");
  OSMOSIS_REQUIRE(traffic_ != nullptr && traffic_->ports() == hosts_,
                  "traffic generator must cover all " << hosts_ << " hosts");

  // The two-level fat tree from the topology zoo: leaves 0..k-1 (hosts
  // on ports 0..m-1, uplinks m..2m-1), spines k..k+m-1, static d-mod-k
  // routes. Switch ids and port assignments match the arithmetic wiring
  // this simulator historically computed inline.
  topo::FatTreeParams fp;
  fp.radix = radix_;
  fp.levels = 2;
  fp.host_delay = cfg_.host_cable_slots;
  fp.trunk_delay = cfg_.trunk_cable_slots;
  fp.routing = topo::RouteKind::kDestMod;
  topo_ = topo::make_fat_tree(fp);
  OSMOSIS_REQUIRE(topo_.hosts == hosts_ && topo_.switch_count() == radix_ + m_,
                  "fat-tree generator shape mismatch");

  const int total_switches = radix_ + m_;  // leaves + spines
  switches_.resize(static_cast<std::size_t>(total_switches));
  for (int s = 0; s < total_switches; ++s) {
    SwitchNode& node = switches_[static_cast<std::size_t>(s)];
    sw::SchedulerConfig sc;
    sc.kind = cfg_.scheduler;
    sc.ports = radix_;
    sc.receivers = 1;
    sc.iterations = cfg_.scheduler_iterations;
    sc.seed = 0x0505ULL + static_cast<std::uint64_t>(s);
    node.sched = sw::make_scheduler(sc);
    node.voq.assign(static_cast<std::size_t>(radix_),
                    std::vector<std::deque<FabricCell>>(
                        static_cast<std::size_t>(radix_)));
    node.input_occupancy.assign(static_cast<std::size_t>(radix_), 0);
    node.out_data.resize(static_cast<std::size_t>(radix_));
    node.credit_in.resize(static_cast<std::size_t>(radix_));
    node.out_credits.assign(static_cast<std::size_t>(radix_),
                            cfg_.buffer_cells);
    if (is_leaf(s)) {
      // Leaf down-ports face hosts: egress, no fabric-internal FC.
      for (int p = 0; p < m_; ++p)
        node.out_credits[static_cast<std::size_t>(p)] = -1;
    }
  }

  // ---- graceful degradation (DESIGN.md §13) ----------------------------
  adaptive_ = cfg_.adaptive_routing;
  if (adaptive_) {
    routes_ = SpineRouteTable(m_, cfg_.reroute_hysteresis_slots);
    parked_.resize(static_cast<std::size_t>(hosts_));
    expected_.assign(
        static_cast<std::size_t>(hosts_),
        std::vector<std::uint64_t>(static_cast<std::size_t>(hosts_), 0));
  }
  if (cfg_.admission.enabled) {
    admission_ = host::AdmissionControl(cfg_.admission, hosts_);
    admission_.set_capacity(m_, m_);
  }
  {
    telemetry::AvailabilityConfig acfg = cfg_.availability;
    acfg.enabled =
        acfg.enabled || cfg_.adaptive_routing || cfg_.admission.enabled;
    avail_ = telemetry::AvailabilityTracker(acfg, m_);
  }

  {
    chaos::MonitorConfig mc = cfg_.monitor;
    // Adaptive routing drains permanent spine outages fully (the dead
    // spine keeps scheduling its resident cells, queued cells re-steer);
    // any other permanent fault can legitimately strand cells.
    bool permanent_stranding = false;
    for (const faults::FaultEvent& e : cfg_.fault_plan.events())
      if (!e.transient() &&
          !(adaptive_ && e.kind == faults::FaultKind::kPlaneFailure))
        permanent_stranding = true;
    mc.allow_stranded = mc.allow_stranded || permanent_stranding;
    mc.expect_drain = cfg_.drain_max_slots > 0;
    monitor_.configure(mc);
    monitor_.preset_flows(static_cast<std::size_t>(hosts_) *
                              static_cast<std::size_t>(hosts_),
                          static_cast<std::size_t>(hosts_));
  }

  host_queue_.resize(static_cast<std::size_t>(hosts_));
  host_credits_.assign(static_cast<std::size_t>(hosts_), cfg_.buffer_cells);
  host_credit_in_.resize(static_cast<std::size_t>(hosts_));
  host_out_.resize(static_cast<std::size_t>(hosts_));
  grants_per_switch_.assign(static_cast<std::size_t>(total_switches), 0);
  telem_.series().set_channels({"backlog", "host_backlog", "input_occupancy",
                                "credit_occupancy", "throughput",
                                "sched_matches"});

  // ---- runtime fault plan ----------------------------------------------
  spine_down_.assign(static_cast<std::size_t>(m_), 0);
  host_stalled_.assign(static_cast<std::size_t>(hosts_), 0);
  for (int sp = 0; sp < m_; ++sp)
    health_.declare("spine/" + std::to_string(sp));
  for (int lf = 0; lf < radix_; ++lf)
    health_.declare("leaf/" + std::to_string(lf));
  for (int h = 0; h < hosts_; ++h)
    health_.declare("host/" + std::to_string(h));
  if (!cfg_.fault_plan.empty()) {
    for (const faults::FaultEvent& e : cfg_.fault_plan.events()) {
      switch (e.kind) {
        case faults::FaultKind::kPlaneFailure:
          OSMOSIS_REQUIRE(e.a >= 0 && e.a < m_,
                          "fault plan: spine " << e.a << " out of range");
          // Static d-mod-k routing has no alternate path: a permanently
          // dead spine strands every flow hashed onto it, so only
          // transient outages are accepted unless adaptive routing can
          // re-spread those flows over the survivors.
          OSMOSIS_REQUIRE(e.transient() || adaptive_,
                          "fabric spine failures must be transient");
          break;
        case faults::FaultKind::kAdapterStall:
          OSMOSIS_REQUIRE(e.a >= 0 && e.a < hosts_,
                          "fault plan: host " << e.a << " out of range");
          break;
        default:
          OSMOSIS_REQUIRE(false,
                          "fabric fault plan accepts only spine "
                          "kPlaneFailure and host kAdapterStall entries");
      }
    }
    if (adaptive_) {
      // Adaptive routing needs somewhere to steer: reject plans whose
      // combined permanent spine faults kill every spine.
      std::vector<std::uint8_t> perm(static_cast<std::size_t>(m_), 0);
      int dead = 0;
      for (const faults::FaultEvent& e : cfg_.fault_plan.events())
        if (e.kind == faults::FaultKind::kPlaneFailure && !e.transient() &&
            !perm[static_cast<std::size_t>(e.a)]) {
          perm[static_cast<std::size_t>(e.a)] = 1;
          ++dead;
        }
      OSMOSIS_REQUIRE(dead < m_,
                      "permanent spine faults must leave at least one "
                      "surviving spine");
    }
    injector_.emplace(cfg_.fault_plan);
  }
}

void FabricSim::apply_fault_transitions(std::uint64_t t) {
  for (const faults::FaultTransition& tr : injector_->tick(t)) {
    const faults::FaultEvent& e = tr.event;
    if (tr.begin) {
      ++faults_injected_;
      recovery_.on_fault(t, fab_fault_key(e), backlog());
    } else {
      ++faults_repaired_;
      recovery_.on_repair(t, fab_fault_key(e));
    }
    if (e.kind == faults::FaultKind::kPlaneFailure) {
      spine_down_[static_cast<std::size_t>(e.a)] = tr.begin ? 1 : 0;
      health_.report("spine/" + std::to_string(e.a),
                     tr.begin ? mgmt::Status::kFailed : mgmt::Status::kOk, t,
                     tr.begin ? "spine down" : "spine restored");
      if (adaptive_) {
        if (tr.begin)
          routes_.fail(e.a);
        else
          routes_.revive(e.a, t);  // quarantined until the hold-down ends
        resteer_dead_uplinks();
      }
      update_admission_capacity();
    } else {  // kAdapterStall
      host_stalled_[static_cast<std::size_t>(e.a)] = tr.begin ? 1 : 0;
      health_.report("host/" + std::to_string(e.a),
                     tr.begin ? mgmt::Status::kDegraded : mgmt::Status::kOk,
                     t, tr.begin ? "adapter stalled" : "resumed");
    }
  }
}

std::uint64_t FabricSim::backlog() const {
  std::uint64_t total = 0;
  for (const auto& q : host_queue_) total += q.size();
  for (const auto& q : host_out_) total += q.size();
  for (const auto& node : switches_) {
    for (const int occ : node.input_occupancy)
      total += static_cast<std::uint64_t>(occ);
    for (const auto& q : node.out_data) total += q.size();
  }
  // Resequencer-parked cells are queued work, not deliveries.
  for (const auto& park : parked_) total += park.size();
  return total;
}

int FabricSim::route(int sw_id, int dst) const {
  const int port =
      topo_.switches[static_cast<std::size_t>(sw_id)]
          .route[static_cast<std::size_t>(dst)];
  // Fault-aware uplink spread replaces the static d-mod-k spine choice
  // (down-ports are unique paths either way).
  if (adaptive_ && is_leaf(sw_id) && port >= m_)
    return m_ + routes_.route(dst);
  return port;
}

void FabricSim::deliver_now(const FabricCell& cell, std::uint64_t t,
                            bool measuring) {
  monitor_.deliver(static_cast<std::uint64_t>(cell.src) *
                           static_cast<std::uint64_t>(hosts_) +
                       static_cast<std::uint64_t>(cell.dst),
                   cell.seq);
  telem_.finish_cell(cell.trace, static_cast<double>(t), measuring);
  ++total_delivered_;
  if (measuring) {
    delay_hist_.add(static_cast<double>(t - cell.inject_slot));
    meter_.add_delivery();
  }
}

void FabricSim::deliver_or_park(const FabricCell& cell, std::uint64_t t,
                                bool measuring) {
  auto& park = parked_[static_cast<std::size_t>(cell.dst)];
  std::uint64_t& next = expected_[static_cast<std::size_t>(cell.dst)]
                                 [static_cast<std::size_t>(cell.src)];
  if (cell.seq != next) {
    // Early arrival via a detour: park until the gap closes.
    ++reroute_ooo_;
    park.emplace(std::make_pair(cell.src, cell.seq), cell);
    max_park_depth_ =
        std::max(max_park_depth_, static_cast<std::uint64_t>(park.size()));
    return;
  }
  deliver_now(cell, t, measuring);
  ++next;
  for (auto it = park.find({cell.src, next}); it != park.end();
       it = park.find({cell.src, next})) {
    deliver_now(it->second, t, measuring);
    park.erase(it);
    ++next;
  }
}

void FabricSim::resteer_dead_uplinks() {
  for (int sp = 0; sp < m_; ++sp) {
    if (routes_.usable(sp)) continue;
    const int dead = m_ + sp;
    for (int lf = 0; lf < radix_; ++lf) {
      SwitchNode& leaf = switches_[static_cast<std::size_t>(lf)];
      for (int in = 0; in < radix_; ++in) {
        auto& fifo = leaf.voq[static_cast<std::size_t>(in)]
                             [static_cast<std::size_t>(dead)];
        if (fifo.empty()) continue;
        std::deque<FabricCell> keep;
        while (!fifo.empty()) {
          const FabricCell cell = fifo.front();
          fifo.pop_front();
          const int out = route(lf, cell.dst);
          if (out == dead) {
            keep.push_back(cell);  // no survivor: wait out the outage
            continue;
          }
          // Same input buffer, new VOQ: occupancy and the credit ledger
          // are untouched, only the scheduler's demand moves.
          leaf.sched->cancel(in, dead);
          leaf.voq[static_cast<std::size_t>(in)]
                  [static_cast<std::size_t>(out)]
              .push_back(cell);
          leaf.sched->request(in, out);
          ++resteered_;
        }
        fifo.swap(keep);
      }
    }
  }
}

int FabricSim::live_spines() const {
  if (adaptive_) return routes_.usable_count();
  int down = 0;
  for (const std::uint8_t d : spine_down_) down += d;
  return m_ - down;
}

void FabricSim::update_admission_capacity() {
  if (!cfg_.admission.enabled) return;
  // The health registry is the management-plane authority on terminal
  // capacity; only fault transitions call this, so the lookups are cold.
  int live = 0;
  for (int sp = 0; sp < m_; ++sp)
    if (health_.status("spine/" + std::to_string(sp)) == mgmt::Status::kOk)
      ++live;
  admission_.set_capacity(live, m_);
}

void FabricSim::step(std::uint64_t t, bool measuring, bool inject_traffic) {
  // 0. Scheduled faults begin / get repaired at the slot boundary.
  if (injector_) {
    OSMOSIS_PROF_SCOPE("fabric.faults");
    apply_fault_transitions(t);
  }
  // Hold-down expiry re-homes routes onto re-admitted spines; anything
  // still queued toward an out-of-service uplink gets a fresh chance.
  if (adaptive_ && routes_.tick(t)) resteer_dead_uplinks();

  // 1. Hosts generate traffic, gated by degraded-mode admission.
  if (inject_traffic) {
    OSMOSIS_PROF_SCOPE("fabric.ingest");
    if (cfg_.admission.enabled) admission_.begin_slot();
    for (int h = 0; h < hosts_; ++h) {
      sim::Arrival a;
      if (!traffic_->sample(h, a)) continue;
      ++generated_;
      // Shed BEFORE the cell takes a sequence number: per-flow sequence
      // space stays dense, so exactly-once applies to admitted cells and
      // shed cells are accounted separately (never silently dropped).
      if (cfg_.admission.enabled && !admission_.admit(h)) {
        ++shed_;
        monitor_.shed();
        continue;
      }
      const std::size_t flow = static_cast<std::size_t>(h) *
                                   static_cast<std::size_t>(hosts_) +
                               static_cast<std::size_t>(a.dst);
      FabricCell cell{h, a.dst, monitor_.send(flow), t,
                      telem_.begin_cell(h, a.dst, static_cast<double>(t))};
      ++offered_;
      host_queue_[static_cast<std::size_t>(h)].push_back(cell);
      max_host_backlog_ =
          std::max(max_host_backlog_,
                   static_cast<std::uint64_t>(
                       host_queue_[static_cast<std::size_t>(h)].size()));
    }
  }

  // 2. Credits come home.
  {
  OSMOSIS_PROF_SCOPE("fabric.credits");
  for (int h = 0; h < hosts_; ++h) {
    auto& q = host_credit_in_[static_cast<std::size_t>(h)];
    while (!q.empty() && q.front() <= t) {
      q.pop_front();
      ++host_credits_[static_cast<std::size_t>(h)];
    }
  }
  for (auto& node : switches_) {
    for (int p = 0; p < radix_; ++p) {
      auto& q = node.credit_in[static_cast<std::size_t>(p)];
      while (!q.empty() && q.front() <= t) {
        q.pop_front();
        ++node.out_credits[static_cast<std::size_t>(p)];
      }
    }
  }
  }

  // Helper: a cell lands on a switch input port.
  auto accept_cell = [&](int sw_id, int in_port, const FabricCell& cell) {
    SwitchNode& node = switches_[static_cast<std::size_t>(sw_id)];
    const int out = route(sw_id, cell.dst);
    node.voq[static_cast<std::size_t>(in_port)][static_cast<std::size_t>(out)]
        .push_back(cell);
    int& occ = node.input_occupancy[static_cast<std::size_t>(in_port)];
    ++occ;
    node.max_input_occ = std::max(node.max_input_occ, occ);
    if (occ > cfg_.buffer_cells) ++overflows_;  // must never happen
    node.sched->request(in_port, out);
    // First switch reached = the request stage of the lifecycle.
    telem_.mark_first(cell.trace, telemetry::Stage::kRequest,
                      static_cast<double>(t));
  };

  // 3a. Host-to-leaf cable arrivals.
  {
  OSMOSIS_PROF_SCOPE("fabric.cables");
  for (int h = 0; h < hosts_; ++h) {
    auto& q = host_out_[static_cast<std::size_t>(h)];
    while (!q.empty() && q.front().slot <= t) {
      const FabricCell cell = q.front().cell;
      q.pop_front();
      const topo::HostAttach& at = topo_.inject[static_cast<std::size_t>(h)];
      accept_cell(at.sw, at.port, cell);
    }
  }

  // 3b. Switch output cables: either host delivery or next-stage input.
  for (int s = 0; s < static_cast<int>(switches_.size()); ++s) {
    SwitchNode& node = switches_[static_cast<std::size_t>(s)];
    const topo::SwitchSpec& spec = topo_.switches[static_cast<std::size_t>(s)];
    for (int p = 0; p < radix_; ++p) {
      auto& q = node.out_data[static_cast<std::size_t>(p)];
      while (!q.empty() && q.front().slot <= t) {
        const FabricCell cell = q.front().cell;
        q.pop_front();
        const topo::Peer& peer = spec.out_peer[static_cast<std::size_t>(p)];
        if (peer.kind == topo::PeerKind::kHost) {
          // Delivery, through the egress resequencer when adaptive
          // re-steering may have reshuffled the flow.
          if (adaptive_)
            deliver_or_park(cell, t, measuring);
          else
            deliver_now(cell, t, measuring);
        } else {
          accept_cell(peer.id, peer.port, cell);
        }
      }
    }
  }
  }

  // 4. Host injection, gated by credits into the leaf input buffer. A
  //    stalled adapter holds its queue (generation continues upstream).
  {
  OSMOSIS_PROF_SCOPE("fabric.inject");
  for (int h = 0; h < hosts_; ++h) {
    if (host_stalled_[static_cast<std::size_t>(h)]) continue;
    auto& q = host_queue_[static_cast<std::size_t>(h)];
    int& credits = host_credits_[static_cast<std::size_t>(h)];
    if (!q.empty() && credits == 0) {
      // Head-of-line cell held back by exhausted downstream credits.
      telem_.fc_hold(q.front().trace);
      ++fc_host_hold_cycles_;
    }
    if (!q.empty() && credits > 0) {
      --credits;
      host_out_[static_cast<std::size_t>(h)].push_back(
          Timed{t + static_cast<std::uint64_t>(cfg_.host_cable_slots),
                q.front()});
      q.pop_front();
    }
  }
  }

  // 5. Per-stage scheduling and crossbar transfer.
  {
  OSMOSIS_PROF_SCOPE("fabric.sched");
  for (int s = 0; s < static_cast<int>(switches_.size()); ++s) {
    SwitchNode& node = switches_[static_cast<std::size_t>(s)];
    // Legacy mode: a downed spine's scheduler and crossbar freeze — its
    // buffered cells wait out the outage and resume untouched on repair.
    // Adaptive mode instead takes the spine out of service for NEW cells
    // (the leaf uplink mask below) but keeps it scheduling so resident
    // cells drain: the management-plane quiesce model, which is what
    // makes permanent spine faults drainable at all.
    if (!is_leaf(s) && spine_down_[static_cast<std::size_t>(s - radix_)] &&
        !adaptive_)
      continue;
    // Remote-FC bookkeeping at the scheduler (§IV.B): an output with no
    // credit for the downstream input buffer is not grantable. The same
    // mask covers a leaf uplink whose spine is down (the management
    // plane tells every leaf scheduler about the outage).
    for (int p = 0; p < radix_; ++p) {
      const int credits = node.out_credits[static_cast<std::size_t>(p)];
      const bool dead_uplink =
          is_leaf(s) && p >= m_ &&
          spine_down_[static_cast<std::size_t>(p - m_)] != 0;
      if (credits == 0 || dead_uplink) {
        node.sched->block_output(p);
        ++fc_blocked_output_cycles_;
      } else {
        node.sched->unblock_output(p);
      }
    }
    const std::vector<sw::Grant>& grants = node.sched->tick();
    grants_per_switch_[static_cast<std::size_t>(s)] += grants.size();
    for (const sw::Grant& g : grants) {
      auto& fifo = node.voq[static_cast<std::size_t>(g.input)]
                           [static_cast<std::size_t>(g.output)];
      OSMOSIS_REQUIRE(!fifo.empty(), "fabric grant without a queued cell");
      const FabricCell cell = fifo.front();
      fifo.pop_front();
      --node.input_occupancy[static_cast<std::size_t>(g.input)];
      // First grant = the grant stage; the last grant (each re-stamp
      // overwrites) launches the final hop = the transmit stage.
      telem_.mark_first(cell.trace, telemetry::Stage::kGrant,
                        static_cast<double>(t));
      telem_.mark(cell.trace, telemetry::Stage::kTransmit,
                  static_cast<double>(t));

      // Return a credit to whatever feeds this input port.
      const topo::Peer& upstream =
          topo_.switches[static_cast<std::size_t>(s)]
              .in_peer[static_cast<std::size_t>(g.input)];
      if (upstream.kind == topo::PeerKind::kHost) {
        host_credit_in_[static_cast<std::size_t>(upstream.id)].push_back(
            t + static_cast<std::uint64_t>(upstream.delay));
      } else {
        switches_[static_cast<std::size_t>(upstream.id)]
            .credit_in[static_cast<std::size_t>(upstream.port)]
            .push_back(t + static_cast<std::uint64_t>(upstream.delay));
      }

      // Consume a credit toward the downstream buffer and launch; the
      // egress link (host peer, out_credits == -1) carries no FC.
      const topo::Peer& downstream =
          topo_.switches[static_cast<std::size_t>(s)]
              .out_peer[static_cast<std::size_t>(g.output)];
      int& credits = node.out_credits[static_cast<std::size_t>(g.output)];
      if (credits >= 0) {
        OSMOSIS_REQUIRE(credits > 0, "grant issued to credit-less output");
        --credits;
      }
      node.out_data[static_cast<std::size_t>(g.output)].push_back(
          Timed{t + static_cast<std::uint64_t>(downstream.delay), cell});
    }
  }
  }

  // 6. Recovery bookkeeping: a repaired fault counts as recovered once
  //    the fabric-wide backlog returns to its pre-fault baseline.
  if (injector_) {
    OSMOSIS_PROF_SCOPE("fabric.recovery");
    recovery_.observe(t, backlog());
  }

  // 7. Slot-boundary invariant verification: cell conservation, the
  //    credit-conservation ledger, occupancy caps, liveness watchdog.
  check_invariants(t);
}

void FabricSim::check_invariants(std::uint64_t t) {
  OSMOSIS_PROF_SCOPE("fabric.invariants");
  // Credit-conservation ledger. Every flow-controlled input buffer in
  // the fabric (leaf inputs fed by hosts, spine inputs fed by leaf
  // uplinks, leaf inputs fed by spine down-ports) starts with
  // buffer_cells credits in its upstream holder. At any slot boundary a
  // credit is in exactly one place: the holder (host_credits_ /
  // out_credits), in flight home (host_credit_in_ / credit_in), held by
  // a cell resident in the downstream buffer (input_occupancy), or held
  // by a cell in flight toward it (host_out_ / out_data of an FC
  // output). Host-egress ports (out_credits == -1) carry no credits.
  std::uint64_t ledger = 0;
  long long min_pool = cfg_.buffer_cells;
  for (const int c : host_credits_) {
    ledger += static_cast<std::uint64_t>(c < 0 ? 0 : c);
    min_pool = std::min<long long>(min_pool, c);
  }
  for (const auto& q : host_credit_in_) ledger += q.size();
  for (const auto& q : host_out_) ledger += q.size();
  std::uint64_t input_occ_total = 0;
  for (const auto& node : switches_) {
    for (int p = 0; p < radix_; ++p) {
      const int c = node.out_credits[static_cast<std::size_t>(p)];
      if (c >= 0) {
        ledger += static_cast<std::uint64_t>(c);
        min_pool = std::min<long long>(min_pool, c);
        ledger += node.out_data[static_cast<std::size_t>(p)].size();
      }
      ledger += node.credit_in[static_cast<std::size_t>(p)].size();
    }
    for (int in = 0; in < radix_; ++in) {
      const int occ = node.input_occupancy[static_cast<std::size_t>(in)];
      input_occ_total += static_cast<std::uint64_t>(occ);
      monitor_.check_occupancy(
          t, "fabric.input_buffer", static_cast<std::uint64_t>(occ),
          static_cast<std::uint64_t>(cfg_.buffer_cells));
    }
  }
  ledger += input_occ_total;
  // Source-side conservation: every generated cell was either offered
  // into the fabric or explicitly shed by admission control.
  monitor_.check_generated(t, generated_);
  // FC pools: hosts_ host links + radix_*m_ leaf uplinks + m_*radix_
  // spine down-ports = 3 * radix_ * m_ pools of buffer_cells each.
  const std::uint64_t pool_total =
      static_cast<std::uint64_t>(cfg_.buffer_cells) * 3u *
      static_cast<std::uint64_t>(radix_) * static_cast<std::uint64_t>(m_);
  monitor_.check_credits(t, ledger, pool_total, min_pool);

  // Cell conservation + liveness. A stalled host adapter or frozen
  // spine shows up as an active fault window, which suspends the
  // deadlock watchdog for the outage.
  monitor_.end_slot(
      {t, backlog(), injector_ ? injector_->active_faults() : 0, 0});
}

void FabricSim::sample_series(std::uint64_t t) {
  prof::TimeSeriesSampler& s = telem_.series();
  if (!s.due(t)) return;
  OSMOSIS_PROF_SCOPE("fabric.telemetry");
  std::uint64_t host_backlog = 0;
  for (const auto& q : host_queue_) host_backlog += q.size();
  std::uint64_t input_occ = 0;
  for (const auto& node : switches_)
    for (const int occ : node.input_occupancy)
      input_occ += static_cast<std::uint64_t>(occ);
  // Credit occupancy: grantable downstream buffer slots, host links
  // included (host egress ports carry -1 = no FC and are skipped).
  std::uint64_t credits = 0;
  for (const int c : host_credits_) credits += static_cast<std::uint64_t>(c);
  for (const auto& node : switches_)
    for (const int c : node.out_credits)
      if (c >= 0) credits += static_cast<std::uint64_t>(c);
  std::uint64_t grants_total = 0;
  for (const std::uint64_t g : grants_per_switch_) grants_total += g;
  // Rates over the window since the previous sample; the first sample
  // of a run has no window yet and records 0.
  const std::uint64_t dslots = t - last_sample_slot_;
  const double ddeliv =
      static_cast<double>(total_delivered_ - last_sample_delivered_);
  const double dgrants =
      static_cast<double>(grants_total - last_sample_grants_);
  const double thr =
      dslots ? ddeliv / (static_cast<double>(dslots) *
                         static_cast<double>(hosts_))
             : 0.0;
  s.record(t, {static_cast<double>(backlog()),
               static_cast<double>(host_backlog),
               static_cast<double>(input_occ), static_cast<double>(credits),
               thr,
               dslots ? dgrants / static_cast<double>(dslots) : 0.0});
  last_sample_slot_ = t;
  last_sample_delivered_ = total_delivered_;
  last_sample_grants_ = grants_total;
}

bool FabricSim::advance_slot() {
  const std::uint64_t measure_end = cfg_.warmup_slots + cfg_.measure_slots;
  if (now_ < cfg_.warmup_slots) {
    step(now_, false, true);
    sample_series(now_);
    ++now_;
    return true;
  }
  if (now_ < measure_end) {
    const std::uint64_t before = total_delivered_;
    step(now_, true, true);
    if (avail_.enabled())
      avail_.record_slot(total_delivered_ - before, live_spines(), hosts_);
    sample_series(now_);
    meter_.advance_slots(1, static_cast<std::uint64_t>(hosts_));
    ++now_;
    return true;
  }
  // Post-run drain: arrivals off, keep stepping until every buffer and
  // cable is empty (exactly-once verification needs it).
  if (cfg_.drain_max_slots == 0) return false;
  if (now_ >= measure_end + cfg_.drain_max_slots) return false;
  if (backlog() == 0 && !(injector_ && injector_->pending() > 0))
    return false;
  step(now_, false, false);
  sample_series(now_);
  ++drained_slots_;
  ++now_;
  return true;
}

FabricSimResult FabricSim::run() {
  while (advance_slot()) {
  }
  return finalize();
}

FabricSimResult FabricSim::finalize() {
  FabricSimResult r;
  r.radix = radix_;
  r.hosts = hosts_;
  r.offered_load = traffic_->offered_load();
  r.throughput = meter_.utilization();
  r.delivered = delay_hist_.count();
  r.mean_delay_slots = delay_hist_.mean();
  r.p99_delay_slots = delay_hist_.p99();
  r.max_delay_slots = delay_hist_.max();
  for (int s = 0; s < static_cast<int>(switches_.size()); ++s) {
    const int occ = switches_[static_cast<std::size_t>(s)].max_input_occ;
    if (is_leaf(s))
      r.max_leaf_input_occupancy = std::max(r.max_leaf_input_occupancy, occ);
    else
      r.max_spine_input_occupancy =
          std::max(r.max_spine_input_occupancy, occ);
  }
  r.max_host_backlog = max_host_backlog_;
  r.out_of_order = monitor_.ledger().out_of_order();
  r.buffer_overflows = overflows_;
  r.offered = offered_;
  r.faults_injected = faults_injected_;
  r.faults_repaired = faults_repaired_;
  r.faults_recovered = recovery_.recovered();
  r.mean_recovery_slots = recovery_.mean_recovery_slots();
  r.max_recovery_slots = recovery_.max_recovery_slots();
  r.drained_slots = drained_slots_;
  monitor_.finish(now_, backlog());
  const auto inv = monitor_.ledger().report();
  r.exactly_once_in_order = inv.exactly_once_in_order();
  r.duplicates = inv.duplicates;
  r.missing = inv.missing;
  r.invariant_violations = monitor_.violations();
  r.first_violation = monitor_.first_violation();
  r.generated = generated_;
  r.shed_cells = shed_;
  r.resteered = resteered_;
  r.reroute_ooo = reroute_ooo_;
  r.max_resequencer_depth = max_park_depth_;
  r.brownout_slots = avail_.degraded_slots();

  if (telem_.enabled()) {
    auto& ctr = telem_.counters();
    for (int s = 0; s < static_cast<int>(switches_.size()); ++s) {
      const SwitchNode& node = switches_[static_cast<std::size_t>(s)];
      const std::string name =
          is_leaf(s) ? "stage.leaf." + std::to_string(s)
                     : "stage.spine." + std::to_string(s - radix_);
      ctr.add(name + ".grants",
              static_cast<double>(
                  grants_per_switch_[static_cast<std::size_t>(s)]));
      ctr.set_gauge("buffer." + name.substr(6) + ".max_occupancy",
                    node.max_input_occ);
    }
    // Per-stage roll-up of the per-switch counters.
    ctr.set_gauge("rollup.leaf.grants", ctr.subtotal("stage.leaf."));
    ctr.set_gauge("rollup.spine.grants", ctr.subtotal("stage.spine."));
    ctr.add("fc.host_hold_cycles",
            static_cast<double>(fc_host_hold_cycles_));
    ctr.add("fc.blocked_output_cycles",
            static_cast<double>(fc_blocked_output_cycles_));
    ctr.add("fabric.delivered", static_cast<double>(r.delivered));
    ctr.add("fabric.out_of_order", static_cast<double>(r.out_of_order));
    ctr.add("fabric.buffer_overflows", static_cast<double>(r.buffer_overflows));
    if (injector_) {
      ctr.add("faults.injected", static_cast<double>(r.faults_injected));
      ctr.add("faults.repaired", static_cast<double>(r.faults_repaired));
      ctr.add("faults.recovered", static_cast<double>(r.faults_recovered));
      ctr.set_gauge("faults.mean_recovery_slots", r.mean_recovery_slots);
      ctr.set_gauge("faults.drained_slots",
                    static_cast<double>(r.drained_slots));
    }
    if (adaptive_ || cfg_.admission.enabled) {
      ctr.add("degraded.shed_cells", static_cast<double>(r.shed_cells));
      ctr.add("degraded.resteered", static_cast<double>(r.resteered));
      ctr.add("degraded.reroute_ooo", static_cast<double>(r.reroute_ooo));
      ctr.set_gauge("degraded.max_resequencer_depth",
                    static_cast<double>(r.max_resequencer_depth));
    }
  }
  return r;
}

template <class Ar>
void FabricSim::io_core(Ar& a) {
  ckpt::field(a, now_);
  ckpt::field(a, host_queue_);
  ckpt::field(a, host_credits_);
  ckpt::field(a, host_credit_in_);
  ckpt::field(a, host_out_);
  monitor_.io_flow_seq(a);
  ckpt::field(a, spine_down_);
  ckpt::field(a, host_stalled_);
  ckpt::field(a, offered_);
  ckpt::field(a, faults_injected_);
  ckpt::field(a, faults_repaired_);
  ckpt::field(a, drained_slots_);
  ckpt::field(a, grants_per_switch_);
  ckpt::field(a, fc_blocked_output_cycles_);
  ckpt::field(a, fc_host_hold_cycles_);
  ckpt::field(a, total_delivered_);
  ckpt::field(a, last_sample_slot_);
  ckpt::field(a, last_sample_delivered_);
  ckpt::field(a, last_sample_grants_);
  ckpt::field(a, generated_);
  ckpt::field(a, shed_);
  ckpt::field(a, resteered_);
  ckpt::field(a, reroute_ooo_);
  ckpt::field(a, max_park_depth_);
  if (adaptive_) {
    ckpt::field(a, routes_);
    ckpt::field(a, parked_);
    ckpt::field(a, expected_);
  }
  if (cfg_.admission.enabled) ckpt::field(a, admission_);
  if constexpr (Ar::kLoading) {
    if (host_queue_.size() != static_cast<std::size_t>(hosts_) ||
        spine_down_.size() != static_cast<std::size_t>(m_) ||
        grants_per_switch_.size() != switches_.size())
      throw ckpt::Error("fabric core state sized for a different topology");
  }
}

template <class Ar>
void FabricSim::io_stats(Ar& a) {
  ckpt::field(a, delay_hist_);
  ckpt::field(a, meter_);
  monitor_.io_order(a);
  ckpt::field(a, max_host_backlog_);
  ckpt::field(a, overflows_);
  ckpt::field(a, monitor_);
  ckpt::field(a, recovery_);
  ckpt::field(a, health_);
  ckpt::field(a, avail_);
}

void FabricSim::save_state(ckpt::Writer& w) const {
  auto* self = const_cast<FabricSim*>(this);
  ckpt::write_chunk(w, "fabric.core",
                    [&](ckpt::Sink& s) { self->io_core(s); });
  ckpt::write_chunk(w, "fabric.traffic",
                    [&](ckpt::Sink& s) { traffic_->save_state(s); });
  ckpt::write_chunk(w, "fabric.switches", [&](ckpt::Sink& s) {
    std::uint64_t n = switches_.size();
    ckpt::field(s, n);
    for (auto& node : self->switches_) {
      node.sched->save_state(s);
      ckpt::field(s, node.voq);
      ckpt::field(s, node.input_occupancy);
      ckpt::field(s, node.out_credits);
      ckpt::field(s, node.out_data);
      ckpt::field(s, node.credit_in);
      ckpt::field(s, node.max_input_occ);
    }
  });
  ckpt::write_chunk(w, "fabric.stats",
                    [&](ckpt::Sink& s) { self->io_stats(s); });
  if (injector_)
    ckpt::write_chunk(w, "fabric.faults", [&](ckpt::Sink& s) {
      ckpt::field(s, *self->injector_);
    });
  ckpt::write_chunk(w, "fabric.telemetry",
                    [&](ckpt::Sink& s) { ckpt::field(s, self->telem_); });
}

void FabricSim::load_state(const ckpt::Reader& r) {
  ckpt::read_chunk(r, "fabric.core", [&](ckpt::Source& s) { io_core(s); });
  ckpt::read_chunk(r, "fabric.traffic",
                   [&](ckpt::Source& s) { traffic_->load_state(s); });
  ckpt::read_chunk(r, "fabric.switches", [&](ckpt::Source& s) {
    std::uint64_t n = 0;
    ckpt::field(s, n);
    if (n != switches_.size())
      throw ckpt::Error("fabric switch count mismatch in checkpoint");
    for (auto& node : switches_) {
      node.sched->load_state(s);
      ckpt::field(s, node.voq);
      ckpt::field(s, node.input_occupancy);
      ckpt::field(s, node.out_credits);
      ckpt::field(s, node.out_data);
      ckpt::field(s, node.credit_in);
      ckpt::field(s, node.max_input_occ);
      if (node.voq.size() != static_cast<std::size_t>(radix_) ||
          node.input_occupancy.size() != static_cast<std::size_t>(radix_))
        throw ckpt::Error("fabric switch state sized for a different radix");
    }
  });
  ckpt::read_chunk(r, "fabric.stats", [&](ckpt::Source& s) { io_stats(s); });
  if (injector_)
    ckpt::read_chunk(r, "fabric.faults",
                     [&](ckpt::Source& s) { ckpt::field(s, *injector_); });
  ckpt::read_chunk(r, "fabric.telemetry",
                   [&](ckpt::Source& s) { ckpt::field(s, telem_); });
}

telemetry::RunReport FabricSim::report() const {
  telemetry::RunReport r = telem_.make_report("FabricSim", "cycles");
  r.config["radix"] = radix_;
  r.config["hosts"] = hosts_;
  r.config["host_cable_slots"] = cfg_.host_cable_slots;
  r.config["trunk_cable_slots"] = cfg_.trunk_cable_slots;
  r.config["buffer_cells"] = cfg_.buffer_cells;
  r.config["warmup_slots"] = static_cast<double>(cfg_.warmup_slots);
  r.config["measure_slots"] = static_cast<double>(cfg_.measure_slots);
  r.config["offered_load"] = traffic_->offered_load();
  r.config["telemetry.sample_every"] = cfg_.telemetry.sample_every;
  if (!cfg_.fault_plan.empty()) {
    r.config["fault_events"] = static_cast<double>(cfg_.fault_plan.size());
    r.config["drain_max_slots"] = static_cast<double>(cfg_.drain_max_slots);
  }
  if (cfg_.adaptive_routing) {
    r.config["adaptive_routing"] = 1;
    r.config["reroute_hysteresis_slots"] =
        static_cast<double>(cfg_.reroute_hysteresis_slots);
  }
  if (cfg_.admission.enabled) {
    r.config["admission.margin_pct"] = cfg_.admission.margin_pct;
    r.config["admission.burst_cells"] = cfg_.admission.burst_cells;
  }
  r.info["scheduler"] = switches_.front().sched->name();
  r.health = health_.event_log();
  r.histograms.emplace("delay",
                       telemetry::HistogramSummary::of(delay_hist_));
  avail_.to_report(r, offered_, total_delivered_, shed_,
                   injector_ ? &recovery_.recovery_histogram() : nullptr);
  monitor_.to_report(r);
  return r;
}

FabricSimResult run_fabric_uniform(const FabricSimConfig& cfg, double load,
                                   std::uint64_t seed) {
  const int hosts = cfg.radix * (cfg.radix / 2);
  FabricSim sim(cfg, sim::make_uniform(hosts, load, seed));
  return sim.run();
}

}  // namespace osmosis::fabric

#include "src/fabric/fabric_sim.hpp"

#include <algorithm>

#include "src/prof/profiler.hpp"
#include "src/util/log.hpp"

namespace osmosis::fabric {

namespace {

constexpr int kHostCableSlots = 1;   // host <-> leaf flight time
constexpr int kTrunkCableSlots = 4;  // leaf <-> spine flight time
constexpr int kBufferCells = 16;     // input-buffer capacity per port

}  // namespace

FabricSim::FabricSim(FabricSimConfig cfg,
                     std::unique_ptr<sim::TrafficGen> traffic)
    : cfg_(cfg),
      radix_(cfg.radix),
      m_(cfg.radix / 2),
      hosts_(cfg.radix * (cfg.radix / 2)),
      traffic_(std::move(traffic)) {
  OSMOSIS_REQUIRE(radix_ >= 2 && radix_ % 2 == 0,
                  "radix must be even and >= 2");
  OSMOSIS_REQUIRE(traffic_ != nullptr && traffic_->ports() == hosts_,
                  "traffic generator must cover all " << hosts_ << " hosts");

  // The two-level fat tree from the topology zoo: leaves 0..k-1 (hosts
  // on ports 0..m-1, uplinks m..2m-1), spines k..k+m-1, static d-mod-k
  // routes.
  topo::FatTreeParams fp;
  fp.radix = radix_;
  fp.levels = 2;
  fp.host_delay = kHostCableSlots;
  fp.trunk_delay = kTrunkCableSlots;
  fp.routing = topo::RouteKind::kDestMod;
  topo_ = topo::make_fat_tree(fp);
  OSMOSIS_REQUIRE(topo_.hosts == hosts_ && topo_.switch_count() == radix_ + m_,
                  "fat-tree generator shape mismatch");

  const int total_switches = radix_ + m_;  // leaves + spines
  switches_.resize(static_cast<std::size_t>(total_switches));
  for (int s = 0; s < total_switches; ++s) {
    SwitchNode& node = switches_[static_cast<std::size_t>(s)];
    sw::SchedulerConfig sc;
    sc.kind = sw::SchedulerKind::kIslip;
    sc.ports = radix_;
    sc.receivers = 1;
    sc.seed = 0x0505ULL + static_cast<std::uint64_t>(s);
    node.sched = sw::make_scheduler(sc);
    node.voq.assign(static_cast<std::size_t>(radix_),
                    std::vector<std::deque<FabricCell>>(
                        static_cast<std::size_t>(radix_)));
    node.input_occupancy.assign(static_cast<std::size_t>(radix_), 0);
    node.out_data.resize(static_cast<std::size_t>(radix_));
    node.credit_in.resize(static_cast<std::size_t>(radix_));
    node.out_credits.assign(static_cast<std::size_t>(radix_), kBufferCells);
    if (s < radix_) {
      // Leaf down-ports face hosts: egress, no fabric-internal FC.
      for (int p = 0; p < m_; ++p)
        node.out_credits[static_cast<std::size_t>(p)] = -1;
    }
  }

  monitor_.configure({}, /*allow_stranded=*/false,
                     /*expect_drain=*/cfg_.drain_max_slots > 0);
  monitor_.preset_flows(static_cast<std::size_t>(hosts_) *
                            static_cast<std::size_t>(hosts_),
                        static_cast<std::size_t>(hosts_));

  host_queue_.resize(static_cast<std::size_t>(hosts_));
  host_credits_.assign(static_cast<std::size_t>(hosts_), kBufferCells);
  host_credit_in_.resize(static_cast<std::size_t>(hosts_));
  host_out_.resize(static_cast<std::size_t>(hosts_));
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
  return total;
}

void FabricSim::deliver(const FabricCell& cell, std::uint64_t t,
                        bool measuring) {
  monitor_.deliver(static_cast<std::uint64_t>(cell.src) *
                           static_cast<std::uint64_t>(hosts_) +
                       static_cast<std::uint64_t>(cell.dst),
                   cell.seq);
  if (measuring) {
    delay_hist_.add(static_cast<double>(t - cell.inject_slot));
    meter_.add_delivery();
  }
}

void FabricSim::step(std::uint64_t t, bool measuring, bool inject_traffic) {
  // 1. Hosts generate traffic.
  if (inject_traffic) {
    OSMOSIS_PROF_SCOPE("fabric.ingest");
    for (int h = 0; h < hosts_; ++h) {
      sim::Arrival a;
      if (!traffic_->sample(h, a)) continue;
      const std::size_t flow = static_cast<std::size_t>(h) *
                                   static_cast<std::size_t>(hosts_) +
                               static_cast<std::size_t>(a.dst);
      host_queue_[static_cast<std::size_t>(h)].push_back(
          FabricCell{h, a.dst, monitor_.send(flow), t});
      ++offered_;
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
    const int out = topo_.switches[static_cast<std::size_t>(sw_id)]
                        .route[static_cast<std::size_t>(cell.dst)];
    node.voq[static_cast<std::size_t>(in_port)][static_cast<std::size_t>(out)]
        .push_back(cell);
    int& occ = node.input_occupancy[static_cast<std::size_t>(in_port)];
    ++occ;
    if (occ > kBufferCells) ++overflows_;  // must never happen
    node.sched->request(in_port, out);
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
        if (peer.kind == topo::PeerKind::kHost)
          deliver(cell, t, measuring);
        else
          accept_cell(peer.id, peer.port, cell);
      }
    }
  }
  }

  // 4. Host injection, gated by credits into the leaf input buffer.
  {
  OSMOSIS_PROF_SCOPE("fabric.inject");
  for (int h = 0; h < hosts_; ++h) {
    auto& q = host_queue_[static_cast<std::size_t>(h)];
    int& credits = host_credits_[static_cast<std::size_t>(h)];
    if (!q.empty() && credits > 0) {
      --credits;
      host_out_[static_cast<std::size_t>(h)].push_back(
          Timed{t + static_cast<std::uint64_t>(kHostCableSlots), q.front()});
      q.pop_front();
    }
  }
  }

  // 5. Per-stage scheduling and crossbar transfer.
  {
  OSMOSIS_PROF_SCOPE("fabric.sched");
  for (int s = 0; s < static_cast<int>(switches_.size()); ++s) {
    SwitchNode& node = switches_[static_cast<std::size_t>(s)];
    const topo::SwitchSpec& spec = topo_.switches[static_cast<std::size_t>(s)];
    // Remote-FC bookkeeping at the scheduler (§IV.B): an output with no
    // credit for the downstream input buffer is not grantable.
    for (int p = 0; p < radix_; ++p) {
      if (node.out_credits[static_cast<std::size_t>(p)] == 0)
        node.sched->block_output(p);
      else
        node.sched->unblock_output(p);
    }
    for (const sw::Grant& g : node.sched->tick()) {
      auto& fifo = node.voq[static_cast<std::size_t>(g.input)]
                           [static_cast<std::size_t>(g.output)];
      OSMOSIS_REQUIRE(!fifo.empty(), "fabric grant without a queued cell");
      const FabricCell cell = fifo.front();
      fifo.pop_front();
      --node.input_occupancy[static_cast<std::size_t>(g.input)];

      // Return a credit to whatever feeds this input port.
      const topo::Peer& upstream =
          spec.in_peer[static_cast<std::size_t>(g.input)];
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
          spec.out_peer[static_cast<std::size_t>(g.output)];
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

  // 6. Slot-boundary invariant verification: cell conservation, the
  //    credit-conservation ledger, occupancy caps, liveness watchdog.
  check_invariants(t);
}

void FabricSim::check_invariants(std::uint64_t t) {
  OSMOSIS_PROF_SCOPE("fabric.invariants");
  // Credit-conservation ledger. Every flow-controlled input buffer in
  // the fabric (leaf inputs fed by hosts, spine inputs fed by leaf
  // uplinks, leaf inputs fed by spine down-ports) starts with
  // kBufferCells credits in its upstream holder. At any slot boundary a
  // credit is in exactly one place: the holder (host_credits_ /
  // out_credits), in flight home (host_credit_in_ / credit_in), held by
  // a cell resident in the downstream buffer (input_occupancy), or held
  // by a cell in flight toward it (host_out_ / out_data of an FC
  // output). Host-egress ports (out_credits == -1) carry no credits.
  std::uint64_t ledger = 0;
  long long min_pool = kBufferCells;
  for (const int c : host_credits_) {
    ledger += static_cast<std::uint64_t>(c < 0 ? 0 : c);
    min_pool = std::min<long long>(min_pool, c);
  }
  for (const auto& q : host_credit_in_) ledger += q.size();
  for (const auto& q : host_out_) ledger += q.size();
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
    for (const int occ : node.input_occupancy) {
      ledger += static_cast<std::uint64_t>(occ);
      monitor_.check_occupancy(t, "fabric.input_buffer",
                               static_cast<std::uint64_t>(occ),
                               static_cast<std::uint64_t>(kBufferCells));
    }
  }
  monitor_.check_generated(t, offered_);
  // FC pools: hosts_ host links + radix_*m_ leaf uplinks + m_*radix_
  // spine down-ports = 3 * radix_ * m_ pools of kBufferCells each.
  const std::uint64_t pool_total =
      static_cast<std::uint64_t>(kBufferCells) * 3u *
      static_cast<std::uint64_t>(radix_) * static_cast<std::uint64_t>(m_);
  monitor_.check_credits(t, ledger, pool_total, min_pool);

  // Cell conservation + liveness.
  monitor_.end_slot({t, backlog(), 0, 0});
}

bool FabricSim::advance_slot() {
  const std::uint64_t measure_end = cfg_.warmup_slots + cfg_.measure_slots;
  if (now_ < cfg_.warmup_slots) {
    step(now_, false, true);
  } else if (now_ < measure_end) {
    step(now_, true, true);
    meter_.advance_slots(1, static_cast<std::uint64_t>(hosts_));
  } else if (now_ < measure_end + cfg_.drain_max_slots && backlog() > 0) {
    // Post-run drain: arrivals off, step until every buffer and cable is
    // empty (exactly-once verification needs it).
    step(now_, false, false);
  } else {
    return false;
  }
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
  r.hosts = hosts_;
  r.throughput = meter_.utilization();
  r.delivered = delay_hist_.count();
  r.mean_delay_slots = delay_hist_.mean();
  r.p99_delay_slots = delay_hist_.p99();
  r.out_of_order = monitor_.ledger().out_of_order();
  r.buffer_overflows = overflows_;
  r.offered = offered_;
  monitor_.finish(now_, backlog());
  const auto inv = monitor_.ledger().report();
  r.exactly_once_in_order = inv.exactly_once_in_order();
  r.duplicates = inv.duplicates;
  r.missing = inv.missing;
  r.invariant_violations = monitor_.violations();
  return r;
}

FabricSimResult run_fabric_uniform(const FabricSimConfig& cfg, double load,
                                   std::uint64_t seed) {
  const int hosts = cfg.radix * (cfg.radix / 2);
  FabricSim sim(cfg, sim::make_uniform(hosts, load, seed));
  return sim.run();
}

}  // namespace osmosis::fabric

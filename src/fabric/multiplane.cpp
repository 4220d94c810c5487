#include "src/fabric/multiplane.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "src/prof/profiler.hpp"
#include "src/util/log.hpp"

namespace osmosis::fabric {

namespace {

std::string mp_fault_key(const faults::FaultEvent& e) {
  std::ostringstream oss;
  oss << faults::to_string(e.kind) << '/' << e.a << '@' << e.at_slot;
  return oss.str();
}

// Resequencer order: by flow source, then sequence.
bool reseq_before(const sw::Cell& a, const sw::Cell& b) {
  return a.src != b.src ? a.src < b.src : a.seq < b.seq;
}

}  // namespace

MultiPlaneSim::MultiPlaneSim(
    MultiPlaneConfig cfg,
    std::vector<std::unique_ptr<sim::TrafficGen>> per_plane)
    : cfg_(cfg), traffic_(std::move(per_plane)) {
  OSMOSIS_REQUIRE(cfg_.ports >= 2, "need at least two ports");
  OSMOSIS_REQUIRE(cfg_.planes >= 1, "need at least one plane");
  OSMOSIS_REQUIRE(static_cast<int>(traffic_.size()) == cfg_.planes,
                  "need one traffic generator per plane");
  for (const auto& gen : traffic_)
    OSMOSIS_REQUIRE(gen != nullptr && gen->ports() == cfg_.ports,
                    "per-plane traffic generator port mismatch");

  monitor_.configure(cfg_.monitor, cfg_.fault_plan.has_permanent_fault(),
                     cfg_.drain_max_slots > 0);
  // Sequences are global per (src, dst): one flow stripes all planes.
  monitor_.preset_flows(static_cast<std::size_t>(cfg_.ports) *
                            static_cast<std::size_t>(cfg_.ports),
                        static_cast<std::size_t>(cfg_.ports));

  planes_.resize(static_cast<std::size_t>(cfg_.planes));
  for (int p = 0; p < cfg_.planes; ++p) {
    Plane& plane = planes_[static_cast<std::size_t>(p)];
    sw::SchedulerConfig sc;
    sc.kind = cfg_.scheduler;
    sc.ports = cfg_.ports;
    sc.receivers = cfg_.receivers;
    sc.seed = 0x12AE + static_cast<std::uint64_t>(p);
    plane.sched = sw::make_scheduler(sc);
    plane.voqs.reserve(static_cast<std::size_t>(cfg_.ports));
    for (int in = 0; in < cfg_.ports; ++in)
      plane.voqs.emplace_back(in, cfg_.ports);
    plane.egress.resize(static_cast<std::size_t>(cfg_.ports));
  }
  next_seq_.assign(static_cast<std::size_t>(cfg_.ports) *
                       static_cast<std::size_t>(cfg_.ports),
                   0);
  parked_.resize(static_cast<std::size_t>(cfg_.ports));

  // ---- runtime fault plan ----------------------------------------------
  plane_down_.assign(static_cast<std::size_t>(cfg_.planes), 0);
  for (int p = 0; p < cfg_.planes; ++p)
    health_.declare("plane/" + std::to_string(p));
  if (!cfg_.fault_plan.empty()) {
    for (const faults::FaultEvent& e : cfg_.fault_plan.events()) {
      OSMOSIS_REQUIRE(e.kind == faults::FaultKind::kPlaneFailure,
                      "multi-plane fault plan accepts only kPlaneFailure "
                      "entries");
      OSMOSIS_REQUIRE(e.a >= 0 && e.a < cfg_.planes,
                      "fault plan: plane " << e.a << " out of range");
    }
    injector_.emplace(cfg_.fault_plan);
  }
}

int MultiPlaneSim::next_live_plane(int from) const {
  for (int k = 1; k <= cfg_.planes; ++k) {
    const int p = (from + k) % cfg_.planes;
    if (!plane_down_[static_cast<std::size_t>(p)]) return p;
  }
  OSMOSIS_REQUIRE(false, "every plane is down: nothing to re-steer onto");
  return -1;
}

void MultiPlaneSim::apply_fault_transitions(std::uint64_t t) {
  for (const faults::FaultTransition& tr : injector_->tick(t)) {
    const faults::FaultEvent& e = tr.event;
    if (tr.begin) {
      ++faults_injected_;
      recovery_.on_fault(t, mp_fault_key(e), backlog());
    } else {
      ++faults_repaired_;
      recovery_.on_repair(t, mp_fault_key(e));
    }
    plane_down_[static_cast<std::size_t>(e.a)] = tr.begin ? 1 : 0;
    health_.report("plane/" + std::to_string(e.a),
                   tr.begin ? mgmt::Status::kFailed : mgmt::Status::kOk, t,
                   tr.begin ? "plane down" : "plane restored");
    if (!tr.begin) continue;
    // Re-steer: the VOQs live in the ingress adapters, not the plane, so
    // their cells survive the plane loss. Move them (FIFO per VOQ) to
    // the next live plane and re-file the requests there; the egress
    // resequencer absorbs the resulting cross-plane reordering. The
    // plane's egress buffers sit in the egress adapters and keep
    // draining.
    Plane& dead = planes_[static_cast<std::size_t>(e.a)];
    const int target = next_live_plane(e.a);
    Plane& live = planes_[static_cast<std::size_t>(target)];
    for (int in = 0; in < cfg_.ports; ++in) {
      for (int dst = 0; dst < cfg_.ports; ++dst) {
        while (dead.voqs[static_cast<std::size_t>(in)].occupancy(dst) > 0) {
          const sw::Cell cell =
              dead.voqs[static_cast<std::size_t>(in)].pop(dst);
          live.voqs[static_cast<std::size_t>(in)].push(cell);
          live.sched->request(in, dst);
          ++resteered_;
        }
      }
    }
    // The failed plane's scheduler card is replaced along with the
    // plane: rebuild it so stale demand for the re-steered cells can't
    // produce phantom grants after a revival.
    sw::SchedulerConfig sc;
    sc.kind = cfg_.scheduler;
    sc.ports = cfg_.ports;
    sc.receivers = cfg_.receivers;
    sc.seed = 0x12AE + static_cast<std::uint64_t>(e.a);
    dead.sched = sw::make_scheduler(sc);
  }
}

std::uint64_t MultiPlaneSim::backlog() const {
  std::uint64_t total = 0;
  for (const auto& plane : planes_) {
    for (const auto& v : plane.voqs)
      total += static_cast<std::uint64_t>(v.total_occupancy());
    for (const auto& q : plane.egress) total += q.size();
  }
  for (const auto& park : parked_) total += park.size();
  return total;
}

void MultiPlaneSim::park(const sw::Cell& cell, std::uint64_t t) {
  auto& park = parked_[static_cast<std::size_t>(cell.dst)];
  const auto at = std::upper_bound(park.begin(), park.end(), cell,
                                   [](const sw::Cell& c, const Parked& p) {
                                     return reseq_before(c, p.cell);
                                   });
  park.insert(at, Parked{cell, t});
}

void MultiPlaneSim::deliver_in_order(int dst, std::uint64_t t,
                                     bool measuring) {
  // One pass in (src, seq) order delivers every run of consecutive
  // sequences that has become available: delivering (src, k) makes
  // (src, k + 1) the next entry. Undeliverable cells stay, in order.
  auto& park = parked_[static_cast<std::size_t>(dst)];
  std::uint64_t* next_of_src =
      &next_seq_[static_cast<std::size_t>(dst) *
                 static_cast<std::size_t>(cfg_.ports)];
  std::size_t kept = 0;
  for (std::size_t i = 0; i < park.size(); ++i) {
    const Parked& parked_cell = park[i];
    const int src = parked_cell.cell.src;
    const std::uint64_t seq = parked_cell.cell.seq;
    std::uint64_t& next = next_of_src[src];
    if (seq != next) {
      park[kept++] = parked_cell;
      continue;
    }
    monitor_.deliver(static_cast<std::uint64_t>(src) *
                             static_cast<std::uint64_t>(cfg_.ports) +
                         static_cast<std::uint64_t>(dst),
                     seq);
    if (measuring) {
      delay_hist_.add(
          static_cast<double>(t - parked_cell.cell.arrival_slot) + 1.0);
      reseq_wait_.add(static_cast<double>(t - parked_cell.egress_slot));
      meter_.add_delivery();
    }
    ++next;
  }
  park.resize(kept);
  max_park_depth_ = std::max(max_park_depth_, static_cast<int>(park.size()));
}

void MultiPlaneSim::step(std::uint64_t t, bool measuring,
                         bool inject_traffic) {
  const int n = cfg_.ports;

  // 0. Scheduled faults begin / get repaired at the slot boundary.
  if (injector_) {
    OSMOSIS_PROF_SCOPE("multiplane.faults");
    apply_fault_transitions(t);
  }

  // 1. Arrivals: each plane's generator feeds that plane; sequences are
  //    assigned globally per flow, so one flow's cells interleave over
  //    all planes (striping). Arrivals for a dead plane are re-steered
  //    to the next live one by the ingress adapter.
  if (inject_traffic) {
    OSMOSIS_PROF_SCOPE("multiplane.ingest");
    for (int p = 0; p < cfg_.planes; ++p) {
      const int lane = plane_down_[static_cast<std::size_t>(p)]
                           ? next_live_plane(p)
                           : p;
      Plane& plane = planes_[static_cast<std::size_t>(lane)];
      for (int in = 0; in < n; ++in) {
        sim::Arrival a;
        if (!traffic_[static_cast<std::size_t>(p)]->sample(in, a)) continue;
        const std::size_t flow = static_cast<std::size_t>(in) *
                                     static_cast<std::size_t>(n) +
                                 static_cast<std::size_t>(a.dst);
        sw::Cell cell;
        cell.src = in;
        cell.dst = a.dst;
        cell.seq = monitor_.send(flow);
        cell.arrival_slot = t;
        ++offered_;
        plane.voqs[static_cast<std::size_t>(in)].push(cell);
        plane.sched->request(in, a.dst);
      }
    }
  }

  // 2. Each live plane arbitrates and transfers independently; a dead
  //    plane's scheduler and crossbar are frozen.
  {
  OSMOSIS_PROF_SCOPE("multiplane.sched");
  for (int p = 0; p < cfg_.planes; ++p) {
    if (plane_down_[static_cast<std::size_t>(p)]) continue;
    Plane& plane = planes_[static_cast<std::size_t>(p)];
    for (const sw::Grant& g : plane.sched->tick()) {
      sw::Cell cell =
          plane.voqs[static_cast<std::size_t>(g.input)].pop(g.output);
      plane.egress[static_cast<std::size_t>(g.output)].push_back(cell);
    }
  }
  }

  // 3. Plane egress lines feed the resequencers (one cell per plane per
  //    slot — the P physical lanes of the port).
  {
  OSMOSIS_PROF_SCOPE("multiplane.egress");
  for (auto& plane : planes_) {
    for (int out = 0; out < n; ++out) {
      auto& q = plane.egress[static_cast<std::size_t>(out)];
      if (q.empty()) continue;
      const sw::Cell cell = q.front();
      q.pop_front();
      if (cell.seq != next_seq_[static_cast<std::size_t>(out) *
                                    static_cast<std::size_t>(n) +
                                static_cast<std::size_t>(cell.src)])
        ++cross_plane_ooo_;
      park(cell, t);
    }
  }
  for (int out = 0; out < n; ++out) deliver_in_order(out, t, measuring);
  }

  // 4. Recovery bookkeeping: a repaired fault counts as recovered once
  //    the port-wide backlog returns to its pre-fault baseline.
  if (injector_) {
    OSMOSIS_PROF_SCOPE("multiplane.recovery");
    recovery_.observe(t, backlog());
  }

  // 5. Slot-boundary invariant verification. A frozen plane keeps its
  //    cells parked across the outage; the open fault window suspends
  //    the deadlock watchdog until the repair lands.
  monitor_.end_slot(
      {t, backlog(), injector_ ? injector_->active_faults() : 0, 0});
}

bool MultiPlaneSim::advance_slot() {
  const std::uint64_t measure_end = cfg_.warmup_slots + cfg_.measure_slots;
  if (now_ < cfg_.warmup_slots) {
    step(now_, false, true);
    ++now_;
    return true;
  }
  if (now_ < measure_end) {
    step(now_, true, true);
    meter_.advance_slots(1, static_cast<std::uint64_t>(cfg_.ports) *
                                static_cast<std::uint64_t>(cfg_.planes));
    ++now_;
    return true;
  }
  // Post-run drain: arrivals off, keep stepping until the planes and
  // resequencers are empty (exactly-once verification needs it).
  if (cfg_.drain_max_slots == 0) return false;
  if (now_ >= measure_end + cfg_.drain_max_slots) return false;
  if (backlog() == 0 && !(injector_ && injector_->pending() > 0))
    return false;
  step(now_, false, false);
  ++drained_slots_;
  ++now_;
  return true;
}

MultiPlaneResult MultiPlaneSim::run() {
  while (advance_slot()) {
  }
  return finalize();
}

MultiPlaneResult MultiPlaneSim::finalize() {
  MultiPlaneResult r;
  r.ports = cfg_.ports;
  r.planes = cfg_.planes;
  r.offered_load_per_plane = traffic_.front()->offered_load();
  r.throughput_per_plane = meter_.utilization();
  r.delivered = delay_hist_.count();
  r.mean_delay_slots = delay_hist_.mean();
  r.p99_delay_slots = delay_hist_.p99();
  r.mean_resequencing_wait = reseq_wait_.mean();
  r.max_resequencer_depth = max_park_depth_;
  r.cross_plane_ooo = cross_plane_ooo_;
  r.post_resequencer_ooo = monitor_.ledger().out_of_order();
  r.offered = offered_;
  r.resteered = resteered_;
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
  return r;
}

template <class Ar>
void MultiPlaneSim::io_core(Ar& a) {
  ckpt::field(a, now_);
  monitor_.io_flow_seq(a);
  io_resequencers(a);
  ckpt::field(a, plane_down_);
  ckpt::field(a, offered_);
  ckpt::field(a, resteered_);
  ckpt::field(a, faults_injected_);
  ckpt::field(a, faults_repaired_);
  ckpt::field(a, drained_slots_);
  if constexpr (Ar::kLoading) {
    if (plane_down_.size() != static_cast<std::size_t>(cfg_.planes))
      throw ckpt::Error(
          "multi-plane core state sized for a different topology");
  }
}

// Wire shape (that of std::map in archive.hpp): a u64 egress count, then
// per egress a u64 count and its parked cells as (src, seq, Parked) in
// (src, seq) order; then the egress count again, and per egress a u64
// count and (src, next sequence) pairs in src order for every source
// whose next sequence is above 0 or that has a cell parked there.
template <class Ar>
void MultiPlaneSim::io_resequencers(Ar& a) {
  const std::size_t n = static_cast<std::size_t>(cfg_.ports);
  if constexpr (Ar::kLoading) {
    if (ckpt::detail::load_count(a) != n)
      throw ckpt::Error("multi-plane resequencer count mismatch in checkpoint");
    for (auto& park : parked_) {
      park.clear();
      const std::uint64_t cells = ckpt::detail::load_count(a);
      for (std::uint64_t k = 0; k < cells; ++k) {
        int src = 0;
        std::uint64_t seq = 0;
        Parked p;
        ckpt::field(a, src);
        ckpt::field(a, seq);
        ckpt::field(a, p);
        if (src < 0 || static_cast<std::size_t>(src) >= n ||
            p.cell.src != src || p.cell.seq != seq ||
            (!park.empty() && !reseq_before(park.back().cell, p.cell)))
          throw ckpt::Error("multi-plane parked cell corrupt in checkpoint");
        park.push_back(p);
      }
    }
    if (ckpt::detail::load_count(a) != n)
      throw ckpt::Error("multi-plane resequencer count mismatch in checkpoint");
    std::fill(next_seq_.begin(), next_seq_.end(), 0);
    for (std::size_t dst = 0; dst < n; ++dst) {
      const std::uint64_t flows = ckpt::detail::load_count(a);
      int last = -1;
      for (std::uint64_t k = 0; k < flows; ++k) {
        int src = 0;
        std::uint64_t next = 0;
        ckpt::field(a, src);
        ckpt::field(a, next);
        if (src <= last || static_cast<std::size_t>(src) >= n)
          throw ckpt::Error("multi-plane flow sequence corrupt in checkpoint");
        next_seq_[dst * n + static_cast<std::size_t>(src)] = next;
        last = src;
      }
    }
  } else {
    std::uint64_t count = n;
    a.raw(&count, sizeof count);
    for (auto& park : parked_) {
      std::uint64_t cells = park.size();
      a.raw(&cells, sizeof cells);
      for (Parked& p : park) {
        int src = p.cell.src;
        std::uint64_t seq = p.cell.seq;
        ckpt::field(a, src);
        ckpt::field(a, seq);
        ckpt::field(a, p);
      }
    }
    a.raw(&count, sizeof count);
    std::vector<int> flows;
    for (std::size_t dst = 0; dst < n; ++dst) {
      const auto& park = parked_[dst];
      auto it = park.begin();
      flows.clear();
      const std::uint64_t* next_of_src = &next_seq_[dst * n];
      for (int src = 0; static_cast<std::size_t>(src) < n; ++src) {
        while (it != park.end() && it->cell.src < src) ++it;
        const bool has_parked = it != park.end() && it->cell.src == src;
        if (has_parked || next_of_src[src] > 0) flows.push_back(src);
      }
      std::uint64_t keys = flows.size();
      a.raw(&keys, sizeof keys);
      for (int src : flows) {
        std::uint64_t next = next_of_src[src];
        ckpt::field(a, src);
        ckpt::field(a, next);
      }
    }
  }
}

template <class Ar>
void MultiPlaneSim::io_stats(Ar& a) {
  ckpt::field(a, delay_hist_);
  ckpt::field(a, reseq_wait_);
  ckpt::field(a, meter_);
  monitor_.io_order(a);
  ckpt::field(a, cross_plane_ooo_);
  ckpt::field(a, max_park_depth_);
  ckpt::field(a, monitor_);
  ckpt::field(a, recovery_);
  ckpt::field(a, health_);
}

void MultiPlaneSim::save_state(ckpt::Writer& w) const {
  auto* self = const_cast<MultiPlaneSim*>(this);
  ckpt::write_chunk(w, "multiplane.core",
                    [&](ckpt::Sink& s) { self->io_core(s); });
  ckpt::write_chunk(w, "multiplane.traffic", [&](ckpt::Sink& s) {
    std::uint64_t n = traffic_.size();
    ckpt::field(s, n);
    for (const auto& gen : traffic_) gen->save_state(s);
  });
  ckpt::write_chunk(w, "multiplane.planes", [&](ckpt::Sink& s) {
    std::uint64_t n = planes_.size();
    ckpt::field(s, n);
    for (auto& plane : self->planes_) {
      plane.sched->save_state(s);
      std::uint64_t nv = plane.voqs.size();
      ckpt::field(s, nv);
      for (auto& v : plane.voqs) ckpt::field(s, v);
      ckpt::field(s, plane.egress);
    }
  });
  ckpt::write_chunk(w, "multiplane.stats",
                    [&](ckpt::Sink& s) { self->io_stats(s); });
  if (injector_)
    ckpt::write_chunk(w, "multiplane.faults", [&](ckpt::Sink& s) {
      ckpt::field(s, *self->injector_);
    });
}

void MultiPlaneSim::load_state(const ckpt::Reader& r) {
  ckpt::read_chunk(r, "multiplane.core",
                   [&](ckpt::Source& s) { io_core(s); });
  ckpt::read_chunk(r, "multiplane.traffic", [&](ckpt::Source& s) {
    std::uint64_t n = 0;
    ckpt::field(s, n);
    if (n != traffic_.size())
      throw ckpt::Error("plane traffic count mismatch in checkpoint");
    for (auto& gen : traffic_) gen->load_state(s);
  });
  ckpt::read_chunk(r, "multiplane.planes", [&](ckpt::Source& s) {
    std::uint64_t n = 0;
    ckpt::field(s, n);
    if (n != planes_.size())
      throw ckpt::Error("plane count mismatch in checkpoint");
    for (auto& plane : planes_) {
      plane.sched->load_state(s);
      std::uint64_t nv = 0;
      ckpt::field(s, nv);
      if (nv != plane.voqs.size())
        throw ckpt::Error("plane VOQ bank count mismatch in checkpoint");
      for (auto& v : plane.voqs) ckpt::field(s, v);
      ckpt::field(s, plane.egress);
    }
  });
  ckpt::read_chunk(r, "multiplane.stats",
                   [&](ckpt::Source& s) { io_stats(s); });
  if (injector_)
    ckpt::read_chunk(r, "multiplane.faults",
                     [&](ckpt::Source& s) { ckpt::field(s, *injector_); });
}

MultiPlaneResult run_multiplane_uniform(const MultiPlaneConfig& cfg,
                                        double load_per_plane,
                                        std::uint64_t seed) {
  std::vector<std::unique_ptr<sim::TrafficGen>> gens;
  gens.reserve(static_cast<std::size_t>(cfg.planes));
  for (int p = 0; p < cfg.planes; ++p)
    gens.push_back(sim::make_uniform(cfg.ports, load_per_plane,
                                     seed + static_cast<std::uint64_t>(p)));
  MultiPlaneSim sim(cfg, std::move(gens));
  return sim.run();
}

}  // namespace osmosis::fabric

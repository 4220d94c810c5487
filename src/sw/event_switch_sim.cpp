#include "src/sw/event_switch_sim.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/prof/profiler.hpp"
#include "src/util/log.hpp"

namespace osmosis::sw {

EventSwitchSim::EventSwitchSim(EventSwitchConfig cfg,
                               std::unique_ptr<sim::TrafficGen> traffic)
    : cfg_(cfg),
      traffic_(std::move(traffic)),
      core_(cfg.ports, cfg.sched),
      faults_(cfg.ports, cfg.sched.receivers, cfg.fault_plan),
      telem_(cfg.telemetry, telemetry::kNsHist) {
  OSMOSIS_REQUIRE(cfg_.cell_ns > 0.0, "cell cycle must be positive");
  OSMOSIS_REQUIRE(traffic_ != nullptr && traffic_->ports() == cfg_.ports,
                  "traffic generator port mismatch");
  monitor_.configure(cfg_.monitor, faults_.may_strand(),
                     cfg_.drain_max_cycles > 0);
  // One sequence stream per (input, output, traffic class).
  monitor_.preset_flows(static_cast<std::size_t>(cfg_.ports) *
                            static_cast<std::size_t>(cfg_.ports) * 2,
                        static_cast<std::size_t>(cfg_.ports) * 2);
  request_times_ = FifoPool<double>(static_cast<std::size_t>(cfg_.ports) *
                                    static_cast<std::size_t>(cfg_.ports));
  delivered_per_port_.assign(static_cast<std::size_t>(cfg_.ports), 0);
  telem_.series().set_channels({"backlog", "voq_backlog", "voq_max",
                                "egress_backlog", "in_flight", "retry_pending",
                                "throughput"});

  // Arm the cell-cycle clock; seq 0 so the first cycle fires before any
  // message scheduled for the same timestamp.
  Ev tick;
  tick.kind = EvKind::kCycle;
  push_event(tick);
}

void EventSwitchSim::push_event(Ev ev) {
  OSMOSIS_REQUIRE(ev.time_ns >= now_ns_, "cannot schedule into the past: "
                                             << ev.time_ns << " < "
                                             << now_ns_);
  ev.seq = next_seq_++;
  events_.push_back(std::move(ev));
  std::push_heap(events_.begin(), events_.end(), EvLater{});
}

void EventSwitchSim::fire_next() {
  std::pop_heap(events_.begin(), events_.end(), EvLater{});
  const Ev e = events_.back();
  events_.pop_back();
  now_ns_ = e.time_ns;
  switch (e.kind) {
    case EvKind::kCycle:
      if (!cycles_active_) break;  // canceled clock: pending tick no-ops
      on_cycle();
      {
        Ev tick;
        tick.time_ns = e.time_ns + cfg_.cell_ns;
        tick.kind = EvKind::kCycle;
        push_event(tick);
      }
      break;
    case EvKind::kRequest:
      request(e.a, e.b, e.d);
      break;
    case EvKind::kGrant: {
      Grant g;
      g.input = e.a;
      g.output = e.b;
      g.receiver = e.c;
      on_grant_arrival(g, e.d);
      break;
    }
    case EvKind::kRetry:
      --retry_pending_;
      request(e.a, e.b, now_ns_);
      break;
    case EvKind::kLanding:
      --in_flight_;
      core_.land(e.cell);
      break;
  }
}

void EventSwitchSim::request(int in, int out, double issued_ns) {
  core_.scheduler().request(in, out);
  request_times_.push_back(core_.pair_index(in, out), issued_ns);
}

double EventSwitchSim::ctrl_ns(int adapter) const {
  if (adapter < static_cast<int>(cfg_.ctrl_fiber_ns.size()))
    return cfg_.ctrl_fiber_ns[static_cast<std::size_t>(adapter)];
  return cfg_.default_ctrl_ns;
}

void EventSwitchSim::on_grant_arrival(Grant g, double requested_at) {
  const double now = now_ns_;

  // Control-path grant corruption / data-path FEC-uncorrectable loss:
  // the cell stays at the head of its VOQ (per-flow FIFO keeps order)
  // and the adapter re-files the request after the timeout.
  // A fault can also land while this grant was in the scheduler
  // pipeline or on the control fiber (a stale path): the transfer is
  // lost in flight and heals through the same ARQ re-request.
  const GrantLoss loss = faults_.roll(g.input);
  if (loss != GrantLoss::kNone || faults_.stale(g)) {
    ++retry_pending_;
    Ev retry;
    retry.time_ns = now + static_cast<double>(faults_.retry_cycles(loss)) *
                              cfg_.cell_ns;
    retry.kind = EvKind::kRetry;
    retry.a = g.input;
    retry.b = g.output;
    push_event(retry);
    return;
  }
  grant_ns_.add(now - requested_at);

  Cell cell = core_.take(g);
  telem_.mark(cell.trace, telemetry::Stage::kGrant, now);

  // The cell launches with the next cell-cycle boundary after the grant
  // arrives, rides the data fiber alongside the control run, and crosses
  // the crossbar in one cycle.
  const double data_flight = ctrl_ns(g.input);
  const double ready = now + data_flight;
  const std::uint64_t slot =
      static_cast<std::uint64_t>(std::ceil(ready / cfg_.cell_ns - 1e-9));
  const double arrive = (static_cast<double>(slot) + 1.0) * cfg_.cell_ns;

  // Receiver accounting on the crossbar slot grid.
  int& booked = slot_bookings_[{g.output, slot}];
  if (++booked > cfg_.sched.receivers) ++receiver_conflicts_;
  telem_.mark(cell.trace, telemetry::Stage::kTransmit, arrive);

  ++in_flight_;
  Ev landing;
  landing.time_ns = arrive;
  landing.kind = EvKind::kLanding;
  landing.cell = cell;
  push_event(landing);
}

void EventSwitchSim::on_cycle() {
  const double now = now_ns_;

  // 0. Scheduled faults begin / get repaired at the cycle boundary.
  if (faults_.active()) {
    OSMOSIS_PROF_SCOPE("event.faults");
    faults_.tick(cycle_, core_.scheduler(), nullptr,
                 [this] { return backlog(); });
  }

  // 1. Arrivals this cycle; requests fly to the scheduler.
  {
  OSMOSIS_PROF_SCOPE("event.ingest");
  for (int in = 0; in < cfg_.ports && !draining_; ++in) {
    sim::Arrival a;
    if (!traffic_->sample(in, a)) continue;
    Cell cell;
    cell.src = in;
    cell.dst = a.dst;
    cell.arrival_slot = cycle_;
    cell.cls = a.cls;
    cell.seq = monitor_.send(core_.flow(cell));
    cell.trace = telem_.begin_cell(in, a.dst, now);
    telem_.mark(cell.trace, telemetry::Stage::kRequest, now + ctrl_ns(in));
    ++offered_;
    core_.enqueue(cell);
    Ev req;
    req.time_ns = now + ctrl_ns(in);
    req.kind = EvKind::kRequest;
    req.a = in;
    req.b = a.dst;
    req.d = now;  // the grant latency clock starts at request issue
    push_event(req);
  }
  }

  // 2. The central scheduler arbitrates once per cycle; grants fly back.
  {
  OSMOSIS_PROF_SCOPE("event.sched");
  for (const Grant& g : core_.scheduler().tick()) {
    const std::size_t voq = core_.pair_index(g.input, g.output);
    OSMOSIS_REQUIRE(!request_times_.empty(voq),
                    "grant without outstanding request");
    const double requested_at = request_times_.pop_front(voq);
    Ev gr;
    gr.time_ns = now + ctrl_ns(g.input);
    gr.kind = EvKind::kGrant;
    gr.a = g.input;
    gr.b = g.output;
    gr.c = g.receiver;
    gr.d = requested_at;
    push_event(gr);
  }
  }

  // 3. Egress lines drain one cell per cycle.
  const bool measuring = now >= cfg_.warmup_ns;
  {
  OSMOSIS_PROF_SCOPE("event.egress");
  core_.depart([&](const Cell& cell) {
    monitor_.deliver(core_.flow(cell), cell.seq);
    telem_.finish_cell(cell.trace, now + cfg_.cell_ns, measuring);
    ++total_delivered_;
    if (measuring) {
      const double delay =
          now + cfg_.cell_ns -
          static_cast<double>(cell.arrival_slot) * cfg_.cell_ns;
      delay_ns_.add(delay);
      meter_.add_delivery();
      ++delivered_per_port_[static_cast<std::size_t>(cell.dst)];
    }
  });
  }
  if (measuring) meter_.advance_slots(1, static_cast<std::uint64_t>(cfg_.ports));

  // Recovery bookkeeping: a repaired fault counts as recovered once the
  // backlog returns to its pre-fault baseline.
  if (faults_.active()) {
    OSMOSIS_PROF_SCOPE("event.recovery");
    faults_.observe(cycle_, backlog());
  }

  // Invariant verification at the cycle boundary. retry_pending_
  // double-counts VOQ-resident cells (a failed transfer leaves its cell
  // in the VOQ), so the conservation ledger excludes it; it still feeds
  // the liveness watchdog as pending work.
  monitor_.end_slot({cycle_, backlog() - retry_pending_,
                     faults_.active_faults(), retry_pending_});

  sample_series(cycle_);

  // Trim stale slot bookings to keep the map bounded.
  if (cycle_ % 4096 == 0 && cycle_ > 0) {
    const std::uint64_t horizon = cycle_ - 2048;
    for (auto it = slot_bookings_.begin(); it != slot_bookings_.end();) {
      it = it->first.second < horizon ? slot_bookings_.erase(it)
                                      : std::next(it);
    }
  }
  ++cycle_;
}

bool EventSwitchSim::advance() {
  ++advance_count_;
  const double main_limit = cfg_.warmup_ns + cfg_.measure_ns;
  switch (phase_) {
    case Phase::kMain:
      if (!events_.empty() && events_.front().time_ns <= main_limit) {
        fire_next();
        return true;
      }
      if (now_ns_ < main_limit) now_ns_ = main_limit;
      drain_horizon_ = main_limit;
      draining_ = true;
      phase_ = Phase::kDrain;
      return true;
    case Phase::kDrain:
      // Post-run drain: arrivals off, keep cycling until the recovered
      // switch has emptied every queue (exactly-once verification
      // needs it). One drain cycle per advance().
      if (cfg_.drain_max_cycles > 0 &&
          drained_cycles_ < cfg_.drain_max_cycles &&
          (backlog() > 0 || faults_.pending() > 0)) {
        drain_horizon_ += cfg_.cell_ns;
        while (!events_.empty() &&
               events_.front().time_ns <= drain_horizon_)
          fire_next();
        if (now_ns_ < drain_horizon_) now_ns_ = drain_horizon_;
        ++drained_cycles_;
        return true;
      }
      cycles_active_ = false;  // cancel the clock; flush everything else
      phase_ = Phase::kFlush;
      return true;
    case Phase::kFlush:
      if (!events_.empty()) {
        fire_next();
        return true;
      }
      phase_ = Phase::kDone;
      return false;
    case Phase::kDone:
      return false;
  }
  return false;
}

void EventSwitchSim::sample_series(std::uint64_t cycle) {
  prof::TimeSeriesSampler& s = telem_.series();
  if (!s.due(cycle)) return;
  OSMOSIS_PROF_SCOPE("event.telemetry");
  const std::uint64_t dcycles = cycle - last_sample_cycle_;
  const double ddeliv =
      static_cast<double>(total_delivered_ - last_sample_delivered_);
  const double thr =
      dcycles ? ddeliv / (static_cast<double>(dcycles) *
                          static_cast<double>(cfg_.ports))
              : 0.0;
  s.record(cycle,
           {static_cast<double>(backlog()),
            static_cast<double>(core_.voq_backlog()),
            static_cast<double>(core_.max_bank_backlog()),
            static_cast<double>(core_.egress_backlog()),
            static_cast<double>(in_flight_),
            static_cast<double>(retry_pending_), thr});
  last_sample_cycle_ = cycle;
  last_sample_delivered_ = total_delivered_;
}

EventSwitchResult EventSwitchSim::run() {
  while (advance()) {
  }
  return finalize();
}

EventSwitchResult EventSwitchSim::finalize() {
  EventSwitchResult r;
  r.offered_load = traffic_->offered_load();
  r.throughput = meter_.utilization();
  r.delivered = delay_ns_.count();
  r.mean_delay_ns = delay_ns_.mean();
  r.p99_delay_ns = delay_ns_.p99();
  r.mean_delay_cycles = delay_ns_.mean() / cfg_.cell_ns;
  r.mean_grant_latency_ns = grant_ns_.mean();
  r.receiver_conflicts = receiver_conflicts_;
  r.out_of_order = monitor_.ledger().out_of_order();
  r.offered = offered_;
  r.grant_corruptions = faults_.grant_corruptions();
  r.retransmissions = faults_.retransmissions();
  r.faults_injected = faults_.injected();
  r.faults_repaired = faults_.repaired();
  r.faults_recovered = faults_.recovery().recovered();
  r.mean_recovery_cycles = faults_.recovery().mean_recovery_slots();
  r.max_recovery_cycles = faults_.recovery().max_recovery_slots();
  r.drained_cycles = drained_cycles_;
  monitor_.finish(cycle_, backlog() - retry_pending_);
  const auto inv = monitor_.ledger().report();
  r.exactly_once_in_order = inv.exactly_once_in_order();
  r.duplicates = inv.duplicates;
  r.missing = inv.missing;
  r.invariant_violations = monitor_.violations();
  r.first_violation = monitor_.first_violation();

  if (telem_.enabled()) {
    auto& ctr = telem_.counters();
    for (int p = 0; p < cfg_.ports; ++p)
      ctr.add("egress." + std::to_string(p) + ".delivered",
              static_cast<double>(
                  delivered_per_port_[static_cast<std::size_t>(p)]));
    ctr.add("switch.delivered", static_cast<double>(r.delivered));
    ctr.add("switch.out_of_order", static_cast<double>(r.out_of_order));
    ctr.add("sched.receiver_conflicts",
            static_cast<double>(receiver_conflicts_));
  }
  return r;
}

template <class Ar>
void EventSwitchSim::io_core(Ar& a) {
  ckpt::field(a, now_ns_);
  ckpt::field(a, next_seq_);
  ckpt::field(a, events_);
  ckpt::field(a, phase_);
  ckpt::field(a, drain_horizon_);
  ckpt::field(a, cycles_active_);
  ckpt::field(a, advance_count_);
  ckpt::field(a, cycle_);
  ckpt::field(a, draining_);
  ckpt::field(a, drained_cycles_);
  ckpt::field(a, in_flight_);
  ckpt::field(a, retry_pending_);
  monitor_.io_flow_seq(a);
  ckpt::field(a, request_times_);
  core_.io_egress(a);
  ckpt::field(a, slot_bookings_);
  faults_.io_masks(a);
  ckpt::field(a, receiver_conflicts_);
  ckpt::field(a, offered_);
  faults_.io_counters(a);
  ckpt::field(a, delivered_per_port_);
  ckpt::field(a, total_delivered_);
  ckpt::field(a, last_sample_cycle_);
  ckpt::field(a, last_sample_delivered_);
}

template <class Ar>
void EventSwitchSim::io_stats(Ar& a) {
  ckpt::field(a, delay_ns_);
  ckpt::field(a, grant_ns_);
  ckpt::field(a, meter_);
  monitor_.io_order(a);
  ckpt::field(a, monitor_);
  faults_.io_health(a);
}

template <class Io>
void EventSwitchSim::io_chunks(Io& io) {
  ckpt::chunk(io, "event.core", [&](auto& s) { io_core(s); });
  ckpt::chunk(io, "event.traffic",
              [&](auto& s) { ckpt::save_or_load(s, *traffic_); });
  ckpt::chunk(io, "event.sched", [&](auto& s) { core_.io_scheduler(s); });
  ckpt::chunk(io, "event.voq", [&](auto& s) { core_.io_voqs(s); });
  ckpt::chunk(io, "event.stats", [&](auto& s) { io_stats(s); });
  if (faults_.active())
    ckpt::chunk(io, "event.faults", [&](auto& s) { faults_.io_injector(s); });
  ckpt::chunk(io, "event.telemetry",
              [&](auto& s) { ckpt::field(s, telem_); });
}

void EventSwitchSim::save_state(ckpt::Writer& w) const {
  const_cast<EventSwitchSim*>(this)->io_chunks(w);
}

void EventSwitchSim::load_state(const ckpt::Reader& r) { io_chunks(r); }

telemetry::RunReport EventSwitchSim::report() const {
  telemetry::RunReport r = telem_.make_report("EventSwitchSim", "ns");
  r.config["ports"] = cfg_.ports;
  r.config["receivers"] = cfg_.sched.receivers;
  r.config["cell_ns"] = cfg_.cell_ns;
  r.config["default_ctrl_ns"] = cfg_.default_ctrl_ns;
  r.config["warmup_ns"] = cfg_.warmup_ns;
  r.config["measure_ns"] = cfg_.measure_ns;
  r.config["offered_load"] = traffic_->offered_load();
  r.config["telemetry.sample_every"] = cfg_.telemetry.sample_every;
  if (!cfg_.fault_plan.empty())
    r.config["fault_events"] = static_cast<double>(cfg_.fault_plan.size());
  r.info["scheduler"] = core_.scheduler().name();
  r.health = faults_.health().event_log();
  r.histograms.emplace("delay",
                       telemetry::HistogramSummary::of(delay_ns_));
  r.histograms.emplace("grant_latency",
                       telemetry::HistogramSummary::of(grant_ns_));
  monitor_.to_report(r);
  return r;
}

EventSwitchResult run_event_uniform(const EventSwitchConfig& cfg, double load,
                                    std::uint64_t seed) {
  EventSwitchSim sim(cfg, sim::make_uniform(cfg.ports, load, seed));
  return sim.run();
}

}  // namespace osmosis::sw

#include "src/sw/switch_sim.hpp"

#include <algorithm>

#include "src/prof/profiler.hpp"
#include "src/util/log.hpp"

namespace osmosis::sw {

SwitchSim::SwitchSim(SwitchSimConfig cfg,
                     std::unique_ptr<sim::TrafficGen> traffic)
    : cfg_(cfg),
      traffic_(std::move(traffic)),
      core_(cfg.ports, cfg.sched),
      faults_(cfg.ports, cfg.sched.receivers, cfg.fault_plan),
      telem_(cfg.telemetry, telemetry::kCycleHist) {
  OSMOSIS_REQUIRE(traffic_ != nullptr, "traffic generator required");
  OSMOSIS_REQUIRE(traffic_->ports() == cfg_.ports,
                  "traffic generator built for " << traffic_->ports()
                                                 << " ports, switch has "
                                                 << cfg_.ports);
  request_times_ = FifoPool<std::uint64_t>(
      static_cast<std::size_t>(cfg_.ports) *
      static_cast<std::size_t>(cfg_.ports));
  enqueued_per_port_.assign(static_cast<std::size_t>(cfg_.ports), 0);
  delivered_per_port_.assign(static_cast<std::size_t>(cfg_.ports), 0);
  telem_.series().set_channels({"backlog", "voq_backlog", "voq_max",
                                "egress_backlog", "retry_queue",
                                "throughput", "link_util", "sched_matches"});
  if (cfg_.validate_optical_path) {
    phy::BroadcastSelectConfig ocfg;
    ocfg.ports = cfg_.ports;
    ocfg.fibers = faults_.fibers();
    ocfg.wavelengths = faults_.wavelengths();
    ocfg.receivers_per_egress = std::max(1, cfg_.sched.receivers);
    optical_.emplace(ocfg);
  }
  faults_.fail_at_start(cfg_.failed_receivers, cfg_.failed_fibers,
                        core_.scheduler(), optical());
  // A permanent fault (or a static failure, which may take an output's
  // last receiver) can legitimately strand cells past the drain.
  monitor_.configure(cfg_.monitor, faults_.may_strand(),
                     cfg_.drain_max_slots > 0);
  // One sequence stream per (input, output, traffic class); the order
  // view keys it (input, output * 2 + class).
  monitor_.preset_flows(static_cast<std::size_t>(cfg_.ports) *
                            static_cast<std::size_t>(cfg_.ports) * 2,
                        static_cast<std::size_t>(cfg_.ports) * 2);
}

void SwitchSim::request(int in, int out, std::uint64_t t) {
  core_.scheduler().request(in, out);
  request_times_.push_back(core_.pair_index(in, out), t);
}

void SwitchSim::step(std::uint64_t t, bool measuring, bool inject_traffic) {
  const int n = cfg_.ports;

  // 0. Scheduled faults begin / get repaired at the cycle boundary.
  if (faults_.active()) {
    OSMOSIS_PROF_SCOPE("switch.faults");
    faults_.tick(t, core_.scheduler(), optical(),
                 [this] { return core_.backlog(); });
  }

  // 1. Requests re-filed after a missed-grant or ARQ timeout reach the
  //    scheduler ahead of this slot's arrivals.
  {
    OSMOSIS_PROF_SCOPE("switch.control");
    while (!retry_queue_.empty() && retry_queue_.begin()->first <= t) {
      const auto [in, out] = retry_queue_.begin()->second;
      retry_queue_.erase(retry_queue_.begin());
      request(in, out, t);
    }
  }

  // 2. Arrivals into the VOQs, each requesting at once. Dark inputs
  //    (failed broadcast fiber) are offline hosts: no arrivals.
  if (inject_traffic) {
    OSMOSIS_PROF_SCOPE("switch.ingest");
    for (int in = 0; in < n; ++in) {
      sim::Arrival a;
      if (!traffic_->sample(in, a)) continue;
      if (faults_.dark(in)) continue;
      Cell cell;
      cell.src = in;
      cell.dst = a.dst;
      cell.arrival_slot = t;
      cell.cls = a.cls;
      cell.tag = a.tag;
      cell.seq = monitor_.send(core_.flow(cell));
      cell.trace = telem_.begin_cell(in, a.dst, static_cast<double>(t));
      telem_.mark(cell.trace, telemetry::Stage::kRequest,
                  static_cast<double>(t));
      ++enqueued_per_port_[static_cast<std::size_t>(in)];
      ++offered_;
      core_.enqueue(cell);
      request(in, a.dst, t);
    }
  }

  // 3. The central scheduler arbitrates this cell cycle.
  const std::vector<Grant>* grants = nullptr;
  {
    OSMOSIS_PROF_SCOPE("switch.sched");
    grants = &core_.scheduler().tick();
  }

  // 4. Crossbar transfer: granted cells move VOQ -> egress queue.
  {
  OSMOSIS_PROF_SCOPE("switch.xbar");
  if (optical_) optical_->release_all();
  for (const Grant& g : *grants) {
    // A grant can be lost on the control path (corrupted grant message:
    // the adapter never transmits) or its cell corrupted on the data
    // path (FEC-uncorrectable at the receiver: the egress discards it).
    // Either way the cell stays at the head of its VOQ — per-flow FIFO
    // order is preserved by construction — and the adapter re-files the
    // request once the missed-grant / ARQ timeout fires.
    const GrantLoss loss = faults_.roll(g.input);
    const std::size_t voq = core_.pair_index(g.input, g.output);
    OSMOSIS_REQUIRE(!request_times_.empty(voq),
                    "grant without outstanding request");
    const std::uint64_t requested = request_times_.pop_front(voq);
    if (measuring && loss != GrantLoss::kGrant)
      grant_latency_.add(static_cast<double>(t - requested) + 1.0);
    // Logical receiver index -> surviving physical switching module.
    const auto& survivors = faults_.survivors(g.output);
    // A grant whose path failed in the scheduler pipeline is lost in
    // flight, and the ARQ timeout re-files it like any failed transfer.
    const bool stale_path = faults_.stale(g);
    OSMOSIS_REQUIRE(stale_path ||
                        (g.receiver >= 0 &&
                         g.receiver < static_cast<int>(survivors.size())),
                    "grant to receiver " << g.receiver << " of output "
                                         << g.output << " exceeds its "
                                         << survivors.size()
                                         << " surviving module(s)");
    if (optical_ && !stale_path) {
      const int phys_rx = survivors[static_cast<std::size_t>(g.receiver)];
      optical_->connect(g.input, g.output, phys_rx);
      OSMOSIS_REQUIRE(optical_->selected_input(g.output, phys_rx) == g.input,
                      "optical path does not carry the granted input");
    }
    ++grants_issued_;
    if (loss != GrantLoss::kNone || stale_path) {
      retry_queue_.emplace(t + faults_.retry_cycles(loss),
                           std::make_pair(g.input, g.output));
      continue;
    }
    Cell cell = core_.take(g);
    // The crossbar transfer occupies this cell cycle: granted at t,
    // landed on the egress queue at t + 1.
    telem_.mark(cell.trace, telemetry::Stage::kGrant, static_cast<double>(t));
    telem_.mark(cell.trace, telemetry::Stage::kTransmit,
                static_cast<double>(t) + 1.0);
    core_.land(cell);
  }
  max_egress_depth_ = std::max(max_egress_depth_, core_.max_egress_depth());
  }

  // 5. Egress lines drain one cell per slot (line rate).
  {
  OSMOSIS_PROF_SCOPE("switch.egress");
  core_.depart([&](const Cell& cell) {
    // +1: the crossbar transfer itself occupies this cell cycle.
    const double delay = static_cast<double>(t - cell.arrival_slot) + 1.0;
    monitor_.deliver(core_.flow(cell), cell.seq);
    if (cfg_.on_delivery) cfg_.on_delivery(cell, t);
    telem_.finish_cell(cell.trace, static_cast<double>(t) + 1.0, measuring);
    ++total_delivered_;
    if (measuring) {
      delay_hist_.add(delay);
      (cell.cls == sim::TrafficClass::kControl ? control_delay_
                                               : data_delay_)
          .add(delay);
      meter_.add_delivery();
      ++delivered_per_port_[static_cast<std::size_t>(cell.dst)];
    }
  });
  }

  // 6. Recovery bookkeeping: a repaired fault counts as recovered once
  //    the backlog returns to its pre-fault baseline.
  if (faults_.active()) {
    OSMOSIS_PROF_SCOPE("switch.recovery");
    faults_.observe(t, core_.backlog());
  }

  // 7. Invariant verification at the slot boundary: cell conservation
  //    (retried cells stay VOQ-resident, so nothing is ever dropped) and
  //    the liveness watchdog. Retries maturing toward their timeout
  //    count as pending work, not as a stall.
  monitor_.end_slot({t, core_.backlog(), faults_.active_faults(),
                     retry_queue_.size()});
}

void SwitchSim::sample_series(std::uint64_t t) {
  prof::TimeSeriesSampler& s = telem_.series();
  if (!s.due(t)) return;
  OSMOSIS_PROF_SCOPE("switch.telemetry");
  const std::uint64_t voq_total = core_.voq_backlog();
  const std::uint64_t egress_total = core_.egress_backlog();
  // Rates over the window since the previous sample; the first sample
  // of a run has no window yet and records 0.
  const std::uint64_t dslots = t - last_sample_slot_;
  const double ddeliv =
      static_cast<double>(total_delivered_ - last_sample_delivered_);
  const double dgrants =
      static_cast<double>(grants_issued_ - last_sample_grants_);
  const double thr =
      dslots ? ddeliv / (static_cast<double>(dslots) *
                         static_cast<double>(cfg_.ports))
             : 0.0;
  const double link_util =
      dslots ? dgrants / (static_cast<double>(dslots) *
                          static_cast<double>(cfg_.ports))
             : 0.0;
  s.record(t, {static_cast<double>(voq_total + egress_total),
               static_cast<double>(voq_total),
               static_cast<double>(core_.max_bank_backlog()),
               static_cast<double>(egress_total),
               static_cast<double>(retry_queue_.size()), thr, link_util,
               static_cast<double>(dslots ? dgrants /
                                                static_cast<double>(dslots)
                                          : 0.0)});
  last_sample_slot_ = t;
  last_sample_delivered_ = total_delivered_;
  last_sample_grants_ = grants_issued_;
}

// Windowed delivery accounting: the worst window is the depth of the
// throughput dip a mid-run fault carves out.
constexpr std::uint64_t kWindowSlots = 512;

bool SwitchSim::advance_slot() {
  const std::uint64_t measure_end = cfg_.warmup_slots + cfg_.measure_slots;
  if (now_ < cfg_.warmup_slots) {
    step(now_, false, true);
    sample_series(now_);
    ++now_;
    return true;
  }
  if (now_ < measure_end) {
    step(now_, true, true);
    sample_series(now_);
    meter_.advance_slots(1, static_cast<std::uint64_t>(cfg_.ports));
    const std::uint64_t elapsed = now_ + 1 - cfg_.warmup_slots;
    if (elapsed % kWindowSlots == 0) {
      const std::uint64_t in_window = delay_hist_.count() - window_mark_;
      window_mark_ = delay_hist_.count();
      const double thr =
          static_cast<double>(in_window) /
          (static_cast<double>(kWindowSlots) * static_cast<double>(cfg_.ports));
      min_window_thr_ = min_window_thr_ < 0.0
                            ? thr
                            : std::min(min_window_thr_, thr);
    }
    ++now_;
    return true;
  }
  // Post-run drain: stop arrivals and let the recovered switch empty
  // its queues so the invariant checker can confirm exactly-once
  // delivery of everything offered.
  if (cfg_.drain_max_slots == 0) return false;
  if (now_ >= measure_end + cfg_.drain_max_slots) return false;
  if (core_.backlog() == 0 && retry_queue_.empty() && faults_.pending() == 0)
    return false;
  step(now_, false, false);
  sample_series(now_);
  ++drained_slots_;
  ++now_;
  return true;
}

SwitchSimResult SwitchSim::run() {
  while (advance_slot()) {
  }
  return finalize();
}

SwitchSimResult SwitchSim::finalize() {
  SwitchSimResult r;
  r.scheduler = core_.scheduler().name();
  r.offered_load = traffic_->offered_load();
  r.throughput = meter_.utilization();
  r.delivered = delay_hist_.count();
  r.mean_delay = delay_hist_.mean();
  r.p99_delay = delay_hist_.p99();
  r.max_delay = delay_hist_.max();
  r.mean_control_delay = control_delay_.mean();
  r.mean_data_delay = data_delay_.mean();
  r.mean_grant_latency = grant_latency_.mean();
  r.p99_grant_latency = grant_latency_.p99();
  r.max_voq_depth = core_.max_voq_depth();
  r.max_egress_depth = max_egress_depth_;
  r.out_of_order = monitor_.ledger().out_of_order();
  if (optical_) r.crossbar_reconfigs = optical_->reconfigurations();
  r.offered = offered_;
  r.grant_corruptions = faults_.grant_corruptions();
  r.retransmissions = faults_.retransmissions();
  r.faults_injected = faults_.injected();
  r.faults_repaired = faults_.repaired();
  r.faults_recovered = faults_.recovery().recovered();
  r.mean_recovery_slots = faults_.recovery().mean_recovery_slots();
  r.max_recovery_slots = faults_.recovery().max_recovery_slots();
  r.min_window_throughput = min_window_thr_ < 0.0 ? r.throughput
                                                  : min_window_thr_;
  r.drained_slots = drained_slots_;
  monitor_.finish(now_, core_.backlog());
  const auto inv = monitor_.ledger().report();
  r.exactly_once_in_order = inv.exactly_once_in_order();
  r.duplicates = inv.duplicates;
  r.missing = inv.missing;
  r.invariant_violations = monitor_.violations();
  r.first_violation = monitor_.first_violation();

  if (telem_.enabled()) {
    auto& ctr = telem_.counters();
    for (int p = 0; p < cfg_.ports; ++p) {
      const std::string port = std::to_string(p);
      ctr.add("ingress." + port + ".enqueued",
              static_cast<double>(enqueued_per_port_[static_cast<std::size_t>(p)]));
      ctr.add("egress." + port + ".delivered",
              static_cast<double>(delivered_per_port_[static_cast<std::size_t>(p)]));
      ctr.set_gauge("ingress." + port + ".max_voq_depth",
                    core_.voq(p).max_depth_seen());
    }
    ctr.add("sched.grants", static_cast<double>(grants_issued_));
    ctr.add("switch.delivered", static_cast<double>(r.delivered));
    ctr.add("switch.offered", static_cast<double>(r.offered));
    ctr.add("switch.out_of_order", static_cast<double>(r.out_of_order));
    ctr.set_gauge("egress.max_depth", max_egress_depth_);
    if (optical_)
      ctr.add("crossbar.reconfigs", static_cast<double>(r.crossbar_reconfigs));
    if (faults_.active()) {
      ctr.add("faults.injected", static_cast<double>(r.faults_injected));
      ctr.add("faults.repaired", static_cast<double>(r.faults_repaired));
      ctr.add("faults.recovered", static_cast<double>(r.faults_recovered));
      ctr.add("faults.grant_corruptions",
              static_cast<double>(r.grant_corruptions));
      ctr.add("faults.retransmissions",
              static_cast<double>(r.retransmissions));
      ctr.set_gauge("faults.mean_recovery_slots", r.mean_recovery_slots);
      ctr.set_gauge("faults.drained_slots",
                    static_cast<double>(r.drained_slots));
      ctr.set_gauge("faults.exactly_once_in_order",
                    r.exactly_once_in_order ? 1.0 : 0.0);
    }
  }
  return r;
}

template <class Ar>
void SwitchSim::io_core(Ar& a) {
  ckpt::field(a, now_);
  ckpt::field(a, window_mark_);
  ckpt::field(a, min_window_thr_);
  monitor_.io_flow_seq(a);
  // The v1 layout keeps a list of control-path-delayed requests here;
  // requests file on arrival, so the list is always empty.
  std::uint64_t delayed_requests = 0;
  ckpt::field(a, delayed_requests);
  if (delayed_requests != 0)
    throw ckpt::Error("checkpoint holds control-path-delayed requests");
  ckpt::field(a, request_times_);
  core_.io_egress(a);
  faults_.io_paths(a);
  ckpt::field(a, retry_queue_);
  ckpt::field(a, offered_);
  faults_.io_counters(a);
  ckpt::field(a, drained_slots_);
  ckpt::field(a, max_egress_depth_);
  ckpt::field(a, enqueued_per_port_);
  ckpt::field(a, delivered_per_port_);
  ckpt::field(a, grants_issued_);
  ckpt::field(a, total_delivered_);
  ckpt::field(a, last_sample_slot_);
  ckpt::field(a, last_sample_delivered_);
  ckpt::field(a, last_sample_grants_);
}

template <class Ar>
void SwitchSim::io_stats(Ar& a) {
  ckpt::field(a, delay_hist_);
  ckpt::field(a, control_delay_);
  ckpt::field(a, data_delay_);
  ckpt::field(a, grant_latency_);
  ckpt::field(a, meter_);
  monitor_.io_order(a);
  ckpt::field(a, monitor_);
  faults_.io_health(a);
}

template <class Io>
void SwitchSim::io_chunks(Io& io) {
  ckpt::chunk(io, "switch.core", [&](auto& s) { io_core(s); });
  ckpt::chunk(io, "switch.traffic",
              [&](auto& s) { ckpt::save_or_load(s, *traffic_); });
  ckpt::chunk(io, "switch.sched", [&](auto& s) { core_.io_scheduler(s); });
  ckpt::chunk(io, "switch.voq", [&](auto& s) { core_.io_voqs(s); });
  ckpt::chunk(io, "switch.stats", [&](auto& s) { io_stats(s); });
  if (faults_.active())
    ckpt::chunk(io, "switch.faults",
                [&](auto& s) { faults_.io_injector(s); });
  if (optical_)
    ckpt::chunk(io, "switch.optical",
                [&](auto& s) { ckpt::field(s, *optical_); });
  ckpt::chunk(io, "switch.telemetry",
              [&](auto& s) { ckpt::field(s, telem_); });
}

void SwitchSim::save_state(ckpt::Writer& w) const {
  const_cast<SwitchSim*>(this)->io_chunks(w);
}

void SwitchSim::load_state(const ckpt::Reader& r) { io_chunks(r); }

telemetry::RunReport SwitchSim::report() const {
  telemetry::RunReport r = telem_.make_report("SwitchSim", "cycles");
  r.config["ports"] = cfg_.ports;
  r.config["receivers"] = cfg_.sched.receivers;
  r.config["egress_line_rate"] = 1;  // cells/slot
  r.config["request_delay_slots"] = 0;  // requests file on arrival
  r.config["warmup_slots"] = static_cast<double>(cfg_.warmup_slots);
  r.config["measure_slots"] = static_cast<double>(cfg_.measure_slots);
  r.config["offered_load"] = traffic_->offered_load();
  r.config["telemetry.sample_every"] = cfg_.telemetry.sample_every;
  if (!cfg_.fault_plan.empty()) {
    r.config["fault_events"] = static_cast<double>(cfg_.fault_plan.size());
    r.config["drain_max_slots"] = static_cast<double>(cfg_.drain_max_slots);
    r.config["grant_timeout_slots"] =
        static_cast<double>(kGrantTimeoutCycles);
    r.config["arq_timeout_slots"] = static_cast<double>(kArqTimeoutCycles);
  }
  r.info["scheduler"] = core_.scheduler().name();
  r.health = faults_.health().event_log();
  r.histograms.emplace("delay",
                       telemetry::HistogramSummary::of(delay_hist_));
  r.histograms.emplace("grant_latency",
                       telemetry::HistogramSummary::of(grant_latency_));
  r.histograms.emplace("control_delay",
                       telemetry::HistogramSummary::of(control_delay_));
  r.histograms.emplace("data_delay",
                       telemetry::HistogramSummary::of(data_delay_));
  monitor_.to_report(r);
  return r;
}

SwitchSimResult run_uniform(const SwitchSimConfig& cfg, double load,
                            std::uint64_t seed) {
  SwitchSim sim(cfg, sim::make_uniform(cfg.ports, load, seed));
  return sim.run();
}

}  // namespace osmosis::sw

#include "src/exec/campaign_runner.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/api/serve_sim.hpp"
#include "src/exec/thread_pool.hpp"
#include "src/prof/profiler.hpp"
#include "src/sim/traffic.hpp"
#include "src/sw/event_switch_sim.hpp"
#include "src/sw/switch_sim.hpp"
#include "src/telemetry/json.hpp"
#include "src/topo/topo_sim.hpp"
#include "src/util/log.hpp"

namespace osmosis::exec {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string hex_seed(std::uint64_t seed) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

std::unique_ptr<sim::TrafficGen> make_traffic(const JobSpec& j, int ports) {
  if (j.traffic == TrafficKind::kBursty)
    return sim::make_bursty(ports, j.load, j.mean_burst, j.seed);
  return sim::make_uniform(ports, j.load, j.seed);
}

class SwitchJobDriver final : public JobDriver {
 public:
  explicit SwitchJobDriver(const JobSpec& j)
      : faulty_(j.fault != FaultScenario::kNone) {
    sw::SwitchSimConfig cfg;
    cfg.ports = j.ports;
    cfg.sched.kind = j.scheduler;
    cfg.sched.receivers = j.receivers;
    cfg.sched.iterations = j.iterations;
    cfg.sched.flppr_policy = j.policy;
    cfg.warmup_slots = j.warmup_slots;
    cfg.measure_slots = j.measure_slots;
    cfg.telemetry.enabled = true;
    cfg.telemetry.sample_every = 4;
    if (faulty_) {
      cfg.fault_plan =
          make_fault_plan(j.fault, j.warmup_slots, j.measure_slots);
      cfg.fault_plan.seeded(j.seed ^ 0x0FA7'17ULL);
    }
    // The drain phase runs with arrivals off after the measurement
    // window, so it never shifts the measured stats — always enable it
    // and carry the exactly-once verdict for every job.
    cfg.drain_max_slots = 50'000;
    sim_ = std::make_unique<sw::SwitchSim>(cfg, make_traffic(j, cfg.ports));
  }

  bool advance() override { return sim_->advance_slot(); }
  void save(ckpt::Writer& w) const override { sim_->save_state(w); }
  void load(const ckpt::Reader& r) override { sim_->load_state(r); }
  JobResult finalize() override;

 private:
  bool faulty_;
  std::unique_ptr<sw::SwitchSim> sim_;
};

JobResult SwitchJobDriver::finalize() {
  const auto r = sim_->finalize();
  auto& sim = *sim_;
  const bool faulty = faulty_;

  JobResult out;
  out.metrics["throughput"] = r.throughput;
  out.metrics["delivered"] = static_cast<double>(r.delivered);
  out.metrics["mean_delay"] = r.mean_delay;
  out.metrics["p99_delay"] = r.p99_delay;
  out.metrics["max_delay"] = r.max_delay;
  out.metrics["mean_grant_latency"] = r.mean_grant_latency;
  out.metrics["p99_grant_latency"] = r.p99_grant_latency;
  out.metrics["out_of_order"] = static_cast<double>(r.out_of_order);
  out.metrics["max_voq_depth"] = r.max_voq_depth;
  out.metrics["exactly_once_in_order"] = r.exactly_once_in_order ? 1.0 : 0.0;
  out.metrics["min_window_throughput"] = r.min_window_throughput;
  if (faulty) {
    out.metrics["grant_corruptions"] =
        static_cast<double>(r.grant_corruptions);
    out.metrics["retransmissions"] = static_cast<double>(r.retransmissions);
    out.metrics["faults_injected"] = static_cast<double>(r.faults_injected);
    out.metrics["faults_recovered"] = static_cast<double>(r.faults_recovered);
    out.metrics["mean_recovery_slots"] = r.mean_recovery_slots;
  }
  out.report = sim.report();
  out.raw_hists.emplace("delay", sim.delay_histogram());
  out.raw_hists.emplace("grant_latency", sim.grant_latency_histogram());
  return out;
}

class EventSwitchJobDriver final : public JobDriver {
 public:
  explicit EventSwitchJobDriver(const JobSpec& j) {
    sw::EventSwitchConfig cfg;
    cfg.ports = j.ports;
    cfg.sched.kind = j.scheduler;
    cfg.sched.receivers = j.receivers;
    cfg.sched.iterations = j.iterations;
    cfg.sched.flppr_policy = j.policy;
    cfg.warmup_ns = static_cast<double>(j.warmup_slots) * cfg.cell_ns;
    cfg.measure_ns = static_cast<double>(j.measure_slots) * cfg.cell_ns;
    cfg.telemetry.enabled = true;
    cfg.telemetry.sample_every = 4;
    if (j.fault != FaultScenario::kNone) {
      cfg.fault_plan =
          make_fault_plan(j.fault, j.warmup_slots, j.measure_slots);
      cfg.fault_plan.seeded(j.seed ^ 0x0FA7'17ULL);
      cfg.drain_max_cycles = 50'000;
    }
    sim_ = std::make_unique<sw::EventSwitchSim>(cfg,
                                                make_traffic(j, cfg.ports));
  }

  bool advance() override { return sim_->advance(); }
  void save(ckpt::Writer& w) const override { sim_->save_state(w); }
  void load(const ckpt::Reader& r) override { sim_->load_state(r); }
  JobResult finalize() override;

 private:
  std::unique_ptr<sw::EventSwitchSim> sim_;
};

JobResult EventSwitchJobDriver::finalize() {
  const auto r = sim_->finalize();
  auto& sim = *sim_;

  JobResult out;
  out.metrics["throughput"] = r.throughput;
  out.metrics["delivered"] = static_cast<double>(r.delivered);
  out.metrics["mean_delay_ns"] = r.mean_delay_ns;
  out.metrics["p99_delay_ns"] = r.p99_delay_ns;
  out.metrics["mean_grant_latency_ns"] = r.mean_grant_latency_ns;
  out.metrics["receiver_conflicts"] =
      static_cast<double>(r.receiver_conflicts);
  out.metrics["out_of_order"] = static_cast<double>(r.out_of_order);
  out.report = sim.report();
  out.raw_hists.emplace("delay", sim.delay_histogram());
  out.raw_hists.emplace("grant_latency", sim.grant_latency_histogram());
  return out;
}

class ServeJobDriver final : public JobDriver {
 public:
  explicit ServeJobDriver(const JobSpec& j)
      : faulty_(j.fault != FaultScenario::kNone) {
    api::ServeSimConfig cfg;
    cfg.sw.ports = j.ports;
    cfg.sw.sched.kind = j.scheduler;
    cfg.sw.sched.receivers = j.receivers;
    cfg.sw.sched.iterations = j.iterations;
    cfg.sw.sched.flppr_policy = j.policy;
    cfg.sw.warmup_slots = j.warmup_slots;
    cfg.sw.measure_slots = j.measure_slots;
    cfg.sw.telemetry.enabled = true;
    cfg.sw.telemetry.sample_every = 4;
    if (faulty_) {
      cfg.sw.fault_plan =
          make_fault_plan(j.fault, j.warmup_slots, j.measure_slots);
      cfg.sw.fault_plan.seeded(j.seed ^ 0x0FA7'17ULL);
    }
    cfg.sw.drain_max_slots = 50'000;
    cfg.seed = j.seed;
    cfg.openloop.clients = j.clients;
    cfg.openloop.tenants = j.tenants;
    cfg.openloop.arrival = j.arrival;
    cfg.openloop.load = j.load;
    cfg.admission.enabled = true;
    sim_ = std::make_unique<api::ServeSim>(std::move(cfg));
  }

  bool advance() override { return sim_->advance_slot(); }
  void save(ckpt::Writer& w) const override { sim_->save_state(w); }
  void load(const ckpt::Reader& r) override { sim_->load_state(r); }
  JobResult finalize() override;

 private:
  bool faulty_;
  std::unique_ptr<api::ServeSim> sim_;
};

JobResult ServeJobDriver::finalize() {
  const auto r = sim_->finalize();
  auto& sim = *sim_;

  JobResult out;
  out.metrics["throughput"] = r.cell_level.throughput;
  out.metrics["delivered_cells"] =
      static_cast<double>(r.cell_level.delivered);
  out.metrics["mean_delay"] = r.cell_level.mean_delay;
  out.metrics["p99_delay"] = r.cell_level.p99_delay;
  out.metrics["mean_grant_latency"] = r.cell_level.mean_grant_latency;
  out.metrics["exactly_once_in_order"] =
      r.cell_level.exactly_once_in_order ? 1.0 : 0.0;
  out.metrics["offered"] = static_cast<double>(r.offered);
  out.metrics["accepted"] = static_cast<double>(r.accepted);
  out.metrics["shed"] = static_cast<double>(r.shed);
  out.metrics["delivered"] = static_cast<double>(r.delivered);
  out.metrics["sends"] = static_cast<double>(r.sends);
  out.metrics["rma_writes"] = static_cast<double>(r.rma_writes);
  out.metrics["rma_reads"] = static_cast<double>(r.rma_reads);
  out.metrics["rma_errors"] = static_cast<double>(r.rma_errors);
  out.metrics["cq_overruns"] = static_cast<double>(r.cq_overruns);
  out.metrics["mean_latency"] = r.mean_latency;
  out.metrics["p50_latency"] = r.p50_latency;
  out.metrics["p99_latency"] = r.p99_latency;
  out.metrics["p999_latency"] = r.p999_latency;
  if (faulty_) {
    out.metrics["faults_injected"] =
        static_cast<double>(r.cell_level.faults_injected);
    out.metrics["faults_recovered"] =
        static_cast<double>(r.cell_level.faults_recovered);
  }
  out.report = sim.report();
  out.raw_hists.emplace("delay", sim.switch_sim().delay_histogram());
  out.raw_hists.emplace("grant_latency",
                        sim.switch_sim().grant_latency_histogram());
  out.raw_hists.emplace("serving_latency", sim.latency_histogram());
  return out;
}

/// Topology-zoo jobs, and fabric jobs as the leaf-spine preset with
/// cell tracing on and graceful degradation under a permanent spine cut.
class TopoJobDriver final : public JobDriver {
 public:
  explicit TopoJobDriver(const JobSpec& j)
      : faulty_(j.fault != FaultScenario::kNone),
        fabric_(j.sim == SimKind::kFabric),
        degraded_(j.fault == FaultScenario::kSpinePermanent) {
    topo::TopoSimConfig cfg;
    if (fabric_) {
      cfg = topo::leaf_spine_config(j.ports);  // fabric jobs: ports = radix
      cfg.telemetry.enabled = true;
      cfg.telemetry.sample_every = 4;
      // A permanent spine cut is only viable under graceful degradation:
      // adaptive routing re-spreads the flows and admission keeps the
      // backlog bounded at the reduced capacity.
      cfg.adaptive_routing = degraded_;
      cfg.admission = degraded_;
    } else {
      cfg.topology = j.topology;
      cfg.hosts = j.ports;  // topo jobs: the ports axis is the host count
      cfg.routing = j.routing;
      cfg.fc.kind = j.flow_control;
    }
    cfg.scheduler = j.scheduler;
    cfg.scheduler_iterations = j.iterations;
    cfg.warmup_slots = j.warmup_slots;
    cfg.measure_slots = j.measure_slots;
    // Always drain, so the exactly-once audit sees every packet land.
    cfg.drain_max_slots = 50'000;
    if (faulty_) {
      cfg.fault_plan =
          make_fault_plan(j.fault, j.warmup_slots, j.measure_slots);
      cfg.fault_plan.seeded(j.seed ^ 0x0FA7'17ULL);
    }
    // Wormhole streams flits_per_packet flits per packet, so inject
    // packets at load / flits_per_packet to offer the same flit load as
    // the cell kinds (the run_topo_uniform rule).
    const double p = cfg.fc.kind == topo::FcKind::kWormholeVc
                         ? j.load / cfg.fc.flits_per_packet
                         : j.load;
    sim_ = std::make_unique<topo::TopoSim>(
        cfg, j.traffic == TrafficKind::kBursty
                 ? sim::make_bursty(cfg.hosts, p, j.mean_burst, j.seed)
                 : sim::make_uniform(cfg.hosts, p, j.seed));
  }

  bool advance() override { return sim_->advance_slot(); }
  void save(ckpt::Writer& w) const override { sim_->save_state(w); }
  void load(const ckpt::Reader& r) override { sim_->load_state(r); }
  JobResult finalize() override;

 private:
  bool faulty_;
  bool fabric_;    // leaf-spine fabric job: the fabric metric set
  bool degraded_;  // graceful-degradation scenario: extra metrics
  std::unique_ptr<topo::TopoSim> sim_;
};

JobResult TopoJobDriver::finalize() {
  const auto r = sim_->finalize();
  auto& sim = *sim_;

  JobResult out;
  out.metrics["throughput"] = r.throughput;
  out.metrics["delivered"] = static_cast<double>(r.delivered);
  out.metrics["mean_delay"] = r.mean_delay_slots;
  out.metrics["p99_delay"] = r.p99_delay_slots;
  out.metrics["hosts"] = r.hosts;
  out.metrics["out_of_order"] = static_cast<double>(r.out_of_order);
  out.metrics["buffer_overflows"] = static_cast<double>(r.buffer_overflows);
  if (fabric_) {
    if (degraded_) {
      out.metrics["shed_cells"] = static_cast<double>(r.shed_cells);
      out.metrics["resteered"] = static_cast<double>(r.resteered);
      out.metrics["brownout_slots"] = static_cast<double>(r.brownout_slots);
      out.metrics["max_resequencer_depth"] =
          static_cast<double>(r.max_resequencer_depth);
    }
  } else {
    out.metrics["mean_hops"] = r.mean_hops;
    out.metrics["stages"] = r.stages;
    out.metrics["diameter"] = r.diameter;
    out.metrics["exactly_once_in_order"] =
        r.exactly_once_in_order ? 1.0 : 0.0;
    out.metrics["invariant_violations"] =
        static_cast<double>(r.invariant_violations);
    if (faulty_) {
      out.metrics["faults_injected"] = static_cast<double>(r.faults_injected);
      out.metrics["faults_repaired"] = static_cast<double>(r.faults_repaired);
    }
  }
  out.report = sim.report();
  out.raw_hists.emplace("delay", sim.delay_histogram());
  return out;
}

// Serialized-spec equality: two JobSpecs match iff every axis value
// matches, byte for byte.
std::string spec_bytes(const JobSpec& spec) {
  ckpt::Sink s;
  ckpt::field(s, const_cast<JobSpec&>(spec));
  return s.take();
}

void write_spec_chunk(ckpt::Writer& w, const JobSpec& spec) {
  w.add_chunk("job.spec", spec_bytes(spec));
}

void require_spec_match(const ckpt::Reader& r, const JobSpec& expected) {
  ckpt::Source s = r.chunk("job.spec");
  JobSpec seen;
  ckpt::field(s, seen);
  s.expect_end();
  if (spec_bytes(seen) != spec_bytes(expected))
    throw ckpt::Error("checkpoint belongs to a different job (found '" +
                      seen.label() + "')");
}

std::string job_state_path(const CheckpointPolicy& ck, std::size_t index) {
  return ck.dir + "/job_" + std::to_string(index) + ".state.ckpt";
}

std::string job_done_path(const CheckpointPolicy& ck, std::size_t index) {
  return ck.dir + "/job_" + std::to_string(index) + ".done.ckpt";
}

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

// Cooperative watchdog granularity: wall-clock checks between advance
// steps are this sparse so the fault-free hot loop stays unmeasurable.
constexpr std::uint64_t kTimeoutCheckStride = 1024;

void check_deadline(const JobSpec& spec, Clock::time_point t0,
                    double timeout_ms, std::uint64_t steps) {
  if (timeout_ms <= 0.0 || steps % kTimeoutCheckStride != 0) return;
  const double elapsed = ms_since(t0);
  if (elapsed <= timeout_ms) return;
  std::ostringstream os;
  os << "job '" << spec.label() << "' exceeded its " << timeout_ms
     << " ms budget (" << elapsed << " ms after " << steps
     << " advance steps)";
  throw JobTimeout(os.str());
}

}  // namespace

std::unique_ptr<JobDriver> make_job_driver(const JobSpec& spec) {
  switch (spec.sim) {
    case SimKind::kSwitch: return std::make_unique<SwitchJobDriver>(spec);
    case SimKind::kEventSwitch:
      return std::make_unique<EventSwitchJobDriver>(spec);
    case SimKind::kServe: return std::make_unique<ServeJobDriver>(spec);
    case SimKind::kFabric:
    case SimKind::kTopo: return std::make_unique<TopoJobDriver>(spec);
  }
  OSMOSIS_REQUIRE(false, "unknown SimKind");
  return nullptr;
}

JobResult run_job(const JobSpec& spec, double timeout_ms) {
  const auto t0 = Clock::now();
  auto driver = make_job_driver(spec);
  std::uint64_t steps = 0;
  while (driver->advance()) {
    check_deadline(spec, t0, timeout_ms, ++steps);
  }
  JobResult out = driver->finalize();
  out.spec = spec;
  out.ok = true;
  return out;
}

JobSpec read_job_spec_chunk(const ckpt::Reader& r) {
  ckpt::Source s = r.chunk("job.spec");
  JobSpec spec;
  ckpt::field(s, spec);
  s.expect_end();
  return spec;
}

std::uint64_t read_job_progress(const ckpt::Reader& r) {
  std::uint64_t steps = 0;
  ckpt::read_chunk(r, "job.progress",
                   [&](ckpt::Source& s) { ckpt::field(s, steps); });
  return steps;
}

std::uint32_t job_state_digest(const JobDriver& d) {
  ckpt::Writer w;
  d.save(w);
  return ckpt::crc32(w.serialize());
}

void write_job_result_file(const JobResult& r, const std::string& path) {
  ckpt::Writer w;
  write_spec_chunk(w, r.spec);
  auto* self = const_cast<JobResult*>(&r);
  ckpt::write_chunk(w, "job.result", [&](ckpt::Sink& s) {
    ckpt::field(s, self->ok);
    ckpt::field(s, self->attempts);
    ckpt::field(s, self->timed_out);
    ckpt::field(s, self->quarantined);
    ckpt::field(s, self->failure_class);
    ckpt::field(s, self->error);
    ckpt::field(s, self->metrics);
    ckpt::field(s, self->wall_ms);
  });
  ckpt::write_chunk(w, "job.report",
                    [&](ckpt::Sink& s) { ckpt::field(s, self->report); });
  // Raw histograms carry their bin shape out-of-band so the loader can
  // construct each one before Histogram::io_state verifies it.
  ckpt::write_chunk(w, "job.hists", [&](ckpt::Sink& s) {
    std::uint64_t n = r.raw_hists.size();
    ckpt::field(s, n);
    for (auto& [name, h] : self->raw_hists) {
      std::string key = name;
      double limit = h.linear_limit();
      double growth = h.growth();
      ckpt::field(s, key);
      ckpt::field(s, limit);
      ckpt::field(s, growth);
      ckpt::field(s, h);
    }
  });
  w.write_file(path);
}

JobResult read_job_result_file(const JobSpec& expected,
                               const std::string& path) {
  const ckpt::Reader r = ckpt::Reader::from_file(path);
  require_spec_match(r, expected);
  JobResult out;
  out.spec = expected;
  ckpt::read_chunk(r, "job.result", [&](ckpt::Source& s) {
    ckpt::field(s, out.ok);
    ckpt::field(s, out.attempts);
    ckpt::field(s, out.timed_out);
    ckpt::field(s, out.quarantined);
    ckpt::field(s, out.failure_class);
    ckpt::field(s, out.error);
    ckpt::field(s, out.metrics);
    ckpt::field(s, out.wall_ms);
  });
  ckpt::read_chunk(r, "job.report",
                   [&](ckpt::Source& s) { ckpt::field(s, out.report); });
  ckpt::read_chunk(r, "job.hists", [&](ckpt::Source& s) {
    std::uint64_t n = 0;
    ckpt::field(s, n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string key;
      double limit = 0.0;
      double growth = 0.0;
      ckpt::field(s, key);
      ckpt::field(s, limit);
      ckpt::field(s, growth);
      sim::Histogram h(limit, growth);
      ckpt::field(s, h);
      out.raw_hists.emplace(std::move(key), std::move(h));
    }
  });
  return out;
}

JobResult run_job_checkpointed(const JobSpec& spec,
                               const CheckpointPolicy& ck,
                               double timeout_ms) {
  if (ck.dir.empty()) return run_job(spec, timeout_ms);
  const auto t0 = Clock::now();
  const std::string state_path = job_state_path(ck, spec.index);
  auto driver = make_job_driver(spec);
  std::uint64_t steps = 0;
  if (ck.resume && file_exists(state_path)) {
    try {
      const ckpt::Reader r = ckpt::Reader::from_file(state_path);
      require_spec_match(r, spec);
      steps = read_job_progress(r);
      driver->load(r);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "[osmosis] warning: ignoring unusable checkpoint %s (%s); "
                   "re-running job %zu from scratch\n",
                   state_path.c_str(), e.what(), spec.index);
      driver = make_job_driver(spec);  // drop any partially loaded state
      steps = 0;
    }
  }
  while (driver->advance()) {
    ++steps;
    check_deadline(spec, t0, timeout_ms, steps);
    if (ck.every > 0 && steps % ck.every == 0) {
      ckpt::Writer w;
      write_spec_chunk(w, spec);
      ckpt::write_chunk(w, "job.progress",
                        [&](ckpt::Sink& s) { ckpt::field(s, steps); });
      driver->save(w);
      w.write_file(state_path);
      if (ck.on_checkpoint) ck.on_checkpoint(state_path, steps);
    }
  }
  JobResult out = driver->finalize();
  out.spec = spec;
  out.ok = true;
  return out;
}

std::size_t CampaignResult::failed_jobs() const {
  std::size_t n = 0;
  for (const auto& j : jobs)
    if (!j.ok) ++n;
  return n;
}

const JobResult* CampaignResult::find(
    const std::function<bool(const JobSpec&)>& pred) const {
  for (const auto& j : jobs)
    if (pred(j.spec)) return &j;
  return nullptr;
}

std::string CampaignResult::to_json(int indent, bool include_timing) const {
  telemetry::JsonWriter w(indent);
  w.open('{');
  w.key("schema");
  w.string(kSchema);
  w.key("name");
  w.string(name);
  w.key("campaign_seed");
  w.string(hex_seed(campaign_seed));

  w.key("jobs");
  w.open('[');
  for (const auto& j : jobs) {
    w.open('{');
    w.key("index");
    w.number(static_cast<double>(j.spec.index));
    w.key("label");
    w.string(j.spec.label());
    w.key("sim");
    w.string(to_string(j.spec.sim));
    w.key("scheduler");
    w.string(to_string(j.spec.scheduler));
    w.key("iterations");
    w.number(j.spec.iterations);
    w.key("policy");
    w.string(to_string(j.spec.policy));
    w.key("ports");
    w.number(j.spec.ports);
    w.key("receivers");
    w.number(j.spec.receivers);
    w.key("traffic");
    w.string(to_string(j.spec.traffic));
    w.key("load");
    w.number(j.spec.load);
    // Serving axes appear only on serve jobs, so documents from legacy
    // grids keep their exact bytes.
    if (j.spec.sim == SimKind::kServe) {
      w.key("clients");
      w.number(static_cast<double>(j.spec.clients));
      w.key("arrival");
      w.string(to_string(j.spec.arrival));
      w.key("tenants");
      w.number(j.spec.tenants);
    }
    // Topology axes likewise appear only on topo jobs.
    if (j.spec.sim == SimKind::kTopo) {
      w.key("topology");
      w.string(topo::to_string(j.spec.topology));
      w.key("flow_control");
      w.string(topo::to_string(j.spec.flow_control));
      w.key("routing");
      w.string(topo::to_string(j.spec.routing));
    }
    w.key("fault");
    w.string(to_string(j.spec.fault));
    w.key("rep");
    w.number(j.spec.repetition);
    w.key("seed");
    w.string(hex_seed(j.spec.seed));
    w.key("ok");
    w.boolean(j.ok);
    w.key("attempts");
    w.number(j.attempts);
    w.key("error");
    w.string(j.error);
    if (!j.failure_class.empty()) {
      w.key("failure_class");
      w.string(j.failure_class);
    }
    if (j.quarantined) {
      w.key("quarantined");
      w.boolean(true);
    }
    w.key("metrics");
    w.open('{');
    for (const auto& [k, v] : j.metrics) {
      w.key(k);
      w.number(v);
    }
    w.close('}');
    w.key("histograms");
    w.open('{');
    for (const auto& [hname, h] : j.report.histograms) {
      w.key(hname);
      telemetry::write_histogram_summary(w, h);
    }
    w.close('}');
    if (include_timing) {
      w.key("wall_ms");
      w.number(j.wall_ms);
      w.key("timed_out");
      w.boolean(j.timed_out);
    }
    w.close('}');
  }
  w.close(']');

  w.key("aggregate");
  w.open('{');
  w.key("jobs");
  w.number(static_cast<double>(jobs.size()));
  w.key("failed");
  w.number(static_cast<double>(failed_jobs()));
  w.key("counters");
  w.open('{');
  for (const auto& [k, v] : aggregate_counters.snapshot()) {
    w.key(k);
    w.number(v);
  }
  w.close('}');
  w.key("histograms");
  w.open('{');
  for (const auto& [hname, h] : aggregate_hists) {
    w.key(hname);
    telemetry::write_histogram_summary(
        w, telemetry::HistogramSummary::of(h));
  }
  w.close('}');
  w.close('}');

  // Quarantined jobs, only when any exist — clean campaigns stay
  // byte-identical to documents written before this section existed.
  bool any_quarantined = false;
  for (const auto& j : jobs) any_quarantined |= j.quarantined;
  if (any_quarantined) {
    w.key("quarantine");
    w.open('[');
    for (const auto& j : jobs) {
      if (!j.quarantined) continue;
      w.open('{');
      w.key("index");
      w.number(static_cast<double>(j.spec.index));
      w.key("label");
      w.string(j.spec.label());
      w.key("class");
      w.string(j.failure_class);
      w.key("error");
      w.string(j.error);
      w.close('}');
    }
    w.close(']');
  }

  if (include_timing) {
    w.key("timing");
    w.open('{');
    w.key("wall_ms");
    w.number(wall_ms);
    w.key("threads");
    w.number(threads_used);
    w.close('}');
  }

  w.close('}');
  return w.str();
}

CampaignRunner::CampaignRunner(RunnerOptions opts) : opts_(std::move(opts)) {
  OSMOSIS_REQUIRE(opts_.max_attempts >= 1, "runner needs max_attempts >= 1");
}

JobResult CampaignRunner::execute_with_retry(const JobSpec& spec) const {
  JobResult result;
  std::string prev_error;
  for (int attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
    if (attempt > 1 && opts_.retry_backoff_ms > 0.0) {
      const double mult =
          std::min(8.0, std::pow(2.0, static_cast<double>(attempt - 2)));
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          opts_.retry_backoff_ms * mult));
    }
    const auto t0 = Clock::now();
    try {
      result = opts_.executor
                   ? opts_.executor(spec)
                   : run_job_checkpointed(spec, opts_.checkpoint,
                                          opts_.job_timeout_ms);
      result.spec = spec;
      result.attempts = attempt;
      result.wall_ms = ms_since(t0);
      // A custom executor cannot be cancelled from outside; an overrun
      // there is flagged but the completed result is kept.
      result.timed_out = opts_.job_timeout_ms > 0.0 &&
                         result.wall_ms > opts_.job_timeout_ms;
      return result;
    } catch (const JobTimeout& e) {
      // Budget exceeded: retrying would burn another full budget on a
      // job that is deterministic in its seed — quarantine immediately.
      result = JobResult{};
      result.spec = spec;
      result.attempts = attempt;
      result.error = e.what();
      result.timed_out = true;
      result.quarantined = true;
      result.failure_class = "timeout";
      result.wall_ms = ms_since(t0);
      return result;
    } catch (const std::exception& e) {
      result = JobResult{};
      result.spec = spec;
      result.attempts = attempt;
      result.error = e.what();
    } catch (...) {
      result = JobResult{};
      result.spec = spec;
      result.attempts = attempt;
      result.error = "unknown exception";
    }
    result.wall_ms = ms_since(t0);
    // Same failure twice in a row: the job is a pure function of its
    // seed, so an identical message means an identical code path —
    // deterministic, quarantine instead of retrying.
    if (attempt > 1 && result.error == prev_error) {
      result.quarantined = true;
      result.failure_class = "deterministic";
      return result;
    }
    prev_error = result.error;
  }
  result.failure_class = "transient";
  return result;  // ok == false after exhausting attempts
}

CampaignResult CampaignRunner::run(const CampaignSpec& spec) {
  const std::vector<JobSpec> jobs = spec.expand();

  CampaignResult out;
  out.name = spec.name;
  out.campaign_seed = spec.campaign_seed;
  out.jobs.resize(jobs.size());

  // Resume pass: completed jobs load verbatim from their done files and
  // never re-run; anything unusable falls through to normal execution.
  const CheckpointPolicy& ck = opts_.checkpoint;
  std::vector<char> restored(jobs.size(), 0);
  if (ck.resume && !ck.dir.empty()) {
    for (const JobSpec& job : jobs) {
      const std::string path = job_done_path(ck, job.index);
      if (!file_exists(path)) continue;
      try {
        out.jobs[job.index] = read_job_result_file(job, path);
        restored[job.index] = 1;
        if (opts_.on_job_done) opts_.on_job_done(out.jobs[job.index]);
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "[osmosis] warning: ignoring unusable checkpoint %s "
                     "(%s); re-running job %zu from scratch\n",
                     path.c_str(), e.what(), job.index);
      }
    }
  }

  const auto t0 = Clock::now();
  {
    ThreadPool pool(opts_.threads);
    out.threads_used = pool.size();
    std::mutex done_mu;
    for (const JobSpec& job : jobs) {
      if (restored[job.index]) continue;
      // Each task writes only its own pre-sized slot, so no cross-job
      // synchronization is needed beyond the pool's queue.
      pool.submit([this, job, &out, &done_mu, &ck] {
        // One span per job on the worker's track: the campaign's Gantt
        // chart in the wall-clock Chrome trace.
        prof::ScopedTask task_span(job.label());
        JobResult r = execute_with_retry(job);
        if (!ck.dir.empty() && r.ok) {
          try {
            write_job_result_file(r, job_done_path(ck, job.index));
            std::remove(job_state_path(ck, job.index).c_str());
          } catch (const std::exception& e) {
            std::fprintf(stderr,
                         "[osmosis] warning: cannot write checkpoint for "
                         "job %zu: %s\n",
                         job.index, e.what());
          }
        }
        if (opts_.on_job_done) {
          std::lock_guard<std::mutex> lock(done_mu);
          opts_.on_job_done(r);
        }
        out.jobs[job.index] = std::move(r);
      });
    }
    pool.wait_idle();
    // execute_with_retry captures everything; an exception here would
    // mean a bug in the runner itself.
    OSMOSIS_REQUIRE(pool.take_exceptions().empty(),
                    "campaign job escaped its exception capture");
  }
  out.wall_ms = ms_since(t0);

  // Aggregate serially in job-index order: merge order is fixed, so the
  // merged floating-point results never depend on completion order.
  for (const auto& j : out.jobs) {
    if (!j.ok) continue;
    out.aggregate_counters.merge(j.report.counters);
    for (const auto& [hname, h] : j.raw_hists) {
      const std::string key = std::string(to_string(j.spec.sim)) + "." + hname;
      auto it = out.aggregate_hists.find(key);
      if (it == out.aggregate_hists.end()) {
        out.aggregate_hists.emplace(
            key, sim::Histogram(h.linear_limit(), h.growth()));
        it = out.aggregate_hists.find(key);
      }
      it->second.merge(h);
    }
  }
  return out;
}

}  // namespace osmosis::exec

#include "src/api/serve_sim.hpp"

#include <algorithm>
#include <utility>

#include "src/phy/guard_time.hpp"
#include "src/util/log.hpp"

namespace osmosis::api {

namespace {

// Driver mode: wildcard receives kept armed per endpoint. Re-arming runs
// only every kRecvRearmEvery slots — a cadence > 1 deliberately lets
// arrivals overtake the posted list now and then, so the
// unexpected-message path carries real traffic in every serving run.
constexpr std::size_t kServerRecvDepth = 4;
constexpr std::uint64_t kRecvRearmEvery = 4;
constexpr std::uint64_t kMrBytesPerPort = 1 << 20;  // driver-mode MR size
static_assert(static_cast<double>(kMrBytesPerPort) >= 2.0 * kRequestBytes,
              "driver-mode MR must hold at least two requests");

}  // namespace

/// Adapts the per-port segmenters to the switch's TrafficGen interface.
/// SwitchSim samples inputs 0..N-1 once per slot in order; input 0's
/// sample ticks the serving-layer clock (CQ drain, recv re-arm, open-loop
/// arrivals, admission refill). Implements the checkpoint hooks — the
/// entire serving state rides in the switch's "switch.traffic" chunk.
class ServeSim::Source final : public sim::TrafficGen {
 public:
  explicit Source(ServeSim& owner) : owner_(owner) {}

  int ports() const override {
    return static_cast<int>(owner_.segmenters_.size());
  }
  double offered_load() const override {
    return owner_.driver_.active() ? owner_.cfg_.openloop.load : 0.0;
  }

  bool sample(int input, sim::Arrival& out) override {
    if (input == 0) owner_.on_slot();
    host::Segmenter& seg =
        owner_.segmenters_[static_cast<std::size_t>(input)];
    std::uint64_t op_id;
    int dst;
    bool control, last;
    if (!seg.next_cell(op_id, dst, control, last)) return false;
    out.dst = dst;
    out.cls =
        control ? sim::TrafficClass::kControl : sim::TrafficClass::kData;
    out.tag = op_id;
    return true;
  }

  void save_state(ckpt::Sink& s) const override { owner_.io_serving(s); }
  void load_state(ckpt::Source& s) override { owner_.io_serving(s); }

 private:
  ServeSim& owner_;
};

ServeSim::ServeSim(ServeSimConfig cfg)
    : cfg_(std::move(cfg)), latency_(256.0) {
  const int ports = cfg_.sw.ports;
  OSMOSIS_REQUIRE(ports >= 2, "ServeSim needs >= 2 ports");
  OSMOSIS_REQUIRE(!cfg_.sw.on_delivery,
                  "ServeSim owns the switch delivery callback");
  tenants_ = cfg_.openloop.tenants;
  OSMOSIS_REQUIRE(tenants_ >= 1 && tenants_ <= 64,
                  "tenants must be in 1..64");

  segmenters_.reserve(static_cast<std::size_t>(ports));
  endpoints_.reserve(static_cast<std::size_t>(ports));
  tx_cqs_.reserve(static_cast<std::size_t>(ports));
  rx_cqs_.reserve(static_cast<std::size_t>(ports));
  const double cell_bytes = phy::demonstrator_cell_format().user_bytes();
  for (int p = 0; p < ports; ++p) {
    segmenters_.emplace_back(cell_bytes);
    endpoints_.emplace_back(p);
    tx_cqs_.emplace_back(cfg_.cq_capacity);
    rx_cqs_.emplace_back(cfg_.cq_capacity);
  }
  cells_per_request_ = segmenters_[0].cells_for(kRequestBytes);

  t_offered_.assign(static_cast<std::size_t>(tenants_), 0);
  t_accepted_.assign(static_cast<std::size_t>(tenants_), 0);
  t_delivered_.assign(static_cast<std::size_t>(tenants_), 0);
  t_shed_.assign(static_cast<std::size_t>(tenants_), 0);
  t_latency_.reserve(static_cast<std::size_t>(tenants_));
  for (int t = 0; t < tenants_; ++t) t_latency_.emplace_back(256.0);

  admission_ = host::AdmissionControl(cfg_.admission, tenants_);
  if (cfg_.admission.enabled) {
    // Serving rate: margin_pct % of total port capacity, split evenly
    // across tenants, in micro-cells per slot.
    const std::int64_t rate = host::AdmissionControl::kCellCost *
                              static_cast<std::int64_t>(ports) *
                              cfg_.admission.margin_pct /
                              (static_cast<std::int64_t>(tenants_) * 100);
    admission_.set_rate(std::max<std::int64_t>(rate, 1));
    OSMOSIS_REQUIRE(
        cfg_.admission.burst_cells >= cells_per_request_ + 1,
        "admission burst depth ("
            << cfg_.admission.burst_cells
            << " cells) must cover at least one request plus its read "
               "request cell ("
            << cells_per_request_ + 1 << ")");
  }

  if (cfg_.openloop.clients > 0) {
    driver_ = OpenLoopDriver(cfg_.openloop, ports, cells_per_request_,
                             cfg_.seed);
    port_mr_key_.reserve(static_cast<std::size_t>(ports));
    for (int p = 0; p < ports; ++p)
      port_mr_key_.push_back(
          mr_.register_region(p, kMrBytesPerPort));
    // Initial arming: the steady-state wildcard recv pool per endpoint.
    for (int p = 0; p < ports; ++p)
      for (std::size_t i = 0; i < kServerRecvDepth; ++i)
        post_recv(p, 0, ~std::uint64_t{0}, 0);
  }

  sw::SwitchSimConfig swc = cfg_.sw;
  swc.on_delivery = [this](const sw::Cell& cell, std::uint64_t t) {
    on_delivery(cell, t);
  };
  sw_ = std::make_unique<sw::SwitchSim>(swc, std::make_unique<Source>(*this));
}

bool ServeSim::admit(int tenant, int cells) {
  if (!cfg_.admission.enabled) return true;
  return admission_.admit_request(tenant, cells);
}

std::uint64_t ServeSim::post_op(OpInfo info, double wire_bytes,
                                bool control) {
  host::Segmenter& seg = segmenters_[static_cast<std::size_t>(info.src)];
  info.cells_left = seg.cells_for(wire_bytes);
  const std::uint64_t id = op_seq_++;
  host::Message m;
  m.src = info.src;
  m.dst = info.dst;
  m.id = id;
  m.bytes = wire_bytes;
  m.post_slot = slot_;
  m.control = control;
  seg.post(m);
  ops_.emplace(id, info);
  return id;
}

std::uint64_t ServeSim::send_tagged(int src, int dst, std::uint64_t tag,
                                    double bytes, std::uint64_t context,
                                    int tenant, bool control,
                                    std::int64_t client) {
  OSMOSIS_REQUIRE(src >= 0 && src < cfg_.sw.ports && dst >= 0 &&
                      dst < cfg_.sw.ports && src != dst,
                  "bad send ports " << src << " -> " << dst);
  OSMOSIS_REQUIRE(tenant >= 0 && tenant < tenants_, "bad tenant " << tenant);
  OSMOSIS_REQUIRE(bytes > 0.0, "send needs a positive payload");
  ++t_offered_[static_cast<std::size_t>(tenant)];
  const int cells =
      segmenters_[static_cast<std::size_t>(src)].cells_for(bytes);
  if (!admit(tenant, cells)) {
    ++t_shed_[static_cast<std::size_t>(tenant)];
    return 0;
  }
  ++t_accepted_[static_cast<std::size_t>(tenant)];
  ++sends_;
  if (client >= 0) driver_.note_issue(client);
  OpInfo info;
  info.kind = OpKind::kSend;
  info.src = src;
  info.dst = dst;
  info.tenant = tenant;
  info.client = client;
  info.tag = tag;
  info.context = context;
  info.bytes = bytes;
  info.issue_slot = slot_;
  info.counted = slot_ >= cfg_.sw.warmup_slots;
  return post_op(info, bytes, control);
}

void ServeSim::post_recv(int port, std::uint64_t tag,
                         std::uint64_t ignore_mask, std::uint64_t context) {
  OSMOSIS_REQUIRE(port >= 0 && port < cfg_.sw.ports, "bad port " << port);
  TaggedRecv r;
  r.tag = tag;
  r.ignore_mask = ignore_mask;
  r.context = context;
  InboundMsg m;
  if (endpoints_[static_cast<std::size_t>(port)].post_recv(r, &m)) {
    // An unexpected message was already waiting: the receive completes
    // now, at the serving clock, not at the message's arrival slot.
    Completion c;
    c.op_id = m.op_id;
    c.kind = CompletionKind::kRecv;
    c.peer = m.src;
    c.tag = m.tag;
    c.bytes = m.bytes;
    c.slot = slot_;
    c.context = context;
    rx_cqs_[static_cast<std::size_t>(port)].push(c);
  }
}

std::uint64_t ServeSim::rma_write(int src, int dst, std::uint64_t key,
                                  std::uint64_t offset, double bytes,
                                  std::uint64_t context, int tenant,
                                  std::int64_t client) {
  OSMOSIS_REQUIRE(src >= 0 && src < cfg_.sw.ports && dst >= 0 &&
                      dst < cfg_.sw.ports && src != dst,
                  "bad rma ports " << src << " -> " << dst);
  OSMOSIS_REQUIRE(tenant >= 0 && tenant < tenants_, "bad tenant " << tenant);
  OSMOSIS_REQUIRE(bytes > 0.0, "rma_write needs a positive payload");
  ++t_offered_[static_cast<std::size_t>(tenant)];
  const int cells =
      segmenters_[static_cast<std::size_t>(src)].cells_for(bytes);
  if (!admit(tenant, cells)) {
    ++t_shed_[static_cast<std::size_t>(tenant)];
    return 0;
  }
  ++t_accepted_[static_cast<std::size_t>(tenant)];
  ++rma_writes_;
  if (client >= 0) driver_.note_issue(client);
  OpInfo info;
  info.kind = OpKind::kRmaWrite;
  info.src = src;
  info.dst = dst;
  info.tenant = tenant;
  info.client = client;
  info.context = context;
  info.mr_key = key;
  info.mr_offset = offset;
  info.bytes = bytes;
  info.issue_slot = slot_;
  info.counted = slot_ >= cfg_.sw.warmup_slots;
  return post_op(info, bytes, /*control=*/false);
}

std::uint64_t ServeSim::rma_read(int src, int dst, std::uint64_t key,
                                 std::uint64_t offset, double bytes,
                                 std::uint64_t context, int tenant,
                                 std::int64_t client) {
  OSMOSIS_REQUIRE(src >= 0 && src < cfg_.sw.ports && dst >= 0 &&
                      dst < cfg_.sw.ports && src != dst,
                  "bad rma ports " << src << " -> " << dst);
  OSMOSIS_REQUIRE(tenant >= 0 && tenant < tenants_, "bad tenant " << tenant);
  OSMOSIS_REQUIRE(bytes > 0.0, "rma_read needs a positive payload");
  ++t_offered_[static_cast<std::size_t>(tenant)];
  // Fabric footprint of a read: the one-cell control request plus the
  // data response — charged up front at the initiator's tenant bucket.
  const int cells =
      1 + segmenters_[static_cast<std::size_t>(src)].cells_for(bytes);
  if (!admit(tenant, cells)) {
    ++t_shed_[static_cast<std::size_t>(tenant)];
    return 0;
  }
  ++t_accepted_[static_cast<std::size_t>(tenant)];
  ++rma_reads_;
  if (client >= 0) driver_.note_issue(client);
  OpInfo info;
  info.kind = OpKind::kRmaReadReq;
  info.src = src;
  info.dst = dst;
  info.tenant = tenant;
  info.client = client;
  info.context = context;
  info.mr_key = key;
  info.mr_offset = offset;
  info.bytes = bytes;  // bytes requested; the request itself is one cell
  info.issue_slot = slot_;
  info.counted = slot_ >= cfg_.sw.warmup_slots;
  return post_op(info, /*wire_bytes=*/1.0, /*control=*/true);
}

void ServeSim::on_slot() {
  if (cfg_.admission.enabled) admission_.begin_slot();
  if (driver_.active()) {
    // Serving loop: drain completions, keep the wildcard recv pool
    // armed, then admit this slot's open-loop arrivals.
    Completion c;
    for (auto& q : tx_cqs_)
      while (q.pop(c)) ++cq_drained_;
    for (auto& q : rx_cqs_)
      while (q.pop(c)) ++cq_drained_;
    if (slot_ % kRecvRearmEvery == 0) {
      for (int p = 0; p < cfg_.sw.ports; ++p)
        while (endpoints_[static_cast<std::size_t>(p)].posted_recvs() <
               kServerRecvDepth)
          post_recv(p, 0, ~std::uint64_t{0}, 0);
    }
    driver_.poll(slot_, scratch_);
    for (const Request& r : scratch_) issue_request(r);
  }
  ++slot_;
}

void ServeSim::issue_request(const Request& r) {
  const double bytes = kRequestBytes;
  // Tag carries (tenant, client): servers match wildcard, but the tag is
  // what a tenant-scoped receive would key on.
  const std::uint64_t tag =
      (static_cast<std::uint64_t>(r.tenant) << 56) |
      (static_cast<std::uint64_t>(r.client) & 0x00FF'FFFF'FFFF'FFFFULL);
  const std::uint64_t context = static_cast<std::uint64_t>(r.client);
  if (r.rma) {
    const std::uint64_t key =
        port_mr_key_[static_cast<std::size_t>(r.dst)];
    // Deterministic region placement: client-striped, always in bounds.
    const std::uint64_t span =
        kMrBytesPerPort - static_cast<std::uint64_t>(kRequestBytes);
    const std::uint64_t offset =
        (static_cast<std::uint64_t>(r.client) * 4096) % std::max<std::uint64_t>(span, 1);
    if (r.read)
      rma_read(r.src, r.dst, key, offset, bytes, context, r.tenant,
               r.client);
    else
      rma_write(r.src, r.dst, key, offset, bytes, context, r.tenant,
                r.client);
  } else {
    send_tagged(r.src, r.dst, tag, bytes, context, r.tenant,
                /*control=*/false, r.client);
  }
}

void ServeSim::on_delivery(const sw::Cell& cell, std::uint64_t t) {
  if (cell.tag == 0) return;  // not a serving-layer cell
  auto it = ops_.find(cell.tag);
  OSMOSIS_REQUIRE(it != ops_.end(),
                  "delivery for unknown operation " << cell.tag);
  if (--it->second.cells_left > 0) return;
  const OpInfo info = it->second;
  const std::uint64_t op_id = it->first;
  ops_.erase(it);
  settle(op_id, info, t);
}

void ServeSim::settle(std::uint64_t op_id, const OpInfo& info,
                      std::uint64_t t) {
  switch (info.kind) {
    case OpKind::kSend: {
      Completion c;
      c.op_id = op_id;
      c.kind = CompletionKind::kSend;
      c.peer = info.dst;
      c.tag = info.tag;
      c.bytes = info.bytes;
      c.slot = t;
      c.context = info.context;
      tx_cqs_[static_cast<std::size_t>(info.src)].push(c);
      // Receive side: tagged matching at the destination endpoint.
      InboundMsg m;
      m.op_id = op_id;
      m.src = info.src;
      m.tag = info.tag;
      m.bytes = info.bytes;
      m.arrival_slot = t;
      TaggedRecv r;
      if (endpoints_[static_cast<std::size_t>(info.dst)].on_message(m, &r)) {
        Completion rc;
        rc.op_id = op_id;
        rc.kind = CompletionKind::kRecv;
        rc.peer = info.src;
        rc.tag = info.tag;
        rc.bytes = info.bytes;
        rc.slot = t;
        rc.context = r.context;
        rx_cqs_[static_cast<std::size_t>(info.dst)].push(rc);
      }
      record_settled(info, t);
      break;
    }
    case OpKind::kRmaWrite: {
      const RmaVerdict v =
          mr_.check(info.mr_key, info.dst, info.mr_offset, info.bytes);
      if (v == RmaVerdict::kOk)
        mr_.note_write(info.mr_key, info.bytes);
      else
        ++rma_errors_;
      Completion c;
      c.op_id = op_id;
      c.kind = CompletionKind::kRmaWrite;
      c.status = v == RmaVerdict::kOk ? CompletionStatus::kOk
                                      : CompletionStatus::kRmaError;
      c.peer = info.dst;
      c.tag = info.mr_key;
      c.bytes = info.bytes;
      c.slot = t;
      c.context = info.context;
      tx_cqs_[static_cast<std::size_t>(info.src)].push(c);
      record_settled(info, t);
      break;
    }
    case OpKind::kRmaReadReq: {
      const RmaVerdict v =
          mr_.check(info.mr_key, info.dst, info.mr_offset, info.bytes);
      if (v != RmaVerdict::kOk) {
        // Invalid read: error completion straight back to the initiator
        // at the request's arrival slot — no response travels.
        ++rma_errors_;
        Completion c;
        c.op_id = op_id;
        c.kind = CompletionKind::kRmaRead;
        c.status = CompletionStatus::kRmaError;
        c.peer = info.dst;
        c.tag = info.mr_key;
        c.bytes = info.bytes;
        c.slot = t;
        c.context = info.context;
        tx_cqs_[static_cast<std::size_t>(info.src)].push(c);
        record_settled(info, t);
        break;
      }
      mr_.note_read(info.mr_key, info.bytes);
      // Spawn the data response target -> initiator. The read settles
      // when the response's last cell arrives back.
      OpInfo resp = info;
      resp.kind = OpKind::kRmaReadResp;
      resp.src = info.dst;
      resp.dst = info.src;
      resp.parent = op_id;
      post_op(resp, info.bytes, /*control=*/false);
      break;
    }
    case OpKind::kRmaReadResp: {
      Completion c;
      c.op_id = info.parent;
      c.kind = CompletionKind::kRmaRead;
      c.peer = info.src;  // the target that served the read
      c.tag = info.mr_key;
      c.bytes = info.bytes;
      c.slot = t;
      c.context = info.context;
      // The response completes at the initiator, which is this
      // message's destination.
      tx_cqs_[static_cast<std::size_t>(info.dst)].push(c);
      record_settled(info, t);
      break;
    }
  }
}

void ServeSim::record_settled(const OpInfo& info, std::uint64_t t) {
  ++t_delivered_[static_cast<std::size_t>(info.tenant)];
  if (info.client >= 0) driver_.note_complete(info.client);
  if (info.counted) {
    const double cycles = static_cast<double>(t - info.issue_slot) + 1.0;
    latency_.add(cycles);
    t_latency_[static_cast<std::size_t>(info.tenant)].add(cycles);
  }
}

ServeSimResult ServeSim::finalize() {
  ServeSimResult r;
  r.cell_level = sw_->finalize();
  for (int t = 0; t < tenants_; ++t) {
    r.offered += t_offered_[static_cast<std::size_t>(t)];
    r.accepted += t_accepted_[static_cast<std::size_t>(t)];
    r.shed += t_shed_[static_cast<std::size_t>(t)];
    r.delivered += t_delivered_[static_cast<std::size_t>(t)];
  }
  r.sends = sends_;
  r.rma_writes = rma_writes_;
  r.rma_reads = rma_reads_;
  r.rma_errors = rma_errors_;
  for (const auto& q : tx_cqs_) r.cq_overruns += q.overruns();
  for (const auto& q : rx_cqs_) r.cq_overruns += q.overruns();
  r.mean_latency = latency_.mean();
  r.p50_latency = latency_.p50();
  r.p99_latency = latency_.p99();
  r.p999_latency = latency_.p999();
  return r;
}

ServeSimResult ServeSim::run() {
  while (advance_slot()) {
  }
  return finalize();
}

telemetry::ServingReport ServeSim::serving_report() const {
  telemetry::ServingReport s;
  s.arrival =
      driver_.active() ? to_string(cfg_.openloop.arrival) : "manual";
  s.latency = telemetry::HistogramSummary::of(latency_);

  std::uint64_t offered = 0, accepted = 0, delivered = 0, shed = 0;
  for (int t = 0; t < tenants_; ++t) {
    telemetry::ServingTenantRow row;
    row.tenant = t;
    row.offered = t_offered_[static_cast<std::size_t>(t)];
    row.accepted = t_accepted_[static_cast<std::size_t>(t)];
    row.delivered = t_delivered_[static_cast<std::size_t>(t)];
    row.shed = t_shed_[static_cast<std::size_t>(t)];
    row.latency = telemetry::HistogramSummary::of(
        t_latency_[static_cast<std::size_t>(t)]);
    s.tenants.push_back(row);
    offered += row.offered;
    accepted += row.accepted;
    delivered += row.delivered;
    shed += row.shed;
  }

  std::uint64_t cq_pushed = 0, cq_popped = 0, cq_overruns = 0;
  std::size_t cq_peak = 0;
  for (const auto* qs : {&tx_cqs_, &rx_cqs_})
    for (const auto& q : *qs) {
      cq_pushed += q.pushed();
      cq_popped += q.popped();
      cq_overruns += q.overruns();
      cq_peak = std::max(cq_peak, q.peak_depth());
    }
  std::uint64_t recv_matches = 0, unexpected_matches = 0;
  std::size_t unexpected_peak = 0;
  for (const auto& e : endpoints_) {
    recv_matches += e.recv_matches();
    unexpected_matches += e.unexpected_matches();
    unexpected_peak = std::max(unexpected_peak, e.unexpected_peak());
  }

  auto put = [&](const char* k, double v) { s.summary[k] = v; };
  put("clients", static_cast<double>(
                     driver_.active() ? cfg_.openloop.clients : 0));
  put("tenants", static_cast<double>(tenants_));
  put("offered", static_cast<double>(offered));
  put("accepted", static_cast<double>(accepted));
  put("shed", static_cast<double>(shed));
  put("delivered", static_cast<double>(delivered));
  put("inflight", static_cast<double>(accepted - delivered));
  put("sends", static_cast<double>(sends_));
  put("rma_writes", static_cast<double>(rma_writes_));
  put("rma_reads", static_cast<double>(rma_reads_));
  put("rma_errors", static_cast<double>(rma_errors_));
  put("cq_pushed", static_cast<double>(cq_pushed));
  put("cq_popped", static_cast<double>(cq_popped));
  put("cq_overruns", static_cast<double>(cq_overruns));
  put("cq_peak_depth", static_cast<double>(cq_peak));
  put("recv_matches", static_cast<double>(recv_matches));
  put("unexpected_matches", static_cast<double>(unexpected_matches));
  put("unexpected_peak", static_cast<double>(unexpected_peak));
  put("active_clients", static_cast<double>(driver_.active_clients()));
  put("max_outstanding", static_cast<double>(driver_.max_outstanding()));
  put("admission_shed", static_cast<double>(admission_.shed_total()));
  put("mr_regions", static_cast<double>(mr_.size()));
  put("mr_bad_key", static_cast<double>(mr_.bad_key()));
  put("mr_bad_bounds", static_cast<double>(mr_.bad_bounds()));
  return s;
}

template <class Ar>
void ServeSim::io_serving(Ar& a) {
  ckpt::field(a, slot_);
  ckpt::field(a, op_seq_);
  ckpt::field(a, ops_);
  // The per-port vectors are fixed-size and their elements carry
  // construction-time shape (segmenter cell size, CQ capacity, histogram
  // bins), so they serialize element-wise over the already-constructed
  // objects instead of through the archive's generic vector path (which
  // default-constructs elements on load).
  for (auto& s : segmenters_) ckpt::field(a, s);
  for (auto& e : endpoints_) ckpt::field(a, e);
  for (auto& q : tx_cqs_) ckpt::field(a, q);
  for (auto& q : rx_cqs_) ckpt::field(a, q);
  ckpt::field(a, mr_);
  ckpt::field(a, port_mr_key_);
  ckpt::field(a, admission_);
  ckpt::field(a, driver_);
  ckpt::field(a, t_offered_);
  ckpt::field(a, t_accepted_);
  ckpt::field(a, t_delivered_);
  ckpt::field(a, t_shed_);
  for (auto& h : t_latency_) ckpt::field(a, h);
  ckpt::field(a, latency_);
  ckpt::field(a, sends_);
  ckpt::field(a, rma_writes_);
  ckpt::field(a, rma_reads_);
  ckpt::field(a, rma_errors_);
  ckpt::field(a, cq_drained_);
  if constexpr (Ar::kLoading) {
    if (t_offered_.size() != static_cast<std::size_t>(tenants_) ||
        port_mr_key_.size() > segmenters_.size())
      throw ckpt::Error(
          "serving checkpoint does not match this ServeSim's geometry");
  }
}

template void ServeSim::io_serving<ckpt::Sink>(ckpt::Sink&);
template void ServeSim::io_serving<ckpt::Source>(ckpt::Source&);

telemetry::RunReport ServeSim::report() const {
  telemetry::RunReport r = sw_->report();
  r.config["serving.clients"] = static_cast<double>(
      driver_.active() ? cfg_.openloop.clients : 0);
  r.config["serving.tenants"] = static_cast<double>(tenants_);
  r.config["serving.cq_capacity"] = static_cast<double>(cfg_.cq_capacity);
  r.config["serving.request_bytes"] = kRequestBytes;
  r.config["serving.admission"] = cfg_.admission.enabled ? 1.0 : 0.0;
  if (driver_.active()) r.config["serving.load"] = cfg_.openloop.load;
  r.histograms["serving.latency"] =
      telemetry::HistogramSummary::of(latency_);
  r.serving = serving_report();
  return r;
}

}  // namespace osmosis::api

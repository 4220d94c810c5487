#pragma once
// ServeSim: the libfabric-flavored serving front-end over the OSMOSIS
// switch (DESIGN.md §14). Wires per-port Endpoints, bounded completion
// queues, the MemoryRegion registry, and per-port Segmenters onto one
// sw::SwitchSim, and optionally drives the whole thing from an open-loop
// client population (api::OpenLoopDriver) with per-tenant token-bucket
// admission at the source.
//
// Operation model (all latencies in cell slots, issue -> settlement):
//   send_tagged  — message src -> dst; tx completion at last-cell
//                  delivery; rx side runs tagged matching (posted-recv
//                  FIFO first, else the unexpected queue).
//   rma_write    — data message carrying (key, offset); validated
//                  against the MR registry at the target on arrival;
//                  initiator completion (ok or error) at that slot.
//   rma_read     — one-cell control request to the target; a valid MR
//                  spawns the data response back to the initiator, whose
//                  last-cell arrival completes the read. MR violations
//                  complete immediately with kRmaError.
//
// Determinism & checkpointing: every queue is a FIFO, the only RNG lives
// in the open-loop driver, and all serving state (op table, segmenters,
// endpoints, CQs, MRs, ledgers, driver) serializes through the switch's
// "switch.traffic" checkpoint chunk — so the campaign runner's existing
// save/resume machinery covers serving jobs unchanged, and a resumed run
// reproduces the uninterrupted report byte for byte.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/api/completion.hpp"
#include "src/api/endpoint.hpp"
#include "src/api/memory.hpp"
#include "src/api/openloop.hpp"
#include "src/ckpt/ckpt.hpp"
#include "src/host/admission.hpp"
#include "src/host/message.hpp"
#include "src/sim/stats.hpp"
#include "src/sw/switch_sim.hpp"
#include "src/telemetry/run_report.hpp"

namespace osmosis::api {

struct ServeSimConfig {
  sw::SwitchSimConfig sw;  // on_delivery must be unset (ServeSim owns it)
  std::size_t cq_capacity = 1024;
  std::uint64_t seed = 1;  // open-loop driver RNG
  OpenLoopConfig openloop;  // clients == 0: manual API only
  // Per-tenant serving admission: margin_pct % of total port capacity,
  // split evenly across tenants, as each tenant's token-bucket rate.
  host::AdmissionConfig admission;
};

struct ServeSimResult {
  sw::SwitchSimResult cell_level;
  std::uint64_t offered = 0;    // requests generated (or API calls made)
  std::uint64_t accepted = 0;   // admitted into a segmenter
  std::uint64_t shed = 0;       // rejected by admission (offered-accepted)
  std::uint64_t delivered = 0;  // settled (completion generated)
  std::uint64_t sends = 0;
  std::uint64_t rma_writes = 0;
  std::uint64_t rma_reads = 0;
  std::uint64_t rma_errors = 0;
  std::uint64_t cq_overruns = 0;
  // End-to-end request latency in cell slots (measured window only).
  double mean_latency = 0.0;
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double p999_latency = 0.0;
};

class ServeSim {
 public:
  explicit ServeSim(ServeSimConfig cfg);

  // ---- data-transfer API (usable directly by tests; the open-loop
  // driver funnels through the same calls) -----------------------------
  // All return the operation id (> 0), or 0 when admission shed the
  // request. `tenant` attributes the work; `client` (when >= 0) ties the
  // op to an open-loop client for outstanding-window accounting.

  std::uint64_t send_tagged(int src, int dst, std::uint64_t tag,
                            double bytes, std::uint64_t context = 0,
                            int tenant = 0, bool control = false,
                            std::int64_t client = -1);
  void post_recv(int port, std::uint64_t tag, std::uint64_t ignore_mask,
                 std::uint64_t context = 0);
  std::uint64_t register_mr(int port, std::uint64_t length) {
    return mr_.register_region(port, length);
  }
  std::uint64_t rma_write(int src, int dst, std::uint64_t key,
                          std::uint64_t offset, double bytes,
                          std::uint64_t context = 0, int tenant = 0,
                          std::int64_t client = -1);
  std::uint64_t rma_read(int src, int dst, std::uint64_t key,
                         std::uint64_t offset, double bytes,
                         std::uint64_t context = 0, int tenant = 0,
                         std::int64_t client = -1);

  Endpoint& endpoint(int port) {
    return endpoints_[static_cast<std::size_t>(port)];
  }
  CompletionQueue& tx_cq(int port) {
    return tx_cqs_[static_cast<std::size_t>(port)];
  }
  CompletionQueue& rx_cq(int port) {
    return rx_cqs_[static_cast<std::size_t>(port)];
  }
  MemoryRegistry& memory() { return mr_; }
  const OpenLoopDriver& driver() const { return driver_; }
  host::AdmissionControl& admission() { return admission_; }
  int tenants() const { return tenants_; }
  std::size_t ops_in_flight() const { return ops_.size(); }

  // ---- run loop (mirrors sw::SwitchSim) -------------------------------
  bool advance_slot() { return sw_->advance_slot(); }
  ServeSimResult finalize();
  ServeSimResult run();
  std::uint64_t current_slot() const { return sw_->current_slot(); }

  /// osmosis.ckpt.v1: serving state rides inside the switch's
  /// "switch.traffic" chunk. Load expects a ServeSim freshly built from
  /// the same config.
  void save_state(ckpt::Writer& w) const { sw_->save_state(w); }
  void load_state(const ckpt::Reader& r) { sw_->load_state(r); }

  /// Switch report plus the "serving" section (per-tenant ledgers,
  /// latency tails) and a "serving.latency" histogram entry.
  telemetry::RunReport report() const;
  telemetry::ServingReport serving_report() const;
  const sim::Histogram& latency_histogram() const { return latency_; }

  sw::SwitchSim& switch_sim() { return *sw_; }

 private:
  class Source;

  enum class OpKind : std::uint8_t {
    kSend = 0,
    kRmaWrite = 1,
    kRmaReadReq = 2,   // initiator -> target control request
    kRmaReadResp = 3,  // target -> initiator data response
  };

  struct OpInfo {
    OpKind kind = OpKind::kSend;
    int src = -1;  // message direction (response ops travel target ->
    int dst = -1;  // initiator, so dst is the completing port there)
    int tenant = 0;
    std::int64_t client = -1;
    std::uint64_t tag = 0;
    std::uint64_t context = 0;
    std::uint64_t mr_key = 0;
    std::uint64_t mr_offset = 0;
    double bytes = 0.0;
    int cells_left = 0;
    std::uint64_t issue_slot = 0;  // original request's issue slot
    std::uint64_t parent = 0;      // read response -> request op id
    bool counted = false;          // issued inside the measured window

    template <class Ar>
    void io_state(Ar& a) {
      ckpt::field(a, kind);
      ckpt::field(a, src);
      ckpt::field(a, dst);
      ckpt::field(a, tenant);
      ckpt::field(a, client);
      ckpt::field(a, tag);
      ckpt::field(a, context);
      ckpt::field(a, mr_key);
      ckpt::field(a, mr_offset);
      ckpt::field(a, bytes);
      ckpt::field(a, cells_left);
      ckpt::field(a, issue_slot);
      ckpt::field(a, parent);
      ckpt::field(a, counted);
    }
  };

  void on_slot();  // serving-layer clock tick (slot_)
  void on_delivery(const sw::Cell& cell, std::uint64_t t);
  void settle(std::uint64_t op_id, const OpInfo& info, std::uint64_t t);
  void record_settled(const OpInfo& info, std::uint64_t t);
  void issue_request(const Request& r);
  std::uint64_t post_op(OpInfo info, double wire_bytes, bool control);
  bool admit(int tenant, int cells);

  template <class Ar>
  void io_serving(Ar& a);

  ServeSimConfig cfg_;
  int tenants_ = 1;
  int cells_per_request_ = 1;
  std::vector<host::Segmenter> segmenters_;  // per port
  std::vector<Endpoint> endpoints_;          // per port
  std::vector<CompletionQueue> tx_cqs_;      // per port
  std::vector<CompletionQueue> rx_cqs_;      // per port
  MemoryRegistry mr_;
  OpenLoopDriver driver_;
  host::AdmissionControl admission_;
  std::vector<std::uint64_t> port_mr_key_;  // driver-mode MR per port
  std::map<std::uint64_t, OpInfo> ops_;     // in flight, by op id
  std::uint64_t op_seq_ = 1;
  std::uint64_t slot_ = 0;  // serving clock: slots on_slot() has run
  std::vector<Request> scratch_;

  // Ledgers (whole run, all phases; latency is measured-window only).
  std::vector<std::uint64_t> t_offered_;
  std::vector<std::uint64_t> t_accepted_;
  std::vector<std::uint64_t> t_delivered_;
  std::vector<std::uint64_t> t_shed_;
  std::vector<sim::Histogram> t_latency_;
  sim::Histogram latency_;
  std::uint64_t sends_ = 0;
  std::uint64_t rma_writes_ = 0;
  std::uint64_t rma_reads_ = 0;
  std::uint64_t rma_errors_ = 0;
  std::uint64_t cq_drained_ = 0;  // entries popped by the driver loop

  std::unique_ptr<sw::SwitchSim> sw_;
};

}  // namespace osmosis::api

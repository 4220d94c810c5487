// In-repo schema checker for the observability artifacts (DESIGN.md
// §11), used by scripts/check.sh and runnable by hand:
//
//   schema_check --trace=<chrome_trace.json>
//       Valid JSON, every event carries ph/pid/tid, timestamps are
//       globally nondecreasing, B/E duration events nest and balance per
//       (pid, tid) track, async b/e events balance per (pid, cat, id).
//
//   schema_check --perf=<BENCH_perf.json> [--baseline=<path>]
//       osmosis.bench_perf.v1 shape: build provenance, profiler-cost
//       block under its bound, positive slots/sec and cells/sec for
//       every row. With --baseline, the (sim, ports) row set must match
//       the committed baseline — a vanished simulator or size fails CI
//       even though raw rates are machine-dependent and never compared.
//
//   schema_check --report=<run_report.json> [--need-profile]
//                [--need-timeseries] [--need-availability] [--need-serving]
//                [--need-topology]
//       osmosis.run_report.v1 shape, optionally requiring the "profile",
//       "timeseries", "availability", "serving", and "topology" sections
//       to be present and well formed. "availability" and "serving" are shape-
//       and invariant-checked whenever present, required only under
//       their --need flags. Serving checks: per-tenant rows sum to the
//       summary, offered == accepted + shed >= delivered, and every
//       latency summary's quantile ladder (min <= p50 <= p99 <= p999
//       [<= p9999] <= max) is monotone. Histogram summaries in the main
//       "histograms" map get the same ladder check.
//
//   schema_check --micro=<bench_micro.json>
//       google-benchmark JSON from bench_micro: asserts the disabled
//       OSMOSIS_PROF_SCOPE (BM_ProfScopeDisabled) costs < 2% of a
//       16-port SwitchSim slot (BM_SwitchSimRun/0, 1100 slots/iter).
//
//   schema_check --campaign=<campaign.json>
//       osmosis.campaign.v1 shape: campaign seed, per-job rows with
//       index/label/seed/ok/attempts, an aggregate block whose job and
//       failure counts agree with the rows, and a consistent quarantine
//       view — every quarantined row appears in the top-level
//       "quarantine" section and vice versa, with a known class.
//
//   schema_check --repro=<repro.json>
//       osmosis.repro.v1 shape (DESIGN.md §12): 64-bit seeds as decimal
//       strings, a known simulator/scheduler/defect, a non-degenerate
//       slot horizon, well-formed fault events, and an expected-verdict
//       block naming an invariant whenever a violation is recorded.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/telemetry/json.hpp"
#include "src/util/cli.hpp"

using namespace osmosis;
using telemetry::JsonValue;

namespace {

int fail(const std::string& msg) {
  std::cerr << "schema_check: FAIL: " << msg << "\n";
  return 1;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// ---- Chrome trace ---------------------------------------------------------

int check_trace(const JsonValue& doc) {
  if (!doc.has("traceEvents") || !doc.at("traceEvents").is_array())
    return fail("trace: missing traceEvents array");
  const auto& events = doc.at("traceEvents").array;
  if (events.empty()) return fail("trace: traceEvents is empty");

  // Duration-event stacks per (pid, tid); async open-counts per
  // (pid, cat, id).
  std::map<std::pair<int, int>, std::vector<std::string>> stacks;
  std::map<std::tuple<int, std::string, std::uint64_t>, int> async_open;
  double last_ts = 0.0;
  bool have_ts = false;
  std::size_t timed = 0;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events[i];
    const std::string where = "trace event " + std::to_string(i);
    if (!e.is_object()) return fail(where + ": not an object");
    if (!e.has("ph") || !e.at("ph").is_string() || e.at("ph").str.size() != 1)
      return fail(where + ": missing one-char ph");
    const char ph = e.at("ph").str[0];
    if (std::string("MBEbeCiX").find(ph) == std::string::npos)
      return fail(where + ": unknown ph '" + e.at("ph").str + "'");
    if (!e.has("pid") || !e.at("pid").is_number())
      return fail(where + ": missing pid");
    const int pid = static_cast<int>(e.at("pid").number);
    const int tid =
        e.has("tid") ? static_cast<int>(e.at("tid").number) : 0;
    if (ph == 'M') continue;  // metadata carries no timestamp
    if (!e.has("tid")) return fail(where + ": missing tid");
    if (!e.has("ts") || !e.at("ts").is_number())
      return fail(where + ": missing ts");
    const double ts = e.at("ts").number;
    if (have_ts && ts < last_ts)
      return fail(where + ": ts decreases (" + telemetry::json_number(ts) +
                  " after " + telemetry::json_number(last_ts) + ")");
    last_ts = ts;
    have_ts = true;
    ++timed;

    if (ph == 'B' || ph == 'b') {
      if (!e.has("name") || !e.at("name").is_string())
        return fail(where + ": begin event without a name");
    }
    if (ph == 'B') {
      stacks[{pid, tid}].push_back(e.at("name").str);
    } else if (ph == 'E') {
      auto& stack = stacks[{pid, tid}];
      if (stack.empty())
        return fail(where + ": E with no open B on its track");
      const std::string open = stack.back();
      stack.pop_back();
      if (e.has("name") && e.at("name").str != open)
        return fail(where + ": E for '" + e.at("name").str +
                    "' but innermost open span is '" + open + "'");
    } else if (ph == 'b' || ph == 'e') {
      if (!e.has("cat") || !e.has("id"))
        return fail(where + ": async event without cat/id");
      const auto key = std::make_tuple(
          pid, e.at("cat").str,
          static_cast<std::uint64_t>(e.at("id").number));
      if (ph == 'b') {
        ++async_open[key];
      } else {
        auto it = async_open.find(key);
        if (it == async_open.end() || it->second == 0)
          return fail(where + ": async e with no matching b");
        --it->second;
      }
    }
  }

  for (const auto& [track, stack] : stacks)
    if (!stack.empty())
      return fail("trace: track pid=" + std::to_string(track.first) +
                  " tid=" + std::to_string(track.second) + " ends with '" +
                  stack.back() + "' still open");
  for (const auto& [key, open] : async_open)
    if (open != 0)
      return fail("trace: async id " + std::to_string(std::get<2>(key)) +
                  " in cat '" + std::get<1>(key) + "' never closed");

  std::cout << "trace OK: " << events.size() << " events (" << timed
            << " timed), all tracks balanced, ts nondecreasing\n";
  return 0;
}

// ---- BENCH_perf -----------------------------------------------------------

int check_perf(const JsonValue& doc, const JsonValue* baseline) {
  if (!doc.has("schema") || doc.at("schema").str != "osmosis.bench_perf.v1")
    return fail("perf: schema is not osmosis.bench_perf.v1");
  if (!doc.has("meta") || !doc.at("meta").has("build"))
    return fail("perf: missing meta.build provenance");
  const JsonValue& build = doc.at("meta").at("build");
  for (const char* key : {"build_type", "compiler", "git_sha"})
    if (!build.has(key))
      return fail(std::string("perf: meta.build missing ") + key);

  if (!doc.has("profiler")) return fail("perf: missing profiler block");
  const JsonValue& prof = doc.at("profiler");
  for (const char* key :
       {"disabled_scope_ns", "enabled_scope_ns", "disabled_overhead_frac",
        "bound"})
    if (!prof.has(key) || !prof.at(key).is_number())
      return fail(std::string("perf: profiler block missing ") + key);
  if (prof.at("disabled_overhead_frac").number >= prof.at("bound").number)
    return fail("perf: disabled-profiler overhead " +
                telemetry::json_number(
                    prof.at("disabled_overhead_frac").number) +
                " exceeds bound " +
                telemetry::json_number(prof.at("bound").number));

  if (!doc.has("sims") || !doc.at("sims").is_array() ||
      doc.at("sims").array.empty())
    return fail("perf: missing sims rows");
  std::set<std::string> sims_seen;
  std::set<std::pair<std::string, int>> keys;
  for (const JsonValue& row : doc.at("sims").array) {
    for (const char* key : {"sim", "ports", "slots", "cells", "wall_ms",
                            "slots_per_sec", "cells_per_sec",
                            "telemetry_overhead"})
      if (!row.has(key))
        return fail(std::string("perf: sims row missing ") + key);
    const std::string sim = row.at("sim").str;
    if (row.at("slots_per_sec").number <= 0.0 ||
        row.at("cells_per_sec").number <= 0.0)
      return fail("perf: " + sim + " row has a non-positive rate");
    sims_seen.insert(sim);
    keys.insert({sim, static_cast<int>(row.at("ports").number)});
  }
  for (const char* sim : {"switch", "event", "fabric", "multiplane"})
    if (sims_seen.count(sim) == 0)
      return fail(std::string("perf: simulator '") + sim + "' has no rows");

  if (baseline) {
    std::set<std::pair<std::string, int>> base_keys;
    for (const JsonValue& row : baseline->at("sims").array)
      base_keys.insert(
          {row.at("sim").str, static_cast<int>(row.at("ports").number)});
    if (keys != base_keys)
      return fail("perf: (sim, ports) row set differs from the baseline");
    if (doc.at("mode").str != baseline->at("mode").str)
      return fail("perf: mode differs from the baseline");
  }

  std::cout << "perf OK: " << doc.at("sims").array.size()
            << " rows over 4 simulators, overhead "
            << telemetry::json_number(
                   prof.at("disabled_overhead_frac").number * 100.0)
            << "% < bound\n";
  return 0;
}

// ---- RunReport ------------------------------------------------------------

// Histogram summaries in reports carry the full quantile ladder; empty
// histograms export zeros (vacuously monotone). Returns "" when valid.
std::string hist_summary_errors(const JsonValue& h, const std::string& name) {
  for (const char* key : {"count", "mean", "min", "p50", "p99", "p999",
                          "max"})
    if (!h.has(key) || !h.at(key).is_number())
      return "histogram '" + name + "' missing " + key;
  const double mn = h.at("min").number;
  const double mx = h.at("max").number;
  const double p50 = h.at("p50").number;
  const double p99 = h.at("p99").number;
  const double p999 = h.at("p999").number;
  if (h.at("count").number > 0.0) {
    if (!(mn <= p50 && p50 <= p99 && p99 <= p999 && p999 <= mx))
      return "histogram '" + name +
             "' quantiles not monotone (min <= p50 <= p99 <= p999 <= max)";
    if (h.has("p9999")) {
      const double p9999 = h.at("p9999").number;
      if (!(p999 <= p9999 && p9999 <= mx))
        return "histogram '" + name + "' p9999 outside [p999, max]";
    }
  }
  return "";
}

int check_serving(const JsonValue& sv) {
  for (const char* key : {"arrival", "summary", "latency", "tenants"})
    if (!sv.has(key))
      return fail(std::string("report: serving missing ") + key);
  if (!sv.at("arrival").is_string())
    return fail("report: serving.arrival is not a string");
  const JsonValue& sum = sv.at("summary");
  if (!sum.is_object())
    return fail("report: serving.summary is not an object");
  for (const char* key :
       {"offered", "accepted", "shed", "delivered", "inflight", "tenants"})
    if (!sum.has(key) || !sum.at(key).is_number())
      return fail(std::string("report: serving.summary missing ") + key);
  const double offered = sum.at("offered").number;
  const double accepted = sum.at("accepted").number;
  const double shed = sum.at("shed").number;
  const double delivered = sum.at("delivered").number;
  if (offered != accepted + shed)
    return fail("report: serving offered != accepted + shed "
                "(requests unaccounted for)");
  if (!(offered >= accepted && accepted >= delivered))
    return fail("report: serving ledger not monotone "
                "(offered >= accepted >= delivered)");
  if (sum.at("inflight").number != accepted - delivered)
    return fail("report: serving inflight != accepted - delivered");

  std::string err = hist_summary_errors(sv.at("latency"), "serving.latency");
  if (!err.empty()) return fail("report: " + err);

  if (!sv.at("tenants").is_array() || sv.at("tenants").array.empty())
    return fail("report: serving.tenants rows absent");
  if (sv.at("tenants").array.size() !=
      static_cast<std::size_t>(sum.at("tenants").number))
    return fail("report: serving tenant row count != summary.tenants");
  double t_offered = 0.0, t_accepted = 0.0, t_delivered = 0.0, t_shed = 0.0;
  for (std::size_t i = 0; i < sv.at("tenants").array.size(); ++i) {
    const JsonValue& row = sv.at("tenants").array[i];
    const std::string where = "report: serving tenant " + std::to_string(i);
    for (const char* key :
         {"tenant", "offered", "accepted", "delivered", "shed", "latency"})
      if (!row.has(key)) return fail(where + " missing " + key);
    if (static_cast<std::size_t>(row.at("tenant").number) != i)
      return fail(where + " out of order");
    if (!(row.at("offered").number >= row.at("accepted").number &&
          row.at("accepted").number >= row.at("delivered").number))
      return fail(where + " ledger not monotone");
    err = hist_summary_errors(row.at("latency"),
                              "tenant " + std::to_string(i) + " latency");
    if (!err.empty()) return fail("report: " + err);
    t_offered += row.at("offered").number;
    t_accepted += row.at("accepted").number;
    t_delivered += row.at("delivered").number;
    t_shed += row.at("shed").number;
  }
  if (t_offered != offered || t_accepted != accepted ||
      t_delivered != delivered || t_shed != shed)
    return fail("report: serving tenant rows do not sum to the summary");
  return 0;
}

int check_report(const JsonValue& doc, bool need_profile,
                 bool need_timeseries, bool need_availability,
                 bool need_serving, bool need_topology) {
  if (!doc.has("schema") || doc.at("schema").str != "osmosis.run_report.v1")
    return fail("report: schema is not osmosis.run_report.v1");
  for (const char* key :
       {"sim", "time_unit", "config", "info", "counters", "histograms",
        "health"})
    if (!doc.has(key))
      return fail(std::string("report: missing ") + key);
  // Every exported histogram summary carries the full quantile ladder
  // (p999 always; p9999 when the sample count supports it) and the
  // quantiles are monotone.
  for (const auto& [hname, h] : doc.at("histograms").object) {
    const std::string err = hist_summary_errors(h, hname);
    if (!err.empty()) return fail("report: " + err);
  }
  // Availability/SLO section: validated whenever present, required under
  // --need-availability (the graceful-degradation benches).
  if (need_availability && !doc.has("availability"))
    return fail("report: availability section required but absent");
  if (doc.has("availability")) {
    const JsonValue& av = doc.at("availability");
    if (!av.is_object() || av.object.empty())
      return fail("report: availability must be a non-empty object");
    for (const char* key :
         {"measured_slots", "brownout_slots", "brownout_fraction",
          "capacity_fraction_min", "throughput_pre", "throughput_degraded",
          "throughput_post", "min_window_throughput", "offered_cells",
          "delivered_cells", "shed_cells", "shed_fraction",
          "delivered_fraction", "recoveries"})
      if (!av.has(key))
        return fail(std::string("report: availability missing ") + key);
    for (const char* frac : {"brownout_fraction", "capacity_fraction_min",
                             "shed_fraction", "delivered_fraction"}) {
      const double v = av.at(frac).number;
      if (v < 0.0 || v > 1.0)
        return fail(std::string("report: availability ") + frac +
                    " outside [0, 1]");
    }
    if (av.at("brownout_slots").number > av.at("measured_slots").number)
      return fail("report: availability brownout_slots > measured_slots");
    if (av.at("delivered_cells").number + av.at("shed_cells").number <
        av.at("offered_cells").number)
      return fail("report: availability delivered + shed < offered "
                  "(cells unaccounted for)");
  }
  if (need_profile) {
    if (!doc.has("profile") || !doc.at("profile").is_object() ||
        doc.at("profile").object.empty())
      return fail("report: profile section required but absent/empty");
    for (const auto& [phase, stats] : doc.at("profile").object)
      for (const char* key : {"count", "total_ns", "mean_ns", "max_ns"})
        if (!stats.has(key))
          return fail("report: profile phase '" + phase + "' missing " + key);
  }
  // Serving section: validated whenever present, required under
  // --need-serving (bench_serve reports).
  if (need_serving && !doc.has("serving"))
    return fail("report: serving section required but absent");
  if (doc.has("serving")) {
    if (!doc.at("serving").is_object())
      return fail("report: serving is not an object");
    const int rc = check_serving(doc.at("serving"));
    if (rc != 0) return rc;
  }
  // Topology section (TopoSim reports): a flat map of numbers carrying
  // the graph shape plus per-stage wait/occupancy rows. Validated
  // whenever present, required under --need-topology.
  if (need_topology && !doc.has("topology"))
    return fail("report: topology section required but absent");
  if (doc.has("topology")) {
    const JsonValue& tp = doc.at("topology");
    if (!tp.is_object() || tp.object.empty())
      return fail("report: topology must be a non-empty object");
    for (const char* key : {"stages", "diameter", "switches", "hosts"})
      if (!tp.has(key) || !tp.at(key).is_number())
        return fail(std::string("report: topology missing ") + key);
    for (const auto& [key, v] : tp.object)
      if (!v.is_number())
        return fail("report: topology." + key + " is not a number");
    const double stages = tp.at("stages").number;
    if (stages < 1.0) return fail("report: topology.stages < 1");
    if (tp.at("diameter").number < stages)
      return fail("report: topology.diameter < stages");
    // Every traversed stage exports its queueing-wait and peak-occupancy
    // rows; a missing row means the per-stage attribution broke. A folded
    // fat tree (the section carries "levels") indexes its rows by level,
    // since a path crosses each level below the top twice.
    const double rows = tp.has("levels") ? tp.at("levels").number : stages;
    for (int s = 1; s <= static_cast<int>(rows); ++s) {
      const std::string base = "stage." + std::to_string(s) + ".";
      for (const char* suffix : {"wait_mean", "occ_max"})
        if (!tp.has(base + suffix))
          return fail("report: topology missing " + base + suffix);
    }
  }
  if (need_timeseries) {
    if (!doc.has("timeseries"))
      return fail("report: timeseries section required but absent");
    const JsonValue& ts = doc.at("timeseries");
    for (const char* key : {"every_slots", "channels", "slots", "values"})
      if (!ts.has(key))
        return fail(std::string("report: timeseries missing ") + key);
    const std::size_t rows = ts.at("slots").array.size();
    if (rows == 0) return fail("report: timeseries has no rows");
    if (ts.at("values").array.size() != rows)
      return fail("report: timeseries values/slots row mismatch");
    const std::size_t nch = ts.at("channels").array.size();
    for (const JsonValue& row : ts.at("values").array)
      if (row.array.size() != nch)
        return fail("report: timeseries row width != channel count");
  }
  std::cout << "report OK: sim=" << doc.at("sim").str
            << (need_profile ? ", profile present" : "")
            << (need_timeseries ? ", timeseries present" : "")
            << (doc.has("availability") ? ", availability present" : "")
            << (doc.has("serving") ? ", serving present" : "")
            << (doc.has("topology") ? ", topology present" : "") << "\n";
  return 0;
}

// ---- bench_micro ----------------------------------------------------------

int check_micro(const JsonValue& doc) {
  if (!doc.has("benchmarks") || !doc.at("benchmarks").is_array())
    return fail("micro: missing benchmarks array");
  double disabled_ns = -1.0;
  double run_ns = -1.0;
  for (const JsonValue& b : doc.at("benchmarks").array) {
    if (!b.has("name") || !b.has("real_time")) continue;
    const std::string& name = b.at("name").str;
    if (b.has("time_unit") && b.at("time_unit").str != "ns")
      return fail("micro: " + name + " not reported in ns");
    if (name == "BM_ProfScopeDisabled") disabled_ns = b.at("real_time").number;
    if (name == "BM_SwitchSimRun/0") run_ns = b.at("real_time").number;
  }
  if (disabled_ns < 0.0) return fail("micro: BM_ProfScopeDisabled not found");
  if (run_ns < 0.0) return fail("micro: BM_SwitchSimRun/0 not found");
  // BM_SwitchSimRun/0 executes 1100 slots (100 warmup + 1000 measured)
  // of a 16-port switch per iteration; ~8 scopes guard each slot.
  const double slot_ns = run_ns / 1100.0;
  const double frac = disabled_ns * 8.0 / slot_ns;
  if (frac >= 0.02)
    return fail("micro: disabled scope costs " +
                telemetry::json_number(disabled_ns) + " ns = " +
                telemetry::json_number(frac * 100.0) +
                "% of a slot (bound 2%)");
  std::cout << "micro OK: disabled scope " << disabled_ns << " ns, "
            << telemetry::json_number(frac * 100.0)
            << "% of a 16-port slot (< 2%)\n";
  return 0;
}

// ---- campaign -------------------------------------------------------------

int check_campaign(const JsonValue& doc) {
  if (!doc.has("schema") || doc.at("schema").str != "osmosis.campaign.v1")
    return fail("campaign: schema is not osmosis.campaign.v1");
  if (!doc.has("name") || !doc.at("name").is_string())
    return fail("campaign: missing name");
  if (!doc.has("campaign_seed") || !doc.at("campaign_seed").is_string() ||
      doc.at("campaign_seed").str.rfind("0x", 0) != 0)
    return fail("campaign: campaign_seed is not an 0x-prefixed string");

  if (!doc.has("jobs") || !doc.at("jobs").is_array() ||
      doc.at("jobs").array.empty())
    return fail("campaign: missing jobs rows");
  const auto& jobs = doc.at("jobs").array;
  std::size_t failed = 0;
  std::set<std::size_t> quarantined_rows;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JsonValue& j = jobs[i];
    const std::string where = "campaign job " + std::to_string(i);
    for (const char* key : {"index", "label", "seed", "ok", "attempts"})
      if (!j.has(key)) return fail(where + ": missing " + key);
    if (static_cast<std::size_t>(j.at("index").number) != i)
      return fail(where + ": index out of order");
    if (j.at("attempts").number < 1.0)
      return fail(where + ": attempts < 1");
    const bool ok = j.at("ok").boolean;
    if (!ok) ++failed;
    if (ok && j.has("metrics") && !j.at("metrics").is_object())
      return fail(where + ": metrics is not an object");
    const bool quarantined =
        j.has("quarantined") && j.at("quarantined").boolean;
    if (quarantined) {
      if (ok) return fail(where + ": quarantined but ok");
      quarantined_rows.insert(i);
    }
    if (j.has("failure_class")) {
      const std::string& cls = j.at("failure_class").str;
      if (cls != "deterministic" && cls != "transient" && cls != "timeout")
        return fail(where + ": unknown failure_class '" + cls + "'");
      if ((cls != "transient") != quarantined)
        return fail(where + ": failure_class '" + cls +
                    "' disagrees with quarantined flag");
    } else if (quarantined) {
      return fail(where + ": quarantined without a failure_class");
    }
  }

  if (!doc.has("aggregate") || !doc.at("aggregate").is_object())
    return fail("campaign: missing aggregate block");
  const JsonValue& agg = doc.at("aggregate");
  for (const char* key : {"jobs", "failed", "counters", "histograms"})
    if (!agg.has(key))
      return fail(std::string("campaign: aggregate missing ") + key);
  if (static_cast<std::size_t>(agg.at("jobs").number) != jobs.size())
    return fail("campaign: aggregate.jobs != row count");
  if (static_cast<std::size_t>(agg.at("failed").number) != failed)
    return fail("campaign: aggregate.failed disagrees with rows (" +
                std::to_string(failed) + " rows not ok)");

  // The quarantine section and the per-job flags must be the same set.
  std::set<std::size_t> section_rows;
  if (doc.has("quarantine")) {
    if (!doc.at("quarantine").is_array())
      return fail("campaign: quarantine is not an array");
    for (const JsonValue& q : doc.at("quarantine").array) {
      for (const char* key : {"index", "label", "class", "error"})
        if (!q.has(key))
          return fail(std::string("campaign: quarantine entry missing ") +
                      key);
      section_rows.insert(static_cast<std::size_t>(q.at("index").number));
    }
  }
  if (section_rows != quarantined_rows)
    return fail("campaign: quarantine section does not match the "
                "quarantined job rows");

  std::cout << "campaign OK: " << jobs.size() << " jobs, " << failed
            << " failed, " << quarantined_rows.size() << " quarantined\n";
  return 0;
}

// ---- repro ----------------------------------------------------------------

bool is_decimal_string(const JsonValue& v) {
  if (!v.is_string() || v.str.empty()) return false;
  for (char c : v.str)
    if (c < '0' || c > '9') return false;
  return true;
}

int check_repro(const JsonValue& doc) {
  if (!doc.has("format") || doc.at("format").str != "osmosis.repro.v1")
    return fail("repro: format is not osmosis.repro.v1");
  for (const char* key : {"campaign_seed", "seed", "fault_seed"})
    if (!doc.has(key) || !is_decimal_string(doc.at(key)))
      return fail(std::string("repro: ") + key +
                  " is not a decimal string (JSON numbers are doubles and "
                  "would round 64-bit seeds)");

  if (!doc.has("sim") || !doc.at("sim").is_string())
    return fail("repro: missing sim");
  const std::string& sim = doc.at("sim").str;
  if (sim != "switch" && sim != "event-switch" && sim != "fabric" &&
      sim != "multiplane" && sim != "topo")
    return fail("repro: unknown sim '" + sim + "'");
  static const std::set<std::string> kSchedulers = {
      "islip", "pim", "pislip", "flppr", "tdm", "wfa"};
  if (!doc.has("scheduler") || kSchedulers.count(doc.at("scheduler").str) == 0)
    return fail("repro: unknown scheduler");

  for (const char* key : {"ports", "planes", "receivers", "load",
                          "mean_burst", "warmup_slots", "measure_slots",
                          "drain_max_slots", "deadlock_slots",
                          "defect_period"})
    if (!doc.has(key) || !doc.at(key).is_number())
      return fail(std::string("repro: missing numeric ") + key);
  if (doc.at("ports").number < 2.0)
    return fail("repro: ports < 2");
  if (doc.at("measure_slots").number < 1.0)
    return fail("repro: degenerate measure_slots");
  const double load = doc.at("load").number;
  if (load <= 0.0 || load > 1.0)
    return fail("repro: load outside (0, 1]");
  if (!doc.has("defect") || !doc.at("defect").is_string())
    return fail("repro: missing defect");
  if (!doc.has("muted_sources") || !doc.at("muted_sources").is_array())
    return fail("repro: missing muted_sources array");

  if (!doc.has("faults") || !doc.at("faults").is_array())
    return fail("repro: missing faults array");
  const auto& faults = doc.at("faults").array;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const JsonValue& e = faults[i];
    const std::string where = "repro fault " + std::to_string(i);
    if (!e.has("kind") || !e.at("kind").is_string())
      return fail(where + ": missing kind");
    for (const char* key : {"at_slot", "a", "b", "duration_slots", "rate"})
      if (!e.has(key) || !e.at(key).is_number())
        return fail(where + ": missing numeric " + key);
    const double rate = e.at("rate").number;
    if (rate < 0.0 || rate > 1.0)
      return fail(where + ": rate outside [0, 1]");
  }

  if (!doc.has("expected") || !doc.at("expected").is_object())
    return fail("repro: missing expected block");
  const JsonValue& exp = doc.at("expected");
  for (const char* key : {"violated", "invariant", "violations"})
    if (!exp.has(key))
      return fail(std::string("repro: expected block missing ") + key);
  if (exp.at("violated").boolean && exp.at("invariant").str.empty())
    return fail("repro: expected.violated without an invariant token");
  if (exp.at("violated").boolean && faults.empty())
    return fail("repro: records a violation but carries no fault events "
                "(the monitor's defects only fire under an open fault)");

  std::cout << "repro OK: sim=" << sim << ", " << faults.size()
            << " fault event(s), expected "
            << (exp.at("violated").boolean
                    ? "violation of '" + exp.at("invariant").str + "'"
                    : std::string("clean run"))
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);

  auto load = [](const std::string& path, JsonValue& out) {
    std::string text;
    if (!read_file(path, text)) {
      std::cerr << "schema_check: cannot read " << path << "\n";
      return false;
    }
    out = telemetry::json_parse(text);
    return true;
  };

  JsonValue doc;
  if (cli.has("trace")) {
    if (!load(cli.get_path("trace", ""), doc)) return 1;
    return check_trace(doc);
  }
  if (cli.has("perf")) {
    if (!load(cli.get_path("perf", ""), doc)) return 1;
    JsonValue baseline;
    const bool with_base = cli.has("baseline");
    if (with_base && !load(cli.get_path("baseline", ""), baseline)) return 1;
    return check_perf(doc, with_base ? &baseline : nullptr);
  }
  if (cli.has("report")) {
    if (!load(cli.get_path("report", ""), doc)) return 1;
    return check_report(doc, cli.has("need-profile"),
                        cli.has("need-timeseries"),
                        cli.has("need-availability"),
                        cli.has("need-serving"), cli.has("need-topology"));
  }
  if (cli.has("micro")) {
    if (!load(cli.get_path("micro", ""), doc)) return 1;
    return check_micro(doc);
  }
  if (cli.has("campaign")) {
    if (!load(cli.get_path("campaign", ""), doc)) return 1;
    return check_campaign(doc);
  }
  if (cli.has("repro")) {
    if (!load(cli.get_path("repro", ""), doc)) return 1;
    return check_repro(doc);
  }
  std::cerr << "usage: schema_check --trace=F | --perf=F [--baseline=F] | "
               "--report=F [--need-profile] [--need-timeseries] "
               "[--need-availability] [--need-serving] [--need-topology] | "
               "--micro=F | --campaign=F | --repro=F\n";
  return 2;
}

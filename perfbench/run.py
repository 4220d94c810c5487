#!/usr/bin/env python3
"""Benchmark of record for the OSMOSIS simulator (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fabric_2048 --seed 1 --seconds 30 --trace 0

It builds perfbench_harness from source with CMake (into $CARGO_TARGET_DIR,
default .bench_build), derives every traffic and campaign seed from --seed,
and runs the workload's engine processes, one repetition after another,
until --seconds have passed (at least MIN_REPS repetitions). Each engine
run is its own process, so every constructor pays its own page faults and
peak RSS is per engine. It checks every simulated output, prints a report
and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: medians over the repetitions,
tracing off. --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics (medians over the traced ones) and the
tracing overhead, and writes perfbench/out/<workload>.trace.json
(Perfetto-loadable) and perfbench/out/<workload>.report.json.

--update-reference (committed seed only) rewrites this workload's entry in
perfbench/reference.json from the run's outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
COMMITTED_SEED = 1  # the seed whose outputs reference.json holds
MIN_REPS = 3  # untraced repetitions; traced runs make MIN_REPS - 1 pairs
PROCESS_TIMEOUT_S = 150
MASK64 = (1 << 64) - 1

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "cells/s",
    "jobs_per_s": "jobs/s",
}
PER_LAYER = {
    "construct_s": "s",
    "construct_rss_mb": "MB",
    "run_s": "s",
    "advance_calls": "count",
    "slot_p50_ms": "ms",
    "slot_p90_ms": "ms",
    "finalize_s": "s",
    "cells": "count",
    "delivered_frac": "ratio",
    "phase_coverage": "ratio",
    "phase.ingest_s": "s",
    "phase.sched_s": "s",
    "phase.delivery_s": "s",
    "phase.other_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "tracing_overhead": "ratio",
}
# In-program phases by layer, for the per-layer metrics every workload
# reports. fabric.cables also covers FabricSim's delivery; phases not
# listed (xbar, credits, invariants, telemetry, faults) count as other.
PHASE_GROUPS = {
    "ingest": ("switch.ingest", "multiplane.ingest", "fabric.ingest",
               "fabric.inject"),
    "sched": ("switch.control", "switch.sched", "multiplane.sched",
              "fabric.sched"),
    "delivery": ("switch.egress", "multiplane.egress", "fabric.cables"),
}
# Phases each engine has today; reported per engine even when zero.
ENGINE_PHASES = {
    "fabric.multiplane": ("multiplane", ("ingest", "sched", "egress")),
    "fabric.fabric_sim": ("fabric", ("ingest", "credits", "cables", "inject",
                                     "sched", "invariants")),
    "topo.credit": ("topo", ()),
    "topo.wormhole_vc": ("topo", ()),
}
CROSS_CHECKED = ("delivered", "throughput", "mean_delay")


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive(seed, stream):
    """Seed of input stream `stream`: a pure function of the run's seed."""
    return splitmix64(splitmix64(seed & MASK64) ^ stream)


def workload_plan(workload, seed):
    """The harness flags of each engine process of one repetition.

    The harness receives only the derived seeds, never --seed; each
    engine's size, load and run length are fixed in harness.cpp.
    """
    if workload == "fabric_2048":
        # Identical traffic seed for the three 2048-host engines.
        seeds = f"--seeds={derive(seed, 4)}"
        return [[f"--engine={engine}", seeds]
                for engine in ("fabric_sim", "topo_credit", "topo_wormhole_vc")]
    if workload == "multiplane_2x512":
        return [["--engine=multiplane",
                 f"--seeds={derive(seed, 2)},{derive(seed, 3)}"]]
    assert workload == "sweep"
    seeds = ",".join(str(derive(seed, 10 + i)) for i in range(5))
    return [["--engine=sweep", f"--seeds={seeds}"]]


WORKLOADS = ("fabric_2048", "multiplane_2x512", "sweep")


class BenchError(Exception):
    pass


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench_build.log")
    # Configuring every time is cheap once cached, and fails fast when the
    # simulator sources are missing.
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", "4",
              "--target", "perfbench_harness"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    return os.path.join(build_dir, "perfbench_harness")


def run_engine(binary, flags, trace_path):
    cmd = [binary] + flags + ([f"--trace={trace_path}"] if trace_path else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd)} exceeded {PROCESS_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rep(binary, plan, trace_dir):
    records = []
    for i, flags in enumerate(plan):
        trace = os.path.join(trace_dir, f"{i}.trace.json") if trace_dir else None
        rec = run_engine(binary, flags, trace)
        rec["trace_file"] = trace
        records.append(rec)
    return records


def pct(values, q):
    """Linear-interpolated percentile (the harness uses the same rule)."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---- metrics of one repetition ------------------------------------------------

def end_to_end(records):
    if records[0]["engine"] == "sweep":
        r = records[0]
        return {"wall_s": r["wall_s"], "setup_s": r["setup_s"],
                "peak_rss_mb": r["peak_rss_mb"],
                "cells_per_s": r["cells"] / r["wall_s"],
                "jobs_per_s": r["jobs"] / r["wall_s"]}
    # Engine runs are sequential, each in its own process: the workload's
    # wall time is first constructor to last result, summed over them.
    wall = sum(r["construct_s"] + r["run_s"] + r["finalize_s"] for r in records)
    return {"wall_s": wall,
            "setup_s": sum(r["construct_s"] for r in records),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
            "cells_per_s": (sum(r["cells"] for r in records)
                            / sum(r["run_s"] for r in records)),
            "jobs_per_s": len(records) / wall}


def grouped_phases(phases):
    groups = {name: 0.0 for name in PHASE_GROUPS}
    other = 0.0
    for phase, s in phases.items():
        for name, members in PHASE_GROUPS.items():
            if phase in members:
                groups[name] += s
                break
        else:
            other += s
    out = {f"phase.{name}_s": s for name, s in groups.items()}
    out["phase.other_s"] = other
    return out


def layers(records):
    """Per-layer metrics of one traced repetition (all but the overhead)."""
    phases = {}
    for r in records:
        for k, v in r["phases"].items():
            phases[k] = phases.get(k, 0.0) + v
    out = grouped_phases(phases)
    if records[0]["engine"] == "sweep":
        r = records[0]
        jobs = r["jobs"]
        ok = jobs - r["outputs"]["failed_jobs"] - r["outputs"]["exactly_once_failures"]
        out.update({
            "construct_s": r["setup_s"],
            "construct_rss_mb": r["construct_rss_mb"],
            "run_s": r["job_run_s"],
            "advance_calls": r["advance_calls"],
            "slot_p50_ms": r["slot_p50_ms"],
            "slot_p90_ms": r["slot_p90_ms"],
            "finalize_s": r["job_finalize_s"],
            "cells": r["cells"],
            "delivered_frac": ok / jobs,
            "phase_coverage": sum(phases.values()) / r["job_run_s"],
            "job_p50_ms": r["job_p50_ms"],
            "job_p90_ms": r["job_p90_ms"],
        })
        return out
    run = sum(r["run_s"] for r in records)
    slots = [v for r in records for v in r["slot_ms"]]
    job_ms = [1e3 * (r["construct_s"] + r["run_s"] + r["finalize_s"])
              for r in records]
    out.update({
        "construct_s": sum(r["construct_s"] for r in records),
        "construct_rss_mb": sum(r["construct_rss_mb"] for r in records),
        "run_s": run,
        "advance_calls": sum(r["advance_calls"] for r in records),
        "slot_p50_ms": pct(slots, 0.5),
        "slot_p90_ms": pct(slots, 0.9),
        "finalize_s": sum(r["finalize_s"] for r in records),
        "cells": sum(r["cells"] for r in records),
        "delivered_frac": (sum(r["cells"] for r in records)
                           / sum(r["offered"] for r in records)),
        "phase_coverage": sum(phases.values()) / run,
        "job_p50_ms": pct(job_ms, 0.5),
        "job_p90_ms": pct(job_ms, 0.9),
    })
    return out


def engine_layers(r):
    """Per-engine metric names (E.construct_s, ...) for one traced record."""
    e = r["engine"]
    prefix, names = ENGINE_PHASES[e]
    out = {
        f"{e}.construct_s": r["construct_s"],
        f"{e}.rss_mb": r["construct_rss_mb"],
        f"{e}.run_s": r["run_s"],
        f"{e}.advance_calls": r["advance_calls"],
        f"{e}.slot_p50_ms": pct(r["slot_ms"], 0.5),
        f"{e}.slot_p90_ms": pct(r["slot_ms"], 0.9),
        f"{e}.finalize_s": r["finalize_s"],
        f"{e}.cells": r["cells"],
        f"{e}.delivered_frac": r["cells"] / r["offered"],
    }
    phases = dict.fromkeys((f"{prefix}.{n}" for n in names), 0.0)
    phases.update(r["phases"])
    for phase, s in phases.items():
        out[f"{e}.phase.{phase.split('.', 1)[1]}_s"] = s
    out[f"{e}.phase_coverage"] = sum(r["phases"].values()) / r["run_s"]
    return out


def sweep_layers(r):
    out = {
        "exec.campaign_s": r["campaign_s"],
        "exec.to_json_s": r["to_json_s"],
        "exec.job_p50_ms": r["job_p50_ms"],
        "exec.job_p90_ms": r["job_p90_ms"],
        "exec.jobs": r["jobs"],
        "exec.pool_busy_frac": r["pool_busy_frac"],
        "api.serve.requests_per_s": r["serve_requests_per_s"],
        "api.serve.shed_frac": r["serve_shed_frac"],
        "sw.switch.phase.telemetry_s": r["phases"].get("switch.telemetry", 0.0),
    }
    for k, v in r["job_kind_p50"].items():
        out[f"exec.job.{k}"] = v
    for phase, s in r["phases"].items():
        if phase.startswith("switch."):
            out[f"sw.switch.phase.{phase.split('.', 1)[1]}_s"] = s
    return out


def detail_layers(records):
    if records[0]["engine"] == "sweep":
        return sweep_layers(records[0])
    out = {}
    for r in records:
        out.update(engine_layers(r))
    return out


def sample_counts(records):
    """The sample count behind each percentile metric, for the report."""
    if records[0]["engine"] == "sweep":
        r = records[0]
        out = {"slot_p50_ms": r["advance_calls"], "slot_p90_ms": r["advance_calls"],
               "job_p50_ms": r["jobs"], "job_p90_ms": r["jobs"],
               "exec.job_p50_ms": r["jobs"], "exec.job_p90_ms": r["jobs"]}
        for k in r["job_kind_p50"]:
            if k.endswith("_ms"):
                out[f"exec.job.{k}"] = r["job_kind_p50"][k.split(".")[0] + ".jobs"]
    else:
        calls = sum(r["advance_calls"] for r in records)
        out = {"slot_p50_ms": calls, "slot_p90_ms": calls,
               "job_p50_ms": len(records), "job_p90_ms": len(records)}
        for r in records:
            for q in ("p50", "p90"):
                out[f"{r['engine']}.slot_{q}_ms"] = r["advance_calls"]
    return {k: f"n={int(v)}" for k, v in out.items()}


def self_times(records):
    rows = {}
    for r in records:
        for name, row in r["spans"].items():
            acc = rows.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
    return rows


# ---- checks ---------------------------------------------------------------------

def check_rep(workload, records, problems):
    """Counts the cells (sweep: jobs) of one repetition: (attempted, failed)."""
    if workload == "sweep":
        o = records[0]["outputs"]
        failed = o["failed_jobs"] + o["exactly_once_failures"]
        if failed:
            problems.append(f"sweep: {int(o['failed_jobs'])} jobs failed, "
                            f"{int(o['exactly_once_failures'])} exactly-once "
                            f"verdicts false")
        return int(o["jobs"]), int(failed)
    attempted = failed = 0
    for r in records:
        o = r["outputs"]
        bad = (r["offered"] - r["cells"] + o.get("duplicates", 0)
               + o["out_of_order"])
        if bad == 0 and (o["exactly_once"] != 1 or o["invariant_violations"]):
            bad = r["offered"]
        if bad:
            problems.append(f"{r['engine']}: {int(bad)} cells lost, duplicated "
                            f"or out of order (invariant violations "
                            f"{int(o['invariant_violations'])})")
        attempted += int(r["offered"])
        failed += int(bad)
    if workload == "fabric_2048":
        # workload_plan runs FabricSim first and credit TopoSim second.
        fab, credit = records[0]["outputs"], records[1]["outputs"]
        diff = [k for k in CROSS_CHECKED if fab[k] != credit[k]]
        if diff:
            problems.append("fabric.fabric_sim and topo.credit disagree on "
                            + ", ".join(f"{k} ({fab[k]} vs {credit[k]})"
                                        for k in diff))
            failed += int(records[1]["offered"])
    return attempted, failed


def outputs_of(records):
    return {r["engine"]: r["outputs"] for r in records}


def digest(outputs):
    blob = json.dumps(outputs, sort_keys=True).encode()
    return f"{zlib.crc32(blob):08x}"


def load_reference():
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as f:
        return json.load(f)


# ---- report ---------------------------------------------------------------------

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_table(title, rows, columns):
    print(title)
    widths = [max(len(str(c)), *(len(fmt(r[i])) for r in rows))
              for i, c in enumerate(columns)]
    print("  " + "  ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
    for r in rows:
        print("  " + "  ".join(fmt(v).ljust(w) for v, w in zip(r, widths)))


def merge_traces(rep_records, path):
    """One Perfetto-loadable file: each traced engine process is a pid."""
    events = []
    pid = 0
    for records in rep_records:
        for r in records:
            pid += 1
            with open(r["trace_file"]) as f:
                for ev in json.load(f)["traceEvents"]:
                    ev["pid"] = pid
                    events.append(ev)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=COMMITTED_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()

    binary = build()
    plan = workload_plan(args.workload, args.seed)
    traced = args.trace == 1
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_root = os.path.join(OUT_DIR, f"{args.workload}.spans")

    untraced_reps, traced_reps = [], []
    start = time.monotonic()
    while True:
        # Traced runs alternate untraced and traced repetitions, so both
        # see the same machine state; the ratio is the tracing overhead.
        want_traced = traced and len(traced_reps) < len(untraced_reps)
        trace_dir = None
        if want_traced:
            trace_dir = os.path.join(trace_root, str(len(traced_reps)))
            os.makedirs(trace_dir, exist_ok=True)
        (traced_reps if want_traced else untraced_reps).append(
            run_rep(binary, plan, trace_dir))
        enough = (len(traced_reps) >= MIN_REPS - 1 if traced
                  else len(untraced_reps) >= MIN_REPS)
        if enough and time.monotonic() - start >= args.seconds:
            if not traced or len(traced_reps) == len(untraced_reps):
                break

    # Checks: exactly-once / invariants / cross-engine on every repetition,
    # identical outputs across repetitions, and the committed reference.
    problems = []
    attempted = failed = 0
    for rep in untraced_reps + traced_reps:
        a, f = check_rep(args.workload, rep, problems)
        attempted += a
        failed += f
    outputs = outputs_of(untraced_reps[0])
    if any(outputs_of(rep) != outputs for rep in untraced_reps + traced_reps):
        problems.append("outputs differ between repetitions of one seed")
    reference_note = "not checked (seed is not the committed seed " \
        f"{COMMITTED_SEED})"
    if args.seed == COMMITTED_SEED:
        if args.update_reference:
            ref = load_reference()
            ref[args.workload] = outputs
            with open(REFERENCE_PATH, "w") as f:
                json.dump(ref, f, indent=2, sort_keys=True)
                f.write("\n")
        expected = load_reference().get(args.workload)
        if expected == outputs:
            reference_note = "matches perfbench/reference.json"
        else:
            reference_note = "MISMATCH with perfbench/reference.json"
            problems.append("outputs differ from perfbench/reference.json")
    elif args.update_reference:
        raise BenchError("--update-reference needs the committed seed "
                         f"{COMMITTED_SEED}")

    e2e = [end_to_end(rep) for rep in untraced_reps]
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{len(untraced_reps)} untraced + {len(traced_reps)} traced "
          f"repetitions")
    for engine, o in outputs.items():
        print(f"  {engine}: " + ", ".join(f"{k}={fmt(v)}" for k, v in sorted(o.items())))
    print(f"  output digest {digest(outputs)}; reference {reference_note}")
    rows = []
    for name, unit in END_TO_END.items():
        values = [m[name] for m in e2e]
        q1, q3 = quartiles(values)
        rows.append((name, unit, statistics.median(values), q1, q3, len(values)))
    print_table("end-to-end (tracing off; median and quartiles over repetitions)",
                rows, ("metric", "unit", "median", "q1", "q3", "n"))
    metrics = {name: {"value": statistics.median(m[name] for m in e2e),
                      "unit": unit} for name, unit in END_TO_END.items()}

    if traced:
        per_rep = [layers(rep) for rep in traced_reps]
        overhead = (statistics.median(end_to_end(rep)["wall_s"]
                                      for rep in traced_reps)
                    / metrics["wall_s"]["value"])
        layer_values = {name: statistics.median(m[name] for m in per_rep)
                        for name in PER_LAYER if name != "tracing_overhead"}
        layer_values["tracing_overhead"] = overhead
        detail = [detail_layers(rep) for rep in traced_reps]
        detail_values = {k: statistics.median(d[k] for d in detail)
                         for k in detail[0]}
        samples = sample_counts(traced_reps[0])
        print_table(f"per layer, by engine (median of {len(traced_reps)} "
                    "traced repetitions)",
                    [(k, v, samples.get(k, "")) for k, v in detail_values.items()],
                    ("metric", "value", "samples"))
        spans = self_times(traced_reps[0])
        print_table("span self time (first traced repetition)",
                    [(k, int(v["count"]), v["total_s"], v["self_s"])
                     for k, v in sorted(spans.items())],
                    ("span", "count", "total_s", "self_s"))
        print_table("per layer, workload (the metrics reported below)",
                    [(k, v, samples.get(k, "")) for k, v in layer_values.items()],
                    ("metric", "value", "samples"))
        print(f"  tracing overhead: traced / untraced wall_s = {overhead:.4f}")
        trace_path = os.path.join(OUT_DIR, f"{args.workload}.trace.json")
        merge_traces(traced_reps, trace_path)
        print(f"  trace written to {os.path.relpath(trace_path, ROOT)}")
        report = {"workload": args.workload, "seed": args.seed,
                  "end_to_end": {k: v["value"] for k, v in metrics.items()},
                  "per_layer": layer_values, "detail": detail_values,
                  "span_self_time": spans, "outputs": outputs,
                  "digest": digest(outputs)}
        report_path = os.path.join(OUT_DIR, f"{args.workload}.report.json")
        with open(report_path, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"  report written to {os.path.relpath(report_path, ROOT)}")
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}

    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)

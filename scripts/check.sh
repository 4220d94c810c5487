#!/usr/bin/env bash
# One-shot verification: configure, build, run the test suite, run the
# telemetry tour example and check that its RunReport JSON carries every
# key the osmosis.run_report.v1 schema promises, run the smoke campaign
# and hold it against the committed perf baseline with campaign_compare,
# SIGKILL a checkpointing smoke campaign mid-flight and prove the
# resumed document is byte-identical to the uninterrupted run (plus a
# ckpt_verify divergence replay of any surviving state file), run the
# tracked perf suite (bench_perf --smoke) and validate every artifact it
# emits — BENCH_perf.json, both Chrome traces, the profiled RunReport —
# with schema_check, run the fixed-seed chaos smoke soak (25 randomized
# fault-fuzzing trials, zero invariant violations, manifest
# byte-identical to the committed baseline and across thread counts),
# run the graceful-degradation study (permanent spine cut under adaptive
# routing + admission must hold the availability floor and emit a valid
# availability/SLO report section), run the open-loop serving smoke sweep
# (bench_serve --smoke, including the million-client Poisson point) and
# hold it against its committed baseline plus 1-vs-8-thread and
# kill-and-resume byte diffs and a schema_check --need-serving pass,
# run the topology-zoo scenario matrix (bench_campaign --topo across
# fat-tree/Clos/Benes x credit/relayed/wormhole-VC) against its
# committed baseline with the same 1-vs-8-thread and kill-and-resume
# byte diffs, hold the §III app-to-app latency tables
# (bench_app_latency) byte-identical to their committed baseline,
# hold bench_failures' degraded-operation tables and its combined-fault
# RunReport byte-identical to theirs, and bench_multiplane's
# plane-striping tables to theirs,
# assert the §VI.C stage-count ordering with
# bench_vi_c_stage_count and schema-check its topology report section,
# assert the disabled-profiler overhead bound on
# bench_micro numbers, then rebuild under ASan+UBSan (failure/fault/
# chaos/checkpoint/flow-ledger tests plus the full injected-defect ->
# shrink -> chaos_repro round trip for a dropped and for a duplicated
# delivery — mid-run structural changes and raw-byte
# deserialization, where memory bugs hide) and under TSan (the exec
# tests plus a multi-threaded smoke campaign and the chaos soak's
# thread pool — the only concurrency in the tree).
#
#   scripts/check.sh [build-dir]    (default: build)

set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build}"

# SIGKILLs the background run $1 as soon as its first job_*.state.ckpt
# lands in $2. State files appear by atomic rename, so the first one is
# whole. Fails the stage if the run exits first or no state file shows
# up within 60 s.
kill_at_first_state() {
  local victim="$1" dir="$2" polls=0
  until compgen -G "$dir/job_*.state.ckpt" > /dev/null; do
    if ! kill -0 "$victim" 2> /dev/null || [ "$polls" -ge 6000 ]; then
      kill -9 "$victim" 2> /dev/null || true
      wait "$victim" 2> /dev/null || true
      echo "FAIL: no state file appeared in $dir before the run ended" >&2
      exit 1
    fi
    polls=$((polls + 1))
    sleep 0.01
  done
  kill -9 "$victim" 2> /dev/null || true
  wait "$victim" 2> /dev/null || true
}

# Restores each surviving state file in $1, replays the same job from
# scratch and walks both in lockstep; fails if the kill left none.
replay_state_files() {
  local f found=0
  for f in "$1"/job_*.state.ckpt; do
    [ -e "$f" ] || continue
    found=1
    "$build/bench/ckpt_verify" --state="$f" --stride=500
  done
  if [ "$found" = 0 ]; then
    echo "FAIL: the kill left no state file in $1 to replay" >&2
    exit 1
  fi
}

echo "== configure =="
cmake -B "$build" -S "$repo"

echo "== build =="
cmake --build "$build" -j "$(nproc)"

echo "== tests =="
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

echo "== telemetry tour =="
out="$("$build/examples/example_telemetry_tour" --slots=5000)"
echo "$out" | head -12

echo "== RunReport schema check =="
# The example prints the full JSON document; every schema key must appear.
for key in '"schema": "osmosis.run_report.v1"' '"sim"' '"time_unit"' \
           '"config"' '"info"' '"counters"' '"histograms"' '"health"' \
           '"stage.request_to_grant"' '"stage.grant_to_transmit"' \
           '"stage.transmit_to_deliver"' '"stage.end_to_end"'; do
  if ! grep -qF "$key" <<<"$out"; then
    echo "FAIL: RunReport JSON is missing $key" >&2
    exit 1
  fi
done
echo "all schema keys present"

echo "== smoke campaign + perf-regression gate =="
smoke_json="$build/campaign_smoke.json"
# --progress and --trace ride along: the heartbeat stream must carry one
# JSON line per job and the wall-clock trace must pass the schema check.
"$build/bench/bench_campaign" --smoke --json="$smoke_json" --timing=false \
  --progress --trace="$build/campaign_trace.json" \
  > /dev/null 2> "$build/campaign_progress.jsonl"
"$build/bench/campaign_compare" "$repo/bench/baselines/campaign_smoke.json" \
  "$smoke_json"
"$build/bench/schema_check" --campaign="$smoke_json"
jobs_done=$(grep -c '"wall_ms"' "$build/campaign_progress.jsonl")
if [ "$jobs_done" != 8 ]; then
  echo "FAIL: expected 8 progress heartbeat lines, saw $jobs_done" >&2
  exit 1
fi
"$build/bench/schema_check" --trace="$build/campaign_trace.json"

echo "== campaign determinism: 1 thread vs 8 threads =="
"$build/bench/bench_campaign" --smoke --threads=1 \
  --json="$build/campaign_smoke_t1.json" --timing=false > /dev/null
"$build/bench/bench_campaign" --smoke --threads=8 \
  --json="$build/campaign_smoke_t8.json" --timing=false > /dev/null
cmp "$build/campaign_smoke_t1.json" "$build/campaign_smoke_t8.json"
echo "byte-identical at 1 and 8 threads"

echo "== kill-and-resume: SIGKILL mid-campaign, resume, byte-diff =="
ck_dir="$build/ckpt_smoke"
rm -rf "$ck_dir"
# Start the checkpointing smoke campaign and SIGKILL it once its first
# state file lands. A tiny --checkpoint-every keeps state files fresh,
# so the kill always lands with work outstanding.
"$build/bench/bench_campaign" --smoke --timing=false \
  --checkpoint-dir="$ck_dir" --checkpoint-every=200 \
  --json="$build/campaign_killed.json" > /dev/null 2>&1 &
kill_at_first_state $! "$ck_dir"

echo "== divergence-checking replay on surviving state files =="
# Before the resume consumes them: restore each mid-flight snapshot,
# replay the same job from scratch, and walk both in lockstep.
replay_state_files "$ck_dir"

"$build/bench/bench_campaign" --smoke --timing=false \
  --resume="$ck_dir" --checkpoint-every=200 \
  --json="$build/campaign_resumed.json" > /dev/null
cmp "$build/campaign_smoke_t1.json" "$build/campaign_resumed.json"
echo "resumed document byte-identical to the uninterrupted run"

echo "== serve smoke: open-loop serving sweep vs committed baseline =="
serve_json="$build/serve_smoke.json"
"$build/bench/bench_serve" --smoke --json="$serve_json" --timing=false \
  --report="$build/serve_report.json" > /dev/null
cmp "$repo/bench/baselines/serve_smoke.json" "$serve_json"
"$build/bench/schema_check" --campaign="$serve_json"
"$build/bench/schema_check" --report="$build/serve_report.json" \
  --need-serving
echo "serving document matches the committed baseline"

echo "== serve determinism: 1 thread vs 8 threads =="
"$build/bench/bench_serve" --smoke --threads=1 \
  --json="$build/serve_smoke_t1.json" --timing=false > /dev/null
"$build/bench/bench_serve" --smoke --threads=8 \
  --json="$build/serve_smoke_t8.json" --timing=false > /dev/null
cmp "$build/serve_smoke_t1.json" "$build/serve_smoke_t8.json"
echo "byte-identical at 1 and 8 threads"

echo "== serve kill-and-resume: SIGKILL mid-sweep, resume, byte-diff =="
serve_ck_dir="$build/ckpt_serve"
rm -rf "$serve_ck_dir"
"$build/bench/bench_serve" --smoke --timing=false \
  --checkpoint-dir="$serve_ck_dir" --checkpoint-every=200 \
  --json="$build/serve_killed.json" > /dev/null 2>&1 &
kill_at_first_state $! "$serve_ck_dir"
replay_state_files "$serve_ck_dir"
"$build/bench/bench_serve" --smoke --timing=false \
  --resume="$serve_ck_dir" --checkpoint-every=200 \
  --json="$build/serve_resumed.json" > /dev/null
cmp "$build/serve_smoke_t1.json" "$build/serve_resumed.json"
echo "resumed serving document byte-identical to the uninterrupted run"

echo "== perf suite: bench_perf --smoke + schema checks =="
perf_json="$build/BENCH_perf.json"
"$build/bench/bench_perf" --smoke --json="$perf_json" \
  --trace="$build/prof_wall_trace.json" \
  --sim-trace="$build/prof_sim_trace.json" \
  --report="$build/prof_report.json" > /dev/null
"$build/bench/schema_check" --perf="$perf_json" \
  --baseline="$repo/bench/baselines/BENCH_perf_smoke.json"
"$build/bench/schema_check" --trace="$build/prof_wall_trace.json"
"$build/bench/schema_check" --trace="$build/prof_sim_trace.json"
"$build/bench/schema_check" --report="$build/prof_report.json" \
  --need-profile --need-timeseries

echo "== chaos smoke: 25 fixed-seed trials, zero violations =="
chaos_json="$build/chaos_smoke.json"
"$build/bench/bench_chaos" --trials=25 --seed=1 --threads=1 \
  --json="$chaos_json" > /dev/null
cmp "$repo/bench/baselines/chaos_smoke.json" "$chaos_json"
echo "manifest matches the committed baseline"

echo "== chaos determinism: manifest byte-identical at 1 and 8 threads =="
"$build/bench/bench_chaos" --trials=25 --seed=1 --threads=8 \
  --json="$build/chaos_smoke_t8.json" > /dev/null
cmp "$chaos_json" "$build/chaos_smoke_t8.json"
echo "byte-identical at 1 and 8 threads"

echo "== topology zoo: scenario matrix vs committed baseline =="
topo_json="$build/topo_smoke.json"
"$build/bench/bench_campaign" --topo --threads=1 --timing=false \
  --json="$topo_json" > /dev/null
"$build/bench/campaign_compare" "$repo/bench/baselines/topo_smoke.json" \
  "$topo_json"
cmp "$repo/bench/baselines/topo_smoke.json" "$topo_json"
"$build/bench/schema_check" --campaign="$topo_json"
echo "topology x flow-control matrix matches the committed baseline"

echo "== topo determinism: 1 thread vs 8 threads =="
"$build/bench/bench_campaign" --topo --threads=8 --timing=false \
  --json="$build/topo_smoke_t8.json" > /dev/null
cmp "$topo_json" "$build/topo_smoke_t8.json"
echo "byte-identical at 1 and 8 threads"

echo "== topo kill-and-resume: SIGKILL mid-matrix, resume, byte-diff =="
topo_ck_dir="$build/ckpt_topo"
rm -rf "$topo_ck_dir"
"$build/bench/bench_campaign" --topo --timing=false \
  --checkpoint-dir="$topo_ck_dir" --checkpoint-every=200 \
  --json="$build/topo_killed.json" > /dev/null 2>&1 &
kill_at_first_state $! "$topo_ck_dir"
"$build/bench/bench_campaign" --topo --timing=false \
  --resume="$topo_ck_dir" --checkpoint-every=200 \
  --json="$build/topo_resumed.json" > /dev/null
cmp "$topo_json" "$build/topo_resumed.json"
echo "resumed topology document byte-identical to the uninterrupted run"

echo "== SS III app-to-app latency vs committed baseline =="
# Every table the bench prints (budget, message-size sweep, collective
# completion) is deterministic, so its stdout is held byte for byte.
"$build/bench/bench_app_latency" > "$build/app_latency.txt"
cmp "$repo/bench/baselines/app_latency.txt" "$build/app_latency.txt"
echo "app-to-app latency tables match the committed baseline"

echo "== degraded operation: bench_failures vs committed baselines =="
# The static-failure sweeps, the mid-run fault table and the combined
# scenario's RunReport are deterministic at any thread count. Only the
# last two stdout lines vary (wall clock, JSON path), so they are cut.
"$build/bench/bench_failures" --json="$build/failures_combined.json" \
  | head -n -2 > "$build/failures_tables.txt"
cmp "$repo/bench/baselines/failures_tables.txt" "$build/failures_tables.txt"
cmp "$repo/bench/baselines/failures_combined.json" \
  "$build/failures_combined.json"
echo "degraded-operation tables and combined report match their baselines"

echo "== plane striping: bench_multiplane vs committed baseline =="
# The plane-count and load sweeps of MultiPlaneSim are deterministic, so
# the whole stdout is held byte for byte.
"$build/bench/bench_multiplane" > "$build/multiplane_tables.txt"
cmp "$repo/bench/baselines/multiplane_tables.txt" \
  "$build/multiplane_tables.txt"
echo "plane-striping tables match the committed baseline"

echo "== VI.C stage-count matrix: 3 vs 5 vs 9 stages, ordering asserted =="
# The binary itself REQUIREs the paper's ordering (fat tree >= MIN
# throughput, latency grows with stage count); here we also hold its
# RunReport to the schema's topology section.
"$build/bench/bench_vi_c_stage_count" --report="$build/topo_report.json" \
  > /dev/null
"$build/bench/schema_check" --report="$build/topo_report.json" \
  --need-topology
echo "stage-count ordering holds and the topology report is well-formed"

echo "== graceful degradation: permanent spine cut, floor + availability =="
# bench_failures --permanent exits non-zero if the degraded run drops
# below (surviving fraction) x (fault-free throughput) x 0.9, is not
# exactly-once for non-shed cells, or fails shed accounting; its report
# must carry a well-formed availability/SLO section.
degraded_json="$build/degraded_report.json"
"$build/bench/bench_failures" --permanent --slots=8000 \
  --json="$degraded_json" > /dev/null
"$build/bench/schema_check" --report="$degraded_json" --need-availability
echo "throughput floor, exactly-once, and shed accounting hold"

echo "== disabled-profiler overhead bound (bench_micro) =="
"$build/bench/bench_micro" \
  --benchmark_filter='BM_ProfScope|BM_SwitchSimRun/0' \
  --benchmark_format=json --benchmark_min_time=0.05 \
  > "$build/bench_micro_prof.json" 2> /dev/null
"$build/bench/schema_check" --micro="$build/bench_micro_prof.json"

echo "== sanitizer build (ASan + UBSan) =="
san_build="$repo/build-asan"
cmake -B "$san_build" -S "$repo" -DOSMOSIS_SANITIZE=ON
cmake --build "$san_build" -j "$(nproc)" \
  --target failures_test faults_test arq_test fec_test ckpt_test \
           chaos_test topo_sim_test clos_test api_test voq_test \
           switch_sim_test event_switch_test multiplane_test \
           scheduler_test scheduler_fuzz_test portset_test \
           flow_ledger_test rng_stats_test baseline_test fabric_test \
           telemetry_test host_test bench_chaos chaos_repro schema_check

# The single-stage engines keep their VOQs and request FIFOs in
# index-linked FifoPool slabs and resequence through a flat park, so
# their tests run here too. Scheduler ticks return a reference into
# scheduler-owned buffers, and the wormhole lane masks index PortSet
# words directly, so the scheduler and PortSet tests run here as well.
# TopoSim's per-stage indexing meets the L=1 tree (one switch is leaf,
# top and fault stage) and L=3 trees with mid-level failures only in
# the fat-tree tests, so those run here too. Every engine indexes one
# dense sim::FlowLedger array and its side table, the baseline switches
# included, and the ledger loads its three checkpoint views from raw
# bytes, so the ledger, stats and baseline tests run here as well.
# TopoSim's leaf-spine preset indexes a trace side table, a resequencer
# park and re-steered VOQs, which the fabric and telemetry tests drive
# harder than the failure and checkpoint tests do, so they run here too.
# The host tests post message workloads through ServeSim, whose
# segmenters, op table and endpoint queues they drive at up to 64 ports,
# so they run here as well.
echo "== sanitizer run: failure, fault, checkpoint, api & engine tests =="
for t in failures_test faults_test arq_test fec_test ckpt_test \
         chaos_test topo_sim_test clos_test api_test voq_test \
         switch_sim_test event_switch_test multiplane_test \
         scheduler_test scheduler_fuzz_test portset_test \
         flow_ledger_test rng_stats_test baseline_test fabric_test \
         telemetry_test host_test; do
  echo "-- $t"
  "$san_build/tests/$t" --gtest_brief=1
done

echo "== sanitizer run: shrinker round trips on injected defects =="
# Arm a deliberate accounting bug inside fault windows, let the soak
# detect it, shrink the failing trial to a minimal repro, then replay
# the repro file and demand the same verdict — the full chaos pipeline
# under ASan+UBSan. A dropped delivery leaves a gap and a duplicated one
# a repeat, so each moves flows into the flow ledger's side table.
for defect in drop_delivery_during_fault duplicate_delivery_during_fault; do
  echo "-- $defect"
  san_repro="$san_build/chaos_${defect}_repro.json"
  "$san_build/bench/bench_chaos" --trials=25 --seed=7 \
    --inject-defect="$defect" --shrink \
    --repro-out="$san_repro" > /dev/null
  "$san_build/bench/schema_check" --repro="$san_repro"
  "$san_build/bench/chaos_repro" "$san_repro"
done

echo "== sanitizer run: degraded-mode repro replay =="
# The committed graceful-degradation reference trial (permanent spine
# cut, adaptive routing + admission on TopoSim's leaf-spine preset) under
# ASan+UBSan: re-steering, resequencing, and shed accounting are
# index-heavy paths.
"$san_build/bench/chaos_repro" "$repo/bench/baselines/degraded_repro.json"

echo "== sanitizer build (TSan) =="
tsan_build="$repo/build-tsan"
cmake -B "$tsan_build" -S "$repo" -DOSMOSIS_SANITIZE=thread
cmake --build "$tsan_build" -j "$(nproc)" \
  --target exec_test bench_campaign campaign_compare bench_chaos

echo "== sanitizer run: exec tests + multi-threaded smoke campaign =="
"$tsan_build/tests/exec_test" --gtest_brief=1
"$tsan_build/bench/bench_campaign" --smoke --threads=8 \
  --json="$tsan_build/campaign_smoke.json" --timing=false > /dev/null
"$tsan_build/bench/campaign_compare" \
  "$repo/bench/baselines/campaign_smoke.json" \
  "$tsan_build/campaign_smoke.json"
"$tsan_build/bench/bench_campaign" --topo --threads=8 \
  --json="$tsan_build/topo_smoke.json" --timing=false > /dev/null
"$tsan_build/bench/campaign_compare" \
  "$repo/bench/baselines/topo_smoke.json" \
  "$tsan_build/topo_smoke.json"
"$tsan_build/bench/bench_chaos" --trials=10 --seed=1 --threads=8 \
  > /dev/null

echo "== OK =="

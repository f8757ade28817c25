#!/usr/bin/env bash
# Captures a causal trace + metrics sidecar from the adaptive-streaming
# demo and sanity-checks both artifacts: the trace must be valid Chrome
# trace-event JSON (load it at https://ui.perfetto.dev or
# chrome://tracing), and the metrics sidecar must be byte-identical
# regardless of --jobs, which this script also verifies via the
# ablation_queue_depth sweep at 1 and 4 workers. Finally it drives every
# driver with each sidecar flag: each pair must refuse the flag (exit 2)
# or write valid, --jobs-invariant JSON.
#
# Usage: scripts/run_trace.sh [build-dir] [out-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="${2:-$repo_root/traces}"

for bin in examples/adaptive_streaming bench/ablation_queue_depth; do
  if [[ ! -x "$build_dir/$bin" ]]; then
    echo "not built; run: cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
    exit 1
  fi
done

mkdir -p "$out_dir"

echo "== adaptive_streaming -> $out_dir/adaptive_streaming.trace.json"
"$build_dir/examples/adaptive_streaming" \
  --trace "$out_dir/adaptive_streaming.trace.json" \
  --metrics "$out_dir/adaptive_streaming.metrics.json" > /dev/null

echo "== validating JSON"
python3 -m json.tool "$out_dir/adaptive_streaming.trace.json" > /dev/null
python3 -m json.tool "$out_dir/adaptive_streaming.metrics.json" > /dev/null

echo "== queue-depth sweep trace -> $out_dir/queue_depth.trace.json"
"$build_dir/bench/ablation_queue_depth" --jobs 0 \
  --trace "$out_dir/queue_depth.trace.json" > /dev/null
python3 -m json.tool "$out_dir/queue_depth.trace.json" > /dev/null

# Note: tracing rides a GIOP service context, so --trace adds real bytes
# to every twoway (DESIGN.md §7) — the determinism comparison therefore
# runs trace-free on both sides.
echo "== metrics determinism: ablation_queue_depth --jobs 1 vs --jobs 4"
"$build_dir/bench/ablation_queue_depth" --jobs 1 \
  --metrics "$out_dir/queue_depth.metrics.j1.json" > /dev/null
"$build_dir/bench/ablation_queue_depth" --jobs 4 \
  --metrics "$out_dir/queue_depth.metrics.j4.json" > /dev/null
python3 -m json.tool "$out_dir/queue_depth.metrics.j1.json" > /dev/null
cmp "$out_dir/queue_depth.metrics.j1.json" "$out_dir/queue_depth.metrics.j4.json"
mv "$out_dir/queue_depth.metrics.j1.json" "$out_dir/queue_depth.metrics.json"
rm -f "$out_dir/queue_depth.metrics.j4.json"

# SLO telemetry (DESIGN.md §11): the health-event stream and the flight
# dumps are merged in trial-index order like the metrics sidecar, so both
# must be byte-identical for any worker count.
echo "== SLO sidecar determinism: ablation_queue_depth --jobs 1 vs --jobs 4"
"$build_dir/bench/ablation_queue_depth" --jobs 1 \
  --slo "$out_dir/queue_depth.health.j1.json" \
  --flight "$out_dir/queue_depth.flight.j1.json" > /dev/null
"$build_dir/bench/ablation_queue_depth" --jobs 4 \
  --slo "$out_dir/queue_depth.health.j4.json" \
  --flight "$out_dir/queue_depth.flight.j4.json" > /dev/null
python3 -m json.tool "$out_dir/queue_depth.health.j1.json" > /dev/null
python3 -m json.tool "$out_dir/queue_depth.flight.j1.json" > /dev/null
cmp "$out_dir/queue_depth.health.j1.json" "$out_dir/queue_depth.health.j4.json"
cmp "$out_dir/queue_depth.flight.j1.json" "$out_dir/queue_depth.flight.j4.json"
mv "$out_dir/queue_depth.health.j1.json" "$out_dir/queue_depth.health.json"
mv "$out_dir/queue_depth.flight.j1.json" "$out_dir/queue_depth.flight.json"
rm -f "$out_dir/queue_depth.health.j4.json" "$out_dir/queue_depth.flight.j4.json"

# The congested trials must actually breach (the sweep overloads a 10 Mbps
# bottleneck 2x): an empty health stream means the monitors are not wired.
python3 - "$out_dir/queue_depth.health.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = sum(len(t["health"]["events"]) for t in doc["trials"])
assert events > 0, "no SLO breach events in the congested sweep"
assert doc["merged"]["events"] == events, "merged event count mismatch"
print(f"   {events} health events across {len(doc['trials'])} trials")
EOF

# Sidecar matrix (DESIGN.md §6): core::Experiment writes every sidecar, and
# a flag whose sidecar the driver's result type cannot carry exits 2 before
# any trial runs. So every (program, flag) pair must either exit 2 without
# writing the file, or exit 0 with valid JSON that is byte-identical at
# --jobs 1 and --jobs 4. Exiting 0 without the file is the failure.
echo "== sidecar matrix: every driver x --trace/--metrics/--slo/--flight"
matrix_dir="$(mktemp -d)"
trap 'rm -rf "$matrix_dir"' EXIT
for bin in bench/fig2_priority_propagation bench/fig4_control \
           bench/fig5_thread_priority bench/fig6_combined_priority \
           bench/fig7_reservation bench/table1_network_reservation \
           bench/table2_cpu_reservation bench/ablation_combined_policy \
           bench/ablation_priority_reservation bench/ablation_queue_depth \
           bench/ablation_red_ecn bench/city_scale bench/flash_crowd \
           examples/adaptive_streaming; do
  written=()
  refused=()
  for flag in trace metrics slo flight; do
    j1="$matrix_dir/j1.json"
    j4="$matrix_dir/j4.json"
    rm -f "$j1" "$j4"
    rc=0
    "$build_dir/$bin" --jobs 1 "--$flag" "$j1" > /dev/null 2>&1 || rc=$?
    if [[ $rc -eq 2 ]]; then
      if [[ -e "$j1" ]]; then
        echo "FAIL: $bin --$flag exited 2 but wrote $j1" >&2
        exit 1
      fi
      refused+=("--$flag")
      continue
    fi
    if [[ $rc -ne 0 || ! -s "$j1" ]]; then
      echo "FAIL: $bin --$flag exited $rc without refusing the flag or writing the sidecar" >&2
      exit 1
    fi
    "$build_dir/$bin" --jobs 4 "--$flag" "$j4" > /dev/null 2>&1
    python3 -m json.tool "$j1" > /dev/null
    cmp "$j1" "$j4"
    written+=("--$flag")
  done
  echo "   $(basename "$bin"): writes ${written[*]:-none}; refuses ${refused[*]:-none}"
done

echo "done; open the *.trace.json files in https://ui.perfetto.dev"
echo "flight dumps for post-mortems: $out_dir/queue_depth.flight.json"

#!/bin/sh
# Perf smoke: the deterministic executor's relative overhead, gated.
#
#   perf_smoke.sh SWEEP_BIN [TOLERANCE]
#
# Runs the sweep at a tiny scale (0.05) on one thread and compares the
# bfs det-vs-serial min-time ratio against a pinned reference ratio. A
# ratio is self-normalizing — a uniformly faster or slower machine
# cancels out of det/serial — so unlike the timing half of bench_gate
# this check needs no machine-speed calibration, only a generous
# tolerance (default 2.5x) for the smaller scale's higher per-task
# overhead share and for timing noise at sub-second runtimes.
#
# The reference, 2.36x, is the bfs det/serial t=1 min_s ratio of the
# single-process scripts/bench_baseline.json recorded on one core at
# scale 0.2 (det 12.874 ms / serial 5.454 ms). It is pinned here rather
# than read from the baseline: the baseline re-recorded on a 4-core VM
# (median over 7 processes) puts the ratio at 3.20x, which would widen
# the allowed bound from 5.90x to 8.0x without any change to the
# program.
#
# The point of the gate: the batched mark-acquisition protocol bought a
# concrete det-vs-serial improvement; a change that quietly gives it
# back (ratio blowing past REFERENCE * tolerance) fails this test even
# when digests and outputs stay correct.

set -u

SWEEP=$1
TOL=${2:-2.5}
REFERENCE=2.36

OUT="${TMPDIR:-/tmp}/perf_smoke.$$.json"
trap 'rm -f "$OUT"' EXIT

run_once() {
    REPRO_SCALE=0.05 REPRO_REPS=3 REPRO_THREADS=1 \
        "$SWEEP" --json "$OUT" > /dev/null || return 1
    python3 - "$OUT" "$REFERENCE" "$TOL" <<'EOF'
import json
import sys

fresh_path, base, tol = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])


def ratio(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    times = {}
    for rec in doc["records"]:
        if rec["app"] == "bfs" and rec["threads"] == 1:
            times[rec["executor"]] = rec.get("min_s", rec["median_s"])
    if "det" not in times or "serial" not in times:
        raise SystemExit(f"{path}: missing bfs det/serial t=1 records")
    if times["serial"] <= 0:
        raise SystemExit(f"{path}: nonpositive serial time")
    return times["det"] / times["serial"]


fresh = ratio(fresh_path)
allowed = base * tol
verdict = "PASS" if fresh <= allowed else "FAIL"
print(f"perf_smoke: bfs det/serial t=1 ratio {fresh:.2f}x "
      f"(reference {base:.2f}x, allowed {allowed:.2f}x): {verdict}")
sys.exit(0 if fresh <= allowed else 1)
EOF
}

if run_once; then
    exit 0
fi

# One retry: a sub-second smoke is the kind of measurement a transient
# host-load spike can distort, while a real overhead regression
# reproduces. The retry's exit code is the gate's exit code.
echo "perf_smoke: first attempt failed; retrying once" >&2
run_once

#!/usr/bin/env bash
# Runs the full set of workloads N times with the command BENCHMARK.json
# declares and prints, per end-to-end metric x workload, the median, the
# quartiles and the spread (q3 - q1, as a share of the median) beside
# the metric's bound. Exits non-zero if any gated spread exceeds its
# bound (setup_s is shown but not gated on spread, as the driver does)
# or any run fails.
#
#   benchmark/repeat.sh N [SEED]      from the repository root
#
# Repetition i runs with seed SEED+i (default SEED=1), the way the driver
# varies it. SAME_SEED=1 keeps SEED for every repetition. TRACE=1 also
# makes the traced run each time and checks that the pure counts of one
# seed repeat. Result lines are kept in benchmark/out/repeat/.
set -euo pipefail

n=${1:?usage: benchmark/repeat.sh N [SEED]}
seed=${2:-1}
cd "$(dirname "$0")/.."
out=benchmark/out/repeat
rm -rf "$out"
mkdir -p "$out"

mapfile -t command < <(python3 -c 'import json; print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
mapfile -t workloads < <(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]], sep="\n")')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for ((i = 0; i < n; i++)); do
  s=$seed
  [[ -n "${SAME_SEED:-}" ]] || s=$((seed + i))
  for w in "${workloads[@]}"; do
    for trace in 0 ${TRACE:+1}; do
      echo "run $((i + 1))/$n: $w seed $s trace $trace" >&2
      "${command[@]}" --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" |
        tail -n 1 >"$out/$w.$trace.$i.json"
    done
  done
done

python3 - "$out" <<'EOF'
import glob, json, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
bad = 0
print(f"{'workload':<11} {'metric':<20} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
for w in [w["name"] for w in bench["workloads"]]:
    runs = [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{w}.0.*.json"))]
    for r in runs:
        if not r["correct"] or r["failed"]:
            print(f"{w}: a run failed: correct={r['correct']} failed={r['failed']} of {r['attempted']}")
            bad += 1
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        gated = m["name"] != "setup_s"
        flag = " OVER" if gated and spread > m["bound"] else ""
        bad += bool(flag)
        print(f"{w:<11} {m['name']:<20} {m['unit']:<6} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {m['bound']:6.2f} {spread / m['bound']:12.2f}{flag}")
    # Pure counts of one seed must repeat (traced runs, SAME_SEED=1).
    traced = [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{w}.1.*.json"))]
    if len(traced) > 1:
        for m in bench["per_layer"]:
            if m["unit"] not in ("count", "B", "ratio") or m["name"].startswith("driver."):
                continue
            values = [r["metrics"][m["name"]]["value"] for r in traced]
            med = statistics.median(values)
            rel = (max(values) - min(values)) / med if med else max(values) - min(values)
            print(f"{w:<11} {m['name']:<40} {m['unit']:<6} median {med:14.4f} range/median {rel:8.4f}")
sys.exit(1 if bad else 0)
EOF

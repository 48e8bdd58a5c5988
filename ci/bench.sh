#!/usr/bin/env bash
# Write this checkout's perf record, BENCH_N.json, at its root:
#
#   ci/bench.sh N [RUNS]
#
# N names the file (the change's number); RUNS is the number of seeds per
# workload (default 3).  For each of perfbench's four workloads
# (oracle-bench, regressor-stream, train-toy, dense-scan) it runs
# `python3 perfbench/run.py --workload W --seed S --trace 0` at seeds 0 to
# RUNS-1, one run at a time.  It then takes two wall times that perfbench
# does not: one Tier-1 run (`python -m pytest -q -W error` over tests/)
# and one standard `ringloc bench` (the oracle predictor, 7 conditions x
# 100 frames), each timed by bash's `time`.
#
# The file holds the git revision (with "-dirty" when the tree differs
# from it), the env block of the first perfbench run (nproc, Python,
# numpy, BLAS and its threads, src_lines), src_lines again at the top, and
# per workload the seeds, each run's `correct` and, per end-to-end
# metric, its unit and the median, min and max over the runs.  Every
# number is one that perfbench or the shell printed; the script only
# gathers them.  Comparing two trees: run the script in each checkout
# (copy it into the older one) and read the two files side by side.
set -euo pipefail

n=${1:?usage: ci/bench.sh N [RUNS]}
runs=${2:-3}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

workloads="oracle-bench regressor-stream train-toy dense-scan"
for w in $workloads; do
  for ((s = 0; s < runs; s++)); do
    python3 perfbench/run.py --workload "$w" --seed "$s" --trace 0 \
      > "$tmp/$w-$s.out"
  done
done

TIMEFORMAT=%R
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
# A failing Tier-1 is recorded, not fatal: its summary line says so.
{ time python -m pytest -q -W error tests > "$tmp/tier1.out" 2>&1 \
    || true; } 2> "$tmp/tier1.s"
{ time python -m ringloc.cli bench --out "$tmp/bench"; } 2> "$tmp/bench.s"

python3 - "$tmp" "$runs" "$workloads" \
  "$(git describe --always --dirty --abbrev=40)" "BENCH_$n.json" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

tmp, runs, workloads, revision, out = sys.argv[1:]
tmp, seeds = Path(tmp), list(range(int(runs)))
env, table = None, {}
for w in workloads.split():
    results = []
    for s in seeds:
        lines = (tmp / f"{w}-{s}.out").read_text().splitlines()
        env = env or json.loads(next(x for x in lines
                                     if x.startswith("env "))[4:])
        results.append(json.loads(lines[-1]))
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"unit": first["unit"],
                         "median": statistics.median(values),
                         "min": min(values), "max": max(values)}
    table[w] = {"seeds": seeds, "correct": [r["correct"] for r in results],
                "metrics": metrics}
tier1 = (tmp / "tier1.out").read_text().strip().splitlines()[-1]
record = {"revision": revision, "env": env, "src_lines": env["src_lines"],
          "workloads": table,
          "tier1": {"wall_s": float((tmp / "tier1.s").read_text()),
                    "result": tier1.strip("= ")},
          "standard_bench_wall_s": float((tmp / "bench.s").read_text())}
Path(out).write_text(json.dumps(record, indent=1) + "\n")
EOF
echo "wrote $root/BENCH_$n.json"

#!/usr/bin/env bash
# Write ringloc's standard output set into OUT:
#
#   ci/outputs.sh OUT
#
# Each run writes OUT/NAME (its --out directory) and OUT/NAME.status (its
# exit code); a run that fails does not stop the others.  The set: the
# standard bench; train-toy under each of its three losses (mean and
# matching for 5 epochs, as the CI reruns them); a simulated scan
# (OUT/scan.csv, frame 0 of the standard trajectory); oracle localize of
# it, plain and under --perturb yaw=90; regressor localize with the
# weights the trr run trained; rectify of it; project --recover of it;
# encode of the voxels that project wrote; and, at a real sensor's scale,
# a 1024x32 scan (OUT/dense_scan.csv, frame 0, ~27k points) and project
# --recover of it, whose files span many of io's write blocks.  project
# and encode read the raw scan, so RANSAC changes leave them alone.
#
# This is the one list of standard runs outside the test suite (criterion
# 10 is the one inside it).  Comparing two trees: run the script from each
# checkout into its own directory and `diff -r` the two.  CI's
# ci/installed.sh runs it at one and at two BLAS threads with warnings as
# errors, requires every status to read 0 and `diff -r`s the two, then
# runs its own legs on this set's scan and trained weights.  A new
# standard run is added here, once.  It runs the `ringloc` on PATH, or,
# when there is none, `python -m ringloc.cli` from this checkout's src/.
set -euo pipefail

out=${1:?usage: ci/outputs.sh OUT}
mkdir -p "$out"
src=$(cd "$(dirname "$0")/../src" && pwd)
if command -v ringloc >/dev/null 2>&1; then
  ringloc_cmd=(ringloc)
else
  export PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}"
  ringloc_cmd=(python -m ringloc.cli)
fi

# run NAME ARGS: `ringloc ARGS --out OUT/NAME`, exit code to NAME.status
run() {
  local name=$1 status=0
  shift
  "${ringloc_cmd[@]}" "$@" --out "$out/$name" || status=$?
  echo "$status" > "$out/$name.status"
}

run bench bench
run train train-toy
for loss in mean matching; do
  run "$loss" train-toy --loss "$loss" --epochs 5
done
python -c "
import sys
from ringloc import io
from ringloc.config import standard_bench_config
from ringloc.pipeline import simulate_trajectory
x = simulate_trajectory(standard_bench_config(), 0, [0])[2][0]
io.write_scan_csv(sys.argv[1], x.cloud, x.classes, x.gt_world)
" "$out/scan.csv"
run localize localize "$out/scan.csv"
run yaw90 localize "$out/scan.csv" --perturb yaw=90
run regressor localize "$out/scan.csv" --predictor regressor \
  --regressor-weights "$out/train/regressor_weights.bin"
run rectify rectify "$out/scan.csv"
run project project "$out/scan.csv" --recover
run encode encode "$out/project/voxels.csv"
python -c "
import sys
from ringloc import io
from ringloc.config import parse_config_text
from ringloc.pipeline import simulate_trajectory
cfg = parse_config_text('config_version = 1\nsensor.n_azimuth = 1024\n'
                        'sensor.n_elevation = 32\n')
x = simulate_trajectory(cfg, 0, [0])[2][0]
io.write_scan_csv(sys.argv[1], x.cloud, x.classes, x.gt_world)
" "$out/dense_scan.csv"
run denseproject project "$out/dense_scan.csv" --recover

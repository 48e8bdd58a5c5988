#!/usr/bin/env bash
# Check the installed ringloc package from outside the checkout:
#
#   ci/installed.sh DIR
#
# Every run writes into DIR (created if missing).  Tier-1 imports ringloc
# from src/; this checks the installed copy: the console script, the
# standard config built from the defaults (bench reads no data file), a
# config value outside its range exiting 2 at load, a flag that sets a
# key (--epochs) outside that key's range and a localize --perturb
# magnitude outside its kind's range (fov_limit=0) each exiting 2 before
# --out is created, --help stating the ranges, and the shipped report
# schema.
#
# The standard runs are ci/outputs.sh's, and only there: this script runs
# it into DIR/std1 at one BLAS thread and into DIR/std2 at two, both with
# warnings as errors, then requires every run to exit 0 and the two trees
# to hold the same bytes.  That covers the standard bench, train-toy under
# each of its three losses (which share one backward), oracle localize
# plain and under --perturb yaw=90, regressor localize, rectify, project
# --recover and encode.  Warnings as errors matter for bench and rectify:
# pose and plane RANSAC share one stop rule, whose edge an inlier ratio of
# 1 meets (oracle pose frames do), and rectify runs that rule on the
# ground plane alone.
#
# Its own legs read std1's scan (std1/scan.csv) and trained weights
# (std1/train/*.bin).  `twice NAME ARGS` runs `ringloc ARGS` at one and at
# two BLAS threads into NAME1 and NAME2; both must exit alike, with a code
# that EXIT_OK accepts (0 unless set), and write the same bytes.  The
# README's quick-start localize loads both saved weight files; it may exit
# 0 or 4 (no consensus).  One localize stacks two --perturb flags, which
# draw in turn from one generator.  A scan row past the coordinate bound
# (1.7e308 m) exits 2 at the reader, with warnings as errors, and so does
# a scan row holding a byte that is not UTF-8 (0xff).  The dense
# bench is the one run at a real sensor's scale (1024x32 rays, ~27k
# points), where reliability selection and voxelize work on tens of
# thousands of rows.  The pole-to-pole bench casts level rays (dz = 0, so
# the slab test divides by zero) and straight up and down (a = dx^2 + dy^2
# near 0), with warnings as errors.  A bench whose every frame fails (a
# pose threshold nothing meets) still exits 0 and lists each frame in
# failures.csv.
#
# It runs the `ringloc` on PATH, or, when there is none, `python -m
# ringloc.cli` from this checkout's src/ (then the `python -c` line imports
# that copy too).  Like a workflow `run:` step, it stops at the first
# failing command (`set -e`).
set -e

dir=${1:?usage: ci/installed.sh DIR}
ci=$(cd "$(dirname "$0")" && pwd)
if command -v ringloc >/dev/null 2>&1; then
  ringloc_cmd=(ringloc)
else
  export PYTHONPATH="$ci/../src${PYTHONPATH:+:$PYTHONPATH}"
  ringloc_cmd=(python -m ringloc.cli)
fi
mkdir -p "$dir"
cd "$dir"

for n in 1 2; do
  OPENBLAS_NUM_THREADS=$n PYTHONWARNINGS=error bash "$ci/outputs.sh" "std$n"
done
diff -r std1 std2
for status in std1/*.status; do
  grep -qx 0 "$status" || { echo "$status: exit $(cat "$status")" >&2; exit 1; }
done
test -f std1/bench/perturbations.csv

twice() {
  name=$1; shift
  for n in 1 2; do
    status=0
    OPENBLAS_NUM_THREADS=$n "${ringloc_cmd[@]}" "$@" --out "$name$n" || status=$?
    echo "$status" > "$name$n.status"
  done
  grep -qxE "${EXIT_OK:-0}" "${name}1.status"
  diff "${name}1.status" "${name}2.status"
  diff -r "${name}1" "${name}2"
}
printf 'config_version = 1\ntrajectory.n_poses = 10\n' > short.cfg
"${ringloc_cmd[@]}" bench --config short.cfg --out short
test "$(wc -l < short/baseline_frames.csv)" -eq 11
"${ringloc_cmd[@]}" --help > help.txt
grep -E '^  pose\.iterations +.*; standard 300$' help.txt
grep -E '^  bench\.perturbations +.*dropout in \[0, 0\.9\]' help.txt
grep -E '^  sensor\.n_azimuth +.*; in \[1, 4096\]; standard 64$' help.txt
printf 'config_version = 1\ntrajectory.height = nan\n' > nan.cfg
status=0; "${ringloc_cmd[@]}" bench --config nan.cfg --out nan || status=$?
test "$status" -eq 2
status=0; "${ringloc_cmd[@]}" train-toy --epochs -1 --out eneg || status=$?
test "$status" -eq 2
test ! -e eneg
status=0; "${ringloc_cmd[@]}" localize std1/scan.csv --perturb fov_limit=0 --out pneg || status=$?
test "$status" -eq 2
test ! -e pneg
EXIT_OK='0|4' twice quick localize std1/scan.csv --predictor regressor \
  --encoder-weights std1/train/encoder_weights.bin \
  --regressor-weights std1/train/regressor_weights.bin
twice perturb localize std1/scan.csv --perturb random_yaw --perturb dropout=0.5
cp std1/scan.csv far.csv
echo '1.7e308,1.7e308,1.7e308,0.5,0,0.0,0.0,0.0' >> far.csv
PYTHONWARNINGS=error EXIT_OK=2 twice far localize far.csv
cp std1/scan.csv notutf8.csv
printf '\377,0,0,0.5,0,0.0,0.0,0.0\n' >> notutf8.csv
PYTHONWARNINGS=error EXIT_OK=2 twice notutf8 localize notutf8.csv
printf 'config_version = 1\ntrajectory.n_poses = 3\npose.threshold = 1e-300\nbench.perturbations = yaw:90\n' > allfail.cfg
"${ringloc_cmd[@]}" bench --config allfail.cfg --out allfail
test "$(grep -c ',NoConsensus$' allfail/failures.csv)" -eq 6
printf 'config_version = 1\nsensor.n_azimuth = 1024\nsensor.n_elevation = 32\ntrajectory.n_poses = 2\n' > dense.cfg
PYTHONWARNINGS=error twice dense bench --config dense.cfg
printf 'config_version = 1\nsensor.elevation_min_deg = -90\nsensor.elevation_max_deg = 90\nsensor.n_elevation = 19\ntrajectory.n_poses = 2\n' > poles.cfg
PYTHONWARNINGS=error twice poles bench --config poles.cfg
python -c "from ringloc.metrics import report_schema; report_schema()"

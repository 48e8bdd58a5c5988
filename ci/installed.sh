#!/usr/bin/env bash
# Check the installed ringloc package from outside the checkout:
#
#   ci/installed.sh DIR
#
# Every run writes into DIR (created if missing).  Tier-1 imports ringloc
# from src/; this checks the installed copy: the console script, the
# standard config built from the defaults (bench reads no data file), a
# config value outside its range (nan), a flag that sets a key (--epochs)
# outside that key's range and a localize --perturb magnitude outside its
# kind's range (fov_limit=0) each exiting 2, --help stating the ranges,
# and the shipped report schema.
#
# The standard runs are ci/outputs.sh's, and only there: this script runs
# it into DIR/std1 at one BLAS thread and into DIR/std2 at two, both with
# warnings as errors, then requires every run to exit 0 and the two trees
# to hold the same bytes.  That covers the standard bench, train-toy under
# each of its three losses (which share one backward), oracle localize
# plain and under --perturb yaw=90, regressor localize, rectify, project
# --recover and encode, and project --recover of a 1024x32 scan, whose
# files span many write blocks.  Warnings as errors matter for bench and
# rectify: pose and plane RANSAC share one stop rule, whose edge an
# inlier ratio of 1 meets (oracle pose frames do), and rectify runs that
# rule on the ground plane alone.
#
# Its own legs read std1's scan (std1/scan.csv) and trained weights
# (std1/train/*.bin).  `twice NAME ARGS` runs `ringloc ARGS` at one and at
# two BLAS threads into NAME1 and NAME2; both must exit alike, with a code
# that EXIT_OK accepts (0 unless set), and each run's stderr is kept in
# NAME1.err and NAME2.err (and shown).  A run that exits non-zero must
# leave no --out, neither NAME1 nor NAME2 (the first write creates it, and
# a failing command writes nothing); one that exits 0 must make both or
# neither, and when it made them, the two must hold the same bytes.  The
# README's quick-start localize loads both saved weight files; it may exit
# 0 or 4 (no consensus).  One localize stacks two --perturb flags, which
# draw in turn from one generator.  The seed-1 bench's gaussian_noise
# condition holds pose searches whose stop bound falls below the
# hypotheses fitted ahead, so a later block ends at that bound; both
# thread counts must give its bytes too.  A scan row past the coordinate
# bound (1.7e308 m) exits 2 at the reader, with warnings as errors, and
# so does a scan row holding a byte that is not UTF-8 (0xff).  A
# --perturb magnitude of -0 (gaussian_noise=-0) lies below its range
# closed at 0, so localize exits 2 at load, with warnings as errors.
# random_yaw takes no magnitude (its range is [0, 0]), so a bench with
# --perturb random_yaw=5 exits 2 at load, naming the random_yaw
# magnitude, rather than run the standard random_yaw condition under a
# second label.  Two yaws that agree to 6 significant digits
# (0.1234567 and 0.1234568) are two conditions, and perturbations.csv
# gives them two labels: no label repeats in its first column.  A
# cloud of two points 1e9 m out, past the voxel index range, voxelizes to
# a grid with no cell: project exits 5, with warnings as errors.  A voxel
# row of std1's project output whose iy is one past the index range
# (1048576) exits 2 at encode's reader, naming its line, with warnings as
# errors: the reader's line check is the one guard on that input.  The
# dense bench is the one run at a real sensor's scale (1024x32 rays, ~27k
# points), where reliability selection and voxelize work on tens of
# thousands of rows.  The pole-to-pole bench casts level rays (dz = 0, so
# the slab test divides by zero) and straight up and down (a = dx^2 +
# dy^2 near 0), with warnings as errors.  A bench whose
# every frame fails (a pose threshold nothing meets) still exits 0, lists
# each frame in failures.csv, and writes a baseline_summary.json of no
# frame that the shipped report schema accepts.  An encoder weight file
# whose every word is 1e20 (std1's trained encoder, rescaled by one
# `python -c` line) is finite, so it loads, but the encoder overflows to
# inf and NaN: localize with it exits 4 on "predictions are not finite",
# with warnings as errors, where the SVD would not converge, and encode
# with it exits 2, naming the file, before it writes a feature row.  A
# 3-pose bench at a subnormal elevation bound (sensor.elevation_min_deg =
# 1e-320) casts a ray whose ground and slab distances overflow to inf, the
# level ray's no-hit case; it exits 0 with warnings as errors.
#
# It runs the `ringloc` on PATH, or, when there is none, `python -m
# ringloc.cli` from this checkout's src/ (then the `python -c` lines import
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
    OPENBLAS_NUM_THREADS=$n "${ringloc_cmd[@]}" "$@" --out "$name$n" \
      2> "$name$n.err" || status=$?
    cat "$name$n.err" >&2
    echo "$status" > "$name$n.status"
  done
  grep -qxE "${EXIT_OK:-0}" "${name}1.status"
  diff "${name}1.status" "${name}2.status"
  if ! grep -qx 0 "${name}1.status"; then
    test ! -e "${name}1"
    test ! -e "${name}2"
  elif [ -e "${name}1" ] || [ -e "${name}2" ]; then
    diff -r "${name}1" "${name}2"
  fi
}
printf 'config_version = 1\ntrajectory.n_poses = 10\n' > short.cfg
"${ringloc_cmd[@]}" bench --config short.cfg --out short
test "$(wc -l < short/baseline_frames.csv)" -eq 11
"${ringloc_cmd[@]}" --help > help.txt
grep -E '^  pose\.iterations +.*; standard 300$' help.txt
grep -E '^  bench\.perturbations +.*dropout in \[0, 0\.9\]' help.txt
grep -E '^  sensor\.n_azimuth +.*; in \[1, 4096\]; standard 64$' help.txt
printf 'config_version = 1\ntrajectory.height = nan\n' > nan.cfg
EXIT_OK=2 twice nan bench --config nan.cfg
EXIT_OK=2 twice eneg train-toy --epochs -1
EXIT_OK=2 twice pneg localize std1/scan.csv --perturb fov_limit=0
EXIT_OK='0|4' twice quick localize std1/scan.csv --predictor regressor \
  --encoder-weights std1/train/encoder_weights.bin \
  --regressor-weights std1/train/regressor_weights.bin
twice perturb localize std1/scan.csv --perturb random_yaw --perturb dropout=0.5
twice seed1 bench --seed 1
cp std1/scan.csv far.csv
echo '1.7e308,1.7e308,1.7e308,0.5,0,0.0,0.0,0.0' >> far.csv
PYTHONWARNINGS=error EXIT_OK=2 twice far localize far.csv
cp std1/scan.csv notutf8.csv
printf '\377,0,0,0.5,0,0.0,0.0,0.0\n' >> notutf8.csv
PYTHONWARNINGS=error EXIT_OK=2 twice notutf8 localize notutf8.csv
PYTHONWARNINGS=error EXIT_OK=2 twice negzero localize std1/scan.csv --perturb gaussian_noise=-0
EXIT_OK=2 twice ryaw bench --config short.cfg --perturb random_yaw=5
grep -qF 'random_yaw magnitude' ryaw1.err
grep -qF 'random_yaw magnitude' ryaw2.err
twice close bench --config short.cfg --perturb yaw=0.1234567 --perturb yaw=0.1234568
test -z "$(cut -d, -f1 close1/perturbations.csv | sort | uniq -d)"
printf 'x,y,z,intensity\n1000000000.0,0.0,0.0,0.5\n1000000000.0,1.0,0.0,0.5\n' > allfar.csv
PYTHONWARNINGS=error EXIT_OK=5 twice allfar project allfar.csv
awk -F, -v OFS=, 'NR == 3 {$2 = 1048576} 1' std1/project/voxels.csv > bigy.csv
PYTHONWARNINGS=error EXIT_OK=2 twice bigy encode bigy.csv
grep -qF 'bigy.csv:3: voxel index outside' bigy1.err
grep -qF 'bigy.csv:3: voxel index outside' bigy2.err
printf 'config_version = 1\ntrajectory.n_poses = 3\npose.threshold = 1e-300\nbench.perturbations = yaw:90\n' > allfail.cfg
"${ringloc_cmd[@]}" bench --config allfail.cfg --out allfail
test "$(grep -c ',NoConsensus$' allfail/failures.csv)" -eq 6
python -c "import json, sys, jsonschema; from ringloc.metrics import report_schema
jsonschema.validate(json.load(open(sys.argv[1])), report_schema())" allfail/baseline_summary.json
printf 'config_version = 1\nsensor.n_azimuth = 1024\nsensor.n_elevation = 32\ntrajectory.n_poses = 2\n' > dense.cfg
PYTHONWARNINGS=error twice dense bench --config dense.cfg
printf 'config_version = 1\nsensor.elevation_min_deg = -90\nsensor.elevation_max_deg = 90\nsensor.n_elevation = 19\ntrajectory.n_poses = 2\n' > poles.cfg
PYTHONWARNINGS=error twice poles bench --config poles.cfg
python -c "import sys, numpy as np; from ringloc import io; io.write_tensors(sys.argv[2], {n: np.full_like(t, 1e20) for n, t in io.read_tensors(sys.argv[1]).items()})" std1/train/encoder_weights.bin huge.bin
PYTHONWARNINGS=error EXIT_OK=4 twice hugeloc localize std1/scan.csv --predictor regressor \
  --encoder-weights huge.bin --regressor-weights std1/train/regressor_weights.bin
grep -qF 'predictions are not finite' hugeloc1.err
EXIT_OK=2 twice hugeenc encode std1/project/voxels.csv --encoder-weights huge.bin
grep -qF 'huge.bin: encoder features overflow' hugeenc1.err
printf 'config_version = 1\nsensor.elevation_min_deg = 1e-320\ntrajectory.n_poses = 3\n' > subnormal.cfg
PYTHONWARNINGS=error twice subnormal bench --config subnormal.cfg
python -c "from ringloc.metrics import report_schema; report_schema()"

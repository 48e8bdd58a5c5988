"""ringloc benchmark: one command for every workload, end to end or traced.

    python3 perfbench/run.py --workload oracle-bench --seed 0 --seconds 15 --trace 0

Run from the root of a ringloc checkout.  The checkout's own `src/` is
put first on the import path, and the run stops unless `ringloc` was
imported from there.  BLAS is pinned to one thread and the pipeline's
thread variable is cleared, so every workload runs serially.

With --trace 0 the run times operations until --seconds have passed and
reports the end-to-end metrics.  With --trace 1 it repeats the work with
a span around every call into a ringloc layer and reports the per-layer
metrics.  Either way the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Run records (environment, samples, checks, spans) are written to
perfbench/_runs/.
"""

import os
import sys
import time

START = time.perf_counter()  # set-up time counts from here

# Pin threads before numpy loads: BLAS serial, the pipeline at its default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LEADER_GEO_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh child processes

WORKLOAD_NAMES = ("oracle-bench", "regressor-stream", "train-toy", "dense-scan")
END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child: set up, report, exit
    return p.parse_args(argv)


def import_checkout_ringloc():
    """Import ringloc from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ringloc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ringloc from {src}: {exc}")
    where = Path(ringloc.__file__).resolve()
    if not where.is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: ringloc imported from {where}, "
                         f"not from the checkout under test ({src})")
    return ringloc


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "LEADER_GEO_THREADS": os.environ.get("LEADER_GEO_THREADS", "unset"),
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_phase(wl, seconds: float):
    """Closed loop, one client: run operations for `seconds` at reference speed.

    A new operation starts only while the mean operation still fits in
    the budget, so a run ends near `seconds` and always holds one.
    Counting the budget at reference speed keeps the operation count of
    long operations from flipping with the host's load.  Returns the
    operations' records, wall times, and reference-speed times.
    """
    starts, durations, records, budget = [], [], [], []
    with speed.SpeedProbe() as probe:
        while True:
            starts.append(time.perf_counter())
            records.append(wl.op(len(records)))
            durations.append(time.perf_counter() - starts[-1])
            budget += probe.rescale(starts[-1:], durations[-1:])
            if sum(budget) + statistics.fmean(budget) > seconds:
                break
    rescaled = probe.rescale(starts, durations)
    wl.note(f"timed phase: {sum(durations):.3f} s wall, {sum(rescaled):.3f} s "
            f"at reference speed, {len(probe.samples)} speed probes")
    return records, durations, rescaled


def setup_probes(args, count: int):
    """Set-up times of `count` fresh processes doing only the set-up."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def end_to_end(wl, args, own_setup: float):
    """Timed phase, checks and set-up samples: (attempted, failed, values)."""
    records, durations, rescaled = timed_phase(wl, args.seconds)
    rss = peak_rss_mb()
    attempted, failed = wl.check(records)
    setups = [own_setup] + setup_probes(args, SETUP_SAMPLES - 1)
    frames = wl.frames_per_op * len(records)
    frame_ms = [1e3 * d / wl.frames_per_op for d in rescaled]
    wall_ms = [1e3 * d / wl.frames_per_op for d in durations]
    values = {
        "setup_s": statistics.median(setups),
        "frames_per_s": frames / sum(rescaled),
        "frame_ms_p50": statistics.median(frame_ms),
        "frame_ms_p90": float(np.percentile(frame_ms, 90)),
        "peak_rss_mb": rss,
    }
    beyond = sum(1 for v in frame_ms if v > values["frame_ms_p90"])
    wl.note(f"{len(records)} operations, {len(frame_ms)} frame-latency "
            f"samples ({beyond} beyond p90); set-up samples "
            f"{[round(x, 4) for x in setups]}")
    wl.note(f"wall clock: {frames / sum(durations):.4f} frames/s, "
            f"p50 {statistics.median(wall_ms):.4f} ms, "
            f"p90 {np.percentile(wall_ms, 90):.4f} ms")
    wl.note(f"inputs digest {wl.digest()}")
    samples = {"frame_ms": frame_ms, "wall_frame_ms": wall_ms,
               "setup_s": setups}
    return attempted, failed, values, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS, prefix="work-") as tmp:
        with speed.SpeedProbe() as probe:
            import_checkout_ringloc()
            import spans
            import workloads
            tracer = spans.Tracer() if args.trace else None
            wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp), tracer)
            wl.setup()
            setup_wall = time.perf_counter() - START
        own_setup = probe.rescale([START], [setup_wall])[0]
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0

        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "env": environment()}
        if args.trace:
            attempted, failed, values = wl.replay()
            units = workloads.LAYER_METRICS
            record["spans"] = tracer.records()
        else:
            attempted, failed, values, record["samples"] = end_to_end(
                wl, args, own_setup)
            units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    result = {"correct": failed == 0, "attempted": int(attempted),
              "failed": int(failed), "metrics": metrics}
    record.update(result, notes=wl.notes)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(record["env"]))
    for line in wl.notes:
        print("check " + line)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

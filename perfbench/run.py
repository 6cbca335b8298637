"""Time-to-verdict benchmark for covsig.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; covsig is imported from its src/
directory, so nothing is built or installed.  The workloads are in
workloads.py and BENCHMARK.json; README.md next to this file says what each
metric should move.

With --trace 0 this prints the end-to-end metrics: setup_s, the median time a
fresh interpreter takes to import covsig and answer `pattern y`, measured
here in fresh subprocesses, and from one fresh worker process that runs the
workload: wall_s, job_p50_s, job_p90_s and peak_rss_mb.  With --trace 1 the
worker wraps each layer's entry points and prints the per-layer metrics,
writing every span to .bench_build/perfbench/.  The last stdout line is
always one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9  # the first only fills the bytecode cache and is not counted
PROBE = "import sys, covsig\nfrom covsig.cli import run_command\nsys.exit(run_command(['pattern', 'y']))"
PROBE_OUTPUT = '{"0": 1}\n'
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def setup_seconds():
    """Median time of a fresh `import covsig` plus a trivial run_command.

    Returns (reference seconds, seconds as measured); the calibration kernel
    runs before and after each probe, as around each job in worker.py.
    """
    times, kernel = [], [calibrate.measure()]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(perf_counter() - t0)
        kernel.append(calibrate.measure())
        if proc.returncode != 0 or proc.stdout != PROBE_OUTPUT:
            raise BenchError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    scaled = [t * calibrate.REFERENCE_S * 2 / (k0 + k1)
              for t, k0, k1 in zip(times, kernel, kernel[1:])]
    return statistics.median(scaled[1:]), statistics.median(times[1:])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    start = perf_counter()
    if not (SRC / "covsig" / "__init__.py").is_file():
        print(f"no covsig sources under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, setup_measured = {}, None
        if not args.trace:
            setup, setup_measured = setup_seconds()
            metrics["setup_s"] = {"value": setup, "unit": "s"}
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        remaining = RUN_LIMIT_S - (perf_counter() - start)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with code {proc.returncode}")
        report = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded its time limit", file=sys.stderr)
        return 3
    except BenchError as e:
        print(e, file=sys.stderr)
        return 3

    metrics.update(report.pop("metrics"))
    result = {key: report.pop(key) for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    report["fail_ratio"] = result["failed"] / result["attempted"]
    if setup_measured is not None:
        report["measured"]["setup_s"] = setup_measured
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

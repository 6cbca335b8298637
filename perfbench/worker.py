"""One benchmark run in a fresh process: warm-up, timed runs, verification.

Started by run.py; prints one JSON object as its last stdout line.  Jobs run
one after another in this single thread (a closed loop with one client).  A
job's time runs from the call into covsig.cli.run_command to its return;
checking the output against the reference happens after the clock stops.
Each job has a time limit, enforced with SIGALRM so that no thread is added:
a job that hits it counts as failed and the pass goes on.

Untraced, the run makes one pass over the jobs and then fills the rest of
--seconds with a schedule that repeats the shorter jobs more often.  The
calibration kernel (calibrate.py) runs between jobs and, on SIGVTALRM,
inside them; each job run is reported in reference seconds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import reference
import tracing
import workloads

# every run ends well inside the 180 s a run may take, whatever hangs
RUN_DEADLINE_S = 150.0
MIN_PASSES = 2  # traced passes, whose counters must repeat
CALIBRATE_EVERY_S = 0.5  # between jobs, wall seconds
SAMPLE_EVERY_S = 0.25  # inside jobs, CPU seconds
KERNEL_WINDOW_S = 1.0


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class Runner:
    def __init__(self, run_command, jobs, job_limit: float, deadline: float):
        self.run_command = run_command
        self.jobs = jobs
        self.job_limit = job_limit
        self.deadline = deadline
        self.expected = {}
        for job in jobs:
            if job not in self.expected:
                self.expected[job] = reference.Expected(job.knot, job.m, job.d, job.control)
        self.tracer = None
        self.kernels = []  # (time, kernel seconds) of every calibration
        self.calibrated_at = float("-inf")
        self.sample_in_jobs = False  # calibrate inside jobs too, on SIGVTALRM
        self.paused = 0.0  # seconds the current job spent in sample()
        self.problems = []  # (pass, job label, status, detail)

    def run_job(self, job, pass_no):
        """(status, seconds) for one job; status is ok/wrong/unresolved/raised/timeout."""
        limit = min(self.job_limit, self.deadline - perf_counter())
        if limit <= 0:
            return self._failed(pass_no, job, "timeout", "run deadline reached", 0.0)
        out = io.StringIO()
        span = None
        self.paused = 0.0
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            if self.sample_in_jobs:
                signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            try:
                if self.tracer is not None:
                    span = self.tracer.open(tracing.RUN_COMMAND)
                code = self.run_command(job.argv(), out)
                elapsed = perf_counter() - t0 - self.paused
            finally:
                signal.setitimer(signal.ITIMER_VIRTUAL, 0)
                signal.setitimer(signal.ITIMER_REAL, 0)
                if span is not None:
                    self.tracer.close(span)
        except JobTimeout:
            return self._failed(pass_no, job, "timeout", f"over {limit:.1f}s", perf_counter() - t0)
        except Exception as e:  # the job failed; the pass goes on
            return self._failed(pass_no, job, "raised", repr(e), perf_counter() - t0)
        text = out.getvalue()
        if code == 3:  # an Unresolved verdict or an uncertifiable comparison
            return self._failed(pass_no, job, "unresolved", text.strip()[:200], elapsed)
        why = reference.check_output(job, self.expected[job], code, text)
        if why is not None:
            return self._failed(pass_no, job, "wrong", why, elapsed)
        return "ok", elapsed

    def _failed(self, pass_no, job, status, detail, elapsed):
        self.problems.append((pass_no, job.label(), status, detail))
        return status, elapsed

    def calibrate(self, force=False):
        """Time the calibration kernel, if forced or CALIBRATE_EVERY_S has passed since the last time."""
        t0 = perf_counter()
        if force or t0 - self.calibrated_at >= CALIBRATE_EVERY_S:
            k = calibrate.measure()
            self.kernels.append((t0 + k / 2, k))
            self.calibrated_at = perf_counter()

    def sample(self, signum, frame):
        """SIGVTALRM handler: time the kernel in the middle of a job, off the job's clock."""
        t0 = perf_counter()
        k = calibrate.measure()
        self.kernels.append((t0 + k / 2, k))
        self.paused += perf_counter() - t0

    def kernel_at(self, start, end):
        """Mean kernel seconds over the kernel runs during a job run or within KERNEL_WINDOW_S of it.

        The samples are evenly spaced in time, so their mean follows the
        machine's speed averaged over the run, which is what the job's time
        reflects.
        """
        lo, hi = start - KERNEL_WINDOW_S, end + KERNEL_WINDOW_S
        return statistics.fmean(k for t, k in self.kernels if lo <= t <= hi)

    def run_pass(self, pass_no, order=None):
        """Run jobs in `order` (by index; default each job once), and return
        each job's runs in this pass as [(status, seconds, start, end)].

        The calibration kernel runs between jobs, outside their clocks: at
        the start and end of the pass, and after a job run when
        CALIBRATE_EVERY_S has passed.
        """
        if order is None:
            order = range(len(self.jobs))
        self.calibrate(force=True)
        results = [[] for _ in self.jobs]
        for job_no in order:
            if self.tracer is not None:
                self.tracer.pass_no, self.tracer.job_no = pass_no, job_no
            t0 = perf_counter()
            status, elapsed = self.run_job(self.jobs[job_no], pass_no)
            results[job_no].append((status, elapsed, t0, perf_counter()))
            self.calibrate()
        self.calibrate(force=True)
        return results


def _passes(runner, first_no, until, minimum):
    """Run `minimum` passes, then more while another is expected to end by `until`."""
    passes, durations = [], []
    while len(passes) < minimum or perf_counter() + statistics.median(durations) <= until:
        if perf_counter() >= runner.deadline:
            break
        t0 = perf_counter()
        passes.append(runner.run_pass(first_no + len(passes)))
        durations.append(perf_counter() - t0)
    return passes


def _schedule(first, seconds):
    """The order of the runs that follow the first pass, filling about `seconds`.

    Job i, which took t_i in the first pass, runs n_i ~ c / sqrt(t_i) more
    times, at least once.  That spends the time where it narrows the sum of
    the jobs' medians most: the variance of job i's median goes as
    t_i^2 / n_i, and minimising the sum of those for a fixed sum of n_i t_i
    gives n_i proportional to 1 / sqrt(t_i).  Each job's runs are spread
    evenly over the schedule, so that every job sees the machine's slow and
    fast phases alike.
    """
    times = [max(runs[0][1], 1e-3) for runs in first]
    # wall seconds per job second, calibration included
    overhead = (first[-1][0][3] - first[0][0][2]) / sum(times)
    c = max(seconds, 0.0) / overhead / sum(t ** 0.5 for t in times)
    counts = [max(1, round(c / t ** 0.5)) for t in times]
    return [i for _, i in sorted(((k + 0.5) / n, i) for i, n in enumerate(counts) for k in range(n))]


def _job_runs(passes):
    """Each job's runs over all passes."""
    return [[run for p in passes for run in p[i]] for i in range(len(passes[0]))]


def _best_job_times(passes):
    """Each job's lowest time over its runs, in seconds as measured."""
    return [min(run[1] for run in runs) for runs in _job_runs(passes)]


def _reference_job_times(runner, passes):
    """Each job's median time over its runs, in reference seconds (see calibrate.py)."""
    return [statistics.median(dt * calibrate.REFERENCE_S / runner.kernel_at(t0, t1)
                              for _, dt, t0, t1 in runs)
            for runs in _job_runs(passes)]


def _p90(times):
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def _environment():
    import sympy

    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = perf_counter()
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    import covsig
    from covsig.cli import run_command

    if Path(covsig.__file__).resolve().parent != src / "covsig":
        print(f"covsig imported from {covsig.__file__}, not from {src}", file=sys.stderr)
        return 2

    make_jobs, job_limit = workloads.WORKLOADS[args.workload]
    runner = Runner(run_command, make_jobs(args.seed), job_limit, start + RUN_DEADLINE_S)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGVTALRM, runner.sample)

    runner.run_job(runner.jobs[0], -1)  # warm-up, not timed
    t_measure = perf_counter()
    report = {"env": _environment(), "workload": args.workload, "seed": args.seed}
    if not args.trace:
        runner.sample_in_jobs = True
        first = runner.run_pass(0)
        order = _schedule(first, t_measure + args.seconds - perf_counter())
        passes = [first, runner.run_pass(1, order)]
        best = _best_job_times(passes)
        report["measured"] = {"wall_s": sum(best), "job_p50_s": statistics.median(best),
                              "job_p90_s": _p90(best)}
        kernels = [k for _, k in runner.kernels]
        report["kernel_s"] = {"runs": len(kernels), "min": min(kernels),
                              "median": statistics.median(kernels), "max": max(kernels)}
        times = _reference_job_times(runner, passes)
        report["job_ref_s"] = [round(t, 4) for t in times]
        metrics = {
            "wall_s": (sum(times), "s"),
            "job_p50_s": (statistics.median(times), "s"),
            "job_p90_s": (_p90(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        counters_ok = True
    else:
        # untraced passes first, for the tracing overhead; then traced ones
        plain = _passes(runner, 0, t_measure + args.seconds / 2, 1)
        tracer = runner.tracer = tracing.Tracer()
        with tracer.installed():
            passes = _passes(runner, len(plain), t_measure + args.seconds, MIN_PASSES)
        runner.tracer = None
        summaries = [tracer.pass_summary(len(plain) + i) for i in range(len(passes))]
        fixed = [tracing.Tracer.deterministic(s) for s in summaries]
        counters_ok = all(f == fixed[0] for f in fixed)
        if not counters_ok:
            print("counters differ between traced passes of one seed", file=sys.stderr)
        per_pass = [tracing.Tracer.layer_metrics(s) for s in summaries]
        metrics = {}
        for name, (kind, _) in tracing.LAYER_METRICS.items():
            unit = "s" if kind in ("total", "self") else "count"
            metrics[name] = (statistics.median(m[name] for m in per_pass), unit)
        metrics["trace.overhead_s"] = (sum(_best_job_times(passes)) - sum(_best_job_times(plain)), "s")
        report["counters"] = fixed[0]
        trace_file = root / ".bench_build" / "perfbench" / f"trace-{args.workload}-{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({
            **report,
            "jobs": [job.label() for job in runner.jobs],
            "span_fields": ["pass", "job", "id", "parent", "name", "start", "end"],
            "spans": tracer.spans,
        }))
        passes = plain + passes

    statuses = [run[0] for p in passes for runs in p for run in runs]
    for pass_no, label, status, detail in runner.problems:
        print(f"pass {pass_no} {label}: {status}: {detail}", file=sys.stderr)
    report.update({
        "pass_s": [sum(run[1] for runs in p for run in runs) for p in passes],
        "runs": [len(runs) for runs in _job_runs(passes)],
        "correct": counters_ok and not any(pr[2] == "wrong" for pr in runner.problems),
        "attempted": len(statuses),
        "failed": sum(s != "ok" for s in statuses),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

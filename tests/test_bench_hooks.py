"""The benchmark's tracer wraps functions by the names their callers look up.

perfbench/tracing.py is loaded from the checkout, read-only.  Every
(module, attribute) in its HOOKS must still resolve the way
Tracer.installed resolves it, or `perfbench/run.py --trace 1` breaks while
every other test passes.
"""

import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covsig.cli import run_command

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
JOB = ["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "3"]


@pytest.fixture(scope="module", autouse=True)
def warm_up():
    # perfbench/worker.py runs one untimed job before it installs the tracer,
    # and so does this module: covsig.cli binds its pipeline names when the
    # first such job runs, and Tracer.installed reads them from vars(covsig.cli)
    assert run_command(JOB, io.StringIO()) == 1


@pytest.mark.parametrize("module, path", [(h[0], h[1]) for h in tracing.HOOKS],
                         ids=[f"{h[0]}.{h[1]}" for h in tracing.HOOKS])
def test_hook_resolves(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr])


def traced(argv):
    """(layer metrics, pass summary) of one traced run of argv, which must exit 1."""
    tracer = tracing.Tracer()
    with tracer.installed():
        code = run_command(argv, io.StringIO())
    assert code == 1
    summary = tracer.pass_summary(0)
    return tracing.Tracer.layer_metrics(summary), summary


def test_traced_job_reports_the_layer_counters():
    # L(trefoil, 2) at p = 3 has D != 0: its jumps come from the blocks, and
    # the n x n covering matrix is never built
    metrics, summary = traced(["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2",
                               "--p", "3", "--format", "json"])
    assert summary["calls"]["covering.expand"] == 0
    assert metrics["covering.n"] == 0
    assert metrics["fast.sig_calls"] > 0 and metrics["fast.sig_fallbacks"] == 0
    assert metrics["jumps.points"] > 0
    # D(w) comes from the core, through the hooked name, in one call
    assert metrics["fast.deg_D"] == 20
    assert summary["calls"]["fast.det_poly"] == 1
    assert summary["calls"]["covering.blocks"] == 1
    assert summary["calls"]["jumps.extract"] == 1


def test_traced_job_with_d_zero_counts_the_covering_matrix():
    # A_kk + A_kk^T is singular, so D = 0, and the jumps still come from the
    # core in one D(w) pass: the n x n matrix (n = 14) is never built
    metrics, summary = traced(["obstruct", "--A", "[[1,-1],[2,0]]", "--B", "[[-2,0],[0,0]]",
                               "--C", "[[-1,-1],[1,0]]", "--epsilon", "-1",
                               "--coeffs", '{"0": 2, "1": -1}', "--p", "3", "--format", "json"])
    assert summary["calls"]["covering.expand"] == 0
    assert metrics["covering.n"] == 0
    assert summary["calls"]["fast.det_poly"] == 1


def test_cli_hooks_resolve_on_a_fresh_cli_and_the_next_job_calls_the_wrappers():
    # before any command runs, covsig.cli has loaded no pipeline module, and
    # each of its hooked names still resolves by getattr; once the tracer has
    # wrapped them, the first job must call the wrappers, not rebind the names
    probe = ("import importlib.util, io, json, sys\n"
             "import covsig.cli\n"
             "spec = importlib.util.spec_from_file_location('perfbench_tracing', sys.argv[1])\n"
             "tracing = importlib.util.module_from_spec(spec)\n"
             "spec.loader.exec_module(tracing)\n"
             "hooks = [(path, span) for module, path, span, _ in tracing.HOOKS"
             " if module == 'covsig.cli']\n"
             "loaded = 'covsig.jumps' in sys.modules\n"
             "resolved = [callable(getattr(covsig.cli, path)) for path, _ in hooks]\n"
             "tracer = tracing.Tracer()\n"
             "with tracer.installed():\n"
             "    code = covsig.cli.run_command(json.loads(sys.argv[2]), io.StringIO())\n"
             "calls = tracer.pass_summary(0)['calls']\n"
             "print(json.dumps({'loaded': loaded, 'resolved': resolved, 'code': code,\n"
             "                  'calls': {path: calls[span] for path, span in hooks}}))")
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", probe, str(TRACING), json.dumps(JOB)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["loaded"] is False
    assert report["resolved"] == [True] * 5
    assert report["code"] == 1
    assert sorted(report["calls"]) == ["build_covering", "jump_function", "period_2pi_test",
                                       "scale_jump", "theta_decimal"]
    assert all(n > 0 for n in report["calls"].values())

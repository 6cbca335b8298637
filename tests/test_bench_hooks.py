"""The benchmark's tracer wraps functions by the names their callers look up.

perfbench/tracing.py is loaded from the checkout, read-only.  Every
(module, attribute) in its HOOKS must still resolve the way
Tracer.installed resolves it, or `perfbench/run.py --trace 1` breaks while
every other test passes.
"""

import importlib
import importlib.util
import io
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
    # A_kk + A_kk^T is singular, so D = 0 and the n x n matrix is built once:
    # strands (4, 1, 2) of block size 2 give n = 14
    metrics, summary = traced(["obstruct", "--A", "[[1,-1],[2,0]]", "--B", "[[-2,0],[0,0]]",
                               "--C", "[[-1,-1],[1,0]]", "--epsilon", "-1",
                               "--coeffs", '{"0": 2, "1": -1}', "--p", "3", "--format", "json"])
    assert summary["calls"]["covering.expand"] == 1
    assert metrics["covering.n"] == 14
    assert metrics["covering.nnz"] > 0

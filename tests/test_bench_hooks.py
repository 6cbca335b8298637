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


def test_traced_job_reports_the_layer_counters():
    # L(trefoil, 2) at p = 3: strands (4, 1, 2) of block size 4, so the
    # n x n covering matrix that covering_matrix returns has n = 28
    tracer = tracing.Tracer()
    out = io.StringIO()
    with tracer.installed():
        code = run_command(["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2",
                            "--p", "3", "--format", "json"], out)
    assert code == 1
    summary = tracer.pass_summary(0)
    metrics = tracing.Tracer.layer_metrics(summary)
    assert metrics["covering.n"] == 28
    assert metrics["covering.nnz"] > 0
    assert metrics["fast.sig_calls"] > 0 and metrics["fast.sig_fallbacks"] == 0
    assert metrics["jumps.points"] > 0
    # D(w) comes from the core, through the hooked name, in one call
    assert metrics["fast.deg_D"] == 20
    assert summary["calls"]["fast.det_poly"] == 1
    assert summary["calls"]["covering.blocks"] == 1
    assert summary["calls"]["jumps.extract"] == 1


"""Per-layer tracing from outside the program.

Wrappers are installed only for the traced passes, each at the name its
caller looks up (a module global or a class attribute), and removed after.
Each call becomes a span (pass, job, id, parent, name, start, end); a layer's
self time is its spans' duration minus the part covered by direct children.
Counters that do not depend on timing (matrix sizes, degrees, call counts)
are recorded next to the spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

RUN_COMMAND = "cli.run_command"  # span the worker opens around each job


def _count_covering(tr, m):
    tr.count("covering.n", m.nrows)
    tr.count("covering.nnz", sum(1 for row in m.rows for x in row if x))


def _count_deg_d(tr, coeffs):
    tr.count("fast.deg_D", len(coeffs) - 1)


def _count_fallback(tr, sig):
    tr.count("fast.sig_fallbacks", sig is None)


def _count_unresolved(tr, cmp):
    tr.count("jumps.unresolved", cmp.name == "UNRESOLVED")


# (module, attribute path, span name, counter hook on the result)
HOOKS = (
    ("covsig.cli", "build_covering", "covering.build", None),
    ("covsig.covering", "solve_multiplicities", "pattern.solve",
     lambda tr, xs: tr.count("pattern.s", xs[1])),
    ("covsig.covering", "covering_blocks", "covering.blocks", None),
    ("covsig.covering", "covering_matrix", "covering.expand", _count_covering),
    ("covsig.cli", "jump_function", "jumps.extract", None),
    ("covsig.exact.matrix", "RatMatrix.nullspace", "exact.nullspace", None),
    ("covsig._fast", "pencil_det_poly", "fast.det_poly", _count_deg_d),
    ("covsig.jumps", "isolate_real_roots", "exact.isolate", None),
    ("covsig.exact.poly", "count_roots", "exact.count_roots", None),
    ("covsig.exact.algebraic", "AlgReal.refine", "exact.refine", None),
    ("covsig._fast", "herm_sig_fast", "fast.sig", _count_fallback),
    ("covsig.jumps", "hermitian_signature", "exact.hermitian_signature", None),
    ("covsig.cli", "scale_jump", "jumps.scale",
     lambda tr, f: tr.count("jumps.points", len(f.points))),
    ("covsig.jumps", "compare_locations", "jumps.compare", _count_unresolved),
    ("covsig.jumps", "alg_compare", "exact.alg_compare", None),
    ("covsig.cli", "period_2pi_test", "jumps.period", None),
    ("covsig.cli", "theta_decimal", "jumps.display", None),
)

# reported metric -> how it is read off one pass: ("total"|"self"|"calls", span) or ("count", counter)
LAYER_METRICS = {
    "fast.det_poly_s": ("total", "fast.det_poly"),
    "fast.sig_s": ("total", "fast.sig"),
    "fast.sig_calls": ("calls", "fast.sig"),
    "fast.sig_fallbacks": ("count", "fast.sig_fallbacks"),
    "fast.deg_D": ("count", "fast.deg_D"),
    "exact.nullspace_s": ("total", "exact.nullspace"),
    "exact.hermitian_signature_calls": ("calls", "exact.hermitian_signature"),
    "exact.count_roots_s": ("total", "exact.count_roots"),
    "exact.count_roots_calls": ("calls", "exact.count_roots"),
    "exact.refine_calls": ("calls", "exact.refine"),
    "exact.isolate_s": ("total", "exact.isolate"),
    "exact.alg_compare_calls": ("calls", "exact.alg_compare"),
    "jumps.extract_self_s": ("self", "jumps.extract"),
    "jumps.scale_s": ("total", "jumps.scale"),
    "jumps.period_s": ("total", "jumps.period"),
    "jumps.compare_calls": ("calls", "jumps.compare"),
    "jumps.unresolved": ("count", "jumps.unresolved"),
    "jumps.display_s": ("total", "jumps.display"),
    "jumps.points": ("count", "jumps.points"),
    "covering.blocks_s": ("total", "covering.blocks"),
    "covering.expand_s": ("total", "covering.expand"),
    "covering.n": ("count", "covering.n"),
    "covering.nnz": ("count", "covering.nnz"),
    "pattern.solve_s": ("total", "pattern.solve"),
    "pattern.s": ("count", "pattern.s"),
    "cli.self_s": ("self", RUN_COMMAND),
}


class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self):
        self.spans = []  # [pass, job, id, parent, name, start, end]
        self.counts = defaultdict(Counter)  # pass -> counter -> value
        self.pass_no = 0
        self.job_no = 0
        self._stack = []

    def open(self, name: str) -> list:
        rec = [self.pass_no, self.job_no, len(self.spans),
               self._stack[-1][2] if self._stack else None, name, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[6] = perf_counter()
        self._stack.pop()

    def count(self, name: str, k: int) -> None:
        self.counts[self.pass_no][name] += int(k)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every hooked function for the duration of the block."""
        saved = []
        try:
            for module, path, name, hook in HOOKS:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def pass_summary(self, pass_no: int) -> dict:
        """Inclusive time, self time and call count per span name, plus counters."""
        spans = [s for s in self.spans if s[0] == pass_no]
        child = Counter()
        for s in spans:
            if s[3] is not None:
                child[s[3]] += s[6] - s[5]
        total, self_time, calls = Counter(), Counter(), Counter()
        for s in spans:
            dur = s[6] - s[5]
            total[s[4]] += dur
            self_time[s[4]] += dur - child[s[2]]
            calls[s[4]] += 1
        return {"total": total, "self": self_time, "calls": calls, "count": self.counts[pass_no]}

    @staticmethod
    def deterministic(summary: dict) -> dict:
        """The part of a pass summary that must repeat exactly for one seed."""
        return {"calls": dict(summary["calls"]), "count": dict(summary["count"])}

    @staticmethod
    def layer_metrics(summary: dict) -> dict:
        return {metric: summary[kind][key] for metric, (kind, key) in LAYER_METRICS.items()}

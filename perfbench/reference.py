"""Independent reference outputs for benchmark jobs, and the checks against them.

Nothing here imports covsig.  The expected multiplicities come from the closed
form of the circulant solve, the scaling factors y_k from the closed form for
the L(T, m) covers (with the covering degree d = p^a in place of p), and the
knots' own jumps are hard-coded.  The covering link's jump function is then
sum_k delta_V(y_k * theta) over one fundamental period of 2*pi*s, and its
verdict follows by comparing the s windows of width 2*pi.

Cyclotomic knots are checked exactly, in Fractions.  ALG has irrational jump
angles: those are compared at 256 working bits and must agree within 2^-150,
because no exact cross-scale equality certificate exists yet.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

import mpmath

WORK_BITS = 256
ALG_TOL = mpmath.mpf(2) ** -150
# human output shows theta to 12 significant digits
HUMAN_REL_TOL = 1e-10

# Jumps of each knot's signature over theta in [0, 2*pi), as (theta/pi, value).
CYCLOTOMIC_JUMPS = {
    "trefoil": [(Fraction(1, 3), -2), (Fraction(5, 3), 2)],
    "mirror": [(Fraction(1, 3), 2), (Fraction(5, 3), -2)],
    "t25": [(Fraction(1, 5), -2), (Fraction(3, 5), -2), (Fraction(7, 5), 2), (Fraction(9, 5), 2)],
}


def _alg_jumps():
    # ALG = [[1,1],[0,2]]: det(wP - P^T) = 2w^2 - 3w + 2 has its roots at
    # cos(theta) = 3/4; the signature steps by +2 there and back at 2*pi - theta.
    with mpmath.workprec(WORK_BITS):
        phi = mpmath.acos(mpmath.mpf(3) / 4) / mpmath.pi
        return [(phi, 2), (2 - phi, -2)]


class Expected:
    """What a job must print: multiplicities, period s, jumps and verdict."""

    def __init__(self, knot: str, m: int, d: int, control: bool):
        if control:
            x = [Fraction(1)] + [Fraction(0)] * (d - 1)
        else:
            # closed form of the circulant solve for coefficients {0: m, 1: 1-m}
            den = m ** d - (m - 1) ** d
            x = [Fraction(m ** (d - 1), den)] + [
                Fraction(m ** (k - 1) * (m - 1) ** (d - k), den) for k in range(1, d)
            ]
        self.s = lcm(*(xi.denominator for xi in x))
        self.multiplicities = [int(xi * self.s) for xi in x]
        diffs = [x[k] - x[k - 1] for k in range(d)]
        if control:
            ys = diffs
        else:
            ys = scaling_factors(m, d)
            if sorted(ys) != sorted(diffs):
                raise AssertionError(f"closed-form y_k disagree with x_k - x_(k-1) at m={m}, d={d}")
        self.exact = knot in CYCLOTOMIC_JUMPS
        jumps = CYCLOTOMIC_JUMPS[knot] if self.exact else _alg_jumps()
        self.points = _scaled_sum(jumps, ys, self.s, self.exact)
        self.verdict = _verdict(self.points, self.s, self.exact)


def scaling_factors(m: int, d: int):
    """y_0..y_(d-1) of the L(T, m) cover of degree d, in closed form."""
    a = Fraction(m - 1, m)
    denom = m * (1 - a ** d)
    return [-(1 - a ** (d - 1)) / denom] + [a ** (k - 1) / (m * denom) for k in range(1, d)]


def _same(a, b, exact: bool) -> bool:
    return a == b if exact else abs(a - b) < ALG_TOL


def _scaled_sum(jumps, ys, s: int, exact: bool):
    """Sorted (theta/pi, value) jumps of sum_k delta_V(y_k * theta) on [0, 2s)."""
    span = 2 * s
    raw = []
    with mpmath.workprec(WORK_BITS):
        for y in ys:
            if y == 0:
                continue
            sign = 1 if y > 0 else -1
            reach = int(abs(y) * s) + 2
            for phi, value in jumps:
                for r in range(-reach, reach + 1):
                    loc = (phi + 2 * r) / y if exact else (phi + 2 * r) * y.denominator / y.numerator
                    if 0 <= loc < span:
                        raw.append((loc, sign * value))
    raw.sort(key=lambda lv: lv[0])
    merged = []
    for loc, value in raw:
        if merged and _same(merged[-1][0], loc, exact):
            merged[-1] = (merged[-1][0], merged[-1][1] + value)
        else:
            merged.append((loc, value))
    return [(loc, value) for loc, value in merged if value]


def _verdict(points, s: int, exact: bool) -> str:
    if s <= 1:
        return "Periodic"
    windows = [[] for _ in range(s)]
    for loc, value in points:
        j = int(loc / 2)  # loc >= 0, so truncation is the floor
        windows[j].append((loc - 2 * j, value))
    base = windows[0]
    for win in windows[1:]:
        if len(win) != len(base) or not all(
            va == vb and _same(la, lb, exact) for (la, va), (lb, vb) in zip(base, win)
        ):
            return "NonPeriodic"
    return "Periodic"


# ---------------------------------------------------------------------------
# reading the program's output


def _int_coeffs(poly):
    den = lcm(*(c.denominator for c in poly))
    return [int(c * den) for c in poly]


def _sign_at(coeffs, num: int, den: int) -> int:
    """Sign of the polynomial at num/den (den > 0), in integer Horner form."""
    acc, dpow = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


def _root_in(poly, lo: Fraction, hi: Fraction, bits: int) -> Fraction:
    """The single root of poly in (lo, hi), bisected to width 2^-bits."""
    coeffs = _int_coeffs(poly)
    den = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    slo, shi = _sign_at(coeffs, a, den), _sign_at(coeffs, b, den)
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("interval does not bracket a simple root")
    # invariant: the root lies in (a/den, b/den)
    while (b - a) << bits > den:
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        sm = _sign_at(coeffs, mid, den)
        if sm == 0:
            return Fraction(mid, den)
        if sm == slo:
            a = mid
        else:
            b = mid
    return Fraction(a + b, 2 * den)


def json_point_theta_over_pi(pt: dict):
    """theta/pi of one serialized jump point: Fraction, or mpf for algebraic t."""
    if "pi_rational" in pt:
        return Fraction(pt["pi_rational"]) / Fraction(pt.get("scale", "1"))
    at = pt["algebraic_t"]
    poly = [Fraction(c) for c in at["poly"]]
    lo, hi = (Fraction(v) for v in at["interval"])
    t = _root_in(poly, lo, hi, WORK_BITS - 40)
    offset = Fraction(pt["offset"]) if "offset" in pt else (0 if pt["half"] == 0 else 2)
    scale = Fraction(pt["scale"])
    with mpmath.workprec(WORK_BITS):
        tm = mpmath.mpf(t.numerator) / t.denominator
        return (2 * mpmath.atan(tm) / mpmath.pi + offset) / scale


def _check_points(exp: Expected, got) -> str | None:
    """got: list of (theta/pi, value); theta/pi may be Fraction, mpf or float."""
    if len(got) != len(exp.points):
        return f"{len(got)} jump points, expected {len(exp.points)}"
    for i, ((gl, gv), (el, ev)) in enumerate(zip(got, exp.points)):
        if gv != ev:
            return f"point {i}: value {gv}, expected {ev}"
        if isinstance(gl, float):
            with mpmath.workprec(WORK_BITS):
                want = float(el * mpmath.pi)
            if abs(gl - want) > HUMAN_REL_TOL * max(1.0, abs(want)):
                return f"point {i}: theta ~{gl}, expected ~{want}"
        elif exp.exact:
            if gl != el:
                return f"point {i}: theta/pi {gl}, expected {el}"
        elif isinstance(gl, Fraction) or abs(gl - el) >= ALG_TOL:
            return f"point {i}: theta/pi {gl}, expected {el}"
    return None


def _check_json(job, exp: Expected, text: str) -> str | None:
    obj = json.loads(text)
    if obj["s"] != exp.s or obj["multiplicities"] != exp.multiplicities:
        return f"s/multiplicities {obj['s']} {obj['multiplicities']}"
    if job.command == "obstruct":
        if obj["verdict"] != exp.verdict:
            return f"verdict {obj['verdict']}, expected {exp.verdict}"
        jump = obj["jump"]
    else:
        if obj["matrix_size"] != job.matrix_size(exp.multiplicities):
            return f"matrix size {obj['matrix_size']}"
        jump = obj
    if Fraction(jump["period"]) != exp.s:
        return f"period {jump['period']}, expected {exp.s}"
    got = [(json_point_theta_over_pi(pt), pt["value"]) for pt in jump["points"]]
    return _check_points(exp, got)


_HUMAN_POINT = re.compile(
    r"^  theta (?:= (?P<frac>-?\d+(?:/\d+)?) \* pi|algebraic)  \(~(?P<dec>[-\d.e+]+)\)  jump (?P<val>[-+]\d+)$"
)


def _check_human(job, exp: Expected, text: str) -> str | None:
    lines = text.splitlines()
    head = lines.pop(0)
    if job.command == "obstruct":
        if head != f"verdict: {exp.verdict}":
            return f"{head!r}, expected verdict {exp.verdict}"
        if lines and lines[0].startswith("witness: "):
            lines.pop(0)
    else:
        want = (f"s = {exp.s}, multiplicities = {exp.multiplicities}, "
                f"matrix size = {job.matrix_size(exp.multiplicities)}")
        if head != want:
            return f"{head!r}, expected {want!r}"
    if lines[0] != f"period: {exp.s} * 2*pi":
        return f"{lines[0]!r}, expected period {exp.s}"
    body = lines[2:]
    if body == ["no jumps"]:
        body = []
    got = []
    for line in body:
        mt = _HUMAN_POINT.match(line)
        if mt is None:
            return f"unparsed line {line!r}"
        if exp.exact and not mt["frac"]:
            return f"algebraic location in {line!r}, expected a rational multiple of pi"
        loc = Fraction(mt["frac"]) if exp.exact else float(mt["dec"])
        got.append((loc, int(mt["val"])))
    return _check_points(exp, got)


def check_output(job, exp: Expected, code: int, text: str) -> str | None:
    """None when the output matches the reference, else a one-line reason."""
    want_code = {"Periodic": 0, "NonPeriodic": 1}[exp.verdict] if job.command == "obstruct" else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}: {text.strip()[:200]}"
    try:
        if job.fmt == "json":
            return _check_json(job, exp, text)
        return _check_human(job, exp, text)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"unreadable output ({type(e).__name__}: {e})"

"""Acceptance suite: one test per criterion, each printing a single verdict line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Every check is exact (rational or certificate arithmetic); the stated
runtime budgets are asserted with time.perf_counter.
"""

import io
import json
import random
import time
from fractions import Fraction

from covsig import (
    CoveringSpec,
    FoldedRow,
    circulant_det_mod_p,
    circulant_matrix,
    connected_sum,
    covering_blocks,
    covering_jump,
    fold,
    gamma,
    jump_function,
    jump_from_obj,
    ltm_family,
    ltm_y_oracle,
    mirror,
    p3_y_oracle,
    parallel_copies,
    scale_jump,
    solve_multiplicities,
    sum_jumps,
    with_period,
)
from covsig.cli import run_command
from conftest import ALG, T25, TREFOIL, same_jumps


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_circulant_determinant_lemma():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    for d in (2, 3, 4, 5, 7, 8, 9):
        p = {4: 2, 8: 2, 9: 3}.get(d, d)
        for _ in range(200):
            vals = [rng.randint(-5, 5) for _ in range(d)]
            vals[0] += 1 - sum(vals)
            assert circulant_det_mod_p(FoldedRow(d, tuple(vals)), p) == 1
    assert circulant_matrix(FoldedRow(6, (1, -1, 1, 0, 0, 0))).det() == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"det = 1 mod p for 1400 random prime-power circulants, "
              f"d=6 sharpness row det 0 ({elapsed:.2f}s < 5s)")


def test_criterion_2_closed_form_multiplicities():
    for m in range(2, 7):
        for p in (3, 5):
            den = m ** p - (m - 1) ** p
            expected = [Fraction(m ** (p - 1), den)] + [
                Fraction(m ** (k - 1) * (m - 1) ** (p - k), den)
                for k in range(1, p)
            ]
            row = fold({0: m, 1: 1 - m}, p)
            x, s = solve_multiplicities(row, (1,) + (0,) * (p - 1))
            assert x == expected
    report(2, "solver matches closed-form x_k exactly for m in 2..6, p in {3,5}")


def test_criterion_3_trefoil_jumps():
    t0 = time.perf_counter()
    f = jump_function(TREFOIL)
    elapsed = time.perf_counter() - t0
    assert [(pt.loc.frac, pt.value) for pt in f.points] == [
        (Fraction(1, 3), -2),
        (Fraction(5, 3), 2),
    ]
    assert elapsed < 1.0
    report(3, f"jumps exactly -2 at pi/3 and +2 at 5pi/3 ({elapsed:.3f}s < 1s)")


def test_criterion_4_reparametrization_oracle():
    alphas = [(1,), (1, 1), (1, -1), (1, 1, -1)]
    for v in (TREFOIL, T25):
        f = jump_function(v)
        for alpha in alphas:
            got = jump_function(parallel_copies(v, alpha, 1))
            n = sum(alpha)
            if n == 0:
                assert got.points == []
            else:
                assert same_jumps(got, with_period(scale_jump(f, n), 1))
    report(4, "parallel_copies jump multiset = delta_V(n_alpha * theta) for "
              "both knots and all four sign tuples")


def test_criterion_5_end_to_end_oracle():
    f_v = jump_function(TREFOIL)
    for m, p in ((2, 3), (3, 3), (2, 5)):
        t0 = time.perf_counter()
        sd, coeffs = ltm_family(TREFOIL, m)
        # structural checks: idempotency and the sparse block pattern
        g = gamma(sd.A, sd.epsilon)
        assert g @ g == g
        _, blocks = covering_blocks(sd, CoveringSpec(p=p))
        for k in range(p):
            for l in range(p):
                j = (k - l) % p
                assert any(map(any, blocks[k][l])) == (j in (0, 1, p - 1))
        # the central equality: pipeline jumps at theta/s = sum of scaled deltas
        got, verdict = covering_jump(sd, coeffs, CoveringSpec(p=p))
        oracle = sum_jumps([scale_jump(f_v, y) for y in ltm_y_oracle(m, p)])
        assert got.period == oracle.period == m ** p - (m - 1) ** p
        assert same_jumps(got, oracle)
        assert verdict.status == "NonPeriodic"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
    # at eps = -1 the closed form holds on the points; sigma0 is not additive
    # there: the sum's is sigma0_V * (#{y_k > 0} - #{y_k < 0})
    for v in (TREFOIL, ALG, T25):
        f_v = jump_function(v, -1)
        for m, p in ((2, 3), (-1, 3), (-2, 2), (2, 5)):
            sd, coeffs = ltm_family(v, m, -1)
            got, _ = covering_jump(sd, coeffs, CoveringSpec(p=p))
            ys = ltm_y_oracle(m, p)
            oracle = sum_jumps([scale_jump(f_v, y) for y in ys])
            assert same_jumps(got, oracle)
            assert oracle.sigma0 == f_v.sigma0 * sum(1 if y > 0 else -1 for y in ys)
    report(5, "pipeline jump function equals the closed-form oracle sum for "
              "(m,p) in {(2,3),(3,3),(2,5)}, and its points do at eps = -1 for "
              "three knots and (m,p) in {(2,3),(-1,3),(-2,2),(2,5)}; Gamma "
              "idempotent, blocks sparse")


def test_criterion_6_obstruction_verdicts():
    t0 = time.perf_counter()
    # boundary-link control: the trivial pattern is always Periodic
    for m in (2, 3):
        sd, _ = ltm_family(TREFOIL, m)
        _, verdict = covering_jump(sd, {0: 1}, CoveringSpec(p=3))
        assert verdict.status == "Periodic"
    out = io.StringIO()
    code = run_command(
        ["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2",
         "--coeffs", '{"0": 1}', "--p", "3", "--format", "json"],
        out,
    )
    assert code == 0 and json.loads(out.getvalue())["verdict"] == "Periodic"
    # sweep m upward: record the minimal NonPeriodic m, then hold for m..m+3
    minimal = None
    m = 2
    while minimal is None:
        sd, coeffs = ltm_family(TREFOIL, m)
        _, verdict = covering_jump(sd, coeffs, CoveringSpec(p=3))
        if verdict.status == "NonPeriodic":
            minimal = m
        else:
            m += 1
            assert m <= 8, "no NonPeriodic verdict found in the sweep range"
    for m in range(minimal, minimal + 4):
        sd, coeffs = ltm_family(TREFOIL, m)
        _, verdict = covering_jump(sd, coeffs, CoveringSpec(p=3))
        assert verdict.status == "NonPeriodic"
    assert time.perf_counter() - t0 < 30.0
    report(6, f"trivial pattern Periodic; L(trefoil,m) at p=3 NonPeriodic "
              f"from minimal m={minimal} through m={minimal + 3}")


def test_criterion_7_p3_y_oracle():
    for c20 in range(-3, 4):
        for c21 in range(-3, 4):
            c22 = 1 - c20 - c21
            for m in range(2, 7):
                row = fold({0: m, 1: 1 - m}, 3)
                x, _ = solve_multiplicities(row, (c20, c21, c22))
                solver_y = [x[i] - x[(i - 1) % 3] for i in range(3)]
                assert p3_y_oracle(c20, c21, m) == solver_y
    report(7, "p3_y_oracle (with b_2 = c21 - c20) matches solver differences "
              "on the full (c20,c21) in [-3,3]^2, m in 2..6 sweep")


def test_criterion_8_additivity_and_mirror():
    f = jump_function(connected_sum(TREFOIL, T25))
    assert same_jumps(f, sum_jumps([jump_function(TREFOIL), jump_function(T25)]))
    ribbon = jump_function(connected_sum(TREFOIL, mirror(TREFOIL)))
    assert ribbon.points == []
    report(8, "connected-sum jumps merge additively; V # mirror(V) has no jumps")


def test_criterion_9_cli_round_trip():
    argv = ["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2",
            "--p", "3", "--format", "json"]
    out1, out2 = io.StringIO(), io.StringIO()
    code1 = run_command(argv, out1)
    code2 = run_command(argv, out2)
    assert code1 == code2 == 1
    assert out1.getvalue() == out2.getvalue()  # byte-identical
    obj = json.loads(out1.getvalue())
    f = jump_from_obj(obj["jump"])
    # re-verify from the parsed output alone
    from covsig import period_2pi_test

    assert period_2pi_test(f).status == obj["verdict"] == "NonPeriodic"
    sd, coeffs = ltm_family(TREFOIL, 2)
    direct, _ = covering_jump(sd, coeffs, CoveringSpec(p=3))
    assert same_jumps(f, direct)
    report(9, "obstruct JSON is byte-identical across runs and re-verifies to "
              "the same verdict and jump multiset")

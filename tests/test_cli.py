"""Command-line front end: subcommands, formats, exit codes, job documents."""

import ast
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from covsig import MAX_COVERING_N, RatMatrix, cli, covering, jumps
from covsig.cli import run_command
from covsig.jumps import jump_from_obj
from covsig.pattern import MAX_WORD_LETTERS
from conftest import lift_is_point


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out)
    return code, out.getvalue()


def test_pattern_command():
    code, text = run(["pattern", "y y x Y X", "--format", "json"])
    assert code == 0
    assert json.loads(text) == {"0": 2, "1": -1}


def test_jump_trefoil_json():
    code, text = run(["jump", "--V", "trefoil", "--format", "json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["period"] == "1"
    assert [(p["pi_rational"], p["value"]) for p in obj["points"]] == [
        ("1/3", -2),
        ("5/3", 2),
    ]


def test_jump_human_output():
    code, text = run(["jump", "--V", "trefoil"])
    assert code == 0
    assert "theta = 1/3 * pi" in text
    assert "jump -2" in text


def test_jump_csv_output():
    code, text = run(["jump", "--V", "trefoil", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "theta_decimal,value"
    assert len(lines) == 3
    assert lines[1].endswith(",-2")


def test_solve_command():
    code, text = run([
        "solve", "--word", "y y x Y X", "--p", "3", "--format", "json",
    ])
    assert code == 0
    obj = json.loads(text)
    assert obj["folded_row"] == [2, -1, 0]
    assert obj["x"] == ["4/7", "1/7", "2/7"]
    assert obj["s"] == 7
    assert obj["multiplicities"] == [4, 1, 2]


def test_solve_with_explicit_coeffs_and_target():
    code, text = run([
        "solve", "--coeffs", '{"0": 2, "1": -1}', "--p", "3",
        "--target", "0,0,1", "--format", "json",
    ])
    assert code == 0
    assert json.loads(text)["s"] == 7


def test_obstruct_ltm_nonperiodic():
    code, text = run([
        "obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2",
        "--p", "3", "--format", "json",
    ])
    assert code == 1
    obj = json.loads(text)
    assert obj["verdict"] == "NonPeriodic"
    assert obj["s"] == 7
    assert obj["multiplicities"] == [4, 1, 2]
    assert "witness" in obj


def test_obstruct_trivial_pattern_periodic():
    code, text = run([
        "obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2",
        "--coeffs", '{"0": 1}', "--p", "3", "--format", "json",
    ])
    assert code == 0
    assert json.loads(text)["verdict"] == "Periodic"


def test_obstruct_deterministic_output():
    argv = [
        "obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2",
        "--p", "3", "--format", "json",
    ]
    (c1, t1), (c2, t2) = run(argv), run(argv)
    assert (c1, t1) == (c2, t2)


def test_obstruct_algebraic_output_pinned():
    # every jump of L(ALG, 2) at p = 3 is algebraic: this pins the bytes of
    # the lifts, ALG's g_h on its dyadic cells with each lift's offset and
    # scale, and the order on that path
    code, text = run([
        "obstruct", "--family", "ltm", "--V", "[[1,1],[0,2]]", "--m", "2",
        "--p", "3", "--format", "json",
    ])
    assert code == 1
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "62f368ef5386026d667fa690d022943981a2f6ce9c1457277c8045c755842587")


@pytest.mark.parametrize("extra, digest", [
    (["--m", "3", "--p", "3"], "0e5c79a9bde1db588f6beaeb395acd412dea30eb1a0860e37b4eb1c0c69352d7"),
    (["--m", "2", "--p", "2", "--a", "2"],
     "21774133804608fe9b1b3708daae168aefe05639c88acbb05a581e32d4e289bb"),
    (["--m", "2", "--p", "5"], "d37207d4af34cac972a02c93ac5033e5be6f672b8e3e7e082d1b04790be1a092"),
], ids=["m3-p3", "m2-d4", "m2-p5"])
def test_obstruct_algebraic_jobs_pinned(extra, digest):
    # the other algebraic jobs: L(ALG, 3) at p = 3, L(ALG, 2) at d = 2^2 and
    # at p = 5, whose blocks lift ALG's roots by e up to 5, 7 and 15
    code, text = run(["obstruct", "--family", "ltm", "--V", "[[1,1],[0,2]]", *extra,
                      "--format", "json"])
    assert code == 1
    assert hashlib.sha256(text.encode()).hexdigest() == digest


FIXTURES = Path(__file__).parent / "fixtures"
# the json obstruct of the four algebraic jobs as printed before the dyadic
# cells: each point's interval is the state its bisection reached, and its
# poly the Cayley gcd of the product of every block's rest
ALG_FIXTURES = {
    "alg_ltm_m2_p3.json": ["--m", "2", "--p", "3"],
    "alg_ltm_m3_p3.json": ["--m", "3", "--p", "3"],
    "alg_ltm_m2_d4.json": ["--m", "2", "--p", "2", "--a", "2"],
    "alg_ltm_m2_p5.json": ["--m", "2", "--p", "5"],
}


def certify_same_point(new, old):
    """Certify that the document point new (a dict) is the point old, with the same value.

    old is read as printed, so its t interval is its printed cell
    (conftest.lift_is_point).
    """
    assert new["value"] == old["value"]
    assert lift_is_point(jumps.point_from_obj(new).loc, jumps.point_from_obj(old).loc)


@pytest.mark.parametrize("name", sorted(ALG_FIXTURES))
def test_algebraic_points_are_the_fixture_points(name):
    # the same verdict and witness, and each point, in order, certified
    # to be the fixture's point with the same value (certify_same_point);
    # each prints on a dyadic cell [k/2^P, (k+1)/2^P] with 64 | P
    old = json.loads((FIXTURES / name).read_text())
    code, text = run(["obstruct", "--family", "ltm", "--V", "[[1,1],[0,2]]",
                      *ALG_FIXTURES[name], "--format", "json"])
    new = json.loads(text)
    assert code == 1
    assert {k: v for k, v in new.items() if k != "jump"} == {k: v for k, v in old.items()
                                                             if k != "jump"}
    assert len(new["jump"]["points"]) == len(old["jump"]["points"])
    for a, b in zip(new["jump"]["points"], old["jump"]["points"]):
        assert "algebraic_t" in a and "algebraic_t" in b
        certify_same_point(a, b)
        lo, hi = (Fraction(x) for x in a["algebraic_t"]["interval"])
        level = (hi - lo).denominator.bit_length() - 1
        assert hi - lo == Fraction(1, 1 << level) and level % 64 == 0
        assert (lo * (1 << level)).denominator == 1


@pytest.mark.parametrize("name", sorted(ALG_FIXTURES))
def test_old_algebraic_documents_still_load(name):
    # point_from_obj reads the bisection intervals of older documents, and
    # prints back what it read
    old = json.loads((FIXTURES / name).read_text())["jump"]
    f = jump_from_obj(old)
    assert len(f.points) == len(old["points"])
    assert jumps.jump_to_obj(f) == old


T25_V = "[[-1,1,0,0],[0,-1,1,0],[0,0,-1,1],[0,0,0,-1]]"


@pytest.mark.parametrize("knot, extra, digest", [
    ("trefoil", ["--m", "2", "--p", "7"],
     "63d30600ec5b6e7ceed368cf9fb42a0e203224bce5fc100886f883259d128236"),
    ("trefoil", ["--m", "3", "--p", "5"],
     "d6305373fec14fff35f39aa0089e37434c4aa5bf2ae20a8dc940ef515d98d1b6"),
    (T25_V, ["--m", "2", "--p", "5"],
     "fd10c1d2ad72e7c882af18652081aa21b4ed162aaf3ff89f3c5d79e5bec4abf8"),
    ("trefoil", ["--m", "2", "--p", "2", "--a", "3"],
     "28d9d8bacaf7711d6d634cd178e94c109bf00b5afe443a1e27ac184991f08aa6"),
    ("trefoil", ["--m", "2", "--p", "3", "--a", "2"],
     "32da50f682dac8ceec9f85e3b4e07317cdf14c1824f3f160078d8ef705a96537"),
    ("[[1,1],[0,2]]", ["--m", "2", "--p", "2", "--a", "3"],
     "973127872c0e84cdf00271cd1bfa7b12fc7ac4b416d07c2ce4123cda6f8023e0"),
    ("[[1,1],[0,2]]", ["--m", "3", "--p", "5"],
     "a89929a58bd9fc2fa16dfe9c77f7e14309777eb0808a52d7794c6f7c783790e0"),
], ids=["m2-p7", "m3-p5", "t25-m2-p5", "m2-d8", "m2-d9", "alg-m2-d8", "alg-m3-p5"])
def test_obstruct_larger_jobs_pinned(knot, extra, digest):
    # L(trefoil, 2) at p = 7 and L(trefoil, 3) at p = 5: cores of 7 and 5
    # groups whose connected blocks each mix two groups, with n = 508 and 844;
    # L(T25, 2) at p = 5 (n = 248): five blocks of size 8, with the roots of
    # unity of orders {80}, {50, 150}, {10}, {20} and {40}; L(trefoil, 2) at
    # d = 2^3 and 3^2 (n = 1020 and 2044), whose block factors w^i * h(w^e)
    # lift the orders of h = w^2 - w + 1 by e up to 255; L(ALG, 2) at d = 2^3
    # and L(ALG, 3) at p = 5, whose many algebraic blocks have one h at
    # different e, and so a gcd for each pair of them, none of which is
    # nonconstant
    code, text = run(["obstruct", "--family", "ltm", "--V", knot, *extra,
                      "--format", "json"])
    assert code == 1
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("abc, coeffs, fmt, digest", [
    (("[[-1]]", "[[2]]", "[[2]]"), '{"0": -2, "1": -1}', "json",
     "d843d6c003d047009cccba5d4fa83bd3c89a8f8878467239134d43dbc7684c1e"),
    (("[[2]]", "[[2]]", "[[1]]"), '{"0": 1, "1": -2}', "human",
     "82a588a44c5a9191e9b0bebe0192ca4a4ea9b7ef9b9f6cb483a7ac8d79380abd"),
], ids=["chain-terms-json", "chain-terms-human"])
def test_obstruct_chain_terms_pinned(abc, coeffs, fmt, digest):
    # eps = -1 with groups whose chain terms g * sigma(S_k) are (-1, 0, 1)
    # and (0, -1, -1): on every L(T, m) cover they are 0
    a, b, c = abc
    code, text = run(["obstruct", "--A", a, "--B", b, "--C", c, "--epsilon", "-1",
                      "--coeffs", coeffs, "--p", "3", "--format", fmt])
    assert code == 1
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("eps, expected", [
    ("1", '{"period": "1", "points": [{"pi_rational": "2/3", "scale": "1", "value": -2}, '
          '{"pi_rational": "4/3", "scale": "1", "value": 2}], "sigma0": 1}\n'),
    ("-1", '{"period": "1", "points": [{"pi_rational": "1/3", "scale": "1", "value": 2}, '
           '{"pi_rational": "1", "scale": "1", "value": -2}, '
           '{"pi_rational": "5/3", "scale": "1", "value": 2}], "sigma0": -1}\n'),
])
def test_permutation_matrix_output_pinned(eps, expected):
    # P + P^T has a zero diagonal, so some samples need a congruence step
    # before their first pivot
    code, text = run(["jump", "--V", "[[0,1,0],[0,0,1],[1,0,0]]", "--epsilon", eps,
                      "--format", "json"])
    assert (code, text) == (0, expected)


@pytest.mark.parametrize("eps, digest", [
    ("1", "840c9597019055e5fdcd28211d677ed5bafce8401b91a46716ccbf6ee1adc059"),
    ("-1", "9b89ae36d44e2c00fa9d5e53acae1ac1057c0a4f12a55abcb8689aa7ec29d3ca"),
])
def test_zero_diagonal_algebraic_output_pinned(eps, digest):
    # P + P^T has a zero diagonal with nonzero entries after it, so samples
    # take congruence steps at later pivots too; the jumps are algebraic
    code, text = run(["jump", "--V", "[[0,2,-1,2],[2,0,1,0],[0,1,0,2],[0,2,0,-1]]",
                      "--epsilon", eps, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# U^T (ALG + 0_2) U and U^T (ALG + L_3) U for unimodular U, with L_3 the 3 x 3
# nilpotent Jordan block: D = 0 for both, the first through a common kernel of
# P and P^T, the second without one, so the jumps come from a generic minor
DEGENERATE_ALG = [
    "[[1,3,2,-1],[2,8,10,-6],[-1,3,16,-11],[1,-1,-10,7]]",
    "[[1,3,2,-1,1],[2,8,10,-6,4],[-1,3,16,-10,4],[1,-1,-10,8,-3],[0,2,6,-2,-1]]",
]


@pytest.mark.parametrize("V", DEGENERATE_ALG, ids=["common-kernel", "generic-minor"])
@pytest.mark.parametrize("fmt", ["json", "human"])
@pytest.mark.parametrize("eps", ["1", "-1"])
def test_degenerate_pencil_prints_the_bytes_of_alg(V, fmt, eps):
    tail = ["--format", fmt, "--epsilon", eps]
    assert run(["jump", "--V", V] + tail) == run(["jump", "--V", "[[1,1],[0,2]]"] + tail)


def test_cover_command():
    code, text = run([
        "cover", "--family", "ltm", "--V", "trefoil", "--m", "2",
        "--p", "3", "--format", "json",
    ])
    assert code == 0
    obj = json.loads(text)
    assert obj["matrix_size"] == 28
    f = jump_from_obj(obj)
    assert len(f.points) == len(obj["points"])


def test_sigfn_prints_a_long_window_as_it_goes():
    # ten million periods are never held at once: the first lines come out
    # at once, and a reader that stops after ten ends the run
    class Head(io.StringIO):
        def write(self, text):
            if self.getvalue().count("\n") >= 10:
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(text)

    out = Head()
    t0 = time.perf_counter()
    with pytest.raises(BrokenPipeError):
        run_command(["sigfn", "--V", "trefoil", "--window", "10000000"], out)
    assert time.perf_counter() - t0 < 1
    _, head = run(["sigfn", "--V", "trefoil", "--window", "5"])
    assert out.getvalue() == "".join(head.splitlines(keepends=True)[:10])


def test_a_jump_function_without_points_repeats_at_once():
    # a window of thirty million periods of a constant sigma, and three
    # million periods of no point, each answer with no walk over the periods
    t0 = time.perf_counter()
    assert run(["sigfn", "--V", "[[0]]", "--window", "30000000"]) == (0, "theta_decimal,sigma\n0.0,0\n")
    assert time.perf_counter() - t0 < 1
    t0 = time.perf_counter()
    f = jumps.with_period(jumps.JumpFunction([], 1, 0), 3_000_000)
    assert time.perf_counter() - t0 < 1
    assert (f.points, f.period, f.sigma0) == ([], 3_000_000, 0)


def test_sigfn_step_function():
    code, text = run(["sigfn", "--V", "trefoil", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "theta_decimal,sigma"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    # right-continuous: starts at sigma0, steps by each jump, returns to 0
    assert values == [0, -2, 0]


def test_sigfn_window_repeats_the_period():
    # sigma is back at sigma0 after each period, and the windows follow
    # one another in theta
    code, text = run(["sigfn", "--V", "trefoil", "--window", "3"])
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    assert [int(v) for _, v in rows] == [0, -2, 0, -2, 0, -2, 0]
    thetas = [float(t) for t, _ in rows]
    assert thetas == sorted(thetas) and thetas[-1] < 6 * math.pi
    assert thetas[3] == pytest.approx(thetas[1] + 2 * math.pi)


def test_sigfn_eps_minus_one_returns_to_sigma0_each_period():
    # for eps = -1 a period's jumps sum to -2 * sigma0: sigma jumps back to
    # sigma0 at each 2*pi*k, where no point carries the jump, and stays in
    # {-1, 0, 1} for a 1 x 1 form
    assert run(["sigfn", "--V", "[[1]]", "--epsilon", "-1", "--window", "3"]) == (0, (
        "theta_decimal,sigma\n0.0,1\n3.14159265359,-1\n6.28318530718,1\n"
        "9.42477796077,-1\n12.5663706144,1\n15.7079632679,-1\n"))
    assert run(["sigfn", "--V", "[[1]]", "--epsilon", "-1"]) == (
        0, "theta_decimal,sigma\n0.0,1\n3.14159265359,-1\n")


def test_usage_errors_exit_2():
    code, text = run(["solve", "--word", "y y x Y X"])  # missing --p
    assert code == 2
    assert json.loads(text)["type"] == "ParseError"
    code, text = run(["pattern", "x q y", "--format", "json"])
    assert code == 2
    assert json.loads(text)["type"] == "ParseError"
    code, text = run(["jump", "--V", "[[1,2],[3]]"])
    assert code == 2
    code, _ = run(["nonsense"])
    assert code == 2


LTM_TREFOIL = {"family": "ltm", "V": "trefoil", "m": 2}


@pytest.mark.parametrize("argv, doc", [
    (["jump", "--V", "[1,2]"], None),
    (["obstruct", "--input", "-"],
     {"seifert": {"family": "ltm", "V": [1, 2], "m": 2}, "covering": {"p": 3}}),
    (["obstruct", "--input", "-"],
     {"seifert": LTM_TREFOIL, "pattern": {"coeffs": [1, 2]}, "covering": {"p": 3}}),
    (["obstruct", "--input", "-"], {"seifert": LTM_TREFOIL, "covering": {"p": 3, "target": 5}}),
    (["obstruct", "--input", "-"], {"seifert": LTM_TREFOIL, "covering": [3]}),
    (["obstruct", "--input", "-"], [1, 2]),
    (["obstruct", "--input", "-"], {"seifert": LTM_TREFOIL, "covering": {"p": [3]}}),
    # a fractional m was truncated to 2 and gave a verdict
    (["obstruct", "--input", "-"], {"seifert": {**LTM_TREFOIL, "m": 2.9}, "covering": {"p": 3}}),
    # a family's own pattern does not stand in for a malformed one
    (["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "3",
      "--word", "x q"], None),
    # choices are those of the parser: epsilon 2 gave a jump function, and
    # "xml" printed the human output
    (["jump", "--input", "-"], {"seifert": {**LTM_TREFOIL, "epsilon": 2}}),
    (["obstruct", "--input", "-"],
     {"seifert": LTM_TREFOIL, "covering": {"p": 3}, "options": {"output_format": "xml"}}),
    (["obstruct", "--input", "-"], {"seifert": {**LTM_TREFOIL, "family": "ltn"},
                                     "covering": {"p": 3}}),
    # exponent notation: Fraction("1e10000000") took 11 s, and each further
    # exponent digit multiplies that by more than 10
    (["jump", "--V", '[["1e400"]]'], None),
    (["obstruct", "--input", "-"],
     {"seifert": {**LTM_TREFOIL, "V": [["-1", "1"], ["0", "-1e400"]]}, "covering": {"p": 3}}),
    # a zero denominator raised ZeroDivisionError: a traceback with exit 1
    (["jump", "--V", '[["1/0"]]'], None),
    # an integer string that is not one raised a bare ValueError
    (["obstruct", "--input", "-"], {"seifert": {**LTM_TREFOIL, "m": "abc"}, "covering": {"p": 3}}),
    (["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "3",
      "--coeffs", '{"abc": 1}'], None),
    (["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "3",
      "--coeffs", '{"0": "x"}'], None),
    (["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "3",
      "--target", "1,x,0"], None),
    # a word that is no string raised TypeError in parse_word: a traceback with exit 1
    (["obstruct", "--input", "-"],
     {"seifert": LTM_TREFOIL, "covering": {"p": 3}, "pattern": {"word": 5}}),
], ids=["matrix-not-rows", "family-V-not-rows", "coeffs-not-object", "target-not-list",
        "section-not-object", "document-not-object", "p-not-integer", "m-not-integer",
        "family-with-bad-word", "epsilon-not-a-choice", "format-not-a-choice",
        "family-not-a-choice", "exponent-in-matrix", "exponent-in-document",
        "zero-denominator", "m-not-an-integer-string", "coeffs-key-not-integer",
        "coeffs-value-not-integer", "target-entry-not-integer", "word-not-a-string"])
def test_malformed_input_is_a_usage_error(monkeypatch, argv, doc):
    if doc is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, text = run(argv)
    assert code == 2
    assert text.count("\n") == 1
    assert json.loads(text)["type"] == "ParseError"


def test_a_deep_document_is_a_usage_error(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 200_000 + "]" * 200_000))
    code, text = run(["obstruct", "--input", "-"])
    assert code == 2
    assert json.loads(text)["type"] == "RecursionError"


def test_running_out_of_memory_is_a_usage_error(monkeypatch):
    def exhausted(*args):
        raise MemoryError("covering too large")

    monkeypatch.setattr(cli, "build_covering", exhausted)
    code, text = run(["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2",
                      "--p", "3", "--format", "json"])
    assert code == 2
    assert json.loads(text) == {"error": "covering too large", "type": "MemoryError"}


def test_inline_seifert_rational_entries():
    code, text = run([
        "obstruct",
        "--A", '[["-1","1"],["0","-1"]]',
        "--B", '[["1/2","0"],["0","1/2"]]',
        "--C", '[["-1","1"],["0","-1"]]',
        "--coeffs", '{"0": 1}', "--p", "3", "--format", "json",
    ])
    assert code == 0
    assert json.loads(text)["verdict"] == "Periodic"


def test_job_document(tmp_path):
    job = {
        "seifert": {"family": "ltm", "V": "trefoil", "m": 2},
        "covering": {"p": 3},
        "options": {"output_format": "json"},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, text = run(["obstruct", "--input", str(path)])
    assert code == 1
    assert json.loads(text)["verdict"] == "NonPeriodic"


def test_job_document_stdin(monkeypatch):
    job = {
        "seifert": {
            "A": [["-1", "1"], ["0", "-1"]],
            "B": [["-1", "1"], ["0", "-1"]],
            "C": [["-1", "1"], ["0", "-1"]],
        },
        "pattern": {"word": "y"},
        "covering": {"p": 3},
        "options": {"output_format": "json"},
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code, text = run(["obstruct", "--input", "-"])
    assert code == 0
    assert json.loads(text)["verdict"] == "Periodic"


def test_precision_bits_reach_candidate_separation(monkeypatch):
    seen = []
    real = jumps._separate_candidates

    def spy(items, max_bits):
        seen.append(max_bits)
        return real(items, max_bits)

    monkeypatch.setattr(jumps, "_separate_candidates", spy)
    for argv in (["jump", "--V", "trefoil"], ["sigfn", "--V", "trefoil"],
                 ["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "2"]):
        code, _ = run(argv + ["--precision-bits", "77"])
        assert code in (0, 1)
    assert seen == [77, 77, 77]


def _fresh_env():
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.mark.parametrize("module", ["covsig", "covsig.cli"])
def test_python_dash_m_runs_the_command(module):
    argv = ["jump", "--V", "trefoil"]
    proc = subprocess.run([sys.executable, "-m", module] + argv, capture_output=True,
                          text=True, env=_fresh_env(), timeout=120)
    code, text = run(argv)
    assert (proc.returncode, proc.stdout) == (code, text)
    assert text


def test_startup_does_not_import_sympy():
    # covsig needs no third-party module: neither sympy nor mpmath is loaded
    # by an import and a pattern command
    probe = ("import io, sys\nfrom covsig.cli import run_command\n"
             "run_command(['pattern', 'y'], io.StringIO())\n"
             "sys.exit('sympy' in sys.modules or 'mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_fresh_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def _fresh_modules(argv):
    """(exit code, the modules loaded) of argv run in a fresh process."""
    probe = ("import io, json, sys\nfrom covsig.cli import run_command\n"
             "code = run_command(json.loads(sys.argv[1]), io.StringIO())\n"
             "print(json.dumps([code, sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)], capture_output=True,
                          text=True, env=_fresh_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return tuple(json.loads(proc.stdout))


def _fresh_covsig_modules(argv):
    """(exit code, the covsig modules loaded) of argv run in a fresh process."""
    code, loaded = _fresh_modules(argv)
    return code, [m for m in loaded if m.split(".")[0] == "covsig"]


def _added_modules(argv):
    """The modules a fresh argv loads that a bare interpreter (`python -c pass`) has not.

    The bare interpreter runs in the same environment, so a module that a
    site hook loads is in both and never counts.
    """
    proc = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return set(_fresh_modules(argv)[1]) - set(proc.stdout.split())


def test_a_fresh_pattern_command_loads_no_pipeline_module():
    assert _fresh_covsig_modules(["pattern", "y"]) == (
        0, ["covsig", "covsig._value", "covsig.cli", "covsig.errors", "covsig.pattern",
            "covsig.readers"])


def test_a_fresh_pattern_command_loads_neither_dataclasses_nor_fractions():
    # dataclasses pulls in inspect, ast, dis and tokenize, and fractions
    # decimal and numbers: none of them is needed to parse a word
    assert _added_modules(["pattern", "y"]) & {"dataclasses", "inspect", "fractions"} == set()


def test_a_fresh_obstruct_loads_no_dataclasses():
    added = _added_modules(FRESH_COMMANDS[1])
    assert "covsig.jumps" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_no_covsig_module_imports_dataclasses():
    root = Path(cli.__file__).parent
    importers = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                importers.append(path.relative_to(root).as_posix())
    assert importers == []


def test_a_fresh_obstruct_loads_every_pipeline_module():
    # the modules of a whole job, as an eager `import covsig` loaded them,
    # plus covsig.readers, which holds the parser's readers
    assert _fresh_covsig_modules(FRESH_COMMANDS[1]) == (1, [
        "covsig", "covsig._fast", "covsig._value", "covsig.cli", "covsig.covering",
        "covsig.errors", "covsig.exact", "covsig.exact.algebraic", "covsig.exact.elementary",
        "covsig.exact.matrix", "covsig.exact.poly", "covsig.jumps",
        "covsig.pattern", "covsig.readers", "covsig.seifert"])


# the names each package exports, by the module that defines them
EXPORTS = {
    "covsig": {
        "covsig.errors": ["CoveringTooLarge", "CovsigError", "DimensionMismatch", "EmptyTuple",
                          "NotAPattern", "NotHermitian", "NotPrimePower",
                          "NotRationalHomologySphere", "ParseError", "SingularMatrix",
                          "SingularSystem", "UnresolvedComparison", "ZeroScale"],
        "covsig.readers": ["DEFAULT_PRECISION_BITS"],
        "covsig.exact.algebraic": ["AlgReal", "Comparison", "alg_compare", "isolate_real_roots"],
        "covsig.exact.matrix": ["RatMatrix", "block_matrix", "hermitian_signature",
                                "mat_inverse"],
        "covsig.seifert": ["SeifertData", "SignTuple", "assemble", "connected_sum", "mirror",
                           "parallel_copies"],
        "covsig.pattern": ["FoldedRow", "PatternWord", "circulant_det_mod_p",
                           "circulant_matrix", "fold", "parse_word", "pattern_coefficients",
                           "shift", "solve_multiplicities"],
        "covsig.covering": ["MAX_COVERING_N", "CoveringMatrix", "CoveringSpec",
                            "build_covering", "covering_blocks", "covering_matrix", "gamma",
                            "ltm_family", "ltm_y_oracle", "p3_y_oracle"],
        "covsig.jumps": ["AlgLoc", "JumpFunction", "JumpPoint", "PiLoc", "Verdict",
                         "compare_locations", "covering_jump", "jump_from_obj",
                         "jump_function", "jump_to_obj", "period_2pi_test", "scale_jump",
                         "sum_jumps", "tl_signature", "tl_signature_at_pi", "with_period"],
    },
    "covsig.exact": {
        "covsig.exact.matrix": ["RatMatrix", "block_matrix", "hermitian_signature",
                                "mat_inverse"],
        "covsig.exact.algebraic": ["AlgReal", "Comparison", "alg_compare", "dyadic_cell",
                                   "isolate_real_roots"],
        "covsig.readers": ["DEFAULT_PRECISION_BITS"],
        "covsig.exact.poly": ["poly"],  # the module itself
    },
}


def test_gaussian_rationals_are_no_export():
    # hermitian_signature takes (re, im) rows, and covsig.exact.gauss is gone
    import covsig
    for pkg, name in [(covsig, "GaussRat"), (covsig.exact, "GaussRat"), (covsig.exact, "I"),
                      (covsig.exact, "gauss")]:
        with pytest.raises(AttributeError):
            getattr(pkg, name)
    with pytest.raises(ModuleNotFoundError):
        import covsig.exact.gauss  # noqa: F401


@pytest.mark.parametrize("package", sorted(EXPORTS))
@pytest.mark.parametrize("way", ["attribute", "from", "star"])
def test_each_export_resolves_to_its_definition(package, way):
    # in a fresh process each name is read first through the package, whose
    # __getattr__ loads the defining module; dir lists every name
    probe = ("import importlib, json, sys\n"
             "package, way, table = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])\n"
             "pkg = importlib.import_module(package)\n"
             "listed = set(dir(pkg))\n"
             "star = {}\n"
             "if way == 'star':\n"
             "    exec(f'from {package} import *', star)\n"
             "    del star['__builtins__']\n"
             "wrong = []\n"
             "for module, names in table.items():\n"
             "    for name in names:\n"
             "        if way == 'attribute':\n"
             "            value = getattr(pkg, name)\n"
             "        elif way == 'from':\n"
             "            ns = {}\n"
             "            exec(f'from {package} import {name} as value', ns)\n"
             "            value = ns['value']\n"
             "        else:\n"
             "            value = star.pop(name)\n"
             "        owner = importlib.import_module(module)\n"
             "        defined = owner if module.endswith('.' + name) else getattr(owner, name)\n"
             "        if value is not defined or name not in listed:\n"
             "            wrong.append(name)\n"
             "print(json.dumps({'wrong': wrong, 'extra': sorted(star),"
             " 'all': sorted(pkg.__all__)}))")
    table = EXPORTS[package]
    proc = subprocess.run([sys.executable, "-c", probe, package, way, json.dumps(table)],
                          capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["wrong"] == [] and report["extra"] == []
    assert report["all"] == sorted(name for names in table.values() for name in names)


def test_each_submodule_is_an_attribute_of_its_package():
    # `import covsig` loads no submodule, yet covsig.jumps and
    # covsig.exact.poly resolve, each loading its module on first access
    probe = ("import importlib, sys\nimport covsig\n"
             "names = ['covsig.' + n for n in ('_fast', 'covering', 'errors', 'exact', 'jumps',"
             " 'pattern', 'seifert')] + ['covsig.exact.' + n for n in ('algebraic', 'elementary',"
             " 'matrix', 'poly')]\n"
             "wrong = [n for n in names if eval(n) is not importlib.import_module(n)"
             " or n.rsplit('.', 1)[1] not in dir(sys.modules[n.rsplit('.', 1)[0]])]\n"
             "sys.exit(', '.join(wrong) or None)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_fresh_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_dunder_lookups_on_cli_load_nothing():
    # `from covsig.cli import run_command` looks up covsig.cli.__path__; a
    # dunder is no pipeline name, so it raises AttributeError at once
    probe = ("import sys\nimport covsig.cli\n"
             "for name in ('__path__', '__wrapped__', 'no_such_name'):\n"
             "    try:\n"
             "        getattr(covsig.cli, name)\n"
             "        sys.exit(name + ' resolved')\n"
             "    except AttributeError:\n"
             "        pass\n"
             "sys.exit('covsig.jumps' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_fresh_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


FRESH_COMMANDS = [
    ["obstruct", "--family", "ltm", "--V", "[[1,1],[0,2]]", "--m", "2", "--p", "3", "--format", "json"],
    ["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "3"],
    ["jump", "--V", "[[1,1],[0,2]]"],
    ["sigfn", "--V", "trefoil"],
]


def test_commands_in_a_fresh_process_load_neither_sympy_nor_mpmath():
    # the gcd, the enclosures and the display are Python ints: a process that
    # runs the algebraic path, a human display and sigfn loads neither library
    probe = ("import io, json, sys\nfrom covsig.cli import run_command\n"
             "runs = []\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    out = io.StringIO()\n"
             "    runs.append((run_command(argv, out), out.getvalue()))\n"
             "loaded = sorted(m for m in ('sympy', 'mpmath') if m in sys.modules)\n"
             "print(json.dumps({'runs': runs, 'loaded': loaded}))")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(FRESH_COMMANDS)],
                          capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert [tuple(r) for r in report["runs"]] == [run(argv) for argv in FRESH_COMMANDS]
    assert [code for code, _ in report["runs"]] == [1, 1, 0, 0]


def test_a_closed_stdout_exits_141_without_a_traceback():
    # the reader is gone before covsig writes: the broken pipe is neither a
    # verdict (exit 1) nor an error line printed into the same pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = ["cover", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "2", "--a", "3",
            "--format", "json"]
    try:
        proc = subprocess.run([sys.executable, "-m", "covsig"] + argv, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=_fresh_env(), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, "")
    assert cli.EXIT_BROKEN_PIPE not in (cli.EXIT_OK, cli.EXIT_NONPERIODIC, cli.EXIT_USAGE,
                                        cli.EXIT_UNRESOLVED)


def test_run_command_lets_a_broken_pipe_through():
    # it is no usage error, and no error line is written into the closed pipe
    class Closed(io.StringIO):
        writes = 0

        def write(self, text):
            Closed.writes += 1
            raise BrokenPipeError(32, "Broken pipe")

    with pytest.raises(BrokenPipeError):
        run_command(["jump", "--V", "trefoil"], Closed())
    assert Closed.writes == 1


def test_a_hostile_covering_size_is_refused_before_it_is_built(monkeypatch):
    # L(trefoil, 1000) at p = 3 has n = 11,988,004: its n x n fill would take
    # far more memory than there is, so the size is checked first
    def never(*args):
        raise AssertionError("covering_matrix called")

    monkeypatch.setattr("covsig.covering.covering_matrix", never)
    t0 = time.perf_counter()
    code, text = run(["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "1000", "--p", "3"])
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert json.loads(text) == {
        "error": "covering matrix of size 11988004 is over the limit %d" % MAX_COVERING_N,
        "type": "CoveringTooLarge"}


@pytest.mark.parametrize("argv, d", [
    (["solve", "--word", "y", "--p", "1000003"], "1000003^1"),
    (["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "2", "--a", "12"],
     "2^12"),
    (["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "2", "--a", "9"],
     "2^9"),
    (["solve", "--word", "y", "--p", "3", "--a", "10000000000"], "3^10000000000"),
    (["solve", "--word", "y", "--p", "1000000000000000003"], "1000000000000000003^1"),
])
def test_a_hostile_covering_degree_is_refused_before_the_circulant(monkeypatch, argv, d):
    # the d x d circulant solve grows as d^3 (d = 1024 took 8 s): d is
    # checked when the job's CoveringSpec is made, before any d-vector
    def never(*args):
        raise AssertionError("circulant built")

    monkeypatch.setattr("covsig.pattern.circulant_matrix", never)
    monkeypatch.setattr("covsig.pattern._circulant_rows", never)
    t0 = time.perf_counter()
    code, text = run(argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert json.loads(text) == {
        "error": f"covering degree d = {d} is over the limit {covering.MAX_COVERING_D}",
        "type": "CoveringTooLarge"}


def test_the_largest_covering_degree_still_runs():
    # at d = 2^8 = MAX_COVERING_D the pattern y has multiplicities (1, 0, ..., 0)
    assert covering.MAX_COVERING_D == 256
    code, text = run(["solve", "--word", "y", "--p", "2", "--a", "8", "--format", "json"])
    assert code == 0
    assert json.loads(text)["multiplicities"] == [1] + [0] * 255


@pytest.mark.parametrize("word", ["x^10000000 y", "y x^1000000000 X^1000000000"])
def test_a_hostile_pattern_exponent_is_refused_at_once(word):
    # parse_word expands each power into letters: 10^7 of them took 2 s, and
    # 10^9 would need 16 GB
    t0 = time.perf_counter()
    code, text = run(["pattern", word])
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert json.loads(text) == {
        "error": "the word has more than %d letters" % MAX_WORD_LETTERS, "type": "ParseError"}


def test_a_word_of_max_word_letters_still_answers():
    assert MAX_WORD_LETTERS == 1_000_000
    word = "x^499999 y X^499999 x"  # 10^6 letters
    assert run(["pattern", word]) == (0, '{"499999": 1}\n')
    assert run(["pattern", word + " x"])[0] == 2


@pytest.mark.parametrize("argv, doc", [
    (["--precision-bits", "-3"], None),
    ([], {"precision_bits": -3}),
    (["--window", "0"], None),
    ([], {"window_periods": -1}),
])
def test_negative_precision_bits_are_a_usage_error(tmp_path, argv, doc):
    # so is a window of less than one period
    args = ["obstruct", "--family", "ltm", "--V", "[[1,1],[0,2]]", "--m", "2", "--p", "3"] + argv
    if doc is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"options": doc}))
        args += ["--input", str(path)]
    code, text = run(args)
    assert code == cli.EXIT_USAGE
    value = int(argv[1]) if argv else next(iter(doc.values()))
    if "--window" in argv or "window_periods" in (doc or {}):
        error = f"--window must be at least 1, got {value}"
    else:
        error = f"--precision-bits must not be negative, got {value}"
    assert json.loads(text) == {"error": error, "type": "ParseError"}


def test_zero_precision_bits_still_run():
    code, text = run(["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2", "--p", "3",
                      "--format", "json", "--precision-bits", "0"])
    assert code == cli.EXIT_NONPERIODIC
    assert json.loads(text)["verdict"] == "NonPeriodic"


# A_kk + A_kk^T = diag(-2, 0) is singular, so every group of two or more
# strands has a singular chain and D = 0: the job still takes its jumps from
# the core, each block from its determinant or a generic minor of it
D_ZERO_JOB = ["--A", "[[1,-1],[2,0]]", "--B", "[[-2,0],[0,0]]", "--C", "[[-1,-1],[1,0]]",
              "--epsilon", "-1", "--coeffs", '{"0": 2, "1": -1}', "--format", "json"]


@pytest.mark.parametrize("command, degree, code, digest", [
    ("obstruct", ["--p", "3"], 1, "6a91af20d22b18b0db30e8f5d8346f75411d66db3396a5717ea3a7d05dd7127c"),
    ("cover", ["--p", "3"], 0, "6e7a2c8d2f997eee28ff2c479f2f1a49963691981b5ab63079bdded2f875ff0e"),
    # the bytes of the route that filled the n x n matrix, at n = 254 and 510
    ("obstruct", ["--p", "7"], 1, "1606f78899bfb2d9c091d1229b23c00ab6380c12773d9960ad2bb52fb4b13b6a"),
    ("obstruct", ["--p", "2", "--a", "3"], 1,
     "956e7e05d430ccacaf1435a4205016b369f788660ce8e4767a26eb5a2eb104e8"),
])
def test_a_covering_with_d_zero_never_builds_its_matrix(monkeypatch, command, degree, code, digest):
    def never(*args):
        raise AssertionError("covering_matrix called")

    monkeypatch.setattr("covsig.covering.covering_matrix", never)
    got, text = run([command] + D_ZERO_JOB + degree)
    assert got == code
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if command == "cover":
        assert json.loads(text)["matrix_size"] == 14


def test_a_hostile_isolation_answers_at_once():
    # a Cayley gcd whose coefficients dwarf its roots: bisection from
    # Cauchy's bound took 8.7 s, from a power-of-two Fujiwara bound 0.2 s
    t0 = time.perf_counter()
    code, text = run(["obstruct", "--A", "[[1,-2],[-1,-2]]", "--B", "[[0,0],[0,-2]]",
                      "--C", "[[1,1],[2,-2]]", "--epsilon", "-1", "--coeffs", '{"0": 4, "1": -3}',
                      "--p", "3", "--target=0,-1,-1", "--format", "json"])
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "a002d89bc052c0044259b07426a18ce4415ee421ac5df0e49b9ce3a3819b2818")


# blocks over L = 2 and components of multiplicity 0, which the core and the
# n x n matrix leave out
ZERO_MULTIPLICITY_JOB = ["--family", "ltm", "--V", '[["1/2","1/2"],[0,1]]', "--m", "2",
                         "--coeffs", '{"0": 1, "1": -1, "2": 1}', "--p", "5", "--format", "json"]


@pytest.mark.parametrize("command, digest", [
    ("obstruct", "6fd2e6a425936eed571f84c5c298bce0e15995afa0bec38da91e73b738414100"),
    ("cover", "2f68299d316a98330dfcd838201fb6485615405f3ad336bd0e0f168695f76e86"),
])
def test_a_covering_with_zero_multiplicities_and_fractional_blocks_pinned(command, digest):
    sd, _ = covering.ltm_family(RatMatrix([["1/2", "1/2"], [0, 1]]), 2)
    cm = covering.build_covering(sd, {0: 1, 1: -1, 2: 1}, covering.CoveringSpec(5))
    assert cm.multiplicities == (0, -1, 0, 1, 1)
    assert cm.den > 1
    code, text = run([command] + ZERO_MULTIPLICITY_JOB)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# groups of negative multiplicity, which core_rows lays out as positive
# groups of eps*A_kk^T; the target is one argument, as argparse reads a
# leading -1 as an option
@pytest.mark.parametrize("args, mults, algebraic, digest", [
    (["--V", "trefoil", "--target=1,-1,1"], [3, -1, 5], 0,
     "40a6f9f51d5b6c3d34454b1ca5028482be3785985b2497e0fe54bb1f4b5cd5be"),
    (["--V", "[[1,1],[0,2]]", "--target=0,1,-1"], [1, 2, -3], 20,
     "cd63dbf6ad032ecd70bfc7b8a4a62f55bce5edd78f8f4e9e24b38ca3c855a0a4"),
    (["--V", "[[1,1],[0,2]]", "--epsilon", "-1", "--target=1,-1,1"], [3, -1, 5], 24,
     "cf77f83b08598d0cf20e17daf56ca21ea4aff9da2354444999a5388b77571d96"),
])
def test_negative_multiplicities_pinned(args, mults, algebraic, digest):
    code, text = run(["obstruct", "--family", "ltm", "--m", "2", "--p", "3", "--format", "json"]
                     + args)
    assert code == 1
    doc = json.loads(text)
    assert doc["multiplicities"] == mults
    assert sum("algebraic_t" in p for p in doc["jump"]["points"]) == algebraic
    assert hashlib.sha256(text.encode()).hexdigest() == digest


LADDER_P3 = [["obstruct", "--family", "ltm", "--V", v, "--m", m, "--p", "3", "--format", "json"]
             for v in ("trefoil", "[[1,1],[0,2]]") for m in ("2", "3")]


def test_covering_jobs_with_d_nonzero_never_build_the_matrix(monkeypatch):
    # L(trefoil, m) and L(ALG, m) at p = 3 take their jumps from the blocks:
    # with covering_matrix unusable they print the bytes of a plain run
    plain = [run(argv) for argv in LADDER_P3]

    def never(*args):
        raise AssertionError("covering_matrix called")

    monkeypatch.setattr("covsig.covering.covering_matrix", never)
    assert [run(argv) for argv in LADDER_P3] == plain
    assert [code for code, _ in plain] == [1, 1, 1, 1]

"""Command-line front end: subcommands, formats, exit codes, job documents."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from covsig import Comparison, alg_compare, cli, jumps
from covsig.cli import run_command
from covsig.jumps import jump_from_obj
from conftest import same_jumps


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
    # the dyadic cells, each block's g and the sort on that path
    code, text = run([
        "obstruct", "--family", "ltm", "--V", "[[1,1],[0,2]]", "--m", "2",
        "--p", "3", "--format", "json",
    ])
    assert code == 1
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "23cded487cd3bb8916e1d2564f5b5d304e186d5b2f75eb5096282c7bb026b524")


@pytest.mark.parametrize("extra, digest", [
    (["--m", "3", "--p", "3"], "3f1d70b0b58b6c9e30383fd7351bd5e796c1bb2f02c8708cdc71fb51b0983d0d"),
    (["--m", "2", "--p", "2", "--a", "2"],
     "7bbb14f752c8c4bcdf1e894011cc48a8ab1320282d209f79a2f789879a663096"),
    (["--m", "2", "--p", "5"], "7c2259a74881dd95989dad6ab8dec5a9aa6c1d4a0f007de63e5102d4441282da"),
], ids=["m3-p3", "m2-d4", "m2-p5"])
def test_obstruct_algebraic_jobs_pinned(extra, digest):
    # the other algebraic jobs: L(ALG, 3) at p = 3, L(ALG, 2) at d = 2^2 and
    # at p = 5, whose blocks' Cayley gcds have degrees 6 + 10 + 4,
    # 8 + 14 + 2 + 4 and 16 + 30 + 2 + 4 + 8
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


@pytest.mark.parametrize("name", sorted(ALG_FIXTURES))
def test_algebraic_points_are_the_fixture_points(name):
    # the same verdict, witness and points; each t is certified equal
    # (alg_compare EQ: a gcd with a root in the overlap) to the one before,
    # and printed in a dyadic cell [k/2^P, (k+1)/2^P] with 64 | P
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
        assert ({k: v for k, v in a.items() if k != "algebraic_t"}
                == {k: v for k, v in b.items() if k != "algebraic_t"})
        ta, tb = jumps.point_from_obj(a).loc.t, jumps.point_from_obj(b).loc.t
        assert alg_compare(ta, tb) is Comparison.EQ
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
], ids=["m2-p7", "m3-p5", "t25-m2-p5"])
def test_obstruct_larger_jobs_pinned(knot, extra, digest):
    # L(trefoil, 2) at p = 7 and L(trefoil, 3) at p = 5: cores of 7 and 5
    # groups whose connected blocks each mix two groups, with n = 508 and 844;
    # L(T25, 2) at p = 5 (n = 248): five blocks of size 8, with the roots of
    # unity of orders {80}, {50, 150}, {10}, {20} and {40}
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
], ids=["matrix-not-rows", "family-V-not-rows", "coeffs-not-object", "target-not-list",
        "section-not-object", "document-not-object", "p-not-integer", "m-not-integer",
        "family-with-bad-word", "epsilon-not-a-choice", "format-not-a-choice",
        "family-not-a-choice", "exponent-in-matrix", "exponent-in-document",
        "zero-denominator"])
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


def test_precision_bits_reach_the_sort(monkeypatch):
    seen = []
    real = cli.scale_jump

    def spy(f, y, max_bits):
        seen.append(max_bits)
        return real(f, y, max_bits)

    monkeypatch.setattr(cli, "scale_jump", spy)
    code, _ = run(["obstruct", "--family", "ltm", "--V", "trefoil", "--m", "2",
                   "--p", "2", "--precision-bits", "77"])
    assert code in (0, 1)
    assert seen == [77]


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


@pytest.mark.parametrize("module", ["covsig", "covsig.cli"])
def test_python_dash_m_runs_the_command(module):
    argv = ["jump", "--V", "trefoil"]
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", module] + argv, capture_output=True,
                          text=True, env=env, timeout=120)
    code, text = run(argv)
    assert (proc.returncode, proc.stdout) == (code, text)
    assert text


def test_startup_does_not_import_sympy():
    # sympy is most of the import time; only poly.gcd needs it, and imports it
    # on its first call, which a pattern command never makes
    probe = ("import io, sys\nfrom covsig.cli import run_command\n"
             "run_command(['pattern', 'y'], io.StringIO())\n"
             "sys.exit('sympy' in sys.modules)")
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")

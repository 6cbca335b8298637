"""Command-line front end.

Subcommands:
    jump      jump function of a single Seifert matrix
    pattern   pattern word -> coefficient sequence c_n
    solve     fold the coefficients and solve the circulant multiplicity system
    cover     covering-link Seifert matrix and its jump function
    obstruct  full pipeline ending in the period-2*pi verdict
    sigfn     CSV samples of the signature step function

Exit codes: 0 success (including a Periodic verdict), 1 NonPeriodic verdict,
2 input or usage error (also a run that exhausts memory or the recursion
limit, which is no verdict), 3 unresolved exact comparison, 141 stdout
closed before the output was written (a broken pipe, 128 + SIGPIPE as a
shell reports it).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
from fractions import Fraction

from .errors import CovsigError, ParseError, UnresolvedComparison
from .pattern import fold, parse_word, pattern_coefficients, solve_multiplicities
from .readers import DEFAULT_PRECISION_BITS, frac_str, read_frac, read_int

# The pipeline names this module calls, by module.  _bind_pipeline binds them
# into the module globals when the first command that needs them runs, so a
# process that only parses (`covsig pattern`) loads no pipeline code.  jumps
# comes first: compiling it, the largest module, before the modules it
# imports keeps a process's peak memory lower (18.7 MB against 19.2 MB with
# covering first, after one obstruct without a bytecode cache).
_PIPELINE = {
    "JumpFunction": "jumps",
    "jump_function": "jumps",
    "jump_to_obj": "jumps",
    "period_2pi_test": "jumps",
    "point_to_obj": "jumps",
    "repeated_points": "jumps",
    "scale_jump": "jumps",
    "theta_decimal": "jumps",
    "CoveringSpec": "covering",
    "build_covering": "covering",
    "ltm_family": "covering",
    "RatMatrix": "exact",
    "SeifertData": "seifert",
}

TREFOIL = [[-1, 1], [0, -1]]

EXIT_OK = 0
EXIT_NONPERIODIC = 1
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3
EXIT_BROKEN_PIPE = 141


def _bind_pipeline():
    """Bind each pipeline name that is not bound yet into the module globals.

    A bound name stays as it is: perfbench/tracing.py replaces some of them
    with its wrappers, which the next job must call.
    """
    names = globals()
    for name, module in _PIPELINE.items():
        if name not in names:
            names[name] = getattr(importlib.import_module(f"{__package__}.{module}"), name)


def __getattr__(name):
    """A pipeline name read before a command bound it (PEP 562); any other name, dunders
    included, is no attribute and loads nothing."""
    if name not in _PIPELINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_pipeline()
    return globals()[name]


def _frac(x) -> Fraction:
    try:
        return read_frac(x)
    except ValueError as e:
        raise ParseError(str(e)) from None


def _int(x) -> int:
    try:
        return read_int(x)
    except ValueError as e:
        raise ParseError(str(e)) from None


def _matrix(obj) -> RatMatrix:
    if obj == "trefoil":
        obj = TREFOIL
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not (isinstance(obj, list) and all(isinstance(row, list) for row in obj)):
        raise ParseError(f"expected a matrix as a list of rows, got {obj!r}")
    return RatMatrix([[_frac(x) for x in row] for row in obj])


def _coeffs_from_args(args) -> dict:
    if getattr(args, "word", None):
        return pattern_coefficients(parse_word(args.word))
    if getattr(args, "coeffs", None):
        raw = json.loads(args.coeffs)
        if not isinstance(raw, dict):
            raise ParseError(f"coefficients must be a JSON object, got {raw!r}")
        return {_int(k): _int(v) for k, v in raw.items()}
    raise ParseError("need a pattern: --word or --coeffs")


def _seifert_from_args(args):
    eps = args.epsilon
    if args.family == "ltm":
        if args.V is None or args.m is None:
            raise ParseError("--family ltm needs --V and --m")
        return ltm_family(_matrix(args.V), args.m, eps)
    if args.A is None or args.B is None or args.C is None:
        raise ParseError("inline Seifert data needs --A, --B and --C")
    sd = SeifertData(_matrix(args.A), _matrix(args.B), _matrix(args.C), eps)
    return sd, None


def _spec_from_args(args) -> CoveringSpec:
    target = None
    if args.target:
        target = tuple(_int(t) for t in args.target.split(","))
    return CoveringSpec(p=args.p, a=args.a, target=target)


def _choice(dest, value):
    """value, if build_parser's option with that dest allows it; ParseError if not."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = next(a.choices for p in sub.choices.values() for a in p._actions if a.dest == dest)
    if value not in choices:
        raise ParseError(f"{dest} must be one of {choices}, got {value!r}")
    return value


def _jobspec_into_args(args):
    """Merge a JSON job document (file or '-' for stdin) into args, with the options' checks."""
    if not getattr(args, "input", None):
        return
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    job = json.loads(text)
    if not (isinstance(job, dict) and all(isinstance(job.get(k, {}), dict) for k in
                                          ("seifert", "pattern", "covering", "options"))):
        raise ParseError("a job document must be a JSON object of JSON objects")
    sf = job.get("seifert", {})
    if "family" in sf:
        args.family = _choice("family", sf["family"])
        args.V = json.dumps(sf["V"]) if not isinstance(sf["V"], str) else sf["V"]
        args.m = _int(sf["m"])
    elif sf:
        args.family = None
        args.A = json.dumps(sf["A"])
        args.B = json.dumps(sf["B"])
        args.C = json.dumps(sf["C"])
    if sf:
        args.epsilon = _choice("epsilon", _int(sf.get("epsilon", 1)))
    pat = job.get("pattern", {})
    if "word" in pat:
        args.word = pat["word"]
    elif "coeffs" in pat:
        args.coeffs = json.dumps(pat["coeffs"])
    cov = job.get("covering", {})
    if cov:
        args.p = _int(cov["p"])
        args.a = _int(cov.get("a", 1))
        if cov.get("target") is not None:
            if not isinstance(cov["target"], list):
                raise ParseError('"target" must be a JSON list')
            args.target = ",".join(str(t) for t in cov["target"])
    opt = job.get("options", {})
    if "precision_bits" in opt:
        args.precision_bits = _int(opt["precision_bits"])
    if "window_periods" in opt:
        args.window = _int(opt["window_periods"])
    if "output_format" in opt:
        args.format = _choice("format", opt["output_format"])


def _emit_jump_human(f: JumpFunction, out):
    print(f"period: {frac_str(f.period)} * 2*pi", file=out)
    print(f"sigma just after 0: {f.sigma0}", file=out)
    if not f.points:
        print("no jumps", file=out)
    for pt in f.points:
        obj = point_to_obj(pt)
        if "pi_rational" in obj:
            desc = f"theta = {obj['pi_rational']} * pi"
        else:
            desc = "theta algebraic"
        print(f"  {desc}  (~{theta_decimal(pt.loc)})  jump {pt.value:+d}", file=out)


def _emit_jump(f: JumpFunction, args, out, extra=None):
    if args.format == "json":
        obj = jump_to_obj(f)
        if extra:
            obj.update(extra)
        print(json.dumps(obj, sort_keys=True), file=out)
    elif args.format == "csv":
        print("theta_decimal,value", file=out)
        for pt in f.points:
            print(f"{theta_decimal(pt.loc)},{pt.value}", file=out)
    else:
        _emit_jump_human(f, out)


def cmd_jump(args, out):
    f = jump_function(_matrix(args.V), args.epsilon, args.precision_bits)
    _emit_jump(f, args, out)
    return EXIT_OK


def cmd_pattern(args, out):
    c = pattern_coefficients(parse_word(args.word))
    print(json.dumps({str(k): v for k, v in sorted(c.items())}, sort_keys=True), file=out)
    return EXIT_OK


def cmd_solve(args, out):
    c = _coeffs_from_args(args)
    spec = _spec_from_args(args)
    row = fold(c, spec.d)
    x, s = solve_multiplicities(row, spec.target)
    obj = {
        "folded_row": list(row.values),
        "x": [frac_str(xi) for xi in x],
        "s": s,
        "multiplicities": [int(xi * s) for xi in x],
    }
    if args.format == "human":
        print(f"folded row: {list(row.values)}", file=out)
        print(f"x = ({', '.join(frac_str(xi) for xi in x)}), s = {s}", file=out)
        print(f"integer multiplicities s*x = {obj['multiplicities']}", file=out)
    else:
        print(json.dumps(obj, sort_keys=True), file=out)
    return EXIT_OK


def _run_pipeline(args):
    sd, family_coeffs = _seifert_from_args(args)
    # a family brings its own pattern; one that is given, even malformed, wins
    given = getattr(args, "word", None) or getattr(args, "coeffs", None)
    c = family_coeffs if family_coeffs is not None and not given else _coeffs_from_args(args)
    spec = _spec_from_args(args)
    cm = build_covering(sd, c, spec)
    f = jump_function(cm, sd.epsilon, args.precision_bits)
    g = scale_jump(f, Fraction(1, cm.s), args.precision_bits)
    return cm, g


def cmd_cover(args, out):
    cm, g = _run_pipeline(args)
    extra = {
        "s": cm.s,
        "multiplicities": list(cm.multiplicities),
        "matrix_size": cm.n,
    }
    if args.format == "human":
        print(f"s = {cm.s}, multiplicities = {list(cm.multiplicities)}, "
              f"matrix size = {cm.n}", file=out)
        _emit_jump_human(g, out)
    else:
        _emit_jump(g, args, out, extra)
    return EXIT_OK


def cmd_obstruct(args, out):
    cm, g = _run_pipeline(args)
    verdict = period_2pi_test(g, args.precision_bits)
    if args.format == "json":
        obj = {
            "verdict": verdict.status,
            "s": cm.s,
            "multiplicities": list(cm.multiplicities),
            "jump": jump_to_obj(g),
        }
        if verdict.witness is not None:
            loc, wins, vals = verdict.witness
            obj["witness"] = {
                "theta_decimal": theta_decimal(loc),
                "windows": list(wins),
                "values": list(vals) if vals else None,
            }
        print(json.dumps(obj, sort_keys=True), file=out)
    else:
        print(f"verdict: {verdict.status}", file=out)
        if verdict.witness is not None:
            loc, wins, vals = verdict.witness
            print(f"witness: theta ~ {theta_decimal(loc)} differs between "
                  f"windows {wins[0]} and {wins[1]} (values {vals})", file=out)
        _emit_jump_human(g, out)
    if verdict.status == "NonPeriodic":
        return EXIT_NONPERIODIC
    if verdict.status == "Unresolved":
        return EXIT_UNRESOLVED
    return EXIT_OK


def cmd_sigfn(args, out):
    f = jump_function(_matrix(args.V), args.epsilon, args.precision_bits)
    print("theta_decimal,sigma", file=out)
    sigma = f.sigma0
    print(f"0.0,{sigma}", file=out)
    # the jumps of one period sum to 0, so sigma is back at sigma0 after each
    for pt in repeated_points(f, max(1, args.window)):
        sigma += pt.value
        print(f"{theta_decimal(pt.loc)},{sigma}", file=out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The covsig parser, built once per process: parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="covsig", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seifert=False, pattern=False, covering=False, matrix=False):
        p.add_argument("--format", choices=["human", "json", "csv"], default="human")
        p.add_argument("--precision-bits", dest="precision_bits", type=int,
                       default=DEFAULT_PRECISION_BITS)
        p.add_argument("--window", type=int, default=1,
                       help="periods shown in sampled output")
        p.add_argument("--input", help="JSON job document ('-' for stdin)")
        p.add_argument("--epsilon", type=int, choices=[1, -1], default=1)
        if matrix:
            p.add_argument("--V", help='matrix JSON or "trefoil"')
        if seifert:
            p.add_argument("--family", choices=["ltm"], default=None)
            p.add_argument("--V", help='pattern companion matrix JSON or "trefoil"')
            p.add_argument("--m", type=int)
            p.add_argument("--A")
            p.add_argument("--B")
            p.add_argument("--C")
        if pattern:
            p.add_argument("--word", help="pattern word over x X y Y with ^n powers")
            p.add_argument("--coeffs", help='JSON object {"0": 2, "1": -1}')
        if covering:
            p.add_argument("--p", type=int, help="prime")
            p.add_argument("--a", type=int, default=1, help="exponent: d = p^a")
            p.add_argument("--target", help="comma-separated integers, length d")

    p = sub.add_parser("jump", help="jump function of a Seifert matrix")
    common(p, matrix=True)
    p.set_defaults(func=cmd_jump)

    p = sub.add_parser("pattern", help="pattern word -> coefficients c_n")
    common(p)
    p.add_argument("word")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("solve", help="fold + circulant multiplicity solve")
    common(p, pattern=True, covering=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("cover", help="covering matrix and its jump function")
    common(p, seifert=True, pattern=True, covering=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("obstruct", help="full pipeline + periodicity verdict")
    common(p, seifert=True, pattern=True, covering=True)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("sigfn", help="CSV step-function samples")
    common(p, matrix=True)
    p.set_defaults(func=cmd_sigfn)

    return ap


def run_command(argv=None, out=None) -> int:
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        _jobspec_into_args(args)
        if args.precision_bits < 0:
            raise ParseError(f"--precision-bits must not be negative, got {args.precision_bits}")
        if getattr(args, "command", None) in ("solve", "cover", "obstruct") \
                and getattr(args, "p", None) is None:
            raise ParseError("--p is required (or provide it via --input)")
        if args.func is not cmd_pattern:
            _bind_pipeline()
        return args.func(args, out)
    except UnresolvedComparison as e:
        print(json.dumps({"error": str(e), "type": "UnresolvedComparison"},
                         sort_keys=True), file=out)
        return EXIT_UNRESOLVED
    except BrokenPipeError:
        raise  # the error line would go to the same closed pipe; main handles it
    except (CovsigError, ValueError, OSError, json.JSONDecodeError, KeyError,
            RecursionError, MemoryError) as e:
        print(json.dumps({"error": str(e), "type": type(e).__name__},
                         sort_keys=True), file=out)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run_command()
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # as Python's signal docs advise: point stdout at devnull, so that the
        # flush at exit does not fail again, and exit with a code of its own
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()

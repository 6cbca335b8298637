"""Exact numbers at the program's edge: the readers of outside input and their writer.

The command-line parser and the jump-document reader read rationals and
integers through read_frac and read_int; frac_str writes a rational as they
read it back.  DEFAULT_PRECISION_BITS, the bit budget of an exact comparison,
is the parser's default for --precision-bits.  This module imports no
pipeline code, and it loads `fractions` only when read_frac runs, so a
command that only parses (`covsig pattern`) loads neither.
"""

from __future__ import annotations

DEFAULT_PRECISION_BITS = 256


def frac_str(x: Fraction) -> str:
    """n or n/d, for a Fraction or an int (both have numerator and denominator)."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def read_frac(x) -> Fraction:
    """The rational of an entry read from outside: an int, or a string n, n/d or a decimal.

    Exponent notation is refused with ValueError: Fraction("1e10000000")
    builds a 33-million-bit integer, and each further exponent digit costs
    ten times more.  Digit strings are bounded by Python's limit on the
    length of an int string, which raises ValueError.  covsig itself writes
    only n and n/d (frac_str).
    """
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"expected an exact rational, got {x!r}")
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise ValueError(f"exponent notation is not read as a rational: {x!r}")
    from fractions import Fraction

    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {x!r}") from None


def read_int(x) -> int:
    """An integer read from outside: an int or an int string (cli._int reads through it)."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)

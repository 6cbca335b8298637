"""Pattern words in the free group on x, y and the circulant multiplicity solve.

A pattern is a word whose total y-exponent is 1.  Its coefficient sequence
c_n records, for each running x-exponent n, the signed number of y-letters
read at that exponent; folding c_n modulo d and solving the resulting
circulant system produces the rational multiplicities x_k and the clearing
denominator s that the covering construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    NotAPattern,
    NotPrimePower,
    ParseError,
    SingularMatrix,
    SingularSystem,
)

_LETTERS = {"x": ("x", 1), "X": ("x", -1), "y": ("y", 1), "Y": ("y", -1)}

# The most letters a word may expand to.  parse_word expands every power, at
# about 0.16 s and 16 MB per million letters; x^1000000000 would need 16 GB.
MAX_WORD_LETTERS = 1_000_000


@dataclass(frozen=True)
class PatternWord:
    """Sequence of (generator, exponent-sign) letters; unreduced."""

    letters: tuple

    def __post_init__(self):
        for gen, e in self.letters:
            if gen not in ("x", "y") or e not in (1, -1):
                raise ValueError(f"bad letter {(gen, e)!r}")
        if sum(e for gen, e in self.letters if gen == "y") != 1:
            raise NotAPattern("total y-exponent must be 1")

    def __str__(self):
        out = []
        for gen, e in self.letters:
            out.append(gen if e == 1 else gen.upper())
        return " ".join(out)


def parse_word(text: str) -> PatternWord:
    """Parse a word over x, X, y, Y with optional ^<int> powers.

    X and Y are the inverse letters; "x^-2" and "X^2" both mean two copies of
    x^(-1).  Whitespace separates nothing in particular; it is just skipped.
    A word of more than MAX_WORD_LETTERS letters is refused with ParseError.
    """
    letters = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in _LETTERS:
            raise ParseError(f"unexpected character {ch!r}", position=i)
        gen, e = _LETTERS[ch]
        i += 1
        count = 1
        if i < n and text[i] == "^":
            i += 1
            j = i
            if j < n and text[j] in "+-":
                j += 1
            if j >= n or not text[j].isdigit():
                raise ParseError("expected integer after '^'", position=i)
            while j < n and text[j].isdigit():
                j += 1
            count = int(text[i:j])
            i = j
        if count < 0:
            e, count = -e, -count
        if len(letters) + count > MAX_WORD_LETTERS:
            raise ParseError(f"the word has more than {MAX_WORD_LETTERS} letters", position=i)
        letters.extend([(gen, e)] * count)
    return PatternWord(tuple(letters))


def pattern_coefficients(w: PatternWord) -> dict:
    """The map n -> c_n: signed count of y-letters read at x-exponent n.

    Zero values are dropped; the values always sum to 1.
    """
    c: dict = {}
    a = 0
    for gen, e in w.letters:
        if gen == "x":
            a += e
        else:
            c[a] = c.get(a, 0) + e
            if c[a] == 0:
                del c[a]
    return c


def shift(c: dict, a: int) -> dict:
    """Conjugating the pattern by x^(-a): c'_n = c_(n+a)."""
    return {n - a: v for n, v in c.items() if v}


@dataclass(frozen=True)
class FoldedRow:
    """Length-d vector of coefficients folded modulo d; entries sum to 1."""

    d: int
    values: tuple

    def __post_init__(self):
        if self.d < 1 or len(self.values) != self.d:
            raise ValueError("values must have length d >= 1")
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))


def fold(c: dict, d: int) -> FoldedRow:
    if d < 1:
        raise ValueError("d must be positive")
    vals = [0] * d
    for n, v in c.items():
        vals[n % d] += v
    return FoldedRow(d, tuple(vals))


def circulant_matrix(row: FoldedRow) -> RatMatrix:
    """The d x d matrix with (l, k) entry row[(k - l) mod d]."""
    from .exact.matrix import RatMatrix  # loaded by the circulant, not by parse_word

    d = row.d
    return RatMatrix(
        [[row.values[(k - l) % d] for k in range(d)] for l in range(d)]
    )


def circulant_det_mod_p(row: FoldedRow, p: int) -> int:
    """Residue mod p of the circulant determinant; equals 1 by the
    prime-power determinant lemma whenever the entries sum to 1.

    Requires d to be a power of p (d = 1 is allowed as p^0).
    """
    d = row.d
    dd = d
    while dd % p == 0:
        dd //= p
    if dd != 1:
        raise NotPrimePower(f"{d} is not a power of {p}")
    det = circulant_matrix(row).det()
    if det.denominator != 1:
        raise AssertionError("integer circulant with non-integer determinant")
    return det.numerator % p


def solve_multiplicities(row: FoldedRow, target):
    """Solve the circulant system M x = target exactly.

    Returns (x, s): the unique rational solution and the least common
    multiple s of its denominators, so that s*x is integral.  Nonsingularity
    is guaranteed for prime-power d with entries summing to 1; a singular M
    (possible for other d) raises SingularSystem.
    """
    from .exact.matrix import mat_inverse  # loaded by the circulant, not by parse_word

    d = row.d
    target = [Fraction(t) for t in target]
    if len(target) != d:
        raise ValueError("target length must equal d")
    m = circulant_matrix(row)
    try:
        inv = mat_inverse(m)
    except SingularMatrix:
        raise SingularSystem("circulant system is singular") from None
    x = [sum(inv[i, j] * target[j] for j in range(d)) for i in range(d)]
    s = lcm(*[xi.denominator for xi in x])
    return x, s

"""The value classes: equality, hash and repr read off __slots__ (covsig._value)."""

from fractions import Fraction

import pytest

from covsig import (
    CoveringMatrix,
    CoveringSpec,
    FoldedRow,
    JumpFunction,
    JumpPoint,
    PatternWord,
    PiLoc,
    RatMatrix,
    SeifertData,
    SignTuple,
    Verdict,
)
from covsig._value import Value

# per class: the constructor arguments of a value, those of a second value
# that differs from it in every field, and whether the repr evaluates back
# (a RatMatrix field prints as RatMatrix[...], which does not)
CASES = {
    "PatternWord": (PatternWord, ((("x", 1), ("y", 1)),), ((("y", 1),),), True),
    "FoldedRow": (FoldedRow, (2, (1, 0)), (3, (0, 0, 1)), True),
    "SignTuple": (SignTuple, ((1, -1),), ((1,),), True),
    "SeifertData": (
        SeifertData,
        (RatMatrix([[1]]), RatMatrix([[0]]), RatMatrix([[1]]), -1, 2),
        (RatMatrix([[0, 1], [0, 0]]), RatMatrix([[1], [0]]), RatMatrix([[2]]), 1, 1),
        False),
    "CoveringSpec": (CoveringSpec, (2, 1, (1, 0)), (3, 2, (0,) * 8 + (1,)), True),
    "CoveringMatrix": (
        CoveringMatrix,
        (1, ((((1,),),),), 1, (1,), 1),
        (2, ((((3,),),),), 2, (2,), 2),
        True),
    "PiLoc": (PiLoc, (Fraction(1, 2),), (Fraction(1),), True),
    "JumpPoint": (JumpPoint, (PiLoc(Fraction(1, 2)), 2), (PiLoc(1), -1), True),
    "JumpFunction": (
        JumpFunction,
        ([JumpPoint(PiLoc(Fraction(1, 2)), 2)], Fraction(1), 0),
        ([], Fraction(2), 1),
        True),
    "Verdict": (
        Verdict,
        ("Periodic", None),
        ("NonPeriodic", (PiLoc(1), (0, 1), (1, None))),
        True),
}
UNHASHABLE = {JumpPoint, JumpFunction, Verdict}
NAMESPACE = {"Fraction": Fraction, **{cls.__name__: cls for cls, *_ in CASES.values()}}


def _with_field(x, cls, name, value):
    """A copy of x as an object of cls, with field name set to value."""
    out = object.__new__(cls)
    for slot in type(x).__slots__:
        object.__setattr__(out, slot, value if slot == name else getattr(x, slot))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_value_classes_compare_hash_and_print_by_their_slots(case):
    cls, args, other_args, evals = CASES[case]
    x, same, other = cls(*args), cls(*args), cls(*other_args)
    assert isinstance(x, Value) and not {"__eq__", "__repr__", "_fields"} & set(vars(cls))
    assert vars(cls).get("__hash__") is None  # inherited, or None where unhashable
    assert x == same and not x != same
    assert x._fields() == tuple(getattr(x, name) for name in cls.__slots__)
    # changing any one field gives an unequal value
    for name in cls.__slots__:
        changed = _with_field(x, cls, name, getattr(other, name))
        assert x != changed and changed != x
    # equality is type-exact: a subclass, another Value class with the same
    # slots and the tuple of fields all hold the same fields and are unequal
    sub = type("Sub" + cls.__name__, (cls,), {})
    twin = type("Twin" + cls.__name__, (Value,), {"__slots__": cls.__slots__})
    for look_alike in (_with_field(x, sub, None, None), _with_field(x, twin, None, None)):
        assert look_alike._fields() == x._fields()
        assert x != look_alike and look_alike != x
    assert x != x._fields()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(same)
        assert {x: 1}[same] == 1
    text = repr(x)
    assert text.startswith(cls.__name__ + "(")
    if evals:
        assert eval(text, NAMESPACE) == x

"""The value semantics shared by covsig's value classes.

A subclass names its fields in __slots__ and takes them positionally, in
that order, in its constructor.  Two values are equal when they are of the
same class and their fields are equal; a value hashes its fields and prints
as Name(field, ...), which evaluates back wherever the fields' reprs do.  A
class with mutable fields sets __hash__ = None.
"""


class Value:
    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"

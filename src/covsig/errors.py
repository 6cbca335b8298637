"""Exception types shared across the library."""


class CovsigError(Exception):
    """Base class for all library errors."""


class SingularMatrix(CovsigError):
    pass


class NotHermitian(CovsigError):
    pass


class DimensionMismatch(CovsigError):
    pass


class ParseError(CovsigError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class NotAPattern(CovsigError):
    pass


class NotPrimePower(CovsigError):
    pass


class SingularSystem(CovsigError):
    pass


class NotRationalHomologySphere(CovsigError):
    pass


class CoveringTooLarge(CovsigError):
    """A covering matrix over covering.MAX_COVERING_N, refused before it is built."""


class EmptyTuple(CovsigError):
    pass


class ZeroScale(CovsigError):
    pass


class UnresolvedComparison(CovsigError):
    """Two jump locations could not be ordered within the precision budget.

    Carries both locations and the number of bits spent before giving up.
    """

    def __init__(self, loc_a, loc_b, bits):
        super().__init__(
            "could not resolve comparison of jump locations within %d bits" % bits
        )
        self.loc_a = loc_a
        self.loc_b = loc_b
        self.bits = bits

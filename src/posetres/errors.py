"""Exception hierarchy shared by all modules."""


class PosetresError(Exception):
    """Base class for all errors raised by this package."""


class InvalidField(PosetresError):
    """Characteristic is neither 0 nor a prime, or a value is not a field
    element."""


class ShapeError(PosetresError):
    """Incompatible dimensions."""


class EmptyIdeal(PosetresError):
    """A monomial ideal needs at least one generator."""


class TooLarge(PosetresError):
    """A configured resource cap was exceeded."""


class NotAComplex(PosetresError):
    """Composite of consecutive differentials is nonzero."""


class NotMinimal(PosetresError):
    """A differential contains an invertible (unit) entry."""


class NotFound(PosetresError):
    """Unknown element or basis id."""


class NotACycle(PosetresError):
    """Vector is not in the kernel of the relevant differential."""


class NotAMorphism(PosetresError):
    """Degree map is not monotone on the poset."""


class HypothesisFailed(PosetresError):
    """A stated hypothesis of a lemma/proposition does not hold for the input."""


class DegenerateColumn(PosetresError):
    """A differential column is zero in homological degree >= 1."""


class NotMinimalSupport(PosetresError):
    """Basis fails the minimal-support condition; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class VerificationError(PosetresError):
    """A property the theory guarantees failed to verify (implementation bug)."""


class ParseError(PosetresError):
    """Malformed input file."""

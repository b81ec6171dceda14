"""Exception types shared across the package."""


class QuivertiltError(Exception):
    """Base class for all package errors."""


class ConversionError(QuivertiltError):
    """Quiver cannot be encoded as a skew-symmetric exchange matrix (2-cycle present)."""


class VertexError(QuivertiltError):
    """A vertex is not part of the quiver at hand."""


class UnsupportedParameters(QuivertiltError):
    """Family parameters outside the supported range (a1 >= 1, a2 >= 2)."""


class ShapeError(QuivertiltError):
    """Matrix or representation shapes are incompatible."""


class UnsupportedInput(QuivertiltError):
    """Input outside an operation's contract (e.g. non-thin module)."""


class RelationViolation(QuivertiltError):
    """A representation violates the monomial relations of the algebra."""


class AlgebraError(QuivertiltError):
    """The bound algebra is malformed (e.g. infinite path basis)."""


class LaurentPhenomenonViolation(QuivertiltError):
    """An exchange-relation division was inexact; indicates a convention bug."""


class SignCoherenceViolation(QuivertiltError):
    """A C-matrix column had mixed signs; indicates a convention bug."""


class SelfDualityViolation(QuivertiltError):
    """The self-duality sigma: A^op ~= A failed a step of its certificate."""

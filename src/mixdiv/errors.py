"""Exception hierarchy shared by all mixdiv modules."""


class MixdivError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveWeight(MixdivError):
    pass


class LengthMismatch(MixdivError):
    pass


class NormalizationFailure(MixdivError):
    def __init__(self, total, message=None):
        self.total = total
        super().__init__(message or f"density integrates to {total!r}, expected 1")


class ZeroDensityAtom(MixdivError):
    pass


class SpaceMismatch(MixdivError):
    pass


class DomainError(MixdivError):
    pass


class InvalidParameter(MixdivError):
    pass


class IndeterminateValue(MixdivError):
    pass


class IndexOutOfRange(MixdivError):
    pass


class DegenerateExponent(MixdivError):
    pass


class NotProbabilitySpace(MixdivError):
    pass


class RenyiUndefined(MixdivError):
    pass


class LogOfZero(MixdivError):
    pass


class NonFiniteValue(MixdivError):
    """A value or verdict side came out NaN or infinite."""


class MixedConvexityTags(MixdivError):
    pass


class NonConcaveTag(MixdivError):
    pass


class BadOrdering(MixdivError):
    pass


class TagMismatch(MixdivError):
    pass


class RangeMismatch(MixdivError):
    pass


class NotC2Plus(MixdivError):
    pass


class UnsupportedFamily(MixdivError):
    pass


class SingularMatrix(MixdivError):
    pass


class SpecError(MixdivError):
    """Malformed run spec / JSON input (CLI exit code 2)."""


class OutputError(MixdivError):
    """The report could not be written to its --out file (CLI exit code 2)."""


def _given(x, cls):
    """x itself; InvalidParameter unless it is an instance of cls. It is the
    guard of each field kind whose objects are instances of one class
    (divergences._FIELD_KINDS), which every public functional, check and
    geometry function applies to its arguments before its body runs. A space
    has its own guard, measures._measure_space."""
    if not isinstance(x, cls):
        raise InvalidParameter(f"need an instance of {cls.__name__}, got {x!r}")
    return x

"""Exception taxonomy shared across the package.

Every domain error raised by this package is a subclass of PidegError, so
callers (and the command line driver) can catch one type. Internal
consistency failures deliberately do NOT subclass it: they signal a bug in
this package, not bad input, and should never be swallowed.
"""


class PidegError(Exception):
    """Base class for all input and domain errors raised by pideg."""


class RaggedRows(PidegError):
    """Diagram text rows have inconsistent lengths."""


class UnknownCharacter(PidegError):
    """Diagram text contains a character that is neither white nor black."""


class EmptyInput(PidegError):
    """Diagram text contains no rows or no cells."""


class BadRange(PidegError):
    """A numeric argument is outside its documented range."""


class ShapeOverflow(PidegError):
    """A partition does not fit inside the requested bounding box."""


class FormulaMismatch(PidegError):
    """Two independent computations of the same quantity disagree.

    Raised by every cross-check route in this package; if you ever see it,
    either the input violates a theorem hypothesis that was not detected,
    or there is a bug worth reporting.
    """


class BadEll(PidegError):
    """The root-of-unity order ell is out of range (ell >= 2 required)."""


class ZeroDim(PidegError):
    """A monomial matrix of dimension below 1 was requested."""


class TooLarge(PidegError):
    """The requested computation exceeds the configured size bound."""


class BadSpec(PidegError):
    """A sweep corpus or property specification string cannot be parsed."""


class SkewSymmetryViolated(PidegError):
    """An integer matrix expected to be skew-symmetric is not."""


class InternalVerificationFailed(AssertionError):
    """An exact post-computation self-check failed; indicates a package bug.

    Subclasses AssertionError rather than PidegError on purpose: this must
    never be caught as an ordinary domain error.
    """

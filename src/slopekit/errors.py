"""Typed errors raised across the package.

Every failure mode callers are expected to branch on gets its own class;
all derive from SlopeKitError so batch drivers can catch one type.
The one exception is InvariantViolated, which reports a defect in the
package rather than bad input, so it is a RuntimeError and the CLI
reports it as an internal error.
"""


class SlopeKitError(Exception):
    """Base class for all errors raised by this package."""


# ---- space construction and queries ----

class NonPositiveLength(SlopeKitError):
    """An edge length is zero, negative, infinite, or not a number."""


class DuplicateEdge(SlopeKitError):
    """The same unordered point pair appears twice in an edge list."""


class SelfLoopEdge(SlopeKitError):
    """An edge connects a point to itself."""


class DanglingEndpoint(SlopeKitError):
    """An edge endpoint lies outside [0, n)."""


class EmptyEdgeList(SlopeKitError):
    """No edges were given for a space with more than one point."""


class DegenerateInterval(SlopeKitError):
    """Interval sampling requested with a >= b."""


class TooFewPoints(SlopeKitError):
    """Too few points: a space with none, or an interval sampling with
    fewer than two."""


class InvalidPoint(SlopeKitError):
    """A point id is not an integer or lies outside [0, n)."""


class InvalidCount(SlopeKitError):
    """A count (sample points, level, step budget) is not an integer in range."""


# ---- fields and slopes ----

class FieldSpaceMismatch(SlopeKitError):
    """A field or critical set is bound to another space than the one
    supplied, a field or mask lacks one entry per point, or a critical
    mask is not a 1-D bool array."""


class NonFiniteFieldValue(SlopeKitError):
    """A field or prescribed value is not a finite int or float (a bool is not one)."""


class InvalidSlopeValue(SlopeKitError):
    """A slope entry is not an int or float (a bool is not one), or is not
    flagged infinite and is negative, NaN or infinite; or a mask is not of bools."""


class NonPositiveScale(SlopeKitError):
    """Field scaling requested with a factor that is not finite and > 0."""


class InvalidDecreasingList(SlopeKitError):
    """A list of radii or epsilons is empty, is not strictly decreasing,
    or has an entry that is not finite and > 0."""


class EmptyDeltaList(InvalidDecreasingList):
    """A list of radii or epsilons is empty."""


class NegativeTolerance(SlopeKitError):
    """A tolerance is negative, NaN or infinite; it must be finite and >= 0."""


class InvalidCap(SlopeKitError):
    """The slope overflow cap is NaN, infinite or <= 0."""


class NonFiniteConstant(SlopeKitError):
    """A comparison constant is NaN or infinite; it must be finite."""


# ---- descent ----

class PointIsCritical(SlopeKitError):
    """Descent requested from a critical point."""


class SlopeDominanceViolated(SlopeKitError):
    """The strict slope inequality required for descent does not hold."""


class StepLimitExceeded(SlopeKitError):
    """A descent path exceeded its step budget.

    Termination is guaranteed in exact arithmetic on a finite space, so
    hitting the budget signals tolerance misconfiguration.
    """


# ---- determination ----

class EmptyCriticalSet(SlopeKitError):
    """A component of the space has no prescribed value and no slope
    <= tol, so reconstruction has no seed there.

    Each component of a finite space holds a minimizer of every field,
    with slope exactly 0, so data taken from a field never lacks one.
    """


class DifferenceOverflow(SlopeKitError):
    """g - f, or the constant, spread or residual derived from it,
    overflows the float range, so no report can state it."""


class PreconditionViolated(SlopeKitError):
    """A comparison-principle hypothesis failed; `which` names it."""

    def __init__(self, which: str, message: str = ""):
        super().__init__(message or which)
        self.which = which


# ---- reconstruction ----

class UncoveredCriticalPoint(SlopeKitError):
    """A point with slope <= tol has no prescribed value."""


class InfiniteSlopeData(SlopeKitError):
    """Slope data for reconstruction contains infinite entries."""


class InvariantViolated(RuntimeError):
    """An internal invariant of an algorithm failed (a bug, not bad input)."""


# ---- files and gallery ----

class FileFormatError(SlopeKitError):
    """A CSV or JSON input file does not match the documented format."""


class OutOfDomain(SlopeKitError):
    """An evaluation point lies outside the function's domain."""


class UnknownFigure(SlopeKitError):
    """Unrecognized figure tag."""

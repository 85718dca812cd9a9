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
    """Interval sampling requested with fewer than two points."""


class NonFiniteCoordinate(SlopeKitError):
    """A stored point coordinate is NaN or infinite."""


class InvalidPoint(SlopeKitError):
    """A point id lies outside [0, n)."""


class NoMetricClosure(SlopeKitError):
    """A radius query needs coordinates or shortest-path-closure mode."""


class DisconnectedSpace(SlopeKitError):
    """The operation requires a connected space."""


# ---- fields and slopes ----

class FieldSpaceMismatch(SlopeKitError):
    """A field is bound to a different space than the one supplied."""


class NonFiniteFieldValue(SlopeKitError):
    """A scalar field value is NaN or infinite."""


class NonPositiveScale(SlopeKitError):
    """Field scaling requested with a factor <= 0."""


class EmptyDeltaList(SlopeKitError):
    """A radius sweep needs at least one radius."""


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
    """No critical points to compare on.

    On a finite space every field has a minimizer with slope exactly 0,
    so an empty critical set indicates an overflow/infinite-slope
    pathology in the supplied data.
    """


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

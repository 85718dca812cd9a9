"""Discrete slope of a scalar field: the steepest local descent rate.

For a field f and a point x with adjacent points y, the slope is

    max over y of (f(x) - f(y))+ / d(x, y),

where (.)+  is max(., 0). An isolated point has slope 0. A slope above
a configurable overflow cap is math.inf, and a slope field flags it in
its infinity mask, which keeps "genuinely unbounded across refinement"
distinct from "merely large" in downstream reports.

One kernel, `_slopes`, serves every slope field: one pass over the
directed edge arrays, one quotient max(f[src] - f[dst], 0) / w per
directed edge and row, reduced per source point with `np.maximum.at`
into zeros (so isolated points keep 0), then compared with the cap.
`local_slope` takes the same quotients on one point's CSR slice of the
edge arrays, so both give bitwise-equal slopes.

Public constructors and calls validate, kernels construct: `ScalarField`
and `SlopeField` check every array a caller hands them (one entry per
point, then the rules of `space`: finite numbers by `check_reals`, and
a mask of bools by `check_flags`), and a public call checks each
argument once, at entry. `scale_field` and `_slope_fields`, the one maker of
kernel-built slope fields (which checks nothing), build their results
through `space._built`, which skips those checks for arrays that pass
them by construction (inf exactly where the mask is set, finite values,
a checked cap) and makes the arrays read-only. Both classes are frozen,
so no attribute can be reassigned after them.

Overflow rule: finite values near +-1.7e308 can make f(x) - f(y), or
the quotient, overflow to +inf. That is deliberate, not an accident:
both computations run under `np.errstate(over="ignore")`, the +inf
quotient exceeds every finite cap, and the point gets slope math.inf
without a RuntimeWarning. The cap itself must be finite and
positive (`check_cap`), every tolerance finite and >= 0 (`check_tol`),
a comparison constant finite (`check_constant`), and a list of radii or
epsilons non-empty, strictly decreasing, finite and > 0
(`check_decreasing`), each by `space.check_real`, which also rejects a
bool or a string; all modules that take such knobs share these checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDeltaList,
    FieldSpaceMismatch,
    InvalidCap,
    InvalidDecreasingList,
    InvalidSlopeValue,
    NegativeTolerance,
    NonFiniteConstant,
    NonFiniteFieldValue,
    NonPositiveScale,
)
from .space import (MetricSpaceGraph, PointId, _array, _built, check_flags,
                    check_real, check_reals, distances_from)

OVERFLOW_CAP = 1e12


def check_cap(cap) -> float:
    """The overflow cap as a float; InvalidCap unless finite and > 0."""
    return check_real(cap, InvalidCap, "cap", "must be a finite number > 0", 0.0)


def check_tol(tol, name: str = "tol") -> float:
    """A tolerance as a float; NegativeTolerance unless finite and >= 0."""
    return check_real(tol, NegativeTolerance, name, "must be a finite number >= 0",
                      0.0, closed=True)


def check_constant(c, name: str = "c") -> float:
    """A constant or threshold as a float; NonFiniteConstant unless finite."""
    return check_real(c, NonFiniteConstant, name, "must be a finite number")


def check_decreasing(values, name: str) -> list[float]:
    """A list option (radii, epsilons) as floats: EmptyDeltaList if it is
    empty, InvalidDecreasingList unless every entry is finite and > 0
    and the entries strictly decrease."""
    try:
        values = iter(values)
    except TypeError:
        raise InvalidDecreasingList(f"{name} must be a list, got {values!r}") from None
    vals = [check_real(v, InvalidDecreasingList, name, "must be finite numbers > 0",
                       0.0) for v in values]
    if not vals:
        raise EmptyDeltaList(f"{name} must not be empty")
    if not all(b < a for a, b in zip(vals, vals[1:])):
        raise InvalidDecreasingList(f"{name} must be strictly decreasing")
    return vals


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A finite real value per point, bound to the space it lives on."""

    space: MetricSpaceGraph
    values: np.ndarray

    def __post_init__(self):
        vals = check_reals(self.values, NonFiniteFieldValue, "value at point",
                           n=self.space.n)
        if vals is None:
            shape = getattr(_array(self.values), "shape", "ragged")
            raise FieldSpaceMismatch(f"field has {shape} values, "
                                     f"space has {self.space.n} points")
        if not np.isfinite(vals).all():
            bad = int((~np.isfinite(vals)).nonzero()[0][0])
            raise NonFiniteFieldValue(f"non-finite value at point {bad}")
        _built(self, values=vals)

    def __getitem__(self, x: PointId) -> float:
        self.space.check_point(x)
        return float(self.values[x])

    def __len__(self) -> int:
        return self.space.n


@dataclass(frozen=True, eq=False)
class SlopeField:
    """Per-point slope values plus an explicit infinity mask.

    `values` holds math.inf wherever `infinite` is set. `provenance` is
    the constant "exact-graph", also for a field `io.load_slope_csv`
    reads. `cap` is the overflow threshold in force (`check_cap`).
    An entry not flagged infinite must be finite and >= 0, and the mask
    must hold bools (InvalidSlopeValue).
    """

    space: MetricSpaceGraph
    values: np.ndarray
    infinite: np.ndarray
    provenance: str = "exact-graph"
    cap: float = OVERFLOW_CAP

    def __post_init__(self):
        mask = _array(self.infinite)
        vals = None if getattr(mask, "shape", None) != (self.space.n,) else check_reals(
            self.values, InvalidSlopeValue, "slope at point", n=self.space.n)
        if vals is None:
            raise FieldSpaceMismatch("slope field length differs from point count")
        mask = check_flags(mask, InvalidSlopeValue, "the infinity mask")
        vals[mask] = math.inf
        bad = (~((vals >= 0.0) & (vals < math.inf)) & ~mask).nonzero()[0]
        if bad.size:
            raise InvalidSlopeValue(
                f"slope {vals[bad[0]]} at point {bad[0]} is not finite and >= 0")
        _built(self, values=vals, infinite=mask, cap=check_cap(self.cap))

    def __getitem__(self, x: PointId) -> float:
        """The slope at x, math.inf where it is flagged infinite."""
        self.space.check_point(x)
        return float(self.values[x])

    def __len__(self) -> int:
        return self.space.n

    def any_infinite(self) -> bool:
        return bool(self.infinite.any())


@dataclass(frozen=True)
class DeltaProfileEntry:
    """One radius of a shrinking-ball slope sweep: the slope over the
    ball (math.inf above the cap), and whether the ball held no point
    but the center."""

    delta: float
    slope: float
    empty_ball: bool


def require_bound(space: MetricSpaceGraph, *objs) -> None:
    """Raise unless every field, slope field or critical set in `objs`
    is bound to exactly this space: the one check of every per-point
    argument of a call."""
    for obj in objs:
        if obj.space is not space:
            what = "field" if isinstance(obj, (ScalarField, SlopeField)) else "critical set"
            raise FieldSpaceMismatch(f"{what} is bound to a different space")


def local_slope(space: MetricSpaceGraph, f: ScalarField, x: PointId,
                cap: float = OVERFLOW_CAP) -> float:
    """Slope of f at x over adjacent points; exactly 0 if x is isolated.

    A slope strictly above `cap` is math.inf.
    """
    require_bound(space, f)
    cap = check_cap(cap)
    space.check_point(x)
    a, b = space.indptr[x], space.indptr[x + 1]
    with np.errstate(over="ignore"):
        q = np.maximum(f.values[x] - f.values[space.dst[a:b]], 0.0) / space.w[a:b]
    best = float(q.max(initial=0.0))
    return math.inf if best > cap else best


def _slopes(space: MetricSpaceGraph, values: np.ndarray,
            cap: float) -> tuple[np.ndarray, np.ndarray]:
    """The slopes of (n,) values, or of each row of (k, n) values, and
    the mask of those above the checked `cap`, which read math.inf."""
    vt = values.T
    out = np.zeros(values.shape)
    with np.errstate(over="ignore"):
        q = np.maximum((vt[space.src] - vt[space.dst]).T, 0.0) / space.w
    np.maximum.at(out.T, space.src, q.T)
    infinite = out > cap
    out[infinite] = math.inf
    return out, infinite


def _slope_fields(space: MetricSpaceGraph, cap: float, *fields: ScalarField):
    """The SlopeField of each of `fields`, bound to `space`, at a checked
    `cap`: one `_slopes` pass each, built by `_built` without checks."""
    return [_built(SlopeField, space=space, values=vals, infinite=mask,
                   provenance="exact-graph", cap=cap)
            for vals, mask in (_slopes(space, f.values, cap) for f in fields)]


def slope_field(space: MetricSpaceGraph, f: ScalarField,
                cap: float = OVERFLOW_CAP) -> SlopeField:
    """The slope at every point, from one pass over the edge arrays.

    Bitwise equal to `local_slope` at each point.
    """
    require_bound(space, f)
    return _slope_fields(space, check_cap(cap), f)[0]


def scale_field(f: ScalarField, scale: float) -> ScalarField:
    """Multiply a field by a finite positive constant.

    Slopes are positively homogeneous, so the slope field of the result
    is the original slope field scaled by the same constant.
    """
    scale = check_real(scale, NonPositiveScale, "scale",
                       "must be a finite number > 0", 0.0)
    with np.errstate(over="ignore"):  # the values of f are finite
        values = f.values * scale
    bad = (~np.isfinite(values)).nonzero()[0]
    if bad.size:
        raise NonFiniteFieldValue(f"{scale!r} * f overflows at point {bad[0]}")
    return _built(ScalarField, space=f.space, values=values)


def delta_slope_profile(space: MetricSpaceGraph, f: ScalarField, x: PointId,
                        deltas, cap: float = OVERFLOW_CAP) -> list[DeltaProfileEntry]:
    """Sup of the descent quotient over balls of shrinking radius.

    For each delta the entry holds the sup of (f(x)-f(y))+ / d(x, y)
    over 0 < d(x, y) <= delta, with d the shortest-path distance of
    `distances_from`. A delta at least the longest edge at x takes in
    every adjacent point, at a distance at most its edge length, so its
    entry is at least the slope of f at x. Radii must be finite,
    positive and strictly decreasing (`check_decreasing`).
    An empty ball reports slope 0 with its `empty_ball` flag set.
    """
    require_bound(space, f)
    cap = check_cap(cap)
    space.check_point(x)
    deltas = check_decreasing(deltas, "radii")
    dist = distances_from(space, x)
    fx = f.values[x]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        quotients = np.where(dist > 0.0,
                             np.maximum(fx - f.values, 0.0) / dist, 0.0)
    entries = []
    for delta in deltas:
        inside = (dist > 0.0) & (dist <= delta)
        if not inside.any():
            entries.append(DeltaProfileEntry(delta, 0.0, True))
            continue
        best = float(np.max(quotients[inside]))
        entries.append(DeltaProfileEntry(delta, math.inf if best > cap else best, False))
    return entries

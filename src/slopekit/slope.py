"""Discrete slope of a scalar field: the steepest local descent rate.

For a field f and a point x with adjacent points y, the slope is

    max over y of (f(x) - f(y))+ / d(x, y),

where (.)+  is max(., 0). An isolated point has slope 0. A slope above
a configurable overflow cap is math.inf, and a slope field flags it in
its infinity mask, which keeps "genuinely unbounded across refinement"
distinct from "merely large" in downstream reports.

One kernel, `_slopes`, serves `slope_field` and `epsilon_audit`: one
pass over the directed edge arrays, one quotient max(f[src] - f[dst],
0) / w per directed edge and row, reduced per source point with
`np.maximum.at` into zeros (so isolated points keep 0), then compared
with the cap. These are the float operations of the per-point loop in
`local_slope`, so both give bitwise-equal slopes.

Public constructors validate, kernels construct: `ScalarField` and
`SlopeField` check every array a caller hands them, while
`slope_field` and `scale_field` build their results through `_built`,
which skips those checks for arrays that pass them by construction
(one entry per point, inf exactly where the mask is set, finite values,
a checked cap) and makes the arrays read-only.

Overflow rule: finite values near +-1.7e308 can make f(x) - f(y), or
the quotient, overflow to +inf. That is deliberate, not an accident:
both computations run under `np.errstate(over="ignore")`, the +inf
quotient exceeds every finite cap, and the point gets slope math.inf
without a RuntimeWarning. The cap itself must be finite and
positive (`check_cap`), every tolerance finite and >= 0 (`check_tol`),
a comparison constant finite (`check_constant`), and a list of radii or
epsilons non-empty, strictly decreasing, finite and > 0
(`check_decreasing`); these checks are shared by all modules that take
such knobs.
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
from .space import MetricSpaceGraph, PointId, _adjacent, metric_distances

OVERFLOW_CAP = 1e12


def check_cap(cap) -> float:
    """The overflow cap as a float; InvalidCap unless finite and > 0."""
    cap = float(cap)
    if not (math.isfinite(cap) and cap > 0.0):
        raise InvalidCap(f"cap must be a finite number > 0, got {cap}")
    return cap


def check_tol(tol, name: str = "tol") -> float:
    """A tolerance as a float; NegativeTolerance unless finite and >= 0."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise NegativeTolerance(f"{name} must be a finite number >= 0, got {tol}")
    return tol


def check_constant(c, name: str = "c") -> float:
    """A constant or threshold as a float; NonFiniteConstant unless finite."""
    c = float(c)
    if not math.isfinite(c):
        raise NonFiniteConstant(f"{name} must be a finite number, got {c}")
    return c


def check_decreasing(values, name: str) -> list[float]:
    """A list option (radii, epsilons) as floats: EmptyDeltaList if it is
    empty, InvalidDecreasingList unless every entry is finite and > 0
    and the entries strictly decrease."""
    vals = [float(v) for v in values]
    if not vals:
        raise EmptyDeltaList(f"{name} must not be empty")
    bad = [v for v in vals if not 0.0 < v < math.inf]
    if bad:
        raise InvalidDecreasingList(
            f"{name} must be finite numbers > 0, got {bad[0]}")
    if not all(b < a for a, b in zip(vals, vals[1:])):
        raise InvalidDecreasingList(f"{name} must be strictly decreasing")
    return vals


@dataclass(eq=False)
class ScalarField:
    """A finite real value per point, bound to the space it lives on."""

    space: MetricSpaceGraph
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.space.n,):
            raise FieldSpaceMismatch(
                f"field has {vals.shape} values, space has {self.space.n} points")
        if not np.isfinite(vals).all():
            bad = int((~np.isfinite(vals)).nonzero()[0][0])
            raise NonFiniteFieldValue(f"non-finite value at point {bad}")
        vals.setflags(write=False)
        self.values = vals

    def __getitem__(self, x: PointId) -> float:
        self.space.check_point(x)
        return float(self.values[x])

    def __len__(self) -> int:
        return self.space.n


@dataclass(eq=False)
class SlopeField:
    """Per-point slope values plus an explicit infinity mask.

    `values` holds math.inf wherever `infinite` is set. `provenance` is
    the constant "exact-graph", also for a field `io.load_slope_csv`
    reads. `cap` is the overflow threshold in force (`check_cap`).
    An entry not flagged infinite must be finite and >= 0
    (InvalidSlopeValue).
    """

    space: MetricSpaceGraph
    values: np.ndarray
    infinite: np.ndarray
    provenance: str = "exact-graph"
    cap: float = OVERFLOW_CAP

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        mask = np.array(self.infinite, dtype=bool)
        if vals.shape != (self.space.n,) or mask.shape != (self.space.n,):
            raise FieldSpaceMismatch("slope field length differs from point count")
        vals[mask] = math.inf
        bad = (~((vals >= 0.0) & (vals < math.inf)) & ~mask).nonzero()[0]
        if bad.size:
            raise InvalidSlopeValue(
                f"slope {vals[bad[0]]} at point {bad[0]} is not finite and >= 0")
        self.cap = check_cap(self.cap)
        vals.setflags(write=False)
        mask.setflags(write=False)
        self.values = vals
        self.infinite = mask

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


def require_bound(space: MetricSpaceGraph, fld) -> None:
    """Raise unless `fld` is bound to exactly this space."""
    if fld.space is not space:
        raise FieldSpaceMismatch("field is bound to a different space")


def local_slope(space: MetricSpaceGraph, f: ScalarField, x: PointId,
                cap: float = OVERFLOW_CAP) -> float:
    """Slope of f at x over adjacent points; exactly 0 if x is isolated.

    A slope strictly above `cap` is math.inf.
    """
    require_bound(space, f)
    cap = check_cap(cap)
    space.check_point(x)
    fx = f.values[x]
    best = 0.0
    with np.errstate(over="ignore"):
        for y, d in zip(*_adjacent(space, x)):
            drop = fx - f.values[y]
            if drop > 0.0:
                q = drop / d
                if q > best:
                    best = q
    return math.inf if best > cap else float(best)


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


def slope_field(space: MetricSpaceGraph, f: ScalarField,
                cap: float = OVERFLOW_CAP) -> SlopeField:
    """The slope at every point, from one pass over the edge arrays.

    Bitwise equal to `local_slope` at each point.
    """
    require_bound(space, f)
    cap = check_cap(cap)
    vals, mask = _slopes(space, f.values, cap)
    return _built(SlopeField, space=space, values=vals, infinite=mask,
                  provenance="exact-graph", cap=cap)


def scale_field(f: ScalarField, scale: float) -> ScalarField:
    """Multiply a field by a finite positive constant.

    Slopes are positively homogeneous, so the slope field of the result
    is the original slope field scaled by the same constant.
    """
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0.0):
        raise NonPositiveScale(f"scale must be a finite number > 0, got {scale}")
    with np.errstate(over="ignore"):  # the values of f are finite
        values = f.values * scale
    bad = (~np.isfinite(values)).nonzero()[0]
    if bad.size:
        raise NonFiniteFieldValue(f"{scale!r} * f overflows at point {bad[0]}")
    return _built(ScalarField, space=f.space, values=values)


def _built(cls, **fields):
    """A `ScalarField` or `SlopeField` from fields that are valid by
    construction, without the checks of the public constructor: the
    arrays are made read-only here, and the caller guarantees the rest
    (one entry per point, finite values, inf where the mask is set and
    finite slopes >= 0 elsewhere, a checked cap)."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def delta_slope_profile(space: MetricSpaceGraph, f: ScalarField, x: PointId,
                        deltas, cap: float = OVERFLOW_CAP) -> list[DeltaProfileEntry]:
    """Sup of the descent quotient over balls of shrinking radius.

    For each delta the entry holds the sup of (f(x)-f(y))+ / d(x, y)
    over 0 < d(x, y) <= delta, with d from `metric_distances`. Radii
    must be finite, positive and strictly decreasing (`check_decreasing`).
    An empty ball reports slope 0 with its `empty_ball` flag set.
    """
    require_bound(space, f)
    cap = check_cap(cap)
    space.check_point(x)
    deltas = check_decreasing(deltas, "radii")
    dist = metric_distances(space, x)
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

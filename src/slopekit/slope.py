"""Discrete slope of a scalar field: the steepest local descent rate.

For a field f and a point x with adjacent points y, the slope is

    max over y of (f(x) - f(y))+ / d(x, y),

where (.)+  is max(., 0). An isolated point has slope 0. Quotients above
a configurable overflow cap are collapsed to an explicit infinite
marker, which keeps "genuinely unbounded across refinement" distinct
from "merely large" in downstream reports.

`slope_field` is one pass over the space's directed edge arrays: one
quotient max(f[src] - f[dst], 0) / w per directed edge, reduced per
source point with `np.maximum.at` into zeros (so isolated points keep
0), then compared with the cap. These are the float operations of the
per-point loop in `local_slope`, so both give bitwise-equal slopes.

Overflow rule: finite values near +-1.7e308 can make f(x) - f(y), or
the quotient, overflow to +inf. That is deliberate, not an accident:
both computations run under `np.errstate(over="ignore")`, the +inf
quotient exceeds every finite cap, and the point gets the infinite
marker without a RuntimeWarning. The cap itself must be finite and
positive (`check_cap`), every tolerance finite and >= 0 (`check_tol`),
and a comparison constant finite (`check_constant`); these checks are
shared by all modules that take such knobs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDeltaList,
    FieldSpaceMismatch,
    InvalidCap,
    NegativeTolerance,
    NonFiniteConstant,
    NonFiniteFieldValue,
    NonPositiveScale,
)
from .space import MetricSpaceGraph, PointId, metric_distances

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


def check_constant(c) -> float:
    """A comparison constant as a float; NonFiniteConstant unless finite."""
    c = float(c)
    if not math.isfinite(c):
        raise NonFiniteConstant(f"c must be a finite number, got {c}")
    return c


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
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NonFiniteFieldValue(f"non-finite value at point {bad}")
        vals.setflags(write=False)
        self.values = vals

    def __getitem__(self, x: PointId) -> float:
        return float(self.values[x])

    def __len__(self) -> int:
        return self.space.n


@dataclass(frozen=True)
class SlopeValue:
    """Extended nonnegative slope: a finite value or an overflow marker."""

    value: float
    infinite: bool = False

    def as_float(self) -> float:
        """The slope as a float, with math.inf for the overflow marker."""
        return math.inf if self.infinite else self.value

    @property
    def is_finite(self) -> bool:
        return not self.infinite


INFINITE_SLOPE = SlopeValue(math.inf, True)


@dataclass(eq=False)
class SlopeField:
    """Per-point slope values plus an explicit infinity mask.

    `values` holds math.inf wherever `infinite` is set. `provenance`
    records how the field was produced ("exact-graph" for adjacent-pair
    quotients, "delta-estimate(...)" for ball sweeps) and `cap` the
    overflow threshold in force.
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
        finite_part = vals[~mask]
        if finite_part.size and (not np.all(np.isfinite(finite_part))
                                 or np.any(finite_part < 0.0)):
            raise ValueError("finite slope entries must be >= 0")
        vals.setflags(write=False)
        mask.setflags(write=False)
        self.values = vals
        self.infinite = mask

    def __getitem__(self, x: PointId) -> SlopeValue:
        if self.infinite[x]:
            return INFINITE_SLOPE
        return SlopeValue(float(self.values[x]))

    def __len__(self) -> int:
        return self.space.n

    def any_infinite(self) -> bool:
        return bool(self.infinite.any())


@dataclass(frozen=True)
class DeltaProfileEntry:
    """One radius of a shrinking-ball slope sweep."""

    delta: float
    slope: SlopeValue
    empty_ball: bool


def require_bound(space: MetricSpaceGraph, fld) -> None:
    """Raise unless `fld` is bound to exactly this space."""
    if fld.space is not space:
        raise FieldSpaceMismatch("field is bound to a different space")


def local_slope(space: MetricSpaceGraph, f: ScalarField, x: PointId,
                cap: float = OVERFLOW_CAP) -> SlopeValue:
    """Slope of f at x over adjacent points; exactly 0 if x is isolated.

    Quotients strictly above `cap` return the infinite marker.
    """
    require_bound(space, f)
    cap = check_cap(cap)
    space.check_point(x)
    fx = f.values[x]
    best = 0.0
    with np.errstate(over="ignore"):
        for y, d in space.adjacency(x):
            drop = fx - f.values[y]
            if drop > 0.0:
                q = drop / d
                if q > best:
                    best = q
    if best > cap:
        return INFINITE_SLOPE
    return SlopeValue(best)


def slope_field(space: MetricSpaceGraph, f: ScalarField,
                cap: float = OVERFLOW_CAP) -> SlopeField:
    """The slope at every point, from one pass over the edge arrays.

    Bitwise equal to `local_slope` at each point.
    """
    require_bound(space, f)
    cap = check_cap(cap)
    vals = np.zeros(space.n)
    with np.errstate(over="ignore"):
        drop = f.values[space.src] - f.values[space.dst]
        q = np.maximum(drop, 0.0) / space.w
    np.maximum.at(vals, space.src, q)
    mask = vals > cap
    return SlopeField(space=space, values=vals, infinite=mask,
                      provenance="exact-graph", cap=cap)


def scale_field(f: ScalarField, scale: float) -> ScalarField:
    """Multiply a field by a positive constant.

    Slopes are positively homogeneous, so the slope field of the result
    is the original slope field scaled by the same constant.
    """
    scale = float(scale)
    if not scale > 0.0:
        raise NonPositiveScale(f"scale must be positive, got {scale}")
    return ScalarField(f.space, f.values * scale)


def delta_slope_profile(space: MetricSpaceGraph, f: ScalarField, x: PointId,
                        deltas, cap: float = OVERFLOW_CAP) -> list[DeltaProfileEntry]:
    """Sup of the descent quotient over balls of shrinking radius.

    For each delta the entry holds the sup of (f(x)-f(y))+ / d(x, y)
    over 0 < d(x, y) <= delta. Radii must be strictly decreasing. An
    empty ball reports slope 0 with its `empty_ball` flag set. Requires
    coordinates or shortest-path-closure mode.
    """
    require_bound(space, f)
    cap = check_cap(cap)
    space.check_point(x)
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise EmptyDeltaList("need at least one radius")
    for a, b in zip(deltas, deltas[1:]):
        if not b < a:
            raise ValueError("radii must be strictly decreasing")
    if not deltas[-1] > 0.0:
        raise ValueError("radii must be positive")
    dist = metric_distances(space, x)
    fx = f.values[x]
    with np.errstate(divide="ignore", invalid="ignore"):
        quotients = np.where(dist > 0.0,
                             np.maximum(fx - f.values, 0.0) / dist, 0.0)
    entries = []
    for delta in deltas:
        inside = (dist > 0.0) & (dist <= delta)
        if not inside.any():
            entries.append(DeltaProfileEntry(delta, SlopeValue(0.0), True))
            continue
        best = float(np.max(quotients[inside]))
        sv = INFINITE_SLOPE if best > cap else SlopeValue(best)
        entries.append(DeltaProfileEntry(delta, sv, False))
    return entries

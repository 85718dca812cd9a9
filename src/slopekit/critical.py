"""Critical sets and the comparison floor.

A point is critical when its slope is (tolerance-)zero; on a finite
space every field has at least one critical point because a global
minimizer has slope exactly 0 (`critical_mask`, one boolean per point,
is the one test, at a tolerance checked at the public entry). A
`CriticalSet` is that mask, its tolerance and the space it is bound
to, like a field; membership of x is `mask[x]`. Its constructor checks
that the mask has one entry per point, and a function that takes a
caller's set binds it to the space with its fields, in one
`require_bound` call. The comparison floor at x is the least value of
f - g over critical points in the sublevel set {z : f(z) <= f(x)}; it
is the strict lower bound that descent arguments certify for
(f - g)(x).

`comparison_floor` scans the critical points for one query in Python
floats, whose subtraction overflows to +inf without a warning; the
batch `sublevel_floor` sorts the critical points once, takes a prefix
minimum and bisects per query, O((n + |crit|) log |crit|), with the
same floats (a minimum does not round). Its f - g may overflow to +inf
on purpose, under `np.errstate`, so "no critical point below" comes
from the insertion index, never from an inf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldSpaceMismatch
from .slope import ScalarField, SlopeField, check_tol, require_bound
from .space import MetricSpaceGraph, PointId, _built, check_flags


@dataclass(frozen=True, eq=False)
class CriticalSet:
    """The points of `space` whose slope is <= tol (infinite slopes
    never qualify), as a read-only 1-D boolean mask over its points.

    The constructor copies `mask`; anything but a 1-D boolean array with
    one entry per point (`space.check_flags`) raises FieldSpaceMismatch,
    and a bad `tol` NegativeTolerance."""

    space: MetricSpaceGraph
    mask: np.ndarray
    tol: float

    def __post_init__(self):
        mask = check_flags(self.mask, FieldSpaceMismatch, "a critical set")
        if mask.size != self.space.n:
            raise FieldSpaceMismatch(
                f"critical mask has {mask.size} entries, space has {self.space.n} points")
        _built(self, mask=mask, tol=check_tol(self.tol))

    @property
    def members(self) -> frozenset[int]:
        """The critical points as a set (a view derived from the mask)."""
        return frozenset(self.mask.nonzero()[0].tolist())

    def sorted_members(self) -> tuple[int, ...]:
        """The critical points in increasing order."""
        return tuple(self.mask.nonzero()[0].tolist())


class NoCriticalBelow:
    """Marker result: the sublevel set of x contains no critical point.

    Returned instead of +inf so reports can state the case explicitly.
    Only reachable when the supplied critical set was not derived from
    the field being compared (a derived set always contains a global
    minimizer, which lies in every sublevel set).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "NoCriticalBelow"


NO_CRITICAL_BELOW = NoCriticalBelow()


def critical_mask(slopes: SlopeField, tol: float) -> np.ndarray:
    """Whether each point's slope (inf if flagged) is <= the checked tol."""
    return slopes.values <= tol


def critical_set(slopes: SlopeField, tol: float = 0.0) -> CriticalSet:
    """The points of `critical_mask` at tol, checked here, as a CriticalSet
    built without a second check, like the kernel's fields (`_built`).

    The default tol 0 is the right choice for exact graph slopes, where
    minimizers hit zero exactly; sampled continuous data needs a
    positive tol because slopes at near-critical samples are O(h)
    (see `grid_critical_tol`).
    """
    tol = check_tol(tol)
    return _built(CriticalSet, space=slopes.space, mask=critical_mask(slopes, tol), tol=tol)


def comparison_floor(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
                     x: PointId, crit: CriticalSet):
    """min of (f - g)(z) over critical z with f(z) <= f(x).

    Returns NO_CRITICAL_BELOW when no critical point lies in the
    sublevel set of x. The supplied critical set must come from f's
    slope field for the floor to have its comparison meaning. The first
    of equal values in increasing id order is returned, which fixes the
    sign of a zero floor; an overflowing difference is +inf or -inf.
    """
    require_bound(space, f, g, crit)
    space.check_point(x)
    ids = crit.mask.nonzero()[0]
    fx = float(f.values[x])
    pairs = zip(f.values[ids].tolist(), g.values[ids].tolist())
    best = min((fz - gz for fz, gz in pairs if fz <= fx), default=None)
    return NO_CRITICAL_BELOW if best is None else best


def sublevel_floor(keys: np.ndarray, vals: np.ndarray,
                   queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min of vals[k] over the k with keys[k] <= q, for every query q.

    Returns (floor, found): `found` is False where no key lies at or
    below the query, and `floor` holds +inf there.
    """
    order = np.argsort(keys, kind="stable")
    idx = np.searchsorted(keys[order], queries, side="right")
    # floors[i] is the least of the first i values in key order.
    floors = np.concatenate(([math.inf], np.minimum.accumulate(vals[order])))
    return floors[idx], idx > 0


def grid_critical_tol(h: float, lipschitz: float = 1.0) -> float:
    """Suggested critical tolerance for data sampled at spacing h.

    Discrete slopes at samples adjacent to a true critical point are
    O(h), so the zero test needs an O(h) cutoff; `lipschitz` is the
    caller's estimate of the relevant local variation scale. Both and
    the result must be finite and >= 0 (`check_tol`)."""
    return check_tol(2.0 * check_tol(h, "h") * check_tol(lipschitz, "lipschitz"),
                     "2 * h * lipschitz")

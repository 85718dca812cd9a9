"""Critical sets, sublevel sets, and the comparison floor.

A point is critical when its slope is (tolerance-)zero; on a finite
space every field has at least one critical point because a global
minimizer has slope exactly 0 (`critical_mask`, one boolean per point,
is the one test). The comparison floor at x is the least value of f - g
over critical points inside the sublevel set of x; it is the strict
lower bound that descent arguments certify for (f - g)(x).

`comparison_floor` scans the critical set for one query; the batch
`sublevel_floor` sorts the critical points once, takes a prefix minimum
and bisects per query, O((n + |crit|) log |crit|), with the same floats
(a minimum does not round). f - g may overflow to +inf on purpose, under
`np.errstate`, so "no critical point below" comes from the insertion
index, never from an inf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPoint
from .slope import ScalarField, SlopeField, check_constant, check_tol, require_bound
from .space import MetricSpaceGraph, PointId


@dataclass(frozen=True)
class CriticalSet:
    """Points whose slope is <= tol (infinite slopes never qualify)."""

    members: frozenset[int]
    tol: float

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def check_members(self, n: int) -> None:
        """InvalidPoint unless every member lies in [0, n)."""
        if self.members and (min(self.members) < 0 or max(self.members) >= n):
            bad = min(self.members) if min(self.members) < 0 else max(self.members)
            raise InvalidPoint(f"critical point {bad} outside [0, {n})")

    def mask(self, n: int) -> np.ndarray:
        """Boolean membership over the points 0..n-1."""
        self.check_members(n)
        inside = np.zeros(n, dtype=bool)
        inside[np.fromiter(self.members, dtype=np.intp, count=len(self))] = True
        return inside


@dataclass(frozen=True)
class SublevelSet:
    """Points with f(x) <= threshold."""

    threshold: float
    members: frozenset[int]

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)


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


def critical_mask(slopes: SlopeField, tol: float = 0.0) -> np.ndarray:
    """Whether each point is critical: its slope is finite and <= tol.

    The default tol 0 is the right choice for exact graph slopes, where
    minimizers hit zero exactly; sampled continuous data needs a
    positive tol because slopes at near-critical samples are O(h)
    (see `grid_critical_tol`).
    """
    return ~slopes.infinite & (slopes.values <= check_tol(tol))


def critical_set(slopes: SlopeField, tol: float = 0.0) -> CriticalSet:
    """The points of `critical_mask` as a set."""
    tol = check_tol(tol)
    members = np.flatnonzero(critical_mask(slopes, tol))
    return CriticalSet(members=frozenset(members.tolist()), tol=tol)


def sublevel_set(f: ScalarField, alpha: float) -> SublevelSet:
    """Points with f(x) <= alpha, a finite threshold, by exact comparison."""
    alpha = check_constant(alpha, "alpha")
    members = frozenset(int(x) for x in (f.values <= alpha).nonzero()[0])
    return SublevelSet(threshold=alpha, members=members)


def comparison_floor(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
                     x: PointId, crit: CriticalSet):
    """min of (f - g)(z) over critical z with f(z) <= f(x).

    Returns NO_CRITICAL_BELOW when no critical point lies in the
    sublevel set of x. The supplied critical set must come from f's
    slope field for the floor to have its comparison meaning.
    """
    require_bound(space, f)
    require_bound(space, g)
    space.check_point(x)
    crit.check_members(space.n)
    fx = f.values[x]
    best = None
    with np.errstate(over="ignore"):
        for z in crit.members:
            if f.values[z] <= fx:
                val = float(f.values[z] - g.values[z])
                if best is None or val < best:
                    best = val
    if best is None:
        return NO_CRITICAL_BELOW
    return best


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

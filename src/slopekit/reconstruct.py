"""Rebuild a field from its slope field plus values on the critical set.

The solver runs a label-setting sweep in increasing value order, the
same causal structure as single-source shortest paths with a per-point
speed: prescribed points seed the frontier, and each remaining point x
is finalized at

    v(x) = min over finalized neighbors y of  v(y) + s(x) * d(x, y).

The sweep walks the space's CSR edge lists (one `.tolist()` each, then
plain Python) and checks its own invariants, raising InvariantViolated
rather than relying on `assert`. The sweep alone is a heuristic; what
makes the solver honest is the unconditional verification pass
afterwards, which recomputes the slope field of the output and rejects
the result (with witnesses) wherever it deviates from the input slopes
beyond tolerance. When the data really came from a field, uniqueness of
the answer is exactly the determination property: equal slopes plus
equal critical values leave no freedom beyond what the prescription
already fixes.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedSpace,
    EmptyCriticalSet,
    InfiniteSlopeData,
    InvariantViolated,
    NonFiniteFieldValue,
    UncoveredCriticalPoint,
)
from .slope import ScalarField, SlopeField, check_tol, require_bound, slope_field
from .space import MetricSpaceGraph, is_connected


@dataclass(frozen=True)
class SlopeData:
    """Input to reconstruction: a finite slope field and the prescribed
    values on the designated critical set (every point with slope <= tol
    must appear in `crit_values`; extra prescriptions are allowed)."""

    slopes: SlopeField
    crit_values: dict


@dataclass(frozen=True)
class SlopeMismatch:
    point: int
    expected: float
    recomputed: float


@dataclass(frozen=True)
class Inadmissible:
    """Verification failure: no field consistent with the data exists
    (witnessed pointwise by the recomputed slope field)."""

    witnesses: tuple[SlopeMismatch, ...]


def _validate(space: MetricSpaceGraph, data: SlopeData, tol: float):
    require_bound(space, data.slopes)
    if data.slopes.any_infinite():
        bad = int(np.flatnonzero(data.slopes.infinite)[0])
        raise InfiniteSlopeData(f"infinite slope at point {bad}")
    prescribed = {}
    for p, v in data.crit_values.items():
        p = int(p)
        space.check_point(p)
        v = float(v)
        if not math.isfinite(v):
            raise NonFiniteFieldValue(f"prescribed value at {p} is not finite")
        prescribed[p] = v
    if not is_connected(space):
        raise DisconnectedSpace("reconstruction requires a connected space")
    uncovered = [x for x in np.flatnonzero(data.slopes.values <= tol).tolist()
                 if x not in prescribed]
    if uncovered:
        raise UncoveredCriticalPoint(
            f"points {uncovered[:8]} have slope <= {tol} but no prescribed value")
    if not prescribed:
        raise EmptyCriticalSet(
            f"no prescribed value and no slope <= {tol}: the sweep has no seed")
    return prescribed


def reconstruct(space: MetricSpaceGraph, data: SlopeData, tol: float = 1e-9):
    """Label-setting sweep plus unconditional verification.

    Returns the reconstructed ScalarField, or an Inadmissible result
    whose witnesses list every point where the recomputed slope deviates
    from the input by more than tol. Prescribed values are never
    overridden; ties in the finalization order break toward the
    smallest point id. The sequence of finalized values is nondecreasing
    by construction; the sweep checks it, and that it reaches every
    point, raising InvariantViolated if either fails. Data with no
    prescribed value is an EmptyCriticalSet, and a point whose every
    candidate value overflows is a NonFiniteFieldValue.
    """
    tol = check_tol(tol)
    prescribed = _validate(space, data, tol)
    speeds = data.slopes.values
    speed_at = speeds.tolist()
    ends = space.indptr.tolist()
    dst = space.dst.tolist()
    length = space.w.tolist()
    v = [math.inf] * space.n
    done = [False] * space.n
    pinned = [False] * space.n
    heap: list[tuple[float, int]] = []
    for p in sorted(prescribed):
        v[p] = prescribed[p]
        pinned[p] = True
        heapq.heappush(heap, (v[p], p))
    last = -math.inf
    swept = 0
    while heap:
        val, x = heapq.heappop(heap)
        if done[x] or val > v[x]:
            continue
        if val < last:
            raise InvariantViolated(
                f"sweep finalized {val} at point {x} after {last}")
        last = val
        done[x] = True
        swept += 1
        for k in range(ends[x], ends[x + 1]):
            y = dst[k]
            if done[y] or pinned[y]:
                continue
            cand = val + speed_at[y] * length[k]
            if cand < v[y]:
                v[y] = cand
                heapq.heappush(heap, (cand, y))
    if swept != space.n:
        # An unswept point next to a swept one had only candidates that
        # overflowed to inf.
        swept_at = np.array(done)
        cut = swept_at[space.src] & ~swept_at[space.dst]
        if cut.any():
            raise NonFiniteFieldValue(
                f"reconstructed value at point {int(space.dst[cut].min())} "
                "overflows the float range")
        raise InvariantViolated(
            f"sweep finalized {swept} of {space.n} points of a connected space")

    result = ScalarField(space, np.array(v))
    recomputed = slope_field(space, result, cap=data.slopes.cap).values
    off = np.flatnonzero(~(np.abs(recomputed - speeds) <= tol))
    if off.size:
        return Inadmissible(witnesses=tuple(
            SlopeMismatch(point=x, expected=float(speeds[x]),
                          recomputed=float(recomputed[x]))
            for x in off.tolist()))
    return result


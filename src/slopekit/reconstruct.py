"""Rebuild a field from its slope field plus values on the critical set.

The solver is a shortest-path sweep with a per-point speed: prescribed
points are the seeds, and every other point x gets the least path sum

    v(x) = min over neighbors y of  v(y) + s(x) * d(x, y).

The sweep is `space._sweep`, with edge increments s(x) * d(x, y); its
docstring says how it relaxes and certifies. The sweep alone is a
heuristic; what makes the solver honest is the unconditional
verification pass afterwards, which recomputes the slope field of the
output and rejects the result (with witnesses) wherever it deviates
from the input slopes beyond tolerance. When the
data really came from a field, uniqueness of the answer is exactly the
determination property: equal slopes plus equal critical values leave
no freedom beyond what the prescription already fixes. This holds on
each component, since each holds a minimizer, whose slope is 0; so the
space need not be connected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCriticalSet,
    InfiniteSlopeData,
    NonFiniteFieldValue,
    UncoveredCriticalPoint,
)
from .critical import critical_mask
from .slope import ScalarField, SlopeField, _slopes, check_tol, require_bound
from .space import MetricSpaceGraph, _built, _int64s, _sweep, check_reals


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
    """The prescription as its points (int64) and values (float), in array
    passes: the keys converted once (`space._int64s`), with `check_point`
    on each only when that fails or a key lies outside the space, then
    every value a finite number (`space.check_reals`)."""
    require_bound(space, data.slopes)
    if data.slopes.any_infinite():
        bad = int(data.slopes.infinite.nonzero()[0][0])
        raise InfiniteSlopeData(f"infinite slope at point {bad}")
    keys = list(data.crit_values)
    points = _int64s(keys)
    if points is None or ((points < 0) | (points >= space.n)).any():
        for p in keys:
            space.check_point(p)
    values = check_reals(list(data.crit_values.values()), NonFiniteFieldValue,
                         "prescribed value at", keys)
    bad = (~np.isfinite(values)).nonzero()[0]
    if bad.size:
        raise NonFiniteFieldValue(f"prescribed value at {keys[bad[0]]} is not finite")
    covered = np.zeros(space.n, dtype=bool)
    covered[points] = True
    uncovered = (critical_mask(data.slopes, tol) & ~covered).nonzero()[0]
    if uncovered.size:
        raise UncoveredCriticalPoint(f"points {uncovered[:8].tolist()} have "
                                     f"slope <= {tol} but no prescribed value")
    return points, values


def reconstruct(space: MetricSpaceGraph, data: SlopeData, tol: float = 1e-9):
    """Shortest-path sweep plus unconditional verification.

    Returns the reconstructed ScalarField, or an Inadmissible result
    whose witnesses list every point where the recomputed slope deviates
    from the input by more than tol. Prescribed values are never
    overridden; every other value is the least path sum from them, which
    does not depend on the order of relaxation; `space._sweep` raises
    InvariantViolated unless they are a fixpoint. The space need not be
    connected. A point the sweep does not reach is a
    NonFiniteFieldValue when it lies next to a reached point (its every
    candidate value overflows), and otherwise an EmptyCriticalSet: its
    component has no prescribed value and no slope <= tol.
    """
    tol = check_tol(tol)
    points, values = _validate(space, data, tol)
    speeds = data.slopes.values
    with np.errstate(over="ignore"):
        inc = speeds[space.dst] * space.w
    v = _sweep(space, inc, points, values)
    swept_at = np.isfinite(v)
    if not swept_at.all():
        # An unswept point next to a swept one had only candidates that
        # overflowed to inf; any other lies in a component without a seed.
        cut = swept_at[space.src] & ~swept_at[space.dst]
        if cut.any():
            raise NonFiniteFieldValue(
                f"reconstructed value at point {int(space.dst[cut].min())} "
                "overflows the float range")
        raise EmptyCriticalSet(f"no prescribed value and no slope <= {tol} in "
                               f"the component of point {int(swept_at.argmin())}")

    recomputed = _slopes(space, v, data.slopes.cap)[0]
    off = (~(np.abs(recomputed - speeds) <= tol)).nonzero()[0]
    if off.size:
        return Inadmissible(witnesses=tuple(
            SlopeMismatch(point=x, expected=float(speeds[x]),
                          recomputed=float(recomputed[x]))
            for x in off.tolist()))
    # v is finite with one value per point, so it needs no checks.
    return _built(ScalarField, space=space, values=v)


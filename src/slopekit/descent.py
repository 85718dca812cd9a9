"""Descent steps and descent paths under strict slope dominance.

When f has strictly larger slope than g at a non-critical point x, some
adjacent point z satisfies both strict inequalities

    f(x) > f(z)    and    (f - g)(x) > (f - g)(z),

namely any point realizing the steepest descent quotient of f at x.
Iterating such steps must reach a critical point of f within n steps on
an n-point space, because f strictly decreases along the way and no
point can repeat. This module makes the step and the path executable,
with a deterministic selection rule, and provides a checker for the
strict comparison inequality (f - g)(x) > comparison_floor(x) that the
paths certify.

A step reads x's CSR slice once, as lists of Python floats, and takes
its quotients in Python: float subtraction and division round as
np.float64 does and overflow to +-inf without a warning, so no
`np.errstate` is needed and the results are those of the np.float64
loop it replaced (`testing.reference_descent_step`), bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import CriticalSet, sublevel_floor
from .errors import PointIsCritical, SlopeDominanceViolated, StepLimitExceeded
from .slope import (
    OVERFLOW_CAP,
    ScalarField,
    _slope_fields,
    check_cap,
    require_bound,
)
from .space import MetricSpaceGraph, PointId, check_count


@dataclass(frozen=True)
class DescentPath:
    """A strictly decreasing walk ending at a critical point.

    Both `f_values` and `diff_values` (the values of f - g) decrease
    strictly along `points`, which therefore never repeat. A path from
    `descent_path` always has `terminal_critical` True.
    """

    points: tuple[int, ...]
    f_values: tuple[float, ...]
    diff_values: tuple[float, ...]
    terminal_critical: bool

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class StrictComparisonReport:
    """Outcome of checking (f - g)(x) > floor(x) at every non-critical x.

    When the dominance precondition fails, `dominance_ok` is False, the
    witness records the offending point, and the comparison itself is
    not asserted (`comparison_holds` is None).
    """

    dominance_ok: bool
    dominance_witness: int | None
    checked: int
    comparison_holds: bool | None
    violation_point: int | None
    violation_floor: float | None


def descent_step(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
                 x: PointId, crit: CriticalSet,
                 cap: float = OVERFLOW_CAP) -> int:
    """One descent step from a non-critical point x.

    Requires strictly larger slope of f than of g at x (checked here).
    Among adjacent points satisfying both strict inequalities, returns
    the one maximizing the descent quotient (f(x) - f(z)) / d(x, z),
    ties broken by smallest point id. If none qualifies (dominance held
    only within rounding), the step stalls: SlopeDominanceViolated.
    """
    require_bound(space, f, g, crit)
    space.check_point(x)
    if crit.mask[x]:
        raise PointIsCritical(f"point {x} is critical (tol={crit.tol})")
    return _step(space, f.values, g.values, x, check_cap(cap))


def _step(space: MetricSpaceGraph, fv: np.ndarray, gv: np.ndarray, x: int,
          cap: float) -> int:
    """`descent_step`, its raises included, at the non-critical point x of checked inputs.

    Both slopes and the step come from one read of x's CSR slice, as
    lists of Python floats: their subtraction and division round as
    np.float64 does and overflow to +-inf without a warning, so the
    slopes are bitwise those of `local_slope`.
    """
    a, b = space.indptr[x], space.indptr[x + 1]
    nbrs = space.dst[a:b]
    fx, gx = float(fv[x]), float(gv[x])
    diff_x = fx - gx
    slope_f = slope_g = 0.0
    best: int | None = None
    best_q = -1.0
    for z, d, fz, gz in zip(nbrs.tolist(), space.w[a:b].tolist(),
                            fv[nbrs].tolist(), gv[nbrs].tolist()):
        drop = fx - fz
        if drop > 0.0:
            q = drop / d
            if q > slope_f:
                slope_f = q
            if diff_x > fz - gz and (
                    q > best_q or (q == best_q and z < best)):
                best = z
                best_q = q
        drop = gx - gz
        if drop > 0.0:
            q = drop / d
            if q > slope_g:
                slope_g = q
    if slope_f > cap:
        slope_f = math.inf
    if slope_g > cap:
        slope_g = math.inf
    if not slope_f > slope_g:
        raise SlopeDominanceViolated(
            f"at point {x}: slope_f={slope_f} <= slope_g={slope_g}")
    if best is None:
        raise SlopeDominanceViolated(
            f"descent stalled at point {x}: no adjacent point satisfies both "
            f"strict decreases (slope_f={slope_f}, slope_g={slope_g})")
    return best


def descent_path(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
                 x0: PointId, crit: CriticalSet,
                 max_steps: int | None = None,
                 cap: float = OVERFLOW_CAP) -> DescentPath:
    """Iterate descent steps from x0 until a critical point is reached.

    `max_steps` defaults to the point count, which always suffices when
    the dominance precondition holds: strict decrease of f forbids
    revisits, so a path visits at most n distinct points. Exceeding the
    budget therefore raises StepLimitExceeded as a tolerance alarm. A
    budget must be an integer >= 0 (InvalidCount). The inputs are
    checked once, not per step.
    """
    require_bound(space, f, g, crit)
    space.check_point(x0)
    max_steps = space.n if max_steps is None else check_count(max_steps, "max_steps", 0)
    cap = check_cap(cap)
    fv, gv = f.values, g.values
    points = [int(x0)]
    f_vals = [float(fv[x0])]
    # Python float subtraction overflows to +-inf without a warning.
    diff_vals = [float(fv[x0]) - float(gv[x0])]
    current = int(x0)
    while not crit.mask[current]:
        if len(points) - 1 >= max_steps:
            raise StepLimitExceeded(
                f"no critical point within {max_steps} steps from {x0}")
        current = _step(space, fv, gv, current, cap)
        points.append(current)
        f_vals.append(float(fv[current]))
        diff_vals.append(float(fv[current]) - float(gv[current]))
    return DescentPath(points=tuple(points), f_values=tuple(f_vals),
                       diff_values=tuple(diff_vals), terminal_critical=True)


def verify_strict_comparison(space: MetricSpaceGraph, f: ScalarField,
                             g: ScalarField, crit: CriticalSet,
                             cap: float = OVERFLOW_CAP) -> StrictComparisonReport:
    """Check (f - g)(x) > comparison_floor(x) at every non-critical x.

    All floors come from one `sublevel_floor` pass. First verifies the
    dominance precondition (slope of f strictly above slope of g off the
    critical set); if it fails anywhere the report flags the first
    offending point and skips the comparison. Violations of the
    comparison itself are reported as data, not raised.
    """
    require_bound(space, f, g, crit)
    non_critical = ~crit.mask
    sf, sg = _slope_fields(space, check_cap(cap), f, g)
    offending = (non_critical & ~(sf.values > sg.values)).nonzero()[0]
    if offending.size:
        return StrictComparisonReport(
            dominance_ok=False, dominance_witness=int(offending[0]),
            checked=0, comparison_holds=None,
            violation_point=None, violation_floor=None)
    xs, ids = non_critical.nonzero()[0], (~non_critical).nonzero()[0]
    with np.errstate(over="ignore"):
        floor, found = sublevel_floor(
            f.values[ids], f.values[ids] - g.values[ids], f.values[xs])
        bad = (~(f.values[xs] - g.values[xs] > floor)).nonzero()[0]
    if bad.size:
        k = int(bad[0])
        return StrictComparisonReport(
            dominance_ok=True, dominance_witness=None, checked=k + 1,
            comparison_holds=False, violation_point=int(xs[k]),
            violation_floor=float(floor[k]) if found[k] else None)
    return StrictComparisonReport(
        dominance_ok=True, dominance_witness=None, checked=int(xs.size),
        comparison_holds=True, violation_point=None, violation_floor=None)

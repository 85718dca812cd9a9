"""Closed-form 1-D examples with known slope behavior.

Three pairs of functions, each a classic stress test for slope-based
comparison of functions:

  * arctan pair: f = arctan, g = -arctan. Both have slope 1/(1+t^2),
    strictly positive everywhere, so on the real line neither has any
    critical point and the slope alone cannot tell them apart.
  * square-sine pair: f glues (x + pi/2)^2 - 1, sin x, (x - pi/2)^2 + 1
    at the junctions -pi/2 and +pi/2; g(x) = f(-x). Their common slope
    is cos x between the junctions and 2(|x| - pi/2) outside, vanishing
    exactly at the two junctions, where g - f takes the two different
    values +2 and -2.
  * staircase pair: f = c_k + t and g = 2 c_k + t for the level-k
    uniform approximant c_k of the Cantor staircase. On stair segments
    the two slopes are 1 + (3/2)^k and 1 + 2 (3/2)^k, so the fields
    disagree and both blow up with k; on plateaus both slopes are 1.

The `emit_figure_data` helper samples a pair on a uniform grid and
streams columns t, f, g, analytic slope of f, and discrete slope of f.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, UnknownFigure
from .slope import OVERFLOW_CAP, ScalarField, slope_field
from .space import check_count, check_real, sample_interval

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class AnalyticFunction1D:
    """A named 1-D function with a closed-form slope."""

    name: str
    value: object            # Callable[[float], float]
    analytic_slope: object   # Callable[[float], float]


def _arctan_slope(t: float) -> float:
    return 1.0 / (t * t + 1.0)


def arctan_pair() -> tuple[AnalyticFunction1D, AnalyticFunction1D]:
    """f = arctan and g = -arctan on the real line.

    Both slopes are 1/(t^2 + 1): identical, finite, and never zero.
    """
    f = AnalyticFunction1D("arctan", math.atan, _arctan_slope)
    g = AnalyticFunction1D("neg-arctan", lambda t: -math.atan(t), _arctan_slope)
    return f, g


def _square_sine_value(x: float) -> float:
    if x < -HALF_PI:
        return (x + HALF_PI) ** 2 - 1.0
    if x > HALF_PI:
        return (x - HALF_PI) ** 2 + 1.0
    return math.sin(x)


def _square_sine_slope(x: float) -> float:
    if -HALF_PI <= x <= HALF_PI:
        return math.cos(x)
    return 2.0 * (abs(x) - HALF_PI)


def square_sine_pair() -> tuple[AnalyticFunction1D, AnalyticFunction1D]:
    """The mirrored piecewise pair: parabolas glued to a sine wave.

    g(x) = f(-x); the common slope is even in x and vanishes exactly at
    the junctions x = -pi/2 (the minimum of f) and x = +pi/2 (the flat
    ascent of f), where g - f equals +2 and -2 respectively.
    """
    f = AnalyticFunction1D("square-sine", _square_sine_value, _square_sine_slope)
    g = AnalyticFunction1D("square-sine-mirrored",
                           lambda x: _square_sine_value(-x), _square_sine_slope)
    return f, g


def cantor_approx(level: int, t: float) -> float:
    """Level-k uniform approximant of the Cantor staircase on [0, 1].

    c_0(t) = t, and each level maps the left third through t -> 3t at
    half height, holds 1/2 on the middle third, and mirrors on the
    right third. Stair segments of c_k have width 3^-k, rise 2^-k, and
    hence steepness (3/2)^k. The level must be an integer >= 0, and t a
    number in [0, 1] (`check_real`: not a bool or a string).
    """
    level = check_count(level, "level", 0)
    t = check_real(t, OutOfDomain, "t", "must be a finite number")
    if not 0.0 <= t <= 1.0:
        raise OutOfDomain(f"t={t} outside [0, 1]")
    return _cantor(level, t)


def _cantor(level: int, t: float) -> float:
    """`cantor_approx` of a checked level at a float t in [0, 1], unchecked."""
    base = 0.0
    scale = 1.0
    for _ in range(level):
        if t < 1.0 / 3.0:
            t = 3.0 * t
            scale *= 0.5
        elif t > 2.0 / 3.0:
            t = 3.0 * t - 2.0
            base += 0.5 * scale
            scale *= 0.5
        else:
            return base + 0.5 * scale
    return base + scale * t


def stair_segment_is_steep(level: int, index: int) -> bool:
    """Whether triadic interval `index` (of 3^level) is a stair segment.

    Plateaus are exactly the intervals whose base-3 index contains the
    digit 1 somewhere in its `level` digits.
    """
    for _ in range(int(level)):
        if index % 3 == 1:
            return False
        index //= 3
    return True


def _staircase_left_steepness(level: int, t: float) -> float:
    """Steepness of the level-k staircase just left of t, for t > 0."""
    m = 3 ** int(level)
    # tolerate grid coordinates that land a few ulps past a breakpoint
    j = math.ceil(t * m - 1e-9) - 1
    j = min(max(j, 0), m - 1)
    return 1.5 ** level if stair_segment_is_steep(level, j) else 0.0


def cantor_pair(level: int) -> tuple[AnalyticFunction1D, AnalyticFunction1D]:
    """f = c_k + t and g = 2 c_k + t on [0, 1], for the level-k approximant.

    Both are strictly increasing, so the slope at t is the left
    steepness plus 1 (and 0 at t = 0, where there is nothing below).
    The limiting staircase itself has slope in {1, +inf} on (0, 1] and
    slope 0 at t = 0; the approximants make the blow-up explicit as
    (3/2)^k across refinement levels. The level is checked once, here;
    the values, like the slopes, then take a t in [0, 1] unchecked.
    """
    level = check_count(level, "level", 0)

    def f_val(t: float) -> float:
        return _cantor(level, t) + t

    def g_val(t: float) -> float:
        return 2.0 * _cantor(level, t) + t

    def f_slope(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return 1.0 + _staircase_left_steepness(level, t)

    def g_slope(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return 1.0 + 2.0 * _staircase_left_steepness(level, t)

    f = AnalyticFunction1D(f"staircase-plus-t-level{level}", f_val, f_slope)
    g = AnalyticFunction1D(f"double-staircase-plus-t-level{level}", g_val, g_slope)
    return f, g


FIGURE_TAGS = ("fig1", "fig2", "fig3")

FIGURE_COLUMNS = ("t", "f", "g", "slope_f_analytic", "slope_f_discrete")


def emit_figure_data(which: str, n: int | None = None, level: int = 8,
                     cap: float = OVERFLOW_CAP):
    """Grid samples behind the three gallery figures.

    fig1: arctan pair on [-5, 5] (default n=1001).
    fig2: square-sine pair on [-pi, pi] (default n=1005, which puts the
          junctions exactly on the grid).
    fig3: staircase pair on [0, 1] at `level` (default n=3^level + 1,
          aligned with the triadic breakpoints).

    Returns (header, rows) with columns t, f, g, slope_f_analytic,
    slope_f_discrete; output is deterministic for fixed parameters.
    """
    if which == "fig1":
        fn, gn = arctan_pair()
        a, b = -5.0, 5.0
        if n is None:
            n = 1001
    elif which == "fig2":
        fn, gn = square_sine_pair()
        a, b = -math.pi, math.pi
        if n is None:
            n = 1005
    elif which == "fig3":
        fn, gn = cantor_pair(level)
        a, b = 0.0, 1.0
        if n is None:
            n = 3 ** int(level) + 1
    else:
        raise UnknownFigure(f"unknown figure tag {which!r}; "
                            f"expected one of {FIGURE_TAGS}")
    grid = sample_interval(a, b, n)
    ts = grid.coordinates.tolist()
    f_vals = [fn.value(t) for t in ts]
    g_vals = [gn.value(t) for t in ts]
    analytic = [fn.analytic_slope(t) for t in ts]
    discrete = slope_field(grid, ScalarField(grid, np.array(f_vals)), cap=cap)
    return FIGURE_COLUMNS, list(zip(ts, f_vals, g_vals, analytic,
                                    discrete.values.tolist()))

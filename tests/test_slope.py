import math
import random

import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    ScalarField,
    SlopeField,
    build_graph,
    delta_slope_profile,
    local_slope,
    sample_interval,
    scale_field,
    slope_field,
)
from slopekit.errors import (
    EmptyDeltaList,
    InvalidDecreasingList,
    FieldSpaceMismatch,
    NonFiniteFieldValue,
    NonPositiveScale,
)
from slopekit.gallery import cantor_approx
from slopekit.testing import random_connected_graph, random_dyadic_field


def brute_force_slopes(space, f):
    """Independent double loop over the raw edge list."""
    best = [0.0] * space.n
    for u, v, w in space.edges:
        best[u] = max(best[u], (f.values[u] - f.values[v]) / w)
        best[v] = max(best[v], (f.values[v] - f.values[u]) / w)
    return np.maximum(best, 0.0)


def test_isolated_point_has_zero_slope():
    space = build_graph([(0, 1, 1.0)], n=3)
    f = path_field(space, [5.0, -3.0, 42.0])
    sv = local_slope(space, f, 2)
    assert sv == 0.0 and type(sv) is float


def test_constant_field_zero_everywhere():
    rng = random.Random(1)
    for _ in range(10):
        space = random_connected_graph(rng, n_max=15)
        f = ScalarField(space, np.full(space.n, 3.25))
        sf = slope_field(space, f)
        assert np.all(sf.values == 0.0)
        assert not sf.any_infinite()


def test_three_point_path_hand_enumeration():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    sf = slope_field(space, f)
    assert list(sf.values) == [1.0, 1.0, 0.0]


def test_arctan_grid_matches_closed_form():
    grid = sample_interval(-5.0, 5.0, 2001)
    ts = grid.coordinates
    f = ScalarField(grid, np.arctan(ts))
    sf = slope_field(grid, f)
    expected = 1.0 / (1.0 + ts ** 2)
    err = np.abs(sf.values[1:-1] - expected[1:-1])
    assert float(err.max()) <= 5e-3


def test_zero_field():
    space = unit_path(4)
    sf = slope_field(space, path_field(space, [0.0] * 4))
    assert np.all(sf.values == 0.0)


def test_random_graph_matches_brute_force():
    rng = random.Random(5)
    for _ in range(50):
        space = random_connected_graph(rng, n_max=30)
        f = random_dyadic_field(rng, space)
        sf = slope_field(space, f)
        oracle = brute_force_slopes(space, f)
        assert np.array_equal(sf.values, oracle)


def test_order_independence():
    rng = random.Random(9)
    space = random_connected_graph(rng, n_max=30)
    f = random_dyadic_field(rng, space)
    once = slope_field(space, f).values
    again = slope_field(space, f).values
    # evaluate in a shuffled order and place results back
    order = list(range(space.n))
    rng.shuffle(order)
    shuffled = np.zeros(space.n)
    for x in order:
        shuffled[x] = local_slope(space, f, x)
    assert np.array_equal(once, again)
    assert np.array_equal(once, shuffled)


def test_homogeneity_dyadic_fields():
    rng = random.Random(13)
    for _ in range(20):
        space = random_connected_graph(rng, n_max=25)
        f = random_dyadic_field(rng, space)
        base = slope_field(space, f)
        for lam in (2.0, 1.1, 0.25, 3.7):
            scaled = slope_field(space, scale_field(f, lam))
            for x in range(space.n):
                expected = lam * base.values[x]
                if expected == 0.0:
                    assert scaled.values[x] == 0.0
                else:
                    assert abs(scaled.values[x] - expected) <= 1e-12 * expected


def test_homogeneity_arctan_grid_scaling():
    grid = sample_interval(-5.0, 5.0, 10001)
    f = ScalarField(grid, np.arctan(grid.coordinates))
    base = slope_field(grid, f)
    scaled = slope_field(grid, scale_field(f, 1.1))
    err = np.abs(scaled.values - 1.1 * base.values)
    assert float(err.max()) <= 1e-12 * float((1.1 * base.values).max())


def test_infinite_maps_to_infinite_under_scaling():
    space = build_graph([(0, 1, 1e-13)])
    f = path_field(space, [1.0, 0.0])
    assert local_slope(space, f, 0) == math.inf
    assert local_slope(space, scale_field(f, 2.0), 0) == math.inf
    sf = slope_field(space, f)
    assert sf[0] == math.inf and type(sf[0]) is float and sf.infinite[0]


def test_overflow_cap_is_configurable():
    space = build_graph([(0, 1, 1.0)])
    f = path_field(space, [10.0, 0.0])
    assert local_slope(space, f, 0) == 10.0
    assert local_slope(space, f, 0, cap=5.0) == math.inf


def test_translation_invariance_exact():
    rng = random.Random(17)
    for _ in range(20):
        space = random_connected_graph(rng, n_max=25)
        f = random_dyadic_field(rng, space)
        c = rng.randint(-4096, 4096) / 1024
        shifted = ScalarField(space, f.values + c)
        assert np.array_equal(slope_field(space, f).values,
                              slope_field(space, shifted).values)


def test_monotone_contraction_bound():
    # g = phi(f) with phi nondecreasing and 1-Lipschitz piecewise linear
    rng = random.Random(23)
    for _ in range(30):
        space = random_connected_graph(rng, n_max=25)
        f = random_dyadic_field(rng, space)
        lo, hi = float(f.values.min()) - 1, float(f.values.max()) + 1
        knots = np.sort(np.array([rng.uniform(lo, hi) for _ in range(6)]))
        slopes = np.array([rng.uniform(0.0, 1.0) for _ in range(5)])
        knot_vals = np.concatenate(
            [[0.0], np.cumsum(slopes * np.diff(knots))])
        g = ScalarField(space, np.interp(f.values, knots, knot_vals))
        sf = slope_field(space, f)
        sg = slope_field(space, g)
        assert np.all(sg.values <= sf.values + 1e-12)


def test_scale_field_identity_and_hand_example():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    same = scale_field(f, 1.0)
    assert np.array_equal(same.values, f.values)
    doubled = slope_field(space, scale_field(f, 2.0))
    assert list(doubled.values) == [2.0, 2.0, 0.0]


def test_scale_field_rejects_nonpositive():
    space = unit_path(2)
    f = path_field(space, [0.0, 1.0])
    with pytest.raises(NonPositiveScale):
        scale_field(f, 0.0)
    with pytest.raises(NonPositiveScale):
        scale_field(f, -1.0)


def test_field_validation():
    space = unit_path(3)
    with pytest.raises(NonFiniteFieldValue):
        path_field(space, [0.0, math.nan, 1.0])
    with pytest.raises(NonFiniteFieldValue):
        path_field(space, [0.0, math.inf, 1.0])
    with pytest.raises(FieldSpaceMismatch):
        path_field(space, [0.0, 1.0])


def test_slope_field_mask_must_cover_every_point():
    space = unit_path(3)
    SlopeField(space, [1.0, 0.0, 0.0], [False, False, False])
    for mask in ([False, False], [False, False, False, False]):
        with pytest.raises(FieldSpaceMismatch,
                           match="slope field length differs from point count"):
            SlopeField(space, [1.0, 0.0, 0.0], mask)


def test_field_space_binding_enforced():
    a = unit_path(3)
    b = unit_path(3)
    f = path_field(a, [0.0, 1.0, 2.0])
    with pytest.raises(FieldSpaceMismatch):
        slope_field(b, f)


def test_delta_profile_nested_sup_monotone():
    grid = sample_interval(-1.0, 1.0, 65)
    f = ScalarField(grid, grid.coordinates ** 2)
    deltas = [0.5, 0.25, 0.125, 0.0625]
    entries = delta_slope_profile(grid, f, 48, deltas)
    vals = [e.slope for e in entries]
    for a, b in zip(vals, vals[1:]):
        assert a >= b  # sup over nested balls shrinks with the radius


def test_delta_profile_absolute_value():
    # |t| around a point right of 0: the quotient toward any 0 <= y < t
    # is exactly 1 and never larger elsewhere
    grid = sample_interval(-1.0, 1.0, 65)  # dyadic grid, h = 1/32
    f = ScalarField(grid, np.abs(grid.coordinates))
    x = 48  # t = 0.5
    entries = delta_slope_profile(grid, f, x, [0.5, 0.25, 0.125, 1 / 32])
    for e in entries:
        assert not e.empty_ball
        assert e.slope == 1.0


def test_delta_profile_cantor_stair_point():
    k = 4
    n = 3 ** k + 1
    grid = sample_interval(0.0, 1.0, n)
    ts = grid.coordinates
    f = ScalarField(grid, np.array([cantor_approx(k, t) + t for t in ts]))
    x = 1  # right end of the first stair segment
    deltas = [3.0 ** (-j) for j in range(1, k + 1)]
    entries = delta_slope_profile(grid, f, x, deltas)
    # brute-force oracle over the ball
    dist = np.abs(ts - ts[x])
    for e in entries:
        inside = (dist > 0) & (dist <= e.delta)
        oracle = float(np.max(np.maximum(
            f.values[x] - f.values[inside], 0.0) / dist[inside]))
        assert abs(e.slope - oracle) <= 1e-12 * max(1.0, oracle)
    assert entries[-1].slope >= 1.5 ** k


def test_delta_profile_empty_ball_flag():
    grid = sample_interval(0.0, 1.0, 11)
    f = ScalarField(grid, grid.coordinates)
    entries = delta_slope_profile(grid, f, 5, [0.2, 0.01])
    assert not entries[0].empty_ball
    assert entries[1].empty_ball
    assert entries[1].slope == 0.0


def test_delta_profile_errors():
    grid = sample_interval(0.0, 1.0, 11)
    f = ScalarField(grid, grid.coordinates)
    with pytest.raises(EmptyDeltaList):
        delta_slope_profile(grid, f, 5, [])
    with pytest.raises(InvalidDecreasingList):
        delta_slope_profile(grid, f, 5, [0.1, 0.2])
    with pytest.raises(InvalidDecreasingList):
        delta_slope_profile(grid, f, 5, [0.2, 0.0])

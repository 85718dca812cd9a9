import random

import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    NO_CRITICAL_BELOW,
    CriticalSet,
    NoCriticalBelow,
    ScalarField,
    comparison_floor,
    critical_set,
    grid_critical_tol,
    sample_interval,
    slope_field,
)
from slopekit.errors import FieldSpaceMismatch, NegativeTolerance
from slopekit.gallery import arctan_pair
from slopekit.testing import random_connected_graph, random_dyadic_field


def test_constant_field_all_critical_at_zero_tol():
    space = unit_path(5)
    sf = slope_field(space, path_field(space, [2.0] * 5))
    crit = critical_set(sf, tol=0.0)
    assert crit.sorted_members() == (0, 1, 2, 3, 4)


def test_arctan_has_no_analytic_critical_point():
    f, g = arctan_pair()
    ts = np.linspace(-50.0, 50.0, 2001)
    slopes = np.array([f.analytic_slope(t) for t in ts])
    assert np.all(slopes > 0.0)
    assert np.array_equal(slopes, [g.analytic_slope(t) for t in ts])


def test_three_point_path_critical_set():
    space = unit_path(3)
    sf = slope_field(space, path_field(space, [2.0, 1.0, 0.0]))
    assert critical_set(sf, 0.0).sorted_members() == (2,)


def test_negative_tolerance_rejected():
    space = unit_path(3)
    sf = slope_field(space, path_field(space, [2.0, 1.0, 0.0]))
    with pytest.raises(NegativeTolerance):
        critical_set(sf, -1e-9)


def test_infinite_slopes_never_critical():
    from slopekit import build_graph
    space = build_graph([(0, 1, 1e-13), (1, 2, 1.0)])
    f = path_field(space, [1.0, 0.0, 0.5])
    sf = slope_field(space, f)
    assert sf.any_infinite()
    crit = critical_set(sf, tol=1e20)  # huge tol still excludes the inf slope
    assert not crit.mask[0]


def test_crit_monotone_in_tol():
    rng = random.Random(2)
    for _ in range(20):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        sf = slope_field(space, f)
        t1 = rng.uniform(0, 1)
        t2 = t1 + rng.uniform(0, 1)
        assert critical_set(sf, t1).members <= critical_set(sf, t2).members


def test_crit_nonempty_on_finite_spaces():
    rng = random.Random(4)
    for _ in range(50):
        space = random_connected_graph(rng, n_max=25)
        f = random_dyadic_field(rng, space)
        crit = critical_set(slope_field(space, f), tol=0.0)
        assert np.count_nonzero(crit.mask) >= 1
        # a global minimizer always qualifies
        assert crit.mask[int(np.argmin(f.values))]


def test_comparison_floor_singleton_and_equal_fields():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    crit = critical_set(slope_field(space, f), 0.0)
    g = path_field(space, [0.0, 0.0, 5.0])
    assert comparison_floor(space, f, g, 0, crit) == -5.0
    same = comparison_floor(space, f, f, 0, crit)
    assert same == 0.0


def test_comparison_floor_hand_example():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    g = path_field(space, [0.0, 0.0, 5.0])
    crit = critical_set(slope_field(space, f), 0.0)
    m = comparison_floor(space, f, g, 0, crit)
    assert m == (0.0 - 5.0)


def test_comparison_floor_no_critical_below():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    g = path_field(space, [0.0, 0.0, 0.0])
    # hand a critical set that sits above x; only reachable with a set
    # not derived from f
    fake = CriticalSet(space=space, mask=np.array([True, False, False]), tol=0.0)
    out = comparison_floor(space, f, g, 2, fake)
    assert isinstance(out, NoCriticalBelow)
    assert out is NO_CRITICAL_BELOW


def test_grid_critical_tol_scales_with_h():
    assert grid_critical_tol(1e-3) == 2e-3
    assert grid_critical_tol(1e-3, lipschitz=3.0) == 6e-3


def test_grid_tolerance_finds_flat_junctions():
    # sampled smooth data needs a positive tolerance: the minimum and the
    # flat ascent of the square-sine pair are only O(h)-critical
    import math

    from slopekit.gallery import square_sine_pair

    n = 1005
    grid = sample_interval(-math.pi, math.pi, n)
    h = grid.edges[0][2]
    f_an, _ = square_sine_pair()
    f = ScalarField(grid, np.array([f_an.value(t) for t in grid.coordinates]))
    sf = slope_field(grid, f)
    exact = critical_set(sf, 0.0)
    loose = critical_set(sf, grid_critical_tol(h))
    ts = grid.coordinates
    near_junction = {int(i) for i in range(n)
                     if min(abs(ts[i] - math.pi / 2),
                            abs(ts[i] + math.pi / 2)) <= 3 * h}
    assert loose.members <= near_junction
    # the flat ascent at +pi/2 is invisible at tol 0 but caught at O(h)
    assert any(abs(ts[i] - math.pi / 2) <= h for i in loose.members)
    assert exact.members <= loose.members


def test_critical_set_is_a_read_only_copy_of_its_mask():
    space = unit_path(3)
    sf = slope_field(space, path_field(space, [2.0, 1.0, 0.0]))
    crit = critical_set(sf, 0.0)
    assert crit.mask.tolist() == [False, False, True]
    assert crit.members == frozenset({2}) and crit.sorted_members() == (2,)
    with pytest.raises(ValueError):
        crit.mask[0] = True
    source = np.array([True, False, True])
    mine = CriticalSet(space, source, 0.0)
    source[1] = True
    assert mine.mask.tolist() == [True, False, True]
    assert mine.sorted_members() == (0, 2)


@pytest.mark.parametrize("mask", [frozenset({0, 2}), [0, 2], np.array([1, 0, 1]),
                                  np.zeros((3, 1), dtype=bool), np.bool_(True),
                                  [0.5, 0, 0], ["0", "0", "0"], [None, 0, 0]])
def test_critical_set_wants_a_1d_boolean_mask(mask):
    # point ids, 0/1 integers, 2-D or scalar masks, and entries that are
    # not bools (the flag rule of `space.check_flags`) are not read as
    # membership
    with pytest.raises(FieldSpaceMismatch, match="1-D boolean mask"):
        CriticalSet(unit_path(3), mask, 0.0)

import random

import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    NoStep,
    ScalarField,
    critical_set,
    descent_path,
    descent_step,
    local_slope,
    neighbors,
    slope_field,
    verify_strict_comparison,
)
from slopekit.errors import (
    PointIsCritical,
    SlopeDominanceViolated,
    StepLimitExceeded,
)
from slopekit.testing import random_connected_graph, random_dyadic_field


def make_crit(space, f):
    return critical_set(slope_field(space, f), tol=0.0)


def test_descent_step_hand_example():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    g = path_field(space, [1.0, 0.6, 0.5])
    crit = make_crit(space, f)
    z = descent_step(space, f, g, 0, crit)
    assert z == 1
    assert f[0] > f[1]
    assert (f[0] - g[0]) > (f[1] - g[1])


def test_level_difference_is_no_step():
    # f - g is 2.7 at both points, yet in floats f drops by 0.5 and g by
    # 0.49999999999999994, so the slope of f is above that of g at 0: a
    # neighbour where f - g only ties is no step.
    space = unit_path(2)
    f = path_field(space, [2.5, 2.0])
    g = path_field(space, [-0.2, -0.7])
    step = descent_step(space, f, g, 0, make_crit(space, f))
    assert isinstance(step, NoStep)
    assert step.slope_f > step.slope_g


def test_descent_step_from_critical_point_rejected():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    g = path_field(space, [1.0, 0.5, 0.0])
    crit = make_crit(space, f)
    with pytest.raises(PointIsCritical):
        descent_step(space, f, g, 2, crit)


def test_descent_step_requires_dominance():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    g = path_field(space, [4.0, 2.0, 0.0])  # slope_g = 2 slope_f
    crit = make_crit(space, f)
    with pytest.raises(SlopeDominanceViolated):
        descent_step(space, f, g, 0, crit)


def test_descent_step_exists_for_contracted_fields():
    # g = c f with 0 < c < 1: dominance holds at every non-critical point
    # and a brute-force scan confirms the returned step and its rule
    rng = random.Random(31)
    for _ in range(200):
        space = random_connected_graph(rng, n_max=25)
        f = random_dyadic_field(rng, space)
        c = rng.uniform(0.05, 0.95)
        g = ScalarField(space, c * f.values)
        crit = make_crit(space, f)
        for x in range(space.n):
            if crit.mask[x]:
                continue
            z = descent_step(space, f, g, x, crit)
            assert not isinstance(z, NoStep)
            assert f.values[x] > f.values[z]
            assert (f.values[x] - g.values[x]) > (f.values[z] - g.values[z])
            # selection rule: steepest quotient, ties to the smallest id
            best = None
            best_q = -1.0
            for y, d in neighbors(space, x):
                if f.values[x] > f.values[y] and \
                        (f.values[x] - g.values[x]) > (f.values[y] - g.values[y]):
                    q = (f.values[x] - f.values[y]) / d
                    if q > best_q or (q == best_q and y < best):
                        best, best_q = y, q
            assert z == best


def test_descent_step_dominance_matches_local_slope():
    # descent_step computes both slopes in its own pass over x's edges;
    # local_slope is the definition it must agree with, cap included.
    rng = random.Random(37)
    for _ in range(150):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        g = random_dyadic_field(rng, space)
        cap = rng.choice([1e12, 2.0, 0.5])
        crit = critical_set(slope_field(space, f, cap=cap), tol=0.0)
        for x in range(space.n):
            if crit.mask[x]:
                continue
            sf = local_slope(space, f, x, cap=cap)
            sg = local_slope(space, g, x, cap=cap)
            if sf > sg:
                step = descent_step(space, f, g, x, crit, cap=cap)
                if isinstance(step, NoStep):
                    assert (step.slope_f, step.slope_g) == (sf, sg)
                continue
            with pytest.raises(SlopeDominanceViolated) as info:
                descent_step(space, f, g, x, crit, cap=cap)
            assert str(info.value) == f"at point {x}: slope_f={sf} <= slope_g={sg}"


def test_descent_path_single_point_when_start_critical():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    g = path_field(space, [1.0, 0.5, 0.0])
    crit = make_crit(space, f)
    path = descent_path(space, f, g, 2, crit)
    assert path.points == (2,)
    assert path.steps == 0
    assert path.terminal_critical


def test_descent_path_four_point_chain():
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    g = path_field(space, [0.0, 0.0, 0.0, 0.0])
    crit = make_crit(space, f)
    path = descent_path(space, f, g, 0, crit)
    assert path.points == (0, 1, 2, 3)
    assert len(path) == 4
    assert path.terminal_critical
    assert path.f_values == (3.0, 2.0, 1.0, 0.0)


def test_descent_path_step_limit():
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    g = path_field(space, [0.0] * 4)
    crit = make_crit(space, f)
    with pytest.raises(StepLimitExceeded):
        descent_path(space, f, g, 0, crit, max_steps=1)


def test_descent_path_properties_random():
    rng = random.Random(37)
    for _ in range(100):
        space = random_connected_graph(rng, n_max=30)
        f = random_dyadic_field(rng, space)
        g = ScalarField(space, 0.5 * f.values)
        crit = make_crit(space, f)
        for x in range(space.n):
            if crit.mask[x]:
                continue
            path = descent_path(space, f, g, x, crit)
            assert path.terminal_critical
            assert crit.mask[path.points[-1]]
            assert len(path) <= space.n
            assert len(set(path.points)) == len(path.points)
            assert all(a > b for a, b in zip(path.f_values, path.f_values[1:]))
            assert all(a > b
                       for a, b in zip(path.diff_values, path.diff_values[1:]))


def test_verify_strict_comparison_flags_missing_dominance():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    g = ScalarField(space, f.values - 1.0)  # identical slopes
    crit = make_crit(space, f)
    report = verify_strict_comparison(space, f, g, crit)
    assert not report.dominance_ok
    assert report.dominance_witness is not None
    assert report.comparison_holds is None


def test_verify_strict_comparison_contraction_family():
    rng = random.Random(41)
    for _ in range(50):
        space = random_connected_graph(rng, n_max=25)
        f = random_dyadic_field(rng, space)
        g = ScalarField(space, 0.9 * f.values)
        crit = make_crit(space, f)
        report = verify_strict_comparison(space, f, g, crit)
        assert report.dominance_ok
        assert report.comparison_holds
        assert report.violation_point is None


def test_verify_strict_comparison_hand_example():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    g = path_field(space, [1.0, 0.6, 0.5])
    crit = make_crit(space, f)
    report = verify_strict_comparison(space, f, g, crit)
    assert report.dominance_ok
    assert report.comparison_holds
    assert report.checked == 2  # points 0 and 1
